"""Golden circuit digests: the proving-key cache key as a checked fact.

``circuit_digest`` names everything keygen reads (shape, gates, lookups,
fixed and selector grids, the copy list), and it is the key of both the
in-memory pk cache and ``DiskPKCache`` files.  A change to how synthesis
stores or writes the grid must leave every digest here alone, or cached
keys written by an older build stop matching.  A change that moves a
digest on purpose (a new layout, a new gate) updates the row and says
why in CHANGES.md.

The circuit is the one ``prove_model`` keys: ``synthesize_model`` at the
defaults (10 columns, scale_bits 5) plus the exposed outputs.  Advice
values are not hashed, so the input seed does not matter.
"""

import pytest

from repro.compiler import synthesize_model
from repro.model import get_model, seeded_inputs
from repro.perf.pkcache import circuit_digest

#: (model, forced k or None) -> (k, circuit_digest under "kzg").
GOLDEN = {
    ("dlrm", None): (9, "be38c578b23ac01114cd5944b0ff82ec"
                        "fa5ba5ac6247520cc4b27718b2d49cbf"),
    ("mnist", None): (9, "e9f163c109c9ed9f5de48f0fb5fc3ef8"
                         "a517072b1619005ead3322fb5711445d"),
    ("twitter", None): (9, "5942f3ea92f90b069eb8cc8e67ff6fe4"
                           "6f2120284daf82965337740eb7b7ea61"),
    ("gpt2", None): (10, "0b16c5e0acbd5d575f2a3dea06d108bd"
                         "bed0d3fb999acaa4980773cff5af8eda"),
    ("mobilenet", None): (11, "1d98f6d42e711a2ad0ba6e0b53837959"
                              "1ec66bb07dff3c382ec218de179ee24b"),
    ("resnet18", None): (12, "d49c0acaa1f7130e11edeca6f77e9cb8"
                             "c956f705f930f0ddeeed1c2c4f88cfe6"),
    ("mnist", 12): (12, "992e15f479478e7be6edc360231f1d85"
                        "54c2467d727bd216962056195a127f11"),
    ("gpt2", 12): (12, "23248bd744a85c29f473b04ee25ddaba"
                       "26e4a81a3741f14bcc60b36158ca2890"),
}


@pytest.mark.parametrize("model,k", sorted(GOLDEN, key=str))
def test_circuit_digest_is_pinned(model, k):
    spec = get_model(model, "mini")
    synth = synthesize_model(spec, seeded_inputs(spec, 0), k=k)
    synth.expose_outputs()
    builder = synth.builder
    assert (builder.k, circuit_digest(builder.cs, builder.asg, "kzg")) \
        == GOLDEN[model, k]
