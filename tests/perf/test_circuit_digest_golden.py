"""Golden circuit digests: the proving-key cache key as a checked fact.

``circuit_digest`` names everything keygen reads (shape, gates, lookups,
fixed and selector grids, the copy list), and it is the key of both the
in-memory pk cache and ``DiskPKCache`` files.  A change to how synthesis
stores or writes the grid must leave every digest here alone, or cached
keys written by an older build stop matching.  A change that moves a
digest on purpose (a new layout, a new gate) updates the row and says
why in CHANGES.md.

Every digest moved once with weighted LogUp: a lookup's repr now names
its selector, and its inputs no longer multiply by it.  Every digest
moved again when the lookup tables lost their zero default row: the
fixed grid below a table's entries repeats its first entry, and
``var_div`` pads a short row with ``1 / 0`` (new copies).  k did not
move either time.

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
    ("dlrm", None): (9, "6d3aedf3c8e1a2df027e72e5b7740bb6"
                        "63e0f2a7700a8f33d8533824edffb986"),
    ("mnist", None): (9, "01cfc1493582032117abd362745579d4"
                         "a0e738b562feff636ad36cb07a79112e"),
    ("twitter", None): (9, "092aed97d4c8b025dea4654c86ae0763"
                           "ab993935dc9d3c37220f8388a5db79f7"),
    ("gpt2", None): (10, "23b79fe8ddc8d19dd56031074b7a8a55"
                         "40e8aa073abc4aad31ec3fcc349f9ab1"),
    ("mobilenet", None): (11, "bad4b077de251680eb92066ca4824d52"
                              "212a5ec0cd2d36eb62de66058ba7b6d7"),
    ("resnet18", None): (12, "1831a30665013f9710ed88d9fa595b27"
                             "cb6f763fa8eafa8a20a9466bc0946f55"),
    ("mnist", 12): (12, "46b13ace14cdc0c8e0344a83b4c7f146"
                        "8c1ed489ad0d78781997bdc88bac118f"),
    ("gpt2", 12): (12, "711a47035e54bb483e8e3103e3563af3"
                       "1298cdf2e2e38d1d31546fa54af95fc7"),
}


@pytest.mark.parametrize("model,k", sorted(GOLDEN, key=str))
def test_circuit_digest_is_pinned(model, k):
    spec = get_model(model, "mini")
    synth = synthesize_model(spec, seeded_inputs(spec, 0), k=k)
    synth.expose_outputs()
    builder = synth.builder
    assert (builder.k, circuit_digest(builder.cs, builder.asg, "kzg")) \
        == GOLDEN[model, k]
