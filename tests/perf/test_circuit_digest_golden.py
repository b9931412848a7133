"""Golden circuit digests: the proving-key cache key as a checked fact.

``circuit_digest`` names everything keygen reads (shape, gates, lookups,
fixed and selector grids, the copy list), and it is the key of both the
in-memory pk cache and ``DiskPKCache`` files.  A change to how synthesis
stores or writes the grid must leave every digest here alone, or cached
keys written by an older build stop matching.  A change that moves a
digest on purpose (a new layout, a new gate) updates the row and says
why in CHANGES.md.

Every digest moved once with weighted LogUp: a lookup's repr now names
its selector, and its inputs no longer multiply by it.  k did not move.

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
    ("dlrm", None): (9, "02f76e20f6f820d9ed3831bc63b3c8ff"
                        "8d962e72c0bb1338134a9c533e6313ad"),
    ("mnist", None): (9, "49d7802efb85067d369419b784015727"
                         "88ea9f0aa3f58021ddac2e4980734599"),
    ("twitter", None): (9, "1c17cc0f53b6354f26d6f393b7bba9f2"
                           "ce8472ab108d488ffb2ef7d3001181ad"),
    ("gpt2", None): (10, "a6c2177cff5081d34db841df618efbdf"
                         "89a7ccef8c952db2d704d8614cc15dd6"),
    ("mobilenet", None): (11, "71da35218aee1bdfdc18735b9a2007f9"
                              "319feafc83c929b8842194237efa2632"),
    ("resnet18", None): (12, "0bba47b11bd15f88b22fca5c4a3baa86"
                             "a44e3d912842f2cffaab46c9accb8baf"),
    ("mnist", 12): (12, "d6314c20018639091ab0e68e0d2c1fd4"
                        "1c90469a948b59ebb428c8c97490e144"),
    ("gpt2", 12): (12, "5a373b772ab361be6f973941ebb71ace"
                       "94e065aa4a0c7b4d489fc9292e3185b4"),
}


@pytest.mark.parametrize("model,k", sorted(GOLDEN, key=str))
def test_circuit_digest_is_pinned(model, k):
    spec = get_model(model, "mini")
    synth = synthesize_model(spec, seeded_inputs(spec, 0), k=k)
    synth.expose_outputs()
    builder = synth.builder
    assert (builder.k, circuit_digest(builder.cs, builder.asg, "kzg")) \
        == GOLDEN[model, k]
