"""Golden envelope hashes: "proof bytes unchanged" as a checked fact.

Every zoo mini is proven on ``seeded_inputs`` at the defaults (kzg, 10
columns, scale_bits 5) and its serialized envelope is pinned by
blake2b-16.  A refactor must leave this table alone; a change that moves
proof bytes on purpose (prover transcript, envelope format, layout)
updates it and says why in CHANGES.md.
"""

import hashlib

import pytest

from repro.model import get_model, seeded_inputs
from repro.runtime import prove_batch, prove_model

#: model -> (k, envelope bytes, blake2b-16 of the envelope): prove_model, seed 0.
SINGLE = {
    "diffusion": (11, 2888262, "c30e90be8acffd9a110480486bb730e0"),
    "dlrm": (9, 824489, "e9f065e1f74774aa0f8c3c912e219bfb"),
    "gpt2": (10, 2695625, "c761b7bda0f71b3cde056952816fa55d"),
    "mnist": (9, 1038854, "9aa745a9e3fc7bb95f2f82bdceeabda8"),
    "mobilenet": (11, 3282094, "5e151466f8ee819ed35db165a790a928"),
    "resnet18": (12, 6558893, "16cb43718b821cca7d35e160344559f4"),
    "twitter": (9, 1137776, "35ac219f7d08dab24767615ccd39b315"),
    "vgg16": (12, 6690070, "a6afd0ee9b3be806b4eb26f0f66fb724"),
}

#: model -> (k, blake2b-16 of the envelope): prove_batch of seeds 0 then 1.
BATCH_OF_TWO = {
    "diffusion": (12, "a9e25362a78a1ec256d87e8ab3a4d381"),
    "dlrm": (9, "c87e43ebfae6852a695ca9eadeebd513"),
    "gpt2": (11, "58fe4b5de052e240e258e25e827a6e56"),
    "mnist": (9, "e589dbf5ef9a03a95b23955bd7d00b0d"),
    "mobilenet": (12, "a592b70a53c53bb0d149790c71d0cb68"),
    "resnet18": (13, "7ae433f8db3bf98e5b30fb726d54e9c0"),
    "twitter": (9, "7334dc4a7705bb695caee83d8d353d9a"),
    "vgg16": (13, "241801decdd7bd2e81ccaac3e3180587"),
}


def envelope_hash(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


@pytest.mark.parametrize("name", sorted(SINGLE))
def test_prove_model_envelope_is_golden(name):
    spec = get_model(name, "mini")
    result = prove_model(spec, seeded_inputs(spec, 0))
    data = result.envelope_bytes()
    assert (result.k, len(data), envelope_hash(data)) == SINGLE[name]


@pytest.mark.parametrize("name", sorted(BATCH_OF_TWO))
def test_prove_batch_envelope_is_golden(name):
    spec = get_model(name, "mini")
    result = prove_batch(spec, [seeded_inputs(spec, 0),
                                seeded_inputs(spec, 1)])
    assert (result.k, envelope_hash(result.envelope_bytes())) \
        == BATCH_OF_TWO[name]
