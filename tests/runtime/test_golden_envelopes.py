"""Golden envelope hashes: "proof bytes unchanged" as a checked fact.

Every zoo mini is proven on ``seeded_inputs`` at the defaults (kzg, 10
columns, scale_bits 5) and its serialized envelope is pinned by
blake2b-16.  A refactor must leave this table alone; a change that moves
proof bytes on purpose (prover transcript, envelope format, layout)
updates it and says why in CHANGES.md.

Last regenerated for envelope v2 (succinct proofs, scalars at field
width, constraint-binding vk hashes): k is unchanged on all 16 rows, the
envelopes are 5-26x smaller (dlrm 824 489 -> 159 023 bytes, vgg16
6 690 070 -> 254 620).

``OP_COUNTS`` pins, beside each single-proof hash, how much work the
prover did for it: every ``obs.stats`` counter of
``ProveResult.observed_counts`` but ``ntt_plan_hits``, which depends on
what the process transformed before (30 / 35 / 39 on three identical
dlrm proves in one process; the other ten repeat exactly, cold or warm
pk cache).  They are counts, not timings, so the gate is equality: a
change that adds an NTT, a commitment or a hash to a proof updates the
row and says why.

Both field-kernel tiers are held to the same tables: the compiled kernel
(when this box has a compiler) and, with the loader's handle nulled, the
numpy bodies a box without one runs.
"""

import hashlib

import pytest

from repro.field import native
from repro.model import get_model, seeded_inputs
from repro.obs.stats import FIELDS
from repro.perf.pkcache import GLOBAL_PK_CACHE
from repro.runtime import prove_batch, prove_model

#: model -> (k, envelope bytes, blake2b-16 of the envelope): prove_model, seed 0.
SINGLE = {
    "diffusion": (11, 209732, "9eaee462e41ccf9beeefdfa8810cb728"),
    "dlrm": (9, 159023, "2ad38d1418fb0b7a5673c91d0802e99b"),
    "gpt2": (10, 217283, "4a881e50c7df39792f52fe5b1c8bcd79"),
    "mnist": (9, 173000, "2374a8021da09395a00433e30895607b"),
    "mobilenet": (11, 215948, "11cdc3499723777d707c524d908c5127"),
    "resnet18": (12, 256175, "95a737d3021e0ed9b444409711ed5a2c"),
    "twitter": (9, 179994, "d627d039ca78ee68500b0ac9c17bc999"),
    "vgg16": (12, 254620, "ae333632381eebefa8acd79bd64706e6"),
}

#: model -> (k, blake2b-16 of the envelope): prove_batch of seeds 0 then 1.
BATCH_OF_TWO = {
    "diffusion": (12, "e09aaca378bb55050b2b4dd3b749c9ec"),
    "dlrm": (9, "9afbc0e401c30f1dc0b1f1fba19017bf"),
    "gpt2": (11, "585308f3484131cca12b722949b6a0a5"),
    "mnist": (9, "bd8c979a663bfaf959c0e6e015ce1002"),
    "mobilenet": (12, "b778a087bfc336c03819c4a4479ed3dc"),
    "resnet18": (13, "7271a0945320e5e69304c5f70845022d"),
    "twitter": (9, "c697856762fb88aade4f59fd1e32522e"),
    "vgg16": (13, "fa1fe8f7512d4ba64c5b38c97c8d7a6c"),
}

#: The counters pinned per proof: a new ``obs.stats`` field gets a column.
COUNTED = (
    "ntt_base", "ntt_extended", "commitments", "openings", "lookup_passes",
    "transcript_absorbs", "challenges", "merkle_leaf_hashes",
    "merkle_node_hashes", "sparsity_skips")
assert set(COUNTED) == set(FIELDS) - {"ntt_plan_hits"}

#: model -> observed_counts of the ``SINGLE`` proof, in ``COUNTED`` order.
OP_COUNTS = {
    "diffusion": (39, 79, 40, 80, 10, 85, 61, 8128, 8120, 0),
    "dlrm": (44, 85, 45, 87, 13, 79, 59, 1984, 1978, 0),
    "gpt2": (73, 128, 74, 133, 36, 82, 60, 4032, 4025, 0),
    "mnist": (55, 103, 57, 106, 23, 79, 59, 1984, 1978, 1),
    "mobilenet": (44, 87, 45, 89, 13, 85, 61, 8128, 8120, 0),
    "resnet18": (44, 87, 45, 89, 13, 88, 62, 16320, 16311, 0),
    "twitter": (61, 112, 62, 116, 26, 79, 59, 1984, 1978, 0),
    "vgg16": (45, 85, 46, 87, 14, 88, 62, 16320, 16311, 0),
}


def envelope_hash(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


@pytest.fixture
def numpy_tier(monkeypatch):
    """What a box without a C compiler runs, keygen included."""
    monkeypatch.setattr(native, "_handle", None)
    GLOBAL_PK_CACHE.clear()


def check_single(name):
    spec = get_model(name, "mini")
    result = prove_model(spec, seeded_inputs(spec, 0))
    data = result.envelope_bytes()
    assert (result.k, len(data), envelope_hash(data)) == SINGLE[name]
    assert {field: result.observed_counts[field] for field in COUNTED} \
        == dict(zip(COUNTED, OP_COUNTS[name]))


def check_batch_of_two(name):
    spec = get_model(name, "mini")
    result = prove_batch(spec, [seeded_inputs(spec, 0),
                                seeded_inputs(spec, 1)])
    assert (result.k, envelope_hash(result.envelope_bytes())) \
        == BATCH_OF_TWO[name]


@pytest.mark.parametrize("name", sorted(SINGLE))
def test_prove_model_envelope_is_golden(name):
    check_single(name)


@pytest.mark.parametrize("name", sorted(BATCH_OF_TWO))
def test_prove_batch_envelope_is_golden(name):
    check_batch_of_two(name)


@pytest.mark.parametrize("name", sorted(SINGLE))
def test_prove_model_envelope_is_golden_on_the_numpy_tier(name, numpy_tier):
    check_single(name)


@pytest.mark.parametrize("name", sorted(BATCH_OF_TWO))
def test_prove_batch_envelope_is_golden_on_the_numpy_tier(name, numpy_tier):
    check_batch_of_two(name)
