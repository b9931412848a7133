"""Golden envelope hashes: "proof bytes unchanged" as a checked fact.

Every zoo mini is proven on ``seeded_inputs`` at the defaults (kzg, 10
columns, scale_bits 5) and its serialized envelope is pinned by
blake2b-16.  A refactor must leave this table alone; a change that moves
proof bytes on purpose (prover transcript, envelope format, layout)
updates it and says why in CHANGES.md.

Last regenerated for envelope v2 (succinct proofs, scalars at field
width, constraint-binding vk hashes): k is unchanged on all 16 rows, the
envelopes are 5-26x smaller (dlrm 824 489 -> 159 023 bytes, vgg16
6 690 070 -> 254 620).  Regenerated again for weighted LogUp (selectors
as lookup numerators, two lookups of one table per helper column): the
helper round narrows, so every hash, envelope size and the
``ntt_base`` / ``ntt_extended`` / ``commitments`` / ``openings`` counts
move, and k, ``lookup_passes``, the transcript counts and the Merkle
hash counts do not (dlrm 159 023 -> 155 143 bytes, 45 -> 40
commitments; gpt2 217 283 -> 204 867 bytes, 74 -> 58 commitments).
Regenerated again when the lookup tables lost their zero default row
(the rows below a table's entries repeat its first, and ``var_div``
pads a short row with ``1 / 0``): the fixed grid moves, so every hash
moves, and k, the envelope sizes and ``OP_COUNTS`` do not.

``OP_COUNTS`` pins, beside each single-proof hash, how much work the
prover did for it: every ``obs.stats`` counter of
``ProveResult.observed_counts`` but ``ntt_plan_hits``, which depends on
what the process transformed before (30 / 35 / 39 on three identical
dlrm proves in one process; the other ten repeat exactly, cold or warm
pk cache).  They are counts, not timings, so the gate is equality: a
change that adds an NTT, a commitment or a hash to a proof updates the
row and says why.

The compiled kernel and the numpy oracle of ``tests/oracle.py`` are held
to the same tables.

Beside them, each mini's proof shape (:mod:`repro.halo2.shape`) is held
three ways: the count walk's, the key's and the observed counts'.
"""

import hashlib

import pytest

from repro.compiler import build_physical_layout
from repro.halo2.proof import proof_to_bytes
from repro.layers.base import LayoutChoices
from repro.model import get_model, seeded_inputs
from repro.obs.stats import FIELDS
from repro.perf.pkcache import GLOBAL_PK_CACHE
from repro.runtime import prove_batch, prove_model

from tests.oracle import oracle_tier

#: model -> (k, envelope bytes, blake2b-16 of the envelope): prove_model, seed 0.
SINGLE = {
    "diffusion": (11, 206628, "cea7e9c712e2517d6397874a677668bc"),
    "dlrm": (9, 155143, "7c8d233642b0390f295a931e6371ffe2"),
    "gpt2": (10, 204867, "87ce55cb5889ffb3dbc8e9a49770b208"),
    "mnist": (9, 165240, "836a2b3baed6bd285ed3617abf705c07"),
    "mobilenet": (11, 212068, "2a32d2b08e746bead9cf763b12668e75"),
    "resnet18": (12, 252295, "9e1076e3c5c113047495decc4c6ea6cf"),
    "twitter": (9, 171458, "49a403ed4d5f095c5335d4fd743b303e"),
    "vgg16": (12, 249964, "e50e00f2664e691cb254d4a6a1526935"),
}

#: model -> (k, blake2b-16 of the envelope): prove_batch of seeds 0 then 1.
BATCH_OF_TWO = {
    "diffusion": (12, "de4d3a197e53dba1c8e32596b8495711"),
    "dlrm": (9, "c3ea6f3e3889ed549046d563f3c76d44"),
    "gpt2": (11, "d8ffa06a8e38df1fa493a3711799d5f6"),
    "mnist": (9, "7a1974eb2de58c8a2683e8b7e10e6e20"),
    "mobilenet": (12, "ba53c1f589b2742a5d1ed392f70f6144"),
    "resnet18": (13, "4e606f984a5dbd638493eefaff8fd6bb"),
    "twitter": (9, "0a14e34ae8087c31ae222df2ea4cfefd"),
    "vgg16": (13, "a5abd1849cce6393d74b8ae072e8b6db"),
}

#: The counters pinned per proof: a new ``obs.stats`` field gets a column.
COUNTED = (
    "ntt_base", "ntt_extended", "commitments", "openings", "lookup_passes",
    "transcript_absorbs", "challenges", "merkle_leaf_hashes",
    "merkle_node_hashes", "sparsity_skips")
assert set(COUNTED) == set(FIELDS) - {"ntt_plan_hits"}

#: model -> observed_counts of the ``SINGLE`` proof, in ``COUNTED`` order.
OP_COUNTS = {
    "diffusion": (35, 75, 36, 76, 10, 85, 61, 8128, 8120, 0),
    "dlrm": (39, 80, 40, 82, 13, 79, 59, 1984, 1978, 0),
    "gpt2": (57, 112, 58, 117, 36, 82, 60, 4032, 4025, 0),
    "mnist": (45, 93, 47, 96, 23, 79, 59, 1984, 1978, 1),
    "mobilenet": (39, 82, 40, 84, 13, 85, 61, 8128, 8120, 0),
    "resnet18": (39, 82, 40, 84, 13, 88, 62, 16320, 16311, 0),
    "twitter": (50, 101, 51, 105, 26, 79, 59, 1984, 1978, 0),
    "vgg16": (39, 79, 40, 81, 14, 88, 62, 16320, 16311, 0),
}


def envelope_hash(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


@pytest.fixture
def numpy_tier():
    """The numpy oracle in place of the compiled kernel, keygen included."""
    GLOBAL_PK_CACHE.clear()
    with oracle_tier():
        yield
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
def test_proof_shape_is_what_the_prover_does(name):
    """One shape three ways: from the count walk (no witness), keygen's
    ``vk.shape``, and the counts one proof performed."""
    spec = get_model(name, "mini")
    layout = build_physical_layout(spec, LayoutChoices(), 10, scale_bits=5)
    result = prove_model(spec, seeded_inputs(spec, 0))
    shape = layout.shape(result.k)
    assert shape == result.vk.shape
    counts = result.observed_counts
    assert (shape.ntt_base, shape.ntt_extended, shape.commitments,
            shape.merkle_leaf_hashes, shape.merkle_node_hashes,
            len(shape.claims)) == (
        counts["ntt_base"] + counts["sparsity_skips"],
        counts["ntt_extended"], counts["commitments"],
        counts["merkle_leaf_hashes"], counts["merkle_node_hashes"],
        counts["openings"])
    assert shape.proof_bytes == len(proof_to_bytes(result.proof))
    batch = prove_batch(spec, [seeded_inputs(spec, 0),
                               seeded_inputs(spec, 1)])
    assert layout.shape(batch.k, slots=2) == batch.vk.shape


@pytest.mark.parametrize("name", sorted(SINGLE))
def test_prove_model_envelope_is_golden_on_the_numpy_tier(name, numpy_tier):
    check_single(name)


@pytest.mark.parametrize("name", sorted(BATCH_OF_TWO))
def test_prove_batch_envelope_is_golden_on_the_numpy_tier(name, numpy_tier):
    check_batch_of_two(name)
