"""The eight-lane build, the scalar C build and the numpy oracle held equal.

``gl64_native.c`` carries two builds of its NTT, batch-inversion,
weighted-sum, Horner, Merkle-tree, column-digest and constraint-tape
kernels, and each
process runs the eight-lane one when its CPU has AVX-512.  Every property
here runs a kernel three ways: as loaded (eight lanes abreast on such a
CPU), on the scalar build through ``native.scalar_build()``, and on the
numpy oracle (``tests/oracle.py``) through ``oracle_tier()``.  Outputs,
node arrays, roots, errors, proofs and ``STATS`` deltas must be equal.
On a CPU without the lane build the first two paths are the same code
and the properties still hold the scalar build to the oracle.
"""

import contextlib
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.commit import MerkleTree, merkle
from repro.field import gl64, native
from repro.field.prime_field import GOLDILOCKS
from repro.halo2 import prover
from repro.model import get_model, seeded_inputs
from repro.obs.stats import STATS
from repro.runtime import pipeline, prove_model

from tests.oracle import oracle_tier

P = gl64.P
EDGES = [0, 1, P - 1, (1 << 32) - 1, 1 << 32, P - (1 << 32), P - 2, 1 << 63]

PATHS = {
    "lanes": contextlib.nullcontext,
    "scalar": native.scalar_build,
    "numpy": oracle_tier,
}


def on_every_path(fn):
    """path -> (fn(), the STATS delta of running it)"""
    runs = {}
    for path, context in PATHS.items():
        before = STATS.snapshot()
        with context():
            got = fn()
        runs[path] = got, STATS.delta(before)
    return runs


def assert_equal_runs(runs, same):
    (want, want_stats) = runs["numpy"]
    for path, (got, stats) in runs.items():
        assert same(got, want), path
        assert stats == want_stats, path


def test_the_lane_width_names_a_build():
    assert native.lane_width() in (1, 8)
    with native.scalar_build():
        assert native.lane_width() == 1


def same_result(a, b):
    """equal arrays, or equal error messages"""
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def residues(rng, shape):
    """random residues with the edge values first"""
    values = rng.integers(0, P, shape, dtype=np.uint64)
    values.flat[: len(EDGES)] = EDGES[: values.size]
    return values


@settings(max_examples=80, deadline=None)
@given(
    rows=st.sampled_from([1, 3, 8, 9, 16, 17]) | st.integers(1, 17),
    k=st.integers(1, 10),
    layout=st.sampled_from(["contiguous", "transposed", "strided", "reversed"]),
    scale=st.sampled_from(["none", "scalar", "vector"]),
    part=st.sampled_from([None, (0, 1), (1, 2), (3, 4)]),
    seed=st.integers(0, 2**32 - 1),
)
@example(rows=7, k=3, layout="contiguous", scale="none", part=None, seed=0)  # n < 16
@example(rows=1, k=4, layout="contiguous", scale="vector", part=None, seed=0)  # in registers
@example(rows=3, k=6, layout="strided", scale="scalar", part=(1, 2), seed=0)
@example(rows=2, k=5, layout="reversed", scale="none", part=None, seed=0)
@example(rows=9, k=4, layout="transposed", scale="vector", part=(3, 4), seed=0)
@example(rows=8, k=10, layout="transposed", scale="vector", part=(1, 2), seed=0)
@example(rows=17, k=1, layout="transposed", scale="scalar", part=(0, 1), seed=1)
def test_ntt_rows_agree_on_every_path(rows, k, layout, scale, part, seed):
    """Rows read through any strides and written back to back, or into
    coset part ``r`` of an ``(rows, ext, n)`` LDE through its row stride
    (the rest of the LDE untouched)."""
    n = 1 << k
    stages = gl64.ntt_stages(GOLDILOCKS.root_of_unity(k), n)
    rev = gl64.bit_reverse_indices(n)
    rng = np.random.default_rng(seed)
    values = residues(rng, (rows, 2 * n if layout == "strided" else n))
    if layout == "transposed":  # read column-major: the six-step's first pass
        values = np.ascontiguousarray(values.T).T
    elif layout == "strided":  # every other element of a wider row
        values = values[:, ::2]
    elif layout == "reversed":  # a negative column stride
        values = values[:, ::-1]
    factor = {"none": None, "scalar": np.uint64(P - 2),
              "vector": rng.integers(0, P, n, dtype=np.uint64)}[scale]

    def transform():
        if part is None:
            return gl64.ntt(values, stages, rev, scale_rev=factor)
        r, ext = part
        lde = np.full((rows, ext, n), 7, dtype=np.uint64)
        assert gl64.ntt(values, stages, rev, factor, out=lde[:, r, :]).base is lde
        return lde

    runs = on_every_path(transform)
    assert_equal_runs(runs, np.array_equal)
    if part is not None:
        r, ext = part
        assert np.array_equal(runs["lanes"][0][:, r, :],
                              gl64.ntt(values, stages, rev, scale_rev=factor))
        assert (np.delete(runs["lanes"][0], r, axis=1) == 7).all()


@settings(max_examples=80, deadline=None)
@given(
    m=st.integers(1, 50), width=st.integers(1, 70),
    subset=st.none() | st.lists(st.integers(0, 49), max_size=60),
    stride=st.sampled_from([0, 1, 5]),
    seed=st.integers(0, 2**32 - 1),
)
@example(m=3, width=11, subset=None, stride=0, seed=0)  # a partial vector of columns
@example(m=17, width=64, subset=None, stride=0, seed=0)  # two register blocks
@example(m=9, width=33, subset=[8, 0, 8, 3], stride=5, seed=0)  # repeats, row stride
def test_weighted_sums_and_horner_agree_on_every_path(m, width, subset, stride, seed):
    """All rows, or a random row subset (repeats and any order) through a
    row index; rows back to back or ``stride`` words apart in a wider
    matrix, read in place."""
    rng = np.random.default_rng(seed)
    rows = residues(rng, (m, width + stride))[:, :width]
    index = None if subset is None else np.array([i % m for i in subset], np.int64)
    vec = residues(rng, m if index is None else len(index))[::-1].copy()
    picked = rows if index is None else rows[index]
    runs = on_every_path(lambda: (gl64.weighted_sum(rows, vec, index),
                                  gl64.poly_eval_rows(rows, vec, index)))
    assert_equal_runs(runs, lambda a, b: all(map(np.array_equal, a, b)))
    assert np.array_equal(runs["lanes"][0][0], gl64.weighted_sum(picked, vec))
    assert np.array_equal(runs["lanes"][0][1], gl64.poly_eval_rows(picked, vec))


@settings(max_examples=80, deadline=None)
@given(
    m=st.integers(1, 17), width=st.integers(1, 70),
    zero=st.none() | st.tuples(st.integers(0, 16), st.integers(0, 69)),
    seed=st.integers(0, 2**32 - 1),
)
@example(m=1, width=37, zero=None, seed=0)
@example(m=5, width=40, zero=(3, 21), seed=0)  # inside a lane of a later row
def test_batch_inverses_agree_on_every_path(m, width, zero, seed):
    """One flat inversion over a matrix, and on a zero the per-row retry
    naming the zero's index in its row."""
    denoms = residues(np.random.default_rng(seed), (m, width))
    denoms[denoms == 0] = 1
    if zero is not None:
        denoms[zero[0] % m, zero[1] % width] = 0

    def inverses():
        try:
            return prover._batched_inverses(denoms)
        except ZeroDivisionError as exc:
            return str(exc)

    runs = on_every_path(inverses)
    assert_equal_runs(runs, same_result)
    if zero is not None:
        assert runs["lanes"][0] == "batch_inv of zero at index %d" % (zero[1] % width)


@settings(max_examples=40, deadline=None)
@given(first=st.sampled_from(EDGES), ratio=st.sampled_from(EDGES), n=st.integers(0, 70))
def test_power_tables_agree_on_every_path(first, ratio, n):
    runs = on_every_path(lambda: gl64.powers(first, ratio, n))
    assert_equal_runs(runs, np.array_equal)
    assert runs["lanes"][0].tolist() == [first * pow(ratio, i, P) % P for i in range(n)]


@settings(max_examples=80, deadline=None)
@given(
    m=st.sampled_from([1, 7, 8, 9]) | st.integers(1, 50),
    ext=st.sampled_from([1, 2, 4]),
    k=st.integers(4, 10),
    seed=st.integers(0, 2**32 - 1),
)
@example(m=8, ext=1, k=4, seed=0)  # a leaf of 16 words: one block exactly
@example(m=9, ext=2, k=4, seed=0)  # 18 words: a second block
@example(m=46, ext=2, k=10, seed=0)  # a k=12 helper round's width
def test_merkle_trees_agree_on_every_path(m, ext, k, seed):
    """A round's tree with its leaves read from an ``(m, ext, 2^k)`` LDE,
    and the ``(1, 1, N)`` fold-layer case."""
    lde = np.random.default_rng(seed).integers(0, P, size=(m, ext, 1 << k), dtype=np.uint64)
    runs = on_every_path(lambda: [MerkleTree.from_lde(lde),
                                  MerkleTree.from_lde(lde[m // 2].reshape(1, 1, -1))])
    assert_equal_runs(runs, lambda a, b: all(
        np.array_equal(x.nodes, y.nodes) and x.root == y.root
        and pickle.dumps(x) == pickle.dumps(y) for x, y in zip(a, b)))


@settings(max_examples=40, deadline=None)
@given(count=st.integers(0, 19), words=st.integers(0, 300), seed=st.integers(0, 2**32 - 1))
@example(count=9, words=16, seed=0)  # a lane group and one over, one block exactly
@example(count=9, words=17, seed=0)  # a word past the block
def test_column_digests_agree_on_every_path(count, words, seed):
    rng = np.random.default_rng(seed)
    cols = [rng.integers(0, P, size=words, dtype=np.uint64) for _ in range(count)]
    runs = on_every_path(lambda: merkle.column_digests(cols))
    assert_equal_runs(runs, list.__eq__)


@pytest.fixture(scope="module")
def dlrm_case():
    """dlrm-mini's proving key, witness and scheme."""
    spec = get_model("dlrm", "mini")
    captured = []
    real = pipeline.create_proof

    def capture(pk, asg, scheme, timer=None):
        captured.append((pk, asg, scheme))
        return real(pk, asg, scheme, timer=timer)

    with mock.patch.object(pipeline, "create_proof", capture):
        prove_model(spec, seeded_inputs(spec, 0), use_pk_cache=False)
    (case,) = captured
    return case


def test_a_real_circuits_tapes_and_proof_agree_on_every_path(dlrm_case):
    """Both constraint tapes of a real circuit give the same rows on every
    path, and so does everything downstream of them: the proof."""
    pk, asg, scheme = dlrm_case

    def prove():
        outs = []
        real_eval_tape = gl64.eval_tape  # this path's

        def recording(code, num_regs, cols, scalars, out, *args, **kwargs):
            real_eval_tape(code, num_regs, cols, scalars, out, *args, **kwargs)
            outs.append(out.copy())

        with mock.patch.object(gl64, "eval_tape", recording):
            proof = prover.create_proof(pk, asg, scheme)
        return outs, pickle.dumps(proof)

    runs = on_every_path(prove)
    assert len(runs["numpy"][0][0]) == 2  # the helper and quotient tapes
    assert_equal_runs(runs, lambda a, b: (
        len(a[0]) == len(b[0]) and a[1] == b[1]
        and all(np.array_equal(x, y) for x, y in zip(a[0], b[0]))))


def test_a_k12_proof_is_byte_equal_on_every_path():
    """mnist-mini at k=12 from a cold key: keygen, every transform at
    n = 4096 and 8192, the tapes, the DEEP quotient and FRI, three ways."""
    spec = get_model("mnist", "mini")
    inputs = seeded_inputs(spec, 0)
    runs = on_every_path(lambda: prove_model(
        spec, inputs, k=12, num_cols=10, scale_bits=5,
        use_pk_cache=False).envelope_bytes())
    assert_equal_runs(runs, bytes.__eq__)
