"""Property tests for the Goldilocks kernels against PrimeField and the
reference NTT.  The shapes straddle the numpy oracle's ``BLOCK`` (its
chunk size), and the kernels take 1-D to 3-D operands, strided views and
broadcasts alike."""

import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.field import GOLDILOCKS
from repro.field import gl64

from tests import oracle
from tests.reference import ntt as py_ntt

F = GOLDILOCKS
P = F.p

# adversarial residues: zero, one, 32-bit limb boundaries, top of the field
EDGES = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, P - 2, P - 1]

elements = st.integers(min_value=0, max_value=P - 1)
vectors = st.lists(elements, min_size=1, max_size=32)


def test_roundtrip_edges():
    vec = gl64.from_ints(EDGES)
    assert gl64.to_ints(vec) == EDGES
    assert all(isinstance(v, int) for v in gl64.to_ints(vec))


@given(vectors, vectors)
@settings(max_examples=100, deadline=None)
def test_elementwise_ops_match_prime_field(xs, ys):
    n = min(len(xs), len(ys))
    xs, ys = xs[:n], ys[:n]
    a, b = gl64.from_ints(xs), gl64.from_ints(ys)
    assert gl64.to_ints(gl64.add(a, b)) == [F.add(x, y) for x, y in zip(xs, ys)]
    assert gl64.to_ints(gl64.sub(a, b)) == [F.sub(x, y) for x, y in zip(xs, ys)]
    assert gl64.to_ints(gl64.mul(a, b)) == [F.mul(x, y) for x, y in zip(xs, ys)]
    assert gl64.to_ints(gl64.neg(a)) == [F.neg(x) for x in xs]


def test_mul_edge_cross_product():
    a = gl64.from_ints([x for x in EDGES for _ in EDGES])
    b = gl64.from_ints(EDGES * len(EDGES))
    expect = [F.mul(x, y) for x in EDGES for y in EDGES]
    assert gl64.to_ints(gl64.mul(a, b)) == expect


@given(vectors, elements, vectors)
@settings(max_examples=50, deadline=None)
def test_fold_matches_scalar_recurrence(accs, y, vals):
    n = min(len(accs), len(vals))
    accs, vals = accs[:n], vals[:n]
    got = gl64.to_ints(gl64.fold(gl64.from_ints(accs), np.uint64(y), gl64.from_ints(vals)))
    assert got == [F.add(F.mul(a, y), v) for a, v in zip(accs, vals)]


@pytest.mark.parametrize("k", [0, 1, 2, 3, 5, 8])
def test_ntt_matches_pure_python(k):
    n = 1 << k
    root = F.root_of_unity(k)
    rng = np.random.default_rng(k)
    values = [int(v) % P for v in rng.integers(0, 2**63, size=n)]
    stages = gl64.ntt_stages(root, n)
    rev = gl64.bit_reverse_indices(n)
    got = gl64.to_ints(gl64.ntt(gl64.from_ints(values), stages, rev))
    assert got == py_ntt(F, values, root)


def test_bit_reverse_indices():
    assert gl64.bit_reverse_indices(8).tolist() == [0, 4, 2, 6, 1, 5, 3, 7]
    assert gl64.bit_reverse_indices(1).tolist() == [0]


# -- in-place kernels --------------------------------------------------------

B = oracle.BLOCK

KERNELS = [
    (gl64.mul_into, gl64.mul, F.mul),
    (gl64.add_into, gl64.add, F.add),
    (gl64.sub_into, gl64.sub, F.sub),
]


def _residues(shape, seed):
    """Random residues with the adversarial ``EDGES`` planted at the front."""
    rng = np.random.default_rng(seed)
    flat = rng.integers(0, P, size=int(np.prod(shape)), dtype=np.uint64)
    edges = gl64.from_ints(EDGES)[: flat.size]
    flat[: edges.size] = edges
    return flat.reshape(shape)


def _expect(scalar_op, a, b, shape):
    xs = np.broadcast_to(a, shape).ravel().tolist()
    ys = np.broadcast_to(b, shape).ravel().tolist()
    return np.array(
        [scalar_op(x, y) for x, y in zip(xs, ys)], dtype=np.uint64
    ).reshape(shape)


@pytest.mark.parametrize("into,wrapper,scalar_op", KERNELS)
@pytest.mark.parametrize(
    "shape", [(B - 1,), (B,), (B + 1,), (2 * B + 37,), (3, B // 2 + 5), (2, 3, B // 4 + 1)]
)
def test_kernels_match_prime_field_across_block_boundaries(into, wrapper, scalar_op, shape):
    a, b = _residues(shape, 1), _residues(shape, 2)[..., ::-1]
    expect = _expect(scalar_op, a, b, shape)
    np.testing.assert_array_equal(wrapper(a, b), expect)
    # out aliasing either input
    for alias in (0, 1):
        x, y = a.copy(), b.copy()
        into((x, y)[alias], x, y)
        np.testing.assert_array_equal((x, y)[alias], expect)


@pytest.mark.parametrize("into,wrapper,scalar_op", KERNELS)
def test_kernels_scalar_and_broadcast_operands(into, wrapper, scalar_op):
    a = _residues((5, 2 * B // 5 + 3), 3)
    for b in (
        [0, 1, 2**32 - 1, 2**32, P - 1]  # scalars, python ints and numpy ones
        + [np.uint64(P - 2)]
        + [_residues((a.shape[1],), 4), _residues((5, 1), 5)]  # row / column
    ):
        np.testing.assert_array_equal(
            wrapper(a, b), _expect(scalar_op, a, b, a.shape)
        )
    # scalar on the left (the evaluator's scalar_sub)
    np.testing.assert_array_equal(
        gl64.sub(7, a), _expect(F.sub, np.uint64(7), a, a.shape)
    )


@pytest.mark.parametrize("into,wrapper,scalar_op", KERNELS)
def test_kernels_on_strided_views_in_place(into, wrapper, scalar_op):
    # the butterfly's operands: the two halves of every length-8 block
    base = _residues((3, B // 2 + 4, 8), 6)
    work = base.copy()
    u, v = work[..., :4], work[..., 4:]
    expect = _expect(scalar_op, base[..., :4], base[..., 4:], u.shape)
    into(v, u, v)
    np.testing.assert_array_equal(v, expect)
    np.testing.assert_array_equal(u, base[..., :4])  # untouched


def test_fold_matches_prime_field_with_array_and_scalar_values():
    acc, vals = _residues((2, B), 7), _residues((2, B), 8)
    y = P - 12345
    xs, vs = acc.ravel().tolist(), vals.ravel().tolist()
    got = gl64.fold(acc, y, vals).ravel().tolist()
    assert got == [F.add(F.mul(x, y), v) for x, v in zip(xs, vs)]
    got = gl64.fold(acc, y, np.uint64(P - 1)).ravel().tolist()
    assert got == [F.add(F.mul(x, y), P - 1) for x in xs]


def test_batch_inv_matches_prime_field():
    vec = _residues((1000,), 9)
    vec[vec == 0] = 1
    assert gl64.to_ints(gl64.batch_inv(vec)) == F.batch_inv(gl64.to_ints(vec))
    vec[17] = 0
    vec[400] = 0
    with pytest.raises(ZeroDivisionError, match="index 17"):
        gl64.batch_inv(vec)


def _ntt_tables(k):
    n = 1 << k
    return gl64.ntt_stages(F.root_of_unity(k), n), gl64.bit_reverse_indices(n)


@pytest.mark.parametrize(
    "k,rows",
    # a block holds 2*BLOCK/n rows: counts below, at, across and not
    # dividing that; k=16 is one row longer than a block
    [(12, 1), (12, 2 * B >> 12), (12, (2 * B >> 12) + 3), (6, 2 * B >> 6),
     (6, (4 * B >> 6) + 1), (16, 2)],
)
def test_ntt_row_blocks_match_one_row_at_a_time(k, rows):
    stages, rev = _ntt_tables(k)
    mat = _residues((rows, 1 << k), 10 + k)
    scale = _residues((1 << k,), 11)
    for scale_rev in (None, scale, np.uint64(P - 3)):
        got = gl64.ntt(mat, stages, rev, scale_rev)
        for i in (0, rows // 2, rows - 1):
            np.testing.assert_array_equal(
                got[i], gl64.ntt(mat[i], stages, rev, scale_rev)
            )
    # and one row against the reference transform
    assert gl64.to_ints(gl64.ntt(mat[0], stages, rev)) == py_ntt(
        F, gl64.to_ints(mat[0]), F.root_of_unity(k)
    )


def test_ntt_accepts_transposed_and_stacked_inputs():
    stages, rev = _ntt_tables(5)
    cube = _residues((3, 32, 32), 12)
    flat = gl64.ntt(cube.reshape(-1, 32), stages, rev)
    np.testing.assert_array_equal(gl64.ntt(cube, stages, rev), flat.reshape(cube.shape))
    # the six-step transform hands in a transposed (non-contiguous) matrix
    np.testing.assert_array_equal(
        gl64.ntt(cube[0].T, stages, rev),
        gl64.ntt(np.ascontiguousarray(cube[0].T), stages, rev),
    )


def test_kernels_are_thread_safe():
    # ctypes drops the GIL for the call: three threads multiplying at once
    # must not see each other's operands
    a, b = _residues((4 * B,), 13), _residues((4 * B,), 14)
    expect = gl64.mul(a, b)
    failures = []

    def worker():
        for _ in range(20):
            if not np.array_equal(gl64.mul(a, b), expect):
                failures.append(1)

    threads = [threading.Thread(target=worker) for _ in range(3)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not failures


def test_kernels_allocate_only_their_result():
    """The mechanism, not the clock: no per-pass temporaries.

    A kernel call may allocate its result plus at most 192 KiB of
    bookkeeping (ctypes arguments, the scalars it packs).  One stray
    operand-sized temporary is far more than that, and numpy bodies that
    allocate per pass peak at several times the result.
    """
    slack = 192 * 1024
    stages, rev = _ntt_tables(12)
    mat = _residues((64, 4096), 15)
    a, b = _residues((1 << 16,), 16), _residues((1 << 16,), 17)
    calls = [
        lambda: gl64.ntt(mat, stages, rev, a[:4096]),
        lambda: gl64.mul(a, b),
    ]
    for call in calls:
        call()  # creates the scratch and warms every cache
    tracemalloc.start()
    try:
        for call in calls:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            result = call()
            peak = tracemalloc.get_traced_memory()[1]
            assert peak - before <= result.nbytes + slack
            del result
    finally:
        tracemalloc.stop()
