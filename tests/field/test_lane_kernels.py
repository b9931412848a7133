"""The eight-lane build, the scalar C build and the numpy oracle held equal.

``gl64_native.c`` carries two builds of its NTT, Merkle-tree and
constraint-tape kernels, and each process runs the eight-lane one when its
CPU has AVX-512.  Every property here runs a kernel three ways: as loaded
(eight lanes abreast on such a CPU), on the scalar build through
``native.scalar_build()``, and on the numpy oracle
(``tests/oracle.py``) through ``oracle_tier()``.  Outputs, node arrays, roots, proofs and ``STATS`` deltas must be
equal.  On a CPU without the lane build the first two paths are the same
code and the properties still hold the scalar build to the oracle.
"""

import contextlib
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.commit import MerkleTree
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


@settings(max_examples=80, deadline=None)
@given(
    rows=st.sampled_from([1, 7, 8, 9, 16, 17]) | st.integers(1, 20),
    k=st.integers(1, 10),
    transposed=st.booleans(),
    scale=st.sampled_from(["none", "scalar", "vector"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(rows=7, k=3, transposed=False, scale="none", seed=0)  # all scalar
@example(rows=8, k=10, transposed=True, scale="vector", seed=0)  # one lane group
@example(rows=9, k=4, transposed=False, scale="vector", seed=0)  # and one row over
@example(rows=16, k=2, transposed=False, scale="scalar", seed=0)
@example(rows=17, k=1, transposed=True, scale="scalar", seed=1)
def test_ntt_rows_agree_on_every_path(rows, k, transposed, scale, seed):
    n = 1 << k
    stages = gl64.ntt_stages(GOLDILOCKS.root_of_unity(k), n)
    rev = gl64.bit_reverse_indices(n)
    rng = np.random.default_rng(seed)
    values = rng.integers(0, P, (rows, n), dtype=np.uint64)
    values.flat[: len(EDGES)] = EDGES[: values.size]
    if transposed:  # (rows, n) read column-major: the six-step's first pass
        values = np.ascontiguousarray(values.T).T
    factor = {"none": None, "scalar": np.uint64(P - 2),
              "vector": rng.integers(0, P, n, dtype=np.uint64)}[scale]
    runs = on_every_path(lambda: gl64.ntt(values, stages, rev, scale_rev=factor))
    assert_equal_runs(runs, np.array_equal)


@settings(max_examples=80, deadline=None)
@given(
    count=st.sampled_from([1, 7, 8, 9, 16, 17, 24, 64]) | st.integers(1, 70),
    words=st.sampled_from([1, 16, 17]) | st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
@example(count=17, words=16, seed=0)  # a lane group of 128-byte leaves and one over
@example(count=24, words=17, seed=0)  # 136 bytes: two blocks a leaf, 8 padding leaves
def test_merkle_trees_agree_on_every_path(count, words, seed):
    rows = np.random.default_rng(seed).integers(
        0, P, size=(count, words), dtype=np.uint64)
    runs = on_every_path(lambda: MerkleTree.from_rows(rows))
    assert_equal_runs(runs, lambda a, b: (
        np.array_equal(a.nodes, b.nodes) and a.root == b.root
        and pickle.dumps(a) == pickle.dumps(b)))


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
