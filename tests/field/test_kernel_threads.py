"""The fork-join kernels: any thread count gives the serial answer.

``gl64_native.c`` splits a large NTT, inversion, weighted-sum, Horner,
tape, Merkle or column-digest call over ``native.thread_count()`` threads and joins them
before returning; a call below its work threshold runs on the calling
thread.  Every kernel here runs at 1, 2 and 3 threads (3 cuts uneven
chunks) on both lane builds, at one size below the threshold and one
above it, and must equal its ``native.serial()`` result bit for bit.
``native.forks()`` says whether a call really went parallel, so each
size is checked to sit on the side of the threshold it is meant to.
"""

import contextlib
import os
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.commit import MerkleTree
from repro.commit.merkle import column_digests
from repro.field import gl64, native
from repro.field.prime_field import GOLDILOCKS
from repro.obs.metrics import MetricsRegistry
from repro.serve import worker as worker_module
from repro.serve.scheduler import ClusterScheduler
from repro.serve.worker import BatchJob, BatchResult

P = gl64.P
BUILDS = {"lanes": contextlib.nullcontext, "scalar": native.scalar_build}
rng = np.random.default_rng(46)


def residues(*shape):
    return rng.integers(0, P, shape, dtype=np.uint64)


def ntt_case(m, k, scaled=False):
    n = 1 << k
    stages = gl64.ntt_stages(GOLDILOCKS.root_of_unity(k), n)
    rev = gl64.bit_reverse_indices(n)
    x, scale = residues(m, n), residues(n)[rev] if scaled else None
    return lambda: gl64.ntt(x, stages, rev, scale)


def sixstep_case(k):
    plan = gl64.build_sixstep_plan(GOLDILOCKS.root_of_unity(k), 1 << k, 7)
    x = residues(1 << k)
    return lambda: gl64.sixstep_ntt(x, plan)


def inv_case(n):
    x = residues(n) | np.uint64(1)
    return lambda: gl64.batch_inv(x)


def rows_case(kernel, m, width, indexed=False):
    mat, vec = residues(m + 3, width), residues(m)
    index = rng.permutation(m + 3)[:m] if indexed else None
    if not indexed:
        mat = mat[:m]
    return lambda: kernel(mat, vec, index)


def tape_case(parts, n, scaled=False):
    # r2 = c0 * c1(+3); outputs r2 + s0 and -(r2 - c0)
    L, ADD, SUB, MUL, NEG, STORE = range(6)
    code = np.array([[L, 0, 0, 0], [L, 1, 1, 3], [MUL, 2, 0, 1], [ADD, 3, 2, -1],
                     [STORE, 0, 3, 0], [SUB, 4, 2, 0], [NEG, 5, 4, 0],
                     [STORE, 1, 5, 0]], dtype=np.int32)
    cols = [residues(parts * n) for _ in range(2)]
    scalars, scale = residues(1), residues(parts) if scaled else None

    def run():
        out = np.empty((2, parts * n), dtype=np.uint64)
        gl64.eval_tape(code, 6, cols, scalars, out, parts, scale)
        return out
    return run


def tree_case(m, ext, k):
    lde = residues(m, ext, 1 << k)
    return lambda: MerkleTree.from_lde(lde).nodes


def digests_case(count, length):
    columns = [residues(length) for _ in range(count)]
    return lambda: np.array(column_digests(columns))


# name -> (a call below the work threshold, a call above it)
CASES = {
    "ntt": (ntt_case(4, 9), ntt_case(16, 12)),
    "ntt scaled": (ntt_case(2, 10, True), ntt_case(13, 12, True)),
    "six-step ntt": (sixstep_case(10), sixstep_case(16)),
    "batch_inv": (inv_case(4096), inv_case((1 << 16) + 13)),
    "weighted_sum": (rows_case(gl64.weighted_sum, 4, 4096),
                     rows_case(gl64.weighted_sum, 40, 8192 + 5)),
    "weighted_sum indexed": (rows_case(gl64.weighted_sum, 3, 1000, True),
                             rows_case(gl64.weighted_sum, 33, 4096 + 40, True)),
    "poly_eval_rows": (rows_case(gl64.poly_eval_rows, 8, 4096),
                       rows_case(gl64.poly_eval_rows, 101, 4096)),
    "poly_eval_rows indexed": (rows_case(gl64.poly_eval_rows, 5, 999, True),
                               rows_case(gl64.poly_eval_rows, 70, 3001, True)),
    "eval_tape": (tape_case(1, 1000), tape_case(3, 20_000 + 7)),
    "eval_tape scaled": (tape_case(2, 700, True), tape_case(4, 9000, True)),
    "merkle_tree": (tree_case(1, 1, 10), tree_case(20, 2, 12)),
    "merkle_tree odd leaves": (tree_case(3, 1, 6), tree_case(9, 4, 11)),
    "column_digests": (digests_case(9, 100), digests_case(21, 4096 + 3)),
}


def run_counting_forks(fn):
    before = native.forks()
    return fn(), native.forks() - before


@pytest.mark.parametrize("build", sorted(BUILDS))
@pytest.mark.parametrize("name", sorted(CASES))
def test_every_thread_count_gives_the_serial_answer(name, build):
    for above, case in enumerate(CASES[name]):
        with BUILDS[build]():
            with native.serial():
                want, forked = run_counting_forks(case)
            assert forked == 0
            for threads in (1, 2, 3):
                with native.threads(threads):
                    got, forked = run_counting_forks(case)
                assert np.array_equal(got, want), (name, above, threads)
                assert got.dtype == want.dtype and got.shape == want.shape
                # the small call stays on the caller; the large one forks
                assert bool(forked) == (above and threads > 1), (name, above, threads)


@pytest.mark.parametrize("build", sorted(BUILDS))
def test_batch_inv_names_the_first_zero_across_chunks(build):
    n = (1 << 17) + 3
    values = residues(n) | np.uint64(1)
    values[[n - 2, 3 * n // 4, n // 2 + 1]] = 0  # all past the first chunk
    for threads in (1, 2, 3):
        with BUILDS[build](), native.threads(threads):
            with pytest.raises(ZeroDivisionError, match="index %d$" % (n // 2 + 1)):
                gl64.batch_inv(values)
    values[5] = 0
    with BUILDS[build](), native.threads(3):
        with pytest.raises(ZeroDivisionError, match="index 5$"):
            gl64.batch_inv(values)


def test_the_thread_count_is_the_affinity_mask():
    assert native.thread_count() == native.cpu_count() == len(os.sched_getaffinity(0))
    with native.serial():
        assert native.thread_count() == 1
    with native.threads(5):
        assert native.thread_count() == 5
    assert native.thread_count() == native.cpu_count()


def test_the_self_test_runs_a_threaded_call():
    """a kernel that races shows above the threshold: the load-time
    self-test holds one threaded call to the serial answer"""
    lib = native.library()
    run, want = native._cases(lib)["gl_batch_inv threaded"]
    assert run() == want  # (equal, no zero, forked, the first zero)


def test_a_changed_compile_flag_names_a_new_object(monkeypatch):
    name = native._object_name("cc", b"cc 1.0")
    assert name == native._object_name("cc", b"cc 1.0")
    assert name != native._object_name("gcc", b"cc 1.0")
    monkeypatch.setattr(native, "_CFLAGS", native._CFLAGS + ("-DNDEBUG",))
    assert name != native._object_name("cc", b"cc 1.0")
    monkeypatch.setattr(native, "_CFLAGS", tuple(f for f in native._CFLAGS
                                                 if f != "-pthread"))
    assert name != native._object_name("cc", b"cc 1.0")


def test_a_cluster_worker_gets_its_share_of_the_cpus(monkeypatch):
    """with N worker processes each kernel call splits over cpus // N
    threads (at least one); the in-process worker keeps them all"""
    results = []

    def prove(job, worker_id, registry):
        return BatchResult(job_id=job.job_id, batch_id=job.batch_id, ok=True,
                           worker_id=worker_id, pid=os.getpid(),
                           slot_outputs=[{"threads": native.thread_count()}])

    monkeypatch.setattr(worker_module, "prove_job", prove)
    monkeypatch.setattr(native, "cpu_count", lambda: 7)
    for workers, want in ((2, 3), (0, native.thread_count())):
        results.clear()
        scheduler = ClusterScheduler(workers=workers, on_result=results.append,
                                     on_shed=lambda job, reason: None,
                                     metrics=MetricsRegistry())
        assert scheduler.kernel_threads == (want if workers else None)
        scheduler.start()
        try:
            for job_id in range(2):
                scheduler.enqueue(BatchJob(
                    job_id=job_id, batch_id="b%d" % job_id,
                    spec=SimpleNamespace(name="m"), batch_inputs=[],
                    scheme_name="kzg", num_cols=4, scale_bits=6,
                    lookup_bits=None, occupancy=1, padded_size=1))
            deadline = time.monotonic() + 60
            while len(results) < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
        finally:
            scheduler.shutdown(drain=True, timeout=60)
        assert [r.slot_outputs[0]["threads"] for r in results] == [want, want]
        assert all((r.pid != os.getpid()) == bool(workers) for r in results)
    assert ClusterScheduler(workers=9, on_result=print, on_shed=print,
                            metrics=MetricsRegistry()).kernel_threads == 1
