"""Multi-process proving cluster: dispatch, recovery, shedding, parity.

The slow end-to-end paths (worker processes actually proving) get one
test each; the scheduling *policy* (priority ordering, round-robin,
bulk-victim eviction) is pinned with fast unit tests against an
unstarted :class:`ClusterScheduler` — ``enqueue`` and ``_next_job`` are
pure queue manipulation and need no processes.
"""

import os
import signal
import sys
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.model import GraphBuilder
from repro.obs.metrics import MetricsRegistry
from repro.resilience.errors import (
    ServiceError,
    ServiceOverloadedError,
    WorkerCrashError,
)
from repro.serve import ProvingService, ServeConfig
from repro.registry import VKRegistry
from repro.serve import scheduler as scheduler_module
from repro.serve import worker as worker_module
from repro.serve.scheduler import PRIORITIES, ClusterScheduler
from repro.serve.worker import BatchJob, BatchResult

rng = np.random.default_rng(23)


def small_model(name="clustered"):
    gb = GraphBuilder(name, materialize=True, seed=2)
    x = gb.input("x", (1, 4))
    h = gb.fully_connected(x, 4, 3)
    h = gb.activation(h, "relu")
    out = gb.fully_connected(h, 3, 2)
    return gb.build([out])


def an_input(seed=None):
    r = np.random.default_rng(seed) if seed is not None else rng
    return {"x": r.uniform(-1, 1, (1, 4))}


def _cluster_config(tmp_path, **overrides):
    settings = dict(max_batch=4, max_flush_seconds=0.05,
                    cluster_workers=2,
                    registry_dir=str(tmp_path / "state"))
    settings.update(overrides)
    return ServeConfig(**settings)


class TestClusterEndToEnd:
    def test_two_workers_prove_mixed_models(self, tmp_path):
        spec_a, spec_b = small_model("clu-a"), small_model("clu-b")
        with ProvingService(_cluster_config(tmp_path)) as service:
            futures = [service.submit(spec_a if i % 2 else spec_b,
                                      an_input(), scale_bits=6)
                       for i in range(8)]
            responses = [f.result(timeout=300) for f in futures]
            status = service.status()
            stats = service.stats()
        assert all(r.verified for r in responses)
        assert status["mode"] == "cluster"
        cluster = status["cluster"]
        assert cluster["alive"] == 2
        assert len(cluster["workers"]) == 2
        assert cluster["restarts"] == 0
        assert stats["shed_batches"] == 0
        # the shared disk cache persisted one artifact per circuit, and
        # each circuit's verifying key was published beside it
        pk_dir = os.path.join(str(tmp_path / "state"), "pk")
        assert len(os.listdir(pk_dir)) == 2
        published = VKRegistry(str(tmp_path / "state")).list_entries()
        assert sorted(e.model for e in published) == ["clu-a", "clu-b"]

    def test_single_worker_proofs_byte_identical_to_inline(self, tmp_path):
        spec = small_model("clu-parity")
        inputs = [an_input(seed=100 + i) for i in range(3)]
        inline_cfg = ServeConfig(max_batch=1, max_flush_seconds=0.05)
        with ProvingService(inline_cfg) as service:
            inline = [service.submit(spec, inp, scale_bits=6).result(
                timeout=300) for inp in inputs]
        cluster_cfg = _cluster_config(tmp_path, max_batch=1,
                                      cluster_workers=1)
        with ProvingService(cluster_cfg) as service:
            clustered = [service.submit(spec, inp, scale_bits=6).result(
                timeout=300) for inp in inputs]
        for a, b in zip(inline, clustered):
            assert a.verified and b.verified
            assert a.envelope_bytes == b.envelope_bytes

    def test_unknown_priority_rejected_before_queueing(self, tmp_path):
        spec = small_model("clu-prio")
        with ProvingService(_cluster_config(tmp_path,
                                            cluster_workers=1)) as service:
            with pytest.raises(ServiceError, match="unknown priority"):
                service.submit(spec, an_input(), scale_bits=6,
                               priority="urgent")


class TestCrashRecovery:
    def _kill_busy_worker(self, service, deadline=30.0):
        """SIGKILL the first busy worker once the batch is in flight."""
        end = time.monotonic() + deadline
        while time.monotonic() < end:
            cluster = service.status()["cluster"]
            busy = [w for w in cluster["workers"] if w["busy"]]
            if busy:
                os.kill(busy[0]["pid"], signal.SIGKILL)
                return busy[0]["pid"]
            time.sleep(0.002)
        raise AssertionError("no worker went busy before the deadline")

    def test_killed_worker_is_replaced_and_batch_redispatched(
            self, tmp_path):
        spec = small_model("clu-kill")
        config = _cluster_config(tmp_path, cluster_workers=1, max_batch=8,
                                 max_flush_seconds=0.02)
        with ProvingService(config) as service:
            futures = [service.submit(spec, an_input(), scale_bits=6)
                       for _ in range(8)]
            killed_pid = self._kill_busy_worker(service)
            responses = [f.result(timeout=300) for f in futures]
            status = service.status()["cluster"]
            stats = service.stats()
        # no request was lost: the in-flight batch was re-queued at the
        # front and proved by the replacement worker
        assert all(r.verified for r in responses)
        assert status["restarts"] >= 1
        assert stats["redispatched_batches"] >= 1
        replacement = status["workers"][0]
        assert replacement["alive"] and replacement["pid"] != killed_pid

    def test_poison_batch_fails_typed_instead_of_crash_looping(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(scheduler_module, "REDISPATCH_LIMIT", 0)
        spec = small_model("clu-poison")
        config = _cluster_config(tmp_path, cluster_workers=1, max_batch=8,
                                 max_flush_seconds=0.02)
        with ProvingService(config) as service:
            futures = [service.submit(spec, an_input(), scale_bits=6)
                       for _ in range(8)]
            self._kill_busy_worker(service)
            with pytest.raises(WorkerCrashError, match="poison"):
                for f in futures:
                    f.result(timeout=300)
            # the pool itself survived: a fresh request still proves
            after = service.submit(spec, an_input(), scale_bits=6)
            assert after.result(timeout=300).verified


class TestLoadShedding:
    def test_bulk_flood_sheds_typed_overload(self, tmp_path):
        spec = small_model("clu-shed")
        config = _cluster_config(tmp_path, cluster_workers=1, max_batch=1,
                                 max_flush_seconds=0.01,
                                 max_backlog_batches=1)
        with ProvingService(config) as service:
            futures = [service.submit(spec, an_input(), scale_bits=6,
                                      priority="bulk")
                       for _ in range(12)]
            outcomes = []
            for f in futures:
                try:
                    outcomes.append(f.result(timeout=300))
                except ServiceOverloadedError:
                    outcomes.append(None)
            stats = service.stats()
        proved = [r for r in outcomes if r is not None]
        shed = len(outcomes) - len(proved)
        assert proved and all(r.verified for r in proved)
        assert shed > 0  # a 1-deep backlog cannot absorb a 12-batch flood
        assert stats["shed_batches"] == shed


def _job(model="m", priority="interactive", job_id=0):
    return BatchJob(job_id=job_id, batch_id="b%d" % job_id,
                    spec=SimpleNamespace(name=model), batch_inputs=[],
                    scheme_name="kzg", num_cols=4, scale_bits=6,
                    lookup_bits=None, occupancy=1, padded_size=1,
                    priority=priority)


def _scheduler(**overrides):
    """An UNSTARTED scheduler: queue policy only, no processes."""
    shed = []
    settings = dict(workers=1,
                    on_result=lambda job, result: None,
                    on_shed=lambda job, reason: shed.append((job, reason)),
                    metrics=MetricsRegistry(),
                    max_backlog_batches=4)
    settings.update(overrides)
    scheduler = ClusterScheduler(**settings)
    return scheduler, shed


class TestDispatchPolicy:
    def test_interactive_always_dispatches_before_bulk(self):
        scheduler, _ = _scheduler()
        bulk = _job("a", "bulk", 1)
        inter = _job("a", "interactive", 2)
        assert scheduler.enqueue(bulk)
        assert scheduler.enqueue(inter)
        assert scheduler._next_job() is inter
        assert scheduler._next_job() is bulk
        assert scheduler._next_job() is None

    def test_models_round_robin_within_a_class(self):
        scheduler, _ = _scheduler()
        jobs = [_job(model, "interactive", i)
                for i, model in enumerate(["a", "a", "b", "b"])]
        for job in jobs:
            scheduler.enqueue(job)
        order = [scheduler._next_job().spec.name for _ in range(4)]
        # a hot model cannot starve the other: strict alternation
        assert order == ["a", "b", "a", "b"]

    def test_interactive_overflow_evicts_newest_bulk(self):
        scheduler, shed = _scheduler(max_backlog_batches=2)
        old_bulk = _job("m", "bulk", 1)
        new_bulk = _job("m", "bulk", 2)
        scheduler.enqueue(old_bulk)
        scheduler.enqueue(new_bulk)
        inter = _job("m", "interactive", 3)
        assert scheduler.enqueue(inter)  # accepted at full backlog...
        assert shed == [(new_bulk, "overload")]  # ...at newest bulk's cost
        assert scheduler.status()["shed"] == 1
        assert scheduler._next_job() is inter
        assert scheduler._next_job() is old_bulk

    def test_bulk_overflow_sheds_the_incoming_batch(self):
        scheduler, shed = _scheduler(max_backlog_batches=1)
        scheduler.enqueue(_job("m", "bulk", 1))
        late = _job("m", "bulk", 2)
        assert not scheduler.enqueue(late)
        assert shed == [(late, "overload")]

    def test_interactive_overflow_without_bulk_victims_sheds_incoming(
            self):
        scheduler, shed = _scheduler(max_backlog_batches=1)
        scheduler.enqueue(_job("m", "interactive", 1))
        late = _job("m", "interactive", 2)
        assert not scheduler.enqueue(late)
        assert shed == [(late, "overload")]

    def test_backlog_bound_is_per_model(self):
        scheduler, shed = _scheduler(max_backlog_batches=1)
        assert scheduler.enqueue(_job("a", "bulk", 1))
        assert scheduler.enqueue(_job("b", "bulk", 2))  # own bucket
        assert shed == []

    def test_priorities_constant_matches_policy_order(self):
        assert PRIORITIES == ("interactive", "bulk")


class TestConcurrentDispatch:
    def test_racing_dispatchers_prove_every_batch_once(self, monkeypatch):
        """Enqueues from four threads race the collector's dispatches over
        four in-process workers (more than the cores), with the switch
        interval cut to a microsecond: no batch is lost, shed or proved
        twice."""
        proved, results, misassigned = [], [], []

        def prove(job, worker_id, registry):
            proved.append(job.job_id)
            handle = next(h for h in scheduler._handles
                          if h.worker_id == worker_id)
            if handle.current is not job:  # claimed under the lock?
                misassigned.append(job.job_id)
            return BatchResult(job_id=job.job_id, batch_id=job.batch_id,
                               ok=True, worker_id=worker_id, pid=0,
                               slot_outputs=[{}])

        monkeypatch.setattr(worker_module, "prove_job", prove)
        scheduler, shed = _scheduler(workers=0, on_result=results.append,
                                     max_backlog_batches=1000)
        # three more thread workers beside the one start() adds
        scheduler._handles = [scheduler._spawn(i) for i in (1, 2, 3)]
        per_thread, threads = 50, 4

        def submit(first):
            for job_id in range(first, first + per_thread):
                scheduler.enqueue(_job("abc"[job_id % 3],
                                       PRIORITIES[job_id % 2], job_id))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            scheduler.start()
            submitters = [threading.Thread(target=submit,
                                           args=(t * per_thread,))
                          for t in range(threads)]
            for thread in submitters:
                thread.start()
            for thread in submitters:
                thread.join(timeout=60)
                assert not thread.is_alive()
            deadline = time.monotonic() + 60
            while len(results) < per_thread * threads \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
        finally:
            sys.setswitchinterval(interval)
            scheduler.shutdown(drain=True, timeout=60)
        everything = list(range(per_thread * threads))
        assert sorted(proved) == everything
        assert sorted(r.job_id for r in results) == everything
        assert shed == [] and misassigned == []
        assert scheduler.status()["backlog_total"] == 0
