"""Tests for the batch-aware proving service (queue → batcher → workers).

There is one way to run a served batch — the scheduler hands it to a
worker — so the resolve / fail / metrics / shutdown cases are written
once and run once per mode (``workers``: 0 proves on the one in-process
worker thread, 1 in a worker process); cases that hang on in-process
state (the pk cache, a held worker) or on timing stay in-process.
The four cases that predate the single path keep their test ids for
the in-process run (``workers=0`` default) and run again on
a one-worker cluster through ``test_case_on_a_one_worker_cluster``.
"""

import dataclasses
import os
import re
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.model import GraphBuilder, get_model, run_fixed
from repro.obs.metrics import MetricsRegistry
from repro.perf.pkcache import GLOBAL_PK_CACHE
from repro.envelope import decode_envelope, verify_envelope
from repro.registry import VKRegistry
from repro.resilience.errors import (
    QuantizationRangeError,
    RegistryError,
    ServiceError,
    ServiceOverloadedError,
    ServiceShutdownError,
    VerificationFailure,
)
from repro.serve import ProvingService, ServeConfig, VerifyService
from repro.serve.client import submit_request
from repro.serve.http_server import HttpFrontEnd
from repro.serve.server import PayloadProcessor
from repro.serve import scheduler as scheduler_module
from repro.serve import worker as worker_module

MODES = pytest.mark.parametrize("workers", [0, 1])

rng = np.random.default_rng(17)


def small_model(name="served"):
    gb = GraphBuilder(name, materialize=True, seed=2)
    x = gb.input("x", (1, 4))
    h = gb.fully_connected(x, 4, 3)
    h = gb.activation(h, "relu")
    out = gb.fully_connected(h, 3, 2)
    return gb.build([out])


def an_input():
    return {"x": rng.uniform(-1, 1, (1, 4))}


class TestCoalescing:
    def test_requests_coalesce_verify_and_carry_outputs(self, workers=0):
        spec = small_model()
        inputs = [an_input() for _ in range(6)]
        with ProvingService(ServeConfig(max_batch=4, max_flush_seconds=0.2,
                                        cluster_workers=workers)) as service:
            futures = [service.submit(spec, inp, scale_bits=6)
                       for inp in inputs]
            responses = [f.result(timeout=120) for f in futures]
            stats = service.stats()
        assert all(r.verified for r in responses)
        assert stats["batches"] == 2
        assert stats["proofs"] == 6
        assert stats["mean_occupancy"] == pytest.approx(3.0)
        # 6 requests split 4 + 2; a batch's members share one proof
        assert sorted(r.batch_size for r in responses) == [2, 2, 4, 4, 4, 4]
        by_size = {}
        for r in responses:
            by_size.setdefault(r.batch_size, set()).add(r.envelope_bytes)
        assert all(len(proofs) == 1 for proofs in by_size.values())
        # each response carries *its own* inference's outputs
        for inp, response in zip(inputs, responses):
            reference = run_fixed(spec, inp, 6)
            for name in spec.outputs:
                want = np.asarray(reference[name], dtype=object)
                assert (response.outputs[name] == want).all()

    def test_distinct_models_do_not_coalesce(self):
        spec_a, spec_b = small_model("served-a"), small_model("served-b")
        with ProvingService(ServeConfig(max_batch=4,
                                        max_flush_seconds=0.05)) as service:
            fa = service.submit(spec_a, an_input(), scale_bits=6)
            fb = service.submit(spec_b, an_input(), scale_bits=6)
            ra, rb = fa.result(timeout=120), fb.result(timeout=120)
            stats = service.stats()
        assert stats["batches"] == 2
        assert ra.batch_size == rb.batch_size == 1
        assert ra.model == "served-a" and rb.model == "served-b"

    def test_padding_keeps_proving_keys_warm(self):
        GLOBAL_PK_CACHE.clear()
        spec = small_model()
        config = ServeConfig(max_batch=4, max_flush_seconds=0.05)
        with ProvingService(config) as service:
            first = [service.submit(spec, an_input(), scale_bits=6)
                     for _ in range(3)]
            responses = [f.result(timeout=120) for f in first]
            assert all(r.padded_size == 4 for r in responses)
            assert not any(r.keygen_cache_hit for r in responses)
            second = [service.submit(spec, an_input(), scale_bits=6)
                      for _ in range(3)]
            responses = [f.result(timeout=120) for f in second]
        # same occupancy bucket -> same circuit shape -> keygen skipped
        assert all(r.keygen_cache_hit for r in responses)

    def test_metrics_recorded(self, workers=0):
        spec = small_model()
        registry = MetricsRegistry()
        config = ServeConfig(max_batch=2, max_flush_seconds=0.1,
                             cluster_workers=workers)
        with ProvingService(config, metrics=registry) as service:
            futures = [service.submit(spec, an_input(), scale_bits=6)
                       for _ in range(2)]
            for f in futures:
                f.result(timeout=120)
        assert registry.value("serve_requests_total", model="served") == 2
        assert registry.value("serve_batches_total", model="served") == 1
        # one fold per batch: the per-model prover series and the
        # per-worker series, whichever worker proved it
        assert registry.value("zkml_prover_runs_total", model="served") == 1
        assert registry.value("zkml_prover_slots_total", model="served") == 2
        assert registry.value("zkml_worker_batches_total", worker="0") == 1
        assert registry.value("zkml_worker_ops_total", worker="0",
                              op="commitments") > 0
        text = registry.to_prometheus()
        assert "serve_batch_occupancy_bucket" in text
        assert "serve_request_seconds_sum" in text
        # one series per fact: the per-worker batch count is
        # zkml_worker_batches_total; circuit-shape gauges belong to
        # zkml prove|profile|inspect --metrics
        assert "serve_worker_batches_total" not in text
        assert "zkml_rows_total" not in text

    def test_batch_cost_attributed_per_slot(self):
        # a coalesced batch must report per-request cost as batch time /
        # occupancy — not the whole batch's latency per request
        spec = small_model()
        registry = MetricsRegistry()
        config = ServeConfig(max_batch=3, max_flush_seconds=0.2)
        with ProvingService(config, metrics=registry) as service:
            futures = [service.submit(spec, an_input(), scale_bits=6)
                       for _ in range(3)]
            responses = [f.result(timeout=120) for f in futures]
        for r in responses:
            assert r.batch_size == 3
            assert r.slot_prove_seconds == pytest.approx(
                r.prove_seconds / 3)
        # the amortized histogram saw one sample per request
        text = registry.to_prometheus()
        assert "serve_slot_prove_seconds_count 3" in text


class TestBackpressureAndShutdown:
    def test_full_queue_rejects_with_typed_error(self):
        spec = small_model()
        service = ProvingService(ServeConfig(max_queue=2))  # not started
        service.submit(spec, an_input(), scale_bits=6)
        service.submit(spec, an_input(), scale_bits=6)
        with pytest.raises(ServiceOverloadedError):
            service.submit(spec, an_input(), scale_bits=6)
        assert service.stats()["rejected"] == 1
        # the queued work is not lost: starting the service resolves it
        service.start()
        service.drain(timeout=120)
        service.shutdown()

    def test_submit_after_shutdown_raises(self):
        service = ProvingService().start()
        service.shutdown()
        with pytest.raises(ServiceShutdownError):
            service.submit(small_model(), an_input(), scale_bits=6)

    def test_shutdown_drains_partial_batches(self, workers=0):
        spec = small_model()
        config = ServeConfig(max_batch=8, max_flush_seconds=30.0,
                             cluster_workers=workers)
        service = ProvingService(config).start()
        futures = [service.submit(spec, an_input(), scale_bits=6)
                   for _ in range(3)]
        # far below max_batch and far before the deadline: only the
        # drain forces the flush
        service.shutdown(drain=True)
        responses = [f.result(timeout=1) for f in futures]
        assert all(r.verified for r in responses)
        assert all(r.batch_size == 3 for r in responses)

    def test_shutdown_without_drain_fails_futures_cleanly(self):
        spec = small_model()
        service = ProvingService(ServeConfig())  # never started
        futures = [service.submit(spec, an_input(), scale_bits=6)
                   for _ in range(2)]
        service.shutdown(drain=False)
        for future in futures:
            with pytest.raises(ServiceShutdownError):
                future.result(timeout=1)
        assert service.stats()["queue_depth"] == 0


def out_of_range():
    """Inputs the quantizer refuses with a typed error."""
    return {"x": np.full((1, 4), 1e30)}


class TestResilience:
    def test_failed_batch_fails_only_its_own_requests(self, workers=0):
        spec = small_model()
        bad_spec = small_model("served-bad")
        config = ServeConfig(max_batch=4, max_flush_seconds=0.05,
                             cluster_workers=workers)
        with ProvingService(config) as service:
            good = service.submit(spec, an_input(), scale_bits=6)
            bad = service.submit(bad_spec, out_of_range(), scale_bits=6)
            assert good.result(timeout=120).verified
            with pytest.raises(QuantizationRangeError):
                bad.result(timeout=120)
            stats = service.stats()
        assert stats["failed_batches"] == 1 and stats["batches"] == 1

    def test_failure_is_the_same_typed_error_in_both_modes(self, tmp_path):
        """A batch fails its futures with the error as raised — same
        class, same ``str()`` — wherever it was proved, and the wire
        reply names that class."""
        spec = small_model("served-bad")
        dlrm = get_model("dlrm", "mini")
        payload = {"model": "dlrm", "scale_bits": 6, "inputs": {
            name: np.full(shape, 1e30).tolist()
            for name, shape in dlrm.inputs.items()}}
        raised, replies = [], []
        for workers in (0, 1):
            config = ServeConfig(max_batch=1, max_flush_seconds=0.05,
                                 cluster_workers=workers)
            socket_path = str(tmp_path / ("serve-%d.sock" % workers))
            with ProvingService(config) as service:
                future = service.submit(spec, out_of_range(), scale_bits=6)
                with pytest.raises(QuantizationRangeError) as excinfo:
                    future.result(timeout=120)
                raised.append(excinfo.value)
                server = HttpFrontEnd(PayloadProcessor(service),
                                      socket_path).start()
                try:
                    replies.append(submit_request(socket_path, payload,
                                                  timeout=120.0))
                finally:
                    server.stop()
        assert type(raised[0]) is type(raised[1])
        assert str(raised[0]) == str(raised[1])
        assert raised[0].attribution() == raised[1].attribution()
        for reply in replies:
            assert not reply["ok"]
            assert reply["error"] == "QuantizationRangeError"
        assert replies[0]["detail"] == replies[1]["detail"]


class TestOneBatchPath:
    @MODES
    def test_inflight_batches_counts_launched_unresolved(self, workers,
                                                         held_worker):
        spec = small_model()
        config = ServeConfig(max_batch=1, max_flush_seconds=0.01,
                             cluster_workers=workers)
        with ProvingService(config) as service:
            assert service.health()["inflight_batches"] == 0
            future = service.submit(spec, an_input(), scale_bits=6)
            # launched, and held unresolved in the worker
            assert held_worker.started.wait(timeout=120)
            assert service.health()["inflight_batches"] == 1
            assert service.status()["inflight_batches"] == 1
            held_worker.release.set()
            assert future.result(timeout=120).verified
            service.drain(timeout=30)
            assert service.health()["inflight_batches"] == 0
            assert service.status()["inflight_batches"] == 0

    def test_catalog_is_the_same_in_both_modes(self):
        """The same four requests leave the same metric names with the
        same label keys in the registry, wherever they were proved — the
        scheduler's own series included."""
        spec = small_model("served-catalog")
        inputs = [an_input() for _ in range(4)]

        def catalog(workers):
            registry = MetricsRegistry()
            config = ServeConfig(max_batch=1, max_flush_seconds=0.01,
                                 cluster_workers=workers)
            with ProvingService(config, metrics=registry) as service:
                for inp in inputs:
                    assert service.submit(spec, inp, scale_bits=6).result(
                        timeout=120).verified
            return {name: {frozenset(k for k, _ in key)
                           for key in family.instances}
                    for name, family in registry._families.items()}

        inline, cluster = catalog(0), catalog(1)
        assert inline == cluster
        assert {"zkml_prover_runs_total", "zkml_phase_seconds",
                "zkml_worker_ops_total", "zkml_worker_pk_cache",
                "zkml_field_kernel", "zkml_scheduler_dispatch_seconds",
                "zkml_scheduler_backlog"} <= set(inline)
        assert inline["zkml_field_kernel"] == {frozenset({"lanes", "threads"})}


@pytest.fixture
def held_worker(monkeypatch):
    """The worker — the in-process thread, or a process forked after this
    — held on its first batch until released; ``proved`` lists the
    priority of each batch an in-process worker proves, in order."""
    ctx = scheduler_module._mp_context()
    started, release, proved = ctx.Event(), ctx.Event(), []
    prove_job = worker_module.prove_job

    def held(job, worker_id, registry):
        started.set()
        assert release.wait(timeout=120)
        proved.append(job.priority)
        return prove_job(job, worker_id, registry)

    monkeypatch.setattr(worker_module, "prove_job", held)
    return SimpleNamespace(started=started, release=release, proved=proved)


def _backlog_reaches(service, batches, deadline=30.0):
    end = time.monotonic() + deadline
    while service.status()["cluster"]["backlog_total"] < batches:
        assert time.monotonic() < end, "batches never reached the backlog"
        time.sleep(0.001)


class TestSchedulerPolicyInProcess:
    """``--workers 0`` dispatches through the same scheduler: its
    priority classes and per-model backlog cap apply to the in-process
    worker too."""

    def test_interactive_proves_before_earlier_bulk(self, held_worker):
        spec = small_model("served-prio")
        config = ServeConfig(max_batch=1, max_flush_seconds=0.01)
        with ProvingService(config) as service:
            first = service.submit(spec, an_input(), scale_bits=6,
                                   priority="bulk")
            assert held_worker.started.wait(timeout=120)
            bulk = service.submit(spec, an_input(), scale_bits=6,
                                  priority="bulk")
            _backlog_reaches(service, 1)
            interactive = service.submit(spec, an_input(), scale_bits=6)
            _backlog_reaches(service, 2)
            held_worker.release.set()
            for future in (first, bulk, interactive):
                assert future.result(timeout=120).verified
        assert held_worker.proved == ["bulk", "interactive", "bulk"]

    def test_backlog_beyond_the_cap_is_shed(self, held_worker):
        spec = small_model("served-shed")
        registry = MetricsRegistry()
        config = ServeConfig(max_batch=1, max_flush_seconds=0.01,
                             max_backlog_batches=1)
        with ProvingService(config, metrics=registry) as service:
            first = service.submit(spec, an_input(), scale_bits=6)
            assert held_worker.started.wait(timeout=120)
            queued, *beyond = [
                service.submit(spec, an_input(), scale_bits=6,
                               priority="bulk") for _ in range(3)]
            for future in beyond:
                with pytest.raises(ServiceOverloadedError):
                    future.result(timeout=120)
            held_worker.release.set()
            assert first.result(timeout=120).verified
            assert queued.result(timeout=120).verified
            stats = service.stats()
        assert stats["shed_batches"] == 2
        assert registry.value("serve_shed_batches_total",
                              model="served-shed", reason="overload") == 2


class TestStateDirectory:
    """``registry_dir`` is the service's one state directory: the key of
    every served batch is published there, where verifiers look."""

    def test_coalesced_envelope_verifies_against_the_published_key(
            self, tmp_path):
        spec = small_model("served-published")
        root = str(tmp_path / "state")
        service = ProvingService(ServeConfig(registry_dir=root, max_batch=4))
        # queued before start, so the four coalesce into one batch
        futures = [service.submit(spec, an_input(), scale_bits=6)
                   for _ in range(4)]
        with service.start():
            responses = [f.result(timeout=120) for f in futures]
        assert [r.batch_size for r in responses] == [4, 4, 4, 4]
        data = responses[0].envelope_bytes
        env = decode_envelope(data)
        vk, entry = VKRegistry(root).resolve(env.vk_hash_hex)
        entry.bind(env)
        assert verify_envelope(env, vk)
        # the last slot's first output, forged
        instance = [list(column) for column in env.instance]
        instance[-1][0] += 1
        forged = dataclasses.replace(env, instance=instance)
        with pytest.raises(VerificationFailure):
            verify_envelope(forged, vk)
        verifier = VerifyService(registry=VKRegistry(root))
        try:
            report = verifier.verify_batch([data, forged.encode()])
        finally:
            verifier.close()
        assert report["accepted"] == 1 and report["rejected"] == 1
        assert report["results"][1]["cause"] == "verify_failed"

    def test_every_batch_publishes_and_a_present_key_is_a_no_op(
            self, tmp_path, monkeypatch):
        spec = small_model("served-disk-hit")
        config = ServeConfig(registry_dir=str(tmp_path / "state"),
                             max_batch=1, max_flush_seconds=0.01)
        created = []
        publish = VKRegistry.publish

        def spy(registry, vk, model, config_digest):
            entry, fresh = publish(registry, vk, model, config_digest)
            created.append(fresh)
            return entry, fresh

        monkeypatch.setattr(VKRegistry, "publish", spy)
        GLOBAL_PK_CACHE.clear()
        with ProvingService(config) as service:
            for _ in range(2):  # keygen, then a memory hit
                assert service.submit(spec, an_input(), scale_bits=6).result(
                    timeout=120).verified
        assert created == [True, False]
        GLOBAL_PK_CACHE.clear()  # the keys stay on disk
        with ProvingService(config) as service:
            response = service.submit(spec, an_input(), scale_bits=6).result(
                timeout=120)
        assert response.keygen_cache_hit  # loaded from disk
        assert created == [True, False, False]

    def test_no_batch_is_delivered_under_an_unpublished_key(
            self, tmp_path, monkeypatch):
        # the first publish fails; its key stays in the in-memory pk
        # cache, so the next batch is a memory hit and must publish it
        # before it is delivered.  An entry evicted while the service
        # runs is put back the same way.
        publish = VKRegistry.publish
        refusals = []

        def refuse_once(registry, vk, model, config_digest):
            if not refusals:
                refusals.append(model)
                raise RegistryError("could not write registry index")
            return publish(registry, vk, model, config_digest)

        monkeypatch.setattr(VKRegistry, "publish", refuse_once)
        GLOBAL_PK_CACHE.clear()
        root = str(tmp_path / "state")
        config = ServeConfig(registry_dir=root, max_batch=1,
                             max_flush_seconds=0.01)
        spec = small_model("served-unpublished")

        def served_key():
            response = service.submit(spec, an_input(), scale_bits=6).result(
                timeout=120)
            assert response.keygen_cache_hit  # the key was in memory
            return decode_envelope(response.envelope_bytes).vk_hash_hex

        with ProvingService(config) as service:
            with pytest.raises(RegistryError):
                service.submit(spec, an_input(), scale_bits=6).result(
                    timeout=120)
            vk_hash = served_key()
            VKRegistry(root).resolve(vk_hash)
            os.unlink(os.path.join(root, VKRegistry(root).entry(
                vk_hash).file))
            assert VKRegistry(root).check(repair=True)["repaired"]
            assert served_key() == vk_hash
            VKRegistry(root).resolve(vk_hash)

    @MODES
    def test_an_unusable_directory_fails_start_before_any_worker(
            self, tmp_path, workers):
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        root = str(blocker / "state")
        service = ProvingService(ServeConfig(registry_dir=root,
                                             cluster_workers=workers))
        with pytest.raises(ServiceError, match=re.escape(root)):
            service.start()
        time.sleep(0.1)  # ten monitor ticks: a respawn loop would show
        assert service.stats()["worker_restarts"] == 0
        assert service.health()["workers_alive"] == 0


ON_A_CLUSTER = [
    (TestCoalescing, "test_requests_coalesce_verify_and_carry_outputs"),
    (TestCoalescing, "test_metrics_recorded"),
    (TestBackpressureAndShutdown, "test_shutdown_drains_partial_batches"),
    (TestResilience, "test_failed_batch_fails_only_its_own_requests"),
]


@pytest.mark.parametrize("cls, name", ON_A_CLUSTER,
                         ids=[name for _, name in ON_A_CLUSTER])
def test_case_on_a_one_worker_cluster(cls, name):
    getattr(cls(), name)(workers=1)
