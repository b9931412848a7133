"""Tests for the batch-aware proving service (queue → batcher → workers)."""

import numpy as np
import pytest

from repro.model import GraphBuilder, run_fixed
from repro.perf.pkcache import GLOBAL_PK_CACHE
from repro.resilience.errors import (
    ServiceOverloadedError,
    ServiceShutdownError,
)
from repro.serve import ProvingService, ServeConfig

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
    def test_requests_coalesce_verify_and_carry_outputs(self):
        spec = small_model()
        inputs = [an_input() for _ in range(6)]
        with ProvingService(ServeConfig(max_batch=4,
                                        max_flush_seconds=0.2)) as service:
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
            by_size.setdefault(r.batch_size, set()).add(r.proof_bytes)
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

    def test_metrics_recorded(self):
        from repro.obs.metrics import MetricsRegistry

        spec = small_model()
        registry = MetricsRegistry()
        config = ServeConfig(max_batch=2, max_flush_seconds=0.1)
        with ProvingService(config, metrics=registry) as service:
            futures = [service.submit(spec, an_input(), scale_bits=6)
                       for _ in range(2)]
            for f in futures:
                f.result(timeout=120)
        assert registry.value("serve_requests_total", model="served") == 2
        assert registry.value("serve_batches_total", model="served") == 1
        text = registry.to_prometheus()
        assert "serve_batch_occupancy_bucket" in text
        assert "serve_request_seconds_sum" in text

    def test_batch_cost_attributed_per_slot(self):
        # a coalesced batch must report per-request cost as batch time /
        # occupancy — not the whole batch's latency per request
        from repro.obs.metrics import MetricsRegistry

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

    def test_shutdown_drains_partial_batches(self):
        spec = small_model()
        config = ServeConfig(max_batch=8, max_flush_seconds=30.0)
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


class TestResilience:
    def test_failed_batch_fails_only_its_own_requests(self):
        spec = small_model()
        bad_spec = small_model("served-bad")
        config = ServeConfig(max_batch=4, max_flush_seconds=0.05)
        with ProvingService(config) as service:
            good = service.submit(spec, an_input(), scale_bits=6)
            bad = service.submit(bad_spec, {"x": np.full((1, 4), 1e9)},
                                 scale_bits=6)
            assert good.result(timeout=120).verified
            with pytest.raises(Exception) as excinfo:
                bad.result(timeout=120)
        from repro.resilience.errors import ResilienceError

        assert isinstance(excinfo.value, ResilienceError)
