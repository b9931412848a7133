"""Tests for the runtime telemetry layer (SLO windows, flight recorder)."""

import json

import pytest

from repro.obs.runtime import (
    FLIGHT_SCHEMA,
    FlightRecorder,
    RuntimeTelemetry,
    SloTracker,
    SloWindow,
    flight_checksum,
    new_batch_id,
    new_request_id,
    percentile,
    render_status,
    verify_flight_dump,
)


class FakeClock:
    def __init__(self, start=1000.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestIds:
    def test_ids_unique_and_prefixed(self):
        rids = {new_request_id() for _ in range(100)}
        assert len(rids) == 100
        assert all(r.startswith("req-") for r in rids)
        assert new_batch_id().startswith("batch-")

    def test_ids_sortable_in_mint_order(self):
        a, b = new_request_id(), new_request_id()
        assert int(a.rsplit("-", 1)[1]) < int(b.rsplit("-", 1)[1])


class TestPercentile:
    def test_empty_is_none(self):
        assert percentile([], 0.5) is None

    def test_nearest_rank(self):
        values = sorted([1.0, 2.0, 3.0, 4.0])
        assert percentile(values, 0.50) == 2.0
        assert percentile(values, 0.95) == 4.0
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 4.0

    def test_singleton(self):
        assert percentile([7.0], 0.99) == 7.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)


class TestSloWindow:
    def test_counts_and_percentiles(self):
        win = SloWindow("1m", 60.0)
        for i in range(10):
            win.observe(100.0, latency=0.1 * (i + 1), ok=i != 0,
                        occupancy=4)
        snap = win.snapshot(100.0)
        assert snap["count"] == 10
        assert snap["errors"] == 1
        assert snap["error_rate"] == 0.1
        assert snap["mean_occupancy"] == 4.0
        assert snap["p50_seconds"] == 0.5
        assert snap["p99_seconds"] == 1.0

    def test_horizon_eviction(self):
        win = SloWindow("1m", 60.0)
        win.observe(0.0, latency=9.0, ok=False, occupancy=1)
        win.observe(59.0, latency=0.1, ok=True, occupancy=1)
        # at t=70 the t=0 sample (and its error) has aged out
        snap = win.snapshot(70.0)
        assert snap["count"] == 1
        assert snap["errors"] == 0
        assert snap["p99_seconds"] == 0.1

    def test_total_window_keeps_exact_counts_past_ring(self):
        win = SloWindow("total", None, max_samples=8, started_at=0.0)
        for i in range(100):
            win.observe(float(i), latency=0.01, ok=i % 2 == 0, occupancy=1)
        snap = win.snapshot(100.0)
        # counts are exact running sums even though the ring holds 8
        assert snap["count"] == 100
        assert snap["errors"] == 50
        assert snap["throughput_rps"] == 1.0

    def test_empty_snapshot(self):
        snap = SloWindow("5m", 300.0).snapshot(10.0)
        assert snap["count"] == 0
        assert snap["p50_seconds"] is None
        assert snap["error_rate"] == 0.0


class TestSloTracker:
    def test_all_windows_fed_from_one_observe(self):
        clock = FakeClock()
        tracker = SloTracker(clock=clock)
        tracker.observe(0.25, ok=True, occupancy=2)
        snap = tracker.snapshot()
        assert set(snap) == {"1m", "5m", "total"}
        assert all(w["count"] == 1 for w in snap.values())

    def test_short_window_forgets_old_minutes(self):
        clock = FakeClock()
        tracker = SloTracker(clock=clock)
        tracker.observe(0.5)
        clock.advance(120.0)
        tracker.observe(0.1)
        snap = tracker.snapshot()
        assert snap["1m"]["count"] == 1
        assert snap["total"]["count"] == 2


class TestFlightRecorder:
    def test_ring_keeps_only_the_tail(self):
        recorder = FlightRecorder(capacity=4, clock=FakeClock())
        for i in range(10):
            recorder.record("tick", i=i)
        assert len(recorder) == 4
        assert recorder.recorded == 10
        assert [e["i"] for e in recorder.events()] == [6, 7, 8, 9]
        # seq numbers are global, not ring positions
        assert [e["seq"] for e in recorder.events()] == [6, 7, 8, 9]

    def test_kind_filter(self):
        recorder = FlightRecorder(clock=FakeClock())
        recorder.record("a", x=1)
        recorder.record("b", x=2)
        assert [e["x"] for e in recorder.events(kind="b")] == [2]

    def test_dump_artifact_verifies(self, tmp_path):
        recorder = FlightRecorder(clock=FakeClock())
        recorder.record("request_accepted", request_id="req-1")
        path = str(tmp_path / "flight.json")
        artifact = recorder.dump(path=path, reason="test")
        assert artifact["schema"] == FLIGHT_SCHEMA
        assert artifact["reason"] == "test"
        assert verify_flight_dump(artifact)
        with open(path) as fh:
            loaded = json.load(fh)
        assert verify_flight_dump(loaded)
        assert loaded["checksum"] == artifact["checksum"]
        assert recorder.dumps == 1

    def test_tampered_dump_fails_verification(self, tmp_path):
        recorder = FlightRecorder(clock=FakeClock())
        recorder.record("request_accepted", request_id="req-1")
        artifact = recorder.dump(reason="test")
        artifact["events"][0]["request_id"] = "req-FORGED"
        assert not verify_flight_dump(artifact)

    def test_wrong_schema_fails_verification(self):
        assert not verify_flight_dump(
            {"schema": "bogus", "events": [], "checksum": flight_checksum([])})

    def test_checksum_stringifies_non_json_values(self):
        # request_ids lists and numpy scalars survive canonicalization
        events = [{"kind": "x", "value": object()}]
        assert isinstance(flight_checksum(events), str)


class TestRuntimeTelemetry:
    def test_overload_storm_detection_and_rate_limit(self):
        clock = FakeClock()
        runtime = RuntimeTelemetry(overload_threshold=3,
                                   overload_window_seconds=1.0, clock=clock)
        assert not runtime.rejection()
        assert not runtime.rejection()
        assert runtime.rejection()  # third within the window: storm
        assert not runtime.rejection()  # rate-limited
        clock.advance(2.0)
        for _ in range(2):
            assert not runtime.rejection()
        assert runtime.rejection()  # fresh storm after the window

    def test_dump_prefers_explicit_path(self, tmp_path):
        configured = str(tmp_path / "auto.json")
        explicit = str(tmp_path / "explicit.json")
        runtime = RuntimeTelemetry(dump_path=configured, clock=FakeClock())
        runtime.note("x")
        runtime.dump(reason="r", path=explicit)
        assert (tmp_path / "explicit.json").exists()
        assert not (tmp_path / "auto.json").exists()


class TestAutoDumpRateLimit:
    """Per-reason rate limiting of automatic flight-recorder dumps.

    A crash-looping cluster worker fails a batch every tick; without
    this limit every failure would write a new dump file.  The first
    dump per reason lands, repeats within the interval are suppressed
    (counted), and distinct reasons never starve each other.
    """

    def _runtime(self, tmp_path, clock, interval=5.0):
        return RuntimeTelemetry(
            dump_path=str(tmp_path / "flight.json"), clock=clock,
            auto_dump_interval_seconds=interval)

    def test_repeat_reason_suppressed_within_interval(self, tmp_path):
        clock = FakeClock()
        runtime = self._runtime(tmp_path, clock)
        runtime.note("batch_failed", batch_id="batch-1")
        assert runtime.auto_dump("batch_failure") is not None
        for _ in range(10):  # the crash loop
            clock.advance(0.1)
            assert runtime.auto_dump("batch_failure") is None
        assert runtime.suppressed_dumps == 10

    def test_dumps_again_after_interval(self, tmp_path):
        clock = FakeClock()
        runtime = self._runtime(tmp_path, clock, interval=5.0)
        assert runtime.auto_dump("batch_failure") is not None
        clock.advance(4.9)
        assert runtime.auto_dump("batch_failure") is None
        clock.advance(0.2)
        artifact = runtime.auto_dump("batch_failure")
        assert artifact is not None
        assert verify_flight_dump(artifact)
        assert runtime.suppressed_dumps == 1

    def test_reasons_rate_limit_independently(self, tmp_path):
        clock = FakeClock()
        runtime = self._runtime(tmp_path, clock)
        assert runtime.auto_dump("batch_failure") is not None
        clock.advance(0.5)
        # a different reason is not starved by the batch_failure dump
        assert runtime.auto_dump("overload_storm") is not None
        assert runtime.auto_dump("overload_storm") is None
        assert runtime.auto_dump("batch_failure") is None
        assert runtime.suppressed_dumps == 2

    def test_no_dump_path_means_no_auto_dumps(self, tmp_path):
        runtime = RuntimeTelemetry(clock=FakeClock())
        assert runtime.auto_dump("batch_failure") is None
        assert runtime.suppressed_dumps == 0
        assert not list(tmp_path.iterdir())

    def test_explicit_dump_bypasses_the_limit(self, tmp_path):
        # the operator `dump` control op is never rate-limited — only
        # *automatic* dumps are
        clock = FakeClock()
        runtime = self._runtime(tmp_path, clock)
        assert runtime.auto_dump("batch_failure") is not None
        for _ in range(3):
            assert runtime.dump(reason="operator_request") is not None
        assert runtime.suppressed_dumps == 0


class TestRenderStatus:
    def test_renders_every_section(self):
        status = {
            "uptime_seconds": 12.5, "accepting": True,
            "queue": {"depth": 3, "max": 64},
            "inflight_batches": 1, "outstanding_requests": 4,
            "counters": {"requests": 10, "proofs": 8, "batches": 2,
                         "rejected": 1, "failed_batches": 0,
                         "mean_occupancy": 4.0},
            "slo": {"1m": {"count": 8, "error_rate": 0.0,
                           "p50_seconds": 0.3, "p95_seconds": 0.5,
                           "p99_seconds": 0.5, "throughput_rps": 2.0,
                           "mean_occupancy": 4.0}},
            "pending_by_model": {"dlrm-mini": 2},
            "batcher": {"max_batch": 8, "flush_deadline_seconds": 0.05,
                        "ema_prove_seconds": 0.2},
            "pk_cache": {"entries": 2, "maxsize": 4, "hits": 5,
                         "misses": 2, "rebuilds": 0},
            "resilience": {"degraded": 0, "retries": 0, "recovered": 0},
            "flight_recorder": {"buffered": 10, "capacity": 512,
                                "recorded": 10, "dumps": 0},
        }
        text = render_status(status)
        assert "up 12.5s" in text
        assert "queue 3/64" in text
        assert "pending: dlrm-mini=2" in text
        assert "pk cache: 2/4" in text
        assert "flight recorder: 10/512" in text
        assert "0.300" in text  # p50 formatted

    def test_renders_minimal_status(self):
        # health-degraded server: most sections absent, still renders
        text = render_status({"accepting": False})
        assert "accepting=NO" in text
        assert "resilience:" in text
