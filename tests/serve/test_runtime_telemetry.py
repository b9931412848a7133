"""Tests for the serving path's operational telemetry.

Request correlation end to end, the health/status/metrics/dump control
ops over a real socket, flight-recorder postmortems on forced faults,
and the ``zkml top`` scripting surface.
"""

import json
import socket as socket_mod
import threading

import numpy as np
import pytest

from repro.model import GraphBuilder
from repro.obs.runtime import OVERLOAD_DUMP_THRESHOLD, verify_flight_dump
from repro.resilience.errors import ResilienceError, ServiceError
from repro.serve import ProvingService, ServeConfig
from repro.serve.client import control_request, submit_request
from repro.serve.http_server import HttpFrontEnd
from repro.serve.server import PayloadProcessor

rng = np.random.default_rng(23)


def small_model(name="telemetry"):
    gb = GraphBuilder(name, materialize=True, seed=2)
    x = gb.input("x", (1, 4))
    h = gb.fully_connected(x, 4, 3)
    h = gb.activation(h, "relu")
    out = gb.fully_connected(h, 3, 2)
    return gb.build([out])


def an_input():
    return {"x": rng.uniform(-1, 1, (1, 4))}


class TestRequestCorrelation:
    def test_request_id_round_trips_and_correlates_the_lifecycle(self):
        spec = small_model()
        config = ServeConfig(max_batch=2, max_flush_seconds=0.1)
        with ProvingService(config) as service:
            futures = [service.submit(spec, an_input(), scale_bits=6,
                                      request_id="req-test-%d" % i)
                       for i in range(2)]
            responses = [f.result(timeout=120) for f in futures]
            events = service.runtime.recorder.events()
        assert [r.request_id for r in responses] == ["req-test-0",
                                                     "req-test-1"]
        # both requests rode the same batch, and say which
        assert responses[0].batch_id == responses[1].batch_id
        batch_id = responses[0].batch_id
        assert batch_id.startswith("batch-")
        # the flight ring recorded the full lifecycle, correlated
        kinds = {e["kind"] for e in events}
        assert {"service_started", "request_accepted", "batch_flushed",
                "request_resolved", "batch_resolved"} <= kinds
        accepted = [e for e in events if e["kind"] == "request_accepted"]
        assert {e["request_id"] for e in accepted} == {"req-test-0",
                                                       "req-test-1"}
        flushed = [e for e in events if e["kind"] == "batch_flushed"]
        assert flushed[0]["batch_id"] == batch_id
        assert set(flushed[0]["request_ids"]) == {"req-test-0", "req-test-1"}
        resolved = [e for e in events if e["kind"] == "request_resolved"]
        assert all(e["batch_id"] == batch_id for e in resolved)
        assert {e["slot"] for e in resolved} == {0, 1}

    def test_minted_id_when_caller_gives_none(self):
        spec = small_model()
        with ProvingService(ServeConfig(max_batch=1)) as service:
            response = service.submit(spec, an_input(),
                                      scale_bits=6).result(timeout=120)
        assert response.request_id.startswith("req-")


class TestOperatorSurface:
    def test_health_is_cheap_and_honest_under_saturation(self):
        # not started: the dispatcher never drains, so the queue saturates
        service = ProvingService(ServeConfig(max_queue=2))
        spec = small_model()
        for _ in range(2):
            service.submit(spec, an_input(), scale_bits=6)
        with pytest.raises(ResilienceError):
            service.submit(spec, an_input(), scale_bits=6)
        health = service.health()
        assert health["queue_depth"] == 2
        assert health["queue_headroom"] == 0
        assert health["saturated"] is True
        assert health["accepting"] is False  # never started
        service.shutdown(drain=False)

    def test_status_snapshot_shape(self):
        spec = small_model()
        with ProvingService(ServeConfig(max_batch=1)) as service:
            service.submit(spec, an_input(), scale_bits=6).result(timeout=120)
            status = service.status()
        assert status["schema"] == "zkml-serve-status/v2"
        assert status["uptime_seconds"] >= 0.0
        assert status["counters"]["proofs"] == 1
        assert set(status["slo"]) == {"1m", "5m", "total"}
        assert status["slo"]["total"]["count"] == 1
        assert status["pk_cache"]["maxsize"] > 0
        assert status["flight_recorder"]["recorded"] > 0
        assert "degraded" in status["resilience"]


class TestFlightRecorderPostmortem:
    def test_failed_batch_auto_dumps_a_verifiable_artifact(self, tmp_path):
        dump_path = str(tmp_path / "flight.json")
        spec = small_model("telemetry-bad")
        config = ServeConfig(max_batch=1, flight_path=dump_path)
        with ProvingService(config) as service:
            bad = service.submit(spec, {"x": np.full((1, 4), 1e9)},
                                 scale_bits=6, request_id="req-doomed")
            with pytest.raises(ResilienceError):
                bad.result(timeout=120)
            service.drain(timeout=120)
        with open(dump_path) as fh:
            artifact = json.load(fh)
        assert verify_flight_dump(artifact)
        assert artifact["reason"] == "batch_failure"
        failed = [e for e in artifact["events"]
                  if e["kind"] == "batch_failed"]
        assert failed and "req-doomed" in failed[0]["request_ids"]
        # the whole lifecycle up to the fault is in the dump
        kinds = [e["kind"] for e in artifact["events"]]
        assert "request_accepted" in kinds and "batch_flushed" in kinds

    def test_overload_storm_auto_dumps(self, tmp_path):
        dump_path = str(tmp_path / "storm.json")
        spec = small_model()
        config = ServeConfig(max_queue=1, flight_path=dump_path)
        service = ProvingService(config)  # not started: queue never drains
        service.submit(spec, an_input(), scale_bits=6)
        for _ in range(OVERLOAD_DUMP_THRESHOLD):
            with pytest.raises(ResilienceError):
                service.submit(spec, an_input(), scale_bits=6)
        service.shutdown(drain=False)
        with open(dump_path) as fh:
            artifact = json.load(fh)
        assert verify_flight_dump(artifact)
        assert artifact["reason"] == "overload_storm"
        rejected = [e for e in artifact["events"]
                    if e["kind"] == "request_rejected"]
        assert len(rejected) == OVERLOAD_DUMP_THRESHOLD == 16


@pytest.fixture()
def served(tmp_path):
    socket_path = str(tmp_path / "serve.sock")
    service = ProvingService(ServeConfig(max_batch=4,
                                         max_flush_seconds=0.2)).start()
    server = HttpFrontEnd(PayloadProcessor(service), socket_path).start()
    yield socket_path, service
    server.stop()
    service.shutdown()


class TestControlOpsOverSocket:
    def test_health_status_metrics_dump(self, served):
        socket_path, service = served
        health = control_request(socket_path, "health")
        assert health["ok"] and health["accepting"]
        assert health["queue_headroom"] > 0

        # prove something so status/metrics have content
        done = submit_request(socket_path, {"model": "dlrm", "seed": 1},
                              timeout=300.0)
        assert done["ok"] and done["verified"]
        assert done["request_id"].startswith("req-")
        assert done["batch_id"].startswith("batch-")
        assert done["client_seconds"] > 0.0

        status = control_request(socket_path, "status")["status"]
        assert status["schema"] == "zkml-serve-status/v2"
        assert status["counters"]["proofs"] >= 1
        assert status["slo"]["total"]["count"] >= 1

        metrics = control_request(socket_path, "metrics")["metrics_text"]
        assert "serve_requests_total" in metrics

        dump = control_request(socket_path, "dump")
        assert dump["events_recorded"] >= 1
        assert verify_flight_dump(dump["artifact"])
        # the wire response's request_id matches the flight ring's record
        accepted = [e for e in dump["artifact"]["events"]
                    if e["kind"] == "request_accepted"]
        assert done["request_id"] in {e["request_id"] for e in accepted}

    def test_dump_to_server_side_path(self, served, tmp_path):
        socket_path, _ = served
        path = str(tmp_path / "op-dump.json")
        response = control_request(socket_path, "dump", path=path)
        assert response["path"] == path
        with open(path) as fh:
            assert verify_flight_dump(json.load(fh))

    def test_client_supplied_request_id_round_trips(self, served):
        socket_path, _ = served
        response = submit_request(
            socket_path,
            {"model": "dlrm", "seed": 2, "request_id": "req-mine-1"},
            timeout=300.0)
        assert response["ok"]
        assert response["request_id"] == "req-mine-1"

    def test_malformed_ops_get_structured_rejections(self, served):
        socket_path, _ = served
        # raw client: the structured rejection comes from the server
        response = submit_request(socket_path, {"op": "reboot"}, timeout=30.0)
        assert response == {"ok": False, "error": "ServiceError",
                            "detail": response["detail"],
                            "client_seconds": response["client_seconds"]}
        assert "unknown control op" in response["detail"]
        assert not submit_request(socket_path, {"op": 7},
                                  timeout=30.0)["ok"]
        bad_path = submit_request(socket_path, {"op": "dump", "path": 3},
                                  timeout=30.0)
        assert not bad_path["ok"] and bad_path["error"] == "ServiceError"
        # control_request raises the typed error for its callers
        with pytest.raises(ServiceError):
            control_request(socket_path, "reboot")
        # a malformed op never kills the accept loop
        assert control_request(socket_path, "health")["ok"]

    def test_bad_request_id_type_rejected(self, served):
        socket_path, _ = served
        response = submit_request(socket_path,
                                  {"model": "dlrm", "request_id": 42},
                                  timeout=30.0)
        assert not response["ok"] and response["error"] == "ServiceError"


class TestClientFailureEdges:
    def test_disconnect_mid_response_is_a_typed_error(self, tmp_path):
        """A server that dies mid-reply must surface ServiceError, not a
        JSON traceback."""
        socket_path = str(tmp_path / "cut.sock")
        listener = socket_mod.socket(socket_mod.AF_UNIX,
                                     socket_mod.SOCK_STREAM)
        listener.bind(socket_path)
        listener.listen(1)

        def cut_mid_reply():
            conn, _ = listener.accept()
            conn.recv(65536)
            # a 100-byte body promised, 20 sent
            conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n"
                         b'{"ok": true, "verifi')
            conn.close()

        thread = threading.Thread(target=cut_mid_reply, daemon=True)
        thread.start()
        try:
            with pytest.raises(ServiceError) as excinfo:
                submit_request(socket_path, {"model": "dlrm"}, timeout=10.0)
            # the body never completed, so this is a mid-reply cut —
            # not "malformed JSON", which would blame the payload
            assert "mid-reply" in str(excinfo.value)
        finally:
            thread.join(timeout=5.0)
            listener.close()

    def test_silent_close_is_a_typed_error(self, tmp_path):
        socket_path = str(tmp_path / "mute.sock")
        listener = socket_mod.socket(socket_mod.AF_UNIX,
                                     socket_mod.SOCK_STREAM)
        listener.bind(socket_path)
        listener.listen(1)

        def close_without_reply():
            conn, _ = listener.accept()
            conn.recv(65536)
            conn.close()

        thread = threading.Thread(target=close_without_reply, daemon=True)
        thread.start()
        try:
            with pytest.raises(ServiceError) as excinfo:
                submit_request(socket_path, {"model": "dlrm"}, timeout=10.0)
            assert "without responding" in str(excinfo.value)
        finally:
            thread.join(timeout=5.0)
            listener.close()

    def test_unreachable_socket_is_a_typed_error(self, tmp_path):
        with pytest.raises(ServiceError):
            control_request(str(tmp_path / "nothing.sock"), "health")


class TestZkmlTop:
    def test_top_once_json_is_scriptable(self, served, capsys):
        socket_path, _ = served
        from repro.cli import main

        rc = main(["top", "--socket", socket_path, "--once", "--json"])
        assert rc == 0
        status = json.loads(capsys.readouterr().out)
        assert status["schema"] == "zkml-serve-status/v2"
        assert status["accepting"] is True

    def test_top_once_renders_dashboard(self, served, capsys):
        socket_path, _ = served
        from repro.cli import main

        rc = main(["top", "--socket", socket_path, "--once"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "zkml serve — up" in out
        assert "resilience:" in out

    def test_top_against_dead_socket_fails_typed(self, tmp_path, capsys):
        from repro.cli import main

        dead = str(tmp_path / "dead.sock")
        rc = main(["top", "--socket", dead, "--once"])
        assert rc == 1
        # the message names the address, not a kind of service
        assert "cannot reach %r" % dead in capsys.readouterr().err
