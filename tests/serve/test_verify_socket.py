"""Socket round trips for ``zkml verify-serve``: the front end + client.

The wire layer must be as hostile-proof as the service behind it: bad
base64, oversized requests, and malformed JSON are all typed
rejections that leave the listener alive, and the envelope fuzzer
run against the *live socket* must see nothing but typed verdicts.
"""

import base64
import json

import numpy as np
import pytest

from repro.model import get_model
from repro.registry import VKRegistry
from repro.runtime import prove_model
from repro.serve import VerifyConfig, VerifyService
from repro.serve.client import control_request, verify_request
from repro.serve.http_server import HttpFrontEnd
from repro.serve.server import VerifyProcessor

from tests.fuzz import run_envelope_fuzz
from tests.serve import wire

rng = np.random.default_rng(47)


@pytest.fixture(scope="module")
def proven():
    spec = get_model("dlrm", "mini")
    inputs = {k: rng.uniform(-0.5, 0.5, s) for k, s in spec.inputs.items()}
    return prove_model(spec, inputs, scheme_name="kzg", num_cols=10,
                       scale_bits=5)


@pytest.fixture(scope="module")
def encoded(proven):
    return proven.envelope().encode()


@pytest.fixture(scope="module")
def served(tmp_path_factory, proven):
    root = tmp_path_factory.mktemp("verify-serve")
    env = proven.envelope()
    registry = VKRegistry(str(root / "reg"))
    registry.publish(proven.vk, env.model, env.config_digest)
    service = VerifyService(registry=registry, config=VerifyConfig())
    socket_path = str(root / "verify.sock")
    server = HttpFrontEnd(VerifyProcessor(service), socket_path).start()
    yield socket_path, service
    server.stop()
    service.close()


def _tampered(encoded):
    bad = bytearray(encoded)
    bad[-1] ^= 0xFF
    return bytes(bad)


def _raw_line(socket_path, body):
    """POST ``body`` as it is; the reply dict, whatever its status."""
    return wire.post(socket_path, "/v1/verify", body)[1]


class TestRoundTrip:
    def test_single_envelope_verifies(self, served, encoded):
        socket_path, _ = served
        report = verify_request(socket_path, [encoded])
        assert report["ok"] and report["accepted"] == 1
        (verdict,) = report["results"]
        assert verdict["ok"] and verdict["model"] == "dlrm-mini"
        assert report["request_id"].startswith("req-")

    def test_mixed_batch_verdicts_in_order(self, served, encoded):
        socket_path, _ = served
        report = verify_request(socket_path,
                                [encoded, _tampered(encoded), encoded])
        assert report["accepted"] == 2 and report["rejected"] == 1
        causes = [r.get("cause") for r in report["results"]]
        assert causes == [None, "checksum", None]

    def test_request_id_round_trips(self, served, encoded):
        socket_path, _ = served
        report = verify_request(socket_path, [encoded],
                                request_id="req-verify-test-1")
        assert report["request_id"] == "req-verify-test-1"


class TestWireHardening:
    def test_invalid_base64_rejected_before_decoder(self, served):
        socket_path, _ = served
        response = _raw_line(
            socket_path,
            json.dumps({"envelopes": ["@@not-base64@@"]}).encode())
        assert not response["ok"]
        assert response["error"] == "ServiceError"
        assert "base64" in response["detail"]

    def test_non_string_envelope_rejected(self, served):
        socket_path, _ = served
        response = _raw_line(
            socket_path,
            json.dumps({"envelopes": [42]}).encode())
        assert not response["ok"] and response["error"] == "ServiceError"

    def test_empty_and_missing_payloads_rejected(self, served):
        socket_path, _ = served
        for payload in ({"envelopes": []}, {}, {"envelopes": "nope"}):
            response = _raw_line(socket_path, json.dumps(payload).encode())
            assert not response["ok"]

    def test_malformed_json_rejected(self, served):
        socket_path, _ = served
        response = _raw_line(socket_path, b"{not json")
        assert not response["ok"]

    def test_oversized_request_line_capped(self, served, encoded, proven,
                                           tmp_path):
        _, service = served
        small = HttpFrontEnd(VerifyProcessor(service, max_request_bytes=1024),
                             str(tmp_path / "small.sock")).start()
        try:
            status, response = wire.post(small.target, "/v1/verify",
                                         b"x" * 4096)
            assert status == 413 and not response["ok"]
            assert response["error"] == "ServiceError"
            assert "exceeds" in response["detail"]
        finally:
            small.stop()

    def test_accept_loop_survives_hostility(self, served, encoded):
        socket_path, _ = served
        _raw_line(socket_path, b"\x00\x01\x02")
        report = verify_request(socket_path, [encoded])
        assert report["ok"] and report["accepted"] == 1


class TestControlOps:
    def test_health_status_metrics(self, served, encoded):
        socket_path, _ = served
        verify_request(socket_path, [encoded, _tampered(encoded)])
        health = control_request(socket_path, "health")
        assert health["accepting"]
        status = control_request(socket_path, "status")["status"]
        assert status["schema"] == "zkml-verify-status/v1"
        assert status["counters"]["rejections_by_cause"].get("checksum", 0) \
            >= 1
        metrics = control_request(socket_path, "metrics")["metrics_text"]
        assert "verify_envelopes_total" in metrics
        assert 'verify_rejected_total{cause="checksum"}' in metrics

    def test_unknown_op_rejected(self, served):
        socket_path, _ = served
        from repro.resilience.errors import ServiceError

        with pytest.raises(ServiceError, match="unknown control op"):
            control_request(socket_path, "reboot")


class TestSocketFuzz:
    def test_fuzz_against_live_socket(self, served, encoded):
        # the end-to-end satellite check: mutants through the real wire
        # must come back 100% typed rejections, no hangs, no escapes —
        # and the server must still answer cleanly afterwards
        socket_path, _ = served

        def check(data):
            report = verify_request(socket_path, [data], timeout=60.0)
            if not report.get("ok"):
                return {"ok": False, "error": report.get("error", "")}
            (verdict,) = report["results"]
            return verdict

        report = run_envelope_fuzz(encoded, check, iterations=40, seed=11)
        assert report.ok, report.summary()
        assert report.iterations == 40
        after = verify_request(socket_path, [encoded])
        assert after["ok"] and after["accepted"] == 1

    def test_raw_base64_garbage_over_socket(self, served):
        socket_path, _ = served
        local = np.random.default_rng(13)
        for size in (0, 1, 17, 400):
            blob = bytes(local.integers(0, 256, size, dtype=np.uint8))
            body = json.dumps(
                {"envelopes": [base64.b64encode(blob).decode()]}).encode()
            response = _raw_line(socket_path, body)
            assert response["ok"]  # request-level ok; the verdict rejects
            (verdict,) = response["results"]
            assert not verdict["ok"] and verdict["error"]
