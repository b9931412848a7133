"""Front-end tests on a TCP port: routes, status codes, size caps.

The TCP listener must be payload-for-payload identical to the unix
socket — both feed the service's one :class:`PayloadProcessor` — with
typed errors surfacing as honest status codes and the request-size cap
enforced from ``Content-Length`` *before* any body byte is read.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.serve import ProvingService, ServeConfig
from repro.serve.client import control_request, submit_request
from repro.serve.http_server import HttpFrontEnd
from repro.serve.server import MAX_REQUEST_BYTES, PayloadProcessor

from tests.serve import wire


@pytest.fixture()
def front_end():
    service = ProvingService(ServeConfig(max_batch=4,
                                         max_flush_seconds=0.2)).start()
    http = HttpFrontEnd(PayloadProcessor(service), ("127.0.0.1", 0)).start()
    yield http
    http.stop()
    service.shutdown()


def _get(url, path):
    try:
        with urllib.request.urlopen(url + path, timeout=30) as reply:
            return reply.status, reply.headers, reply.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.headers, exc.read()


def _post(url, path, body, timeout=300):
    request = urllib.request.Request(
        url + path, data=body,
        headers={"Content-Type": "application/json"}, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as reply:
            return reply.status, json.loads(reply.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestProofOverHttp:
    def test_prove_via_client_helper(self, front_end):
        response = submit_request(front_end.target,
                                  {"model": "dlrm", "seed": 0},
                                  timeout=300.0)
        assert response["ok"] and response["verified"]
        assert response["model"] == "dlrm-mini"
        assert response["client_seconds"] > 0

    def test_http_and_raw_post_agree(self, front_end):
        via_helper = submit_request(front_end.target,
                                    {"model": "dlrm", "seed": 5},
                                    timeout=300.0)
        code, raw = _post(front_end.target, "/v1/prove",
                          json.dumps({"model": "dlrm", "seed": 5}).encode())
        assert code == 200 and raw["ok"]
        # same seed, same statement, same outputs — transport-independent
        assert raw["outputs"] == via_helper["outputs"]

    def test_unknown_model_maps_to_400(self, front_end):
        code, body = _post(front_end.target, "/v1/prove",
                           json.dumps({"model": "nope"}).encode(),
                           timeout=30)
        assert code == 400
        assert body == {"ok": False, "error": "ServiceError",
                        "detail": body["detail"]}
        assert "unknown model" in body["detail"]


class TestControlOps:
    def test_control_request_helper_speaks_http(self, front_end):
        health = control_request(front_end.target, "health", timeout=30.0)
        assert health["ok"] and health["accepting"]
        status = control_request(front_end.target, "status", timeout=30.0)
        assert status["ok"] and "batcher" in status["status"]

    def test_get_routes_mirror_control_ops(self, front_end):
        code, headers, body = _get(front_end.target, "/v1/health")
        assert code == 200
        assert json.loads(body)["ok"]
        code, _, body = _get(front_end.target, "/v1/status")
        assert code == 200 and json.loads(body)["ok"]

    def test_metrics_is_prometheus_text(self, front_end):
        # prime at least one counter so the exposition is non-trivial
        submit_request(front_end.target, {"model": "dlrm", "seed": 1},
                       timeout=300.0)
        code, headers, body = _get(front_end.target, "/v1/metrics")
        assert code == 200
        assert headers["Content-Type"].startswith("text/plain")
        text = body.decode()
        assert "# TYPE" in text or "_total" in text

    def test_unknown_op_rejected(self, front_end):
        code, body = _post(front_end.target, "/v1/control",
                           json.dumps({"op": "reboot"}).encode(),
                           timeout=30)
        assert code == 400 and not body["ok"]


class TestRouting:
    def test_unknown_get_path_is_404(self, front_end):
        code, _, body = _get(front_end.target, "/v2/everything")
        assert code == 404
        assert not json.loads(body)["ok"]

    def test_unknown_post_path_is_404(self, front_end):
        code, body = _post(front_end.target, "/v1/nonsense", b"{}",
                           timeout=30)
        assert code == 404 and not body["ok"]


class TestSizeCaps:
    def test_missing_content_length_is_411(self, front_end):
        status, _ = wire.head_only(front_end.target, "/v1/prove", "")
        assert status == 411

    def test_oversize_content_length_is_413_before_body_read(
            self, front_end):
        # the declared length alone triggers the rejection: no body is
        # ever sent, so a 413 here proves the cap fires before the read
        status, _ = wire.head_only(
            front_end.target, "/v1/prove",
            "Content-Length: %d\r\n" % (MAX_REQUEST_BYTES + 1))
        assert status == 413

    def test_non_integer_content_length_is_400(self, front_end):
        status, _ = wire.head_only(front_end.target, "/v1/prove",
                                   "Content-Length: lots\r\n")
        assert status == 400

    def test_bad_json_body_is_400(self, front_end):
        body = b"this is not json"
        status, reply = _post(front_end.target, "/v1/prove", body, timeout=30)
        assert status == 400
        assert "not valid JSON" in reply["detail"]
