"""Request framing on the one front end, for both services.

``zkml serve`` and ``zkml verify-serve`` bind the same
``HttpFrontEnd`` on a unix socket, each with its own processor and
request cap.  A body that is empty, not JSON, or not a JSON object is a
typed 400 ``ServiceError`` reply on either; a declared length over the
cap is a 413 before any body byte is read; no ``Content-Length`` is a
411.  The front end answers ``health`` afterwards, so a payload handler
only ever sees a JSON object and a hostile request never costs the
listener.
"""

import pytest

from repro.serve import ProvingService, ServeConfig, VerifyService
from repro.serve.client import control_request
from repro.serve.http_server import HttpFrontEnd
from repro.serve.server import PayloadProcessor, VerifyProcessor

from tests.serve import wire


@pytest.fixture(scope="module", params=["serve", "verify"])
def server(request, tmp_path_factory):
    socket_path = str(tmp_path_factory.mktemp(request.param) / "s.sock")
    if request.param == "serve":
        service = ProvingService(ServeConfig()).start()
        processor = PayloadProcessor(service)
    else:
        service = VerifyService()
        processor = VerifyProcessor(service, max_request_bytes=1 << 16)
    front = HttpFrontEnd(processor, socket_path).start()
    yield front
    front.stop()
    if request.param == "serve":
        service.shutdown()
    else:
        service.close()


def _route(front):
    return front.processor.routes[0]


@pytest.mark.parametrize("line", [
    b"[1,2]", b"7", b'"x"', b"{not json", b"\x00\x01\x02", b"",
    None,  # a declared length one byte over the server's cap
], ids=["list", "int", "string", "not-json", "binary", "empty", "over-cap"])
def test_malformed_line_is_a_typed_rejection(server, line):
    if line is None:
        # only the header block is sent: the cap must trip on the
        # declared length, with no body byte read
        status, reply = wire.head_only(
            server.target, _route(server),
            "Content-Length: %d\r\n"
            % (server.processor.max_request_bytes + 1))
        assert status == 413
    else:
        status, reply = wire.post(server.target, _route(server), line)
        assert status == 400
    assert reply["ok"] is False
    assert reply["error"] == "ServiceError", reply
    assert control_request(server.target, "health")["ok"] is True


def test_missing_content_length_is_a_typed_411(server):
    status, reply = wire.head_only(server.target, _route(server), "")
    assert status == 411
    assert reply["error"] == "ServiceError"
    assert control_request(server.target, "health")["ok"] is True


@pytest.mark.parametrize("path", ["/v1/prove", "/v1/control", "/v1/dump"])
def test_http_non_object_body_is_a_typed_400(path):
    service = ProvingService(ServeConfig()).start()
    front = HttpFrontEnd(PayloadProcessor(service), ("127.0.0.1", 0)).start()
    try:
        status, reply = wire.post(front.target, path, b"[1,2]")
        assert status == 400
        assert reply["error"] == "ServiceError"
        assert "JSON object" in reply["detail"]
    finally:
        front.stop()
        service.shutdown()
