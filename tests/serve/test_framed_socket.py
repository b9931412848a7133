"""The one framed-socket accept loop under both front ends.

``ServeServer`` and ``VerifyServer`` share ``FramedSocketServer``: a
request line that is empty, over the cap, not JSON, or not a JSON object
is a typed ``ServiceError`` reply on either socket, and the accept loop
answers the next well-formed request.  HTTP does the same check in its
own framing layer, so a payload handler only ever sees a JSON object.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.serve import ProvingService, ServeConfig, VerifyService
from repro.serve.client import control_request
from repro.serve.http_server import HttpFrontEnd
from repro.serve.server import ServeServer
from repro.serve.verify_server import VerifyServer

from tests.serve.test_verify_socket import _raw_line


@pytest.fixture(scope="module", params=["serve", "verify"])
def server(request, tmp_path_factory):
    socket_path = str(tmp_path_factory.mktemp(request.param) / "s.sock")
    if request.param == "serve":
        service = ProvingService(ServeConfig()).start()
        server = ServeServer(service, socket_path).start()
    else:
        service = VerifyService()
        server = VerifyServer(service, socket_path,
                              max_request_bytes=1 << 16).start()
    yield server
    server.stop()
    if request.param == "serve":
        service.shutdown()
    else:
        service.close()


@pytest.mark.parametrize("line", [
    b"[1,2]\n", b"7\n", b'"x"\n', b"{not json\n", b"\x00\x01\x02\n", b"\n",
    None,  # a line one byte over the server's cap
], ids=["list", "int", "string", "not-json", "binary", "empty", "over-cap"])
def test_malformed_line_is_a_typed_rejection(server, line):
    if line is None:
        # no newline: the cap must trip before the line is complete
        line = b"x" * (server.max_request_bytes + 1)
    reply = _raw_line(server.socket_path, line)
    assert reply["ok"] is False
    assert reply["error"] == "ServiceError", reply
    assert control_request(server.socket_path, "health")["ok"] is True


@pytest.mark.parametrize("path", ["/v1/prove", "/v1/control", "/v1/dump"])
def test_http_non_object_body_is_a_typed_400(path):
    service = ProvingService(ServeConfig()).start()
    http = HttpFrontEnd(service, port=0).start()
    try:
        request = urllib.request.Request(http.url + path, data=b"[1,2]",
                                         method="POST")
        with pytest.raises(urllib.error.HTTPError) as refused:
            urllib.request.urlopen(request, timeout=30)
        assert refused.value.code == 400
        reply = json.loads(refused.value.read())
        assert reply["error"] == "ServiceError"
        assert "JSON object" in reply["detail"]
    finally:
        http.stop()
        service.shutdown()
