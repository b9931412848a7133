"""The client's reply reading against scripted HTTP servers.

A reply is its ``Content-Length`` body, not one ``recv``: these tests
pin that down with servers that trickle bytes, split the header block
from the body, append trailing garbage, hang, or hang up at every
interesting point.  Each scenario runs on a unix socket path and on a
TCP URL, and each failure edge must surface as its own typed error:

========================================  ================================
server behaviour                          client outcome
========================================  ================================
reply trickled byte-by-byte               parses fine
trailing bytes after ``Content-Length``   ignored
close before any byte                     ``ServiceError`` (silent close)
body cut short                            ``ServiceError`` (mid-reply cut)
hang (zero bytes or partial body)         ``ServiceTimeoutError``
unreachable                               ``ServiceError``
========================================  ================================
"""

import json
import socket
import threading
import time

import pytest

from repro.resilience.errors import ServiceError, ServiceTimeoutError
from repro.serve.client import submit_request

REPLY = {"ok": True, "request_id": "req-test", "outputs": [1, 2, 3]}


class ScriptedServer:
    """A server that answers one connection with a script.

    It reads the whole request (header block and ``Content-Length``
    body), then plays the script: ``bytes`` are sent as-is, a float
    sleeps, the string ``"close"`` shuts the connection down, and
    ``"hang"`` holds it open until the client gives up.
    """

    def __init__(self, address, script):
        self.script = script
        self.received = b""
        family = socket.AF_UNIX if isinstance(address, str) else \
            socket.AF_INET
        self._listener = socket.socket(family, socket.SOCK_STREAM)
        self._listener.bind(address)
        self._listener.listen(1)
        bound = self._listener.getsockname()
        self.target = bound if isinstance(bound, str) else \
            "http://%s:%d" % bound
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _request_done(self):
        head, sep, body = self.received.partition(b"\r\n\r\n")
        if not sep:
            return False
        for line in head.split(b"\r\n"):
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                return len(body) >= int(value)
        return True

    def _serve(self):
        conn, _ = self._listener.accept()
        try:
            conn.settimeout(10.0)
            while not self._request_done():
                chunk = conn.recv(65536)
                if not chunk:
                    return
                self.received += chunk
            for step in self.script:
                if isinstance(step, bytes):
                    conn.sendall(step)
                elif step == "close":
                    return
                elif step == "hang":
                    time.sleep(10.0)
                else:
                    time.sleep(step)
        except OSError:
            pass  # client went away first (timeout tests)
        finally:
            conn.close()

    def close(self):
        self._listener.close()


def _servers(tmp_path, script):
    """The same script behind a unix socket path and a TCP URL."""
    return [ScriptedServer(str(tmp_path / "scripted.sock"), script),
            ScriptedServer(("127.0.0.1", 0), script)]


def _submit(server, timeout=5.0):
    return submit_request(server.target, {"model": "mnist",
                                          "request_id": "req-test"},
                          timeout=timeout)


def _reply(body=None):
    body = json.dumps(REPLY).encode() if body is None else body
    return (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            b"Content-Length: %d\r\n\r\n" % len(body) + body)


def _head():
    """The reply's header block, terminator included."""
    reply = _reply()
    return reply[:reply.index(b"\r\n\r\n") + 4]


class TestReassembly:
    def test_slow_trickle_byte_by_byte(self, tmp_path):
        script = []
        for byte in _reply():
            script.append(bytes([byte]))
            script.append(0.001)
        for server in _servers(tmp_path, script):
            response = _submit(server)
            assert response["ok"] and response["outputs"] == [1, 2, 3]
            assert response["client_seconds"] > 0
            # the request itself was one well-formed POST
            assert server.received.startswith(b"POST /v1/prove HTTP/1.1")
            server.close()

    def test_terminator_split_from_body(self, tmp_path):
        # the blank line ending the header block arrives in two pieces,
        # and the body only after it
        head, body = _head(), _reply()[len(_head()):]
        for server in _servers(tmp_path, [head[:-3], 0.01, head[-3:],
                                          0.01, body[:5], 0.01, body[5:]]):
            assert _submit(server)["ok"]
            server.close()

    def test_trailing_bytes_after_newline_ignored(self, tmp_path):
        script = [_reply() + b'{"ok": false, "junk": true}\n']
        for server in _servers(tmp_path, script):
            response = _submit(server)
            assert response["ok"] is True
            assert "junk" not in response
            server.close()

    def test_newline_and_trailing_split_across_chunks(self, tmp_path):
        reply = _reply()
        script = [reply[:-1], 0.01, reply[-1:] + b"\ngarbage-after"]
        for server in _servers(tmp_path, script):
            assert _submit(server)["ok"]
            server.close()


class TestDisconnects:
    def test_silent_close_is_service_error_not_timeout(self, tmp_path):
        for server in _servers(tmp_path, ["close"]):
            with pytest.raises(ServiceError) as exc_info:
                _submit(server)
            assert not isinstance(exc_info.value, ServiceTimeoutError)
            assert "without responding" in str(exc_info.value)
            server.close()

    def test_mid_reply_cut_is_distinct_from_malformed_json(self, tmp_path):
        script = [_head() + b'{"ok": true, "req', 0.01, "close"]
        for server in _servers(tmp_path, script):
            with pytest.raises(ServiceError) as exc_info:
                _submit(server)
            assert not isinstance(exc_info.value, ServiceTimeoutError)
            message = str(exc_info.value)
            assert "mid-reply" in message and "malformed" not in message
            assert exc_info.value.context.get("received_bytes") == 17
            server.close()

    def test_unreachable_target_is_service_error(self, tmp_path):
        # a socket path nobody bound, and a TCP port nobody listens on
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        for target in (str(tmp_path / "nobody.sock"),
                       "http://127.0.0.1:%d" % port):
            with pytest.raises(ServiceError) as exc_info:
                submit_request(target, {"model": "mnist"}, timeout=5.0)
            assert not isinstance(exc_info.value, ServiceTimeoutError)
            assert "cannot reach" in str(exc_info.value)


class TestTimeouts:
    def test_hang_with_zero_bytes_is_timeout(self, tmp_path):
        for server in _servers(tmp_path, ["hang"]):
            started = time.monotonic()
            with pytest.raises(ServiceTimeoutError):
                _submit(server, timeout=0.3)
            assert time.monotonic() - started < 5.0
            server.close()

    def test_hang_after_partial_frame_is_timeout(self, tmp_path):
        script = [_head() + _reply()[len(_head()):][:15], "hang"]
        for server in _servers(tmp_path, script):
            with pytest.raises(ServiceTimeoutError) as exc_info:
                _submit(server, timeout=0.3)
            # the error carries how far the body got before the stall
            assert exc_info.value.context.get("received_bytes") == 15
            server.close()

    def test_timeout_is_a_service_error_subclass(self, tmp_path):
        # callers catching the broad class still see timeouts; callers
        # that care can catch the narrow one
        for server in _servers(tmp_path, ["hang"]):
            with pytest.raises(ServiceError):
                _submit(server, timeout=0.3)
            server.close()


class TestMalformedFrames:
    def test_non_json_frame(self, tmp_path):
        for server in _servers(tmp_path, [_reply(b"this is not json")]):
            with pytest.raises(ServiceError) as exc_info:
                _submit(server)
            assert "malformed" in str(exc_info.value)
            server.close()

    def test_non_object_frame(self, tmp_path):
        for server in _servers(tmp_path, [_reply(b"[1, 2, 3]")]):
            with pytest.raises(ServiceError) as exc_info:
                _submit(server)
            assert "not a JSON object" in str(exc_info.value)
            server.close()
