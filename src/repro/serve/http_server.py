"""The one front end of both services: HTTP/1.1 with JSON bodies.

``zkml serve`` and ``zkml verify-serve`` each bind an
:class:`HttpFrontEnd` on a unix socket (``--socket``), and ``zkml serve
--http-port`` binds a second one on a TCP port.  Every listener of a
service hands its parsed payloads to that service's one processor
(:class:`~repro.serve.server.PayloadProcessor` or
:class:`~repro.serve.server.VerifyProcessor`), so the socket and the
port answer alike.  Built on the stdlib threading HTTP server; ``curl
--unix-socket zkml-serve.sock http://x/v1/status`` works.

Routes::

    POST /v1/prove    proof request (zkml serve)
    POST /v1/verify   verify request (zkml verify-serve)
    POST /v1/control  control op payload ({"op": "health"|...})
    GET  /v1/health   = {"op": "health"}
    GET  /v1/status   = {"op": "status"}
    GET  /v1/metrics  Prometheus text exposition (text/plain), incl.
                      the per-worker and scheduler series in cluster mode
    POST /v1/dump     = {"op": "dump"} (optional {"path": ...} body)

Responses are the processor's JSON dicts.  Typed service errors map to
honest status codes — backpressure is visible at the HTTP layer:

=============================  ====
``ServiceOverloadedError``     429
``ServiceShutdownError``       503
``ServiceTimeoutError``        504 (also a ``future.result`` timeout)
other ``ResilienceError``      400 (malformed/unknown request)
anything else                  500
=============================  ====

Request-size caps are enforced *before* parse: a POST must carry
``Content-Length`` (411 without it), the declared length is checked
against the processor's ``max_request_bytes`` (413) before a single
body byte is read, and the read is exact — a client cannot make the
server buffer or parse more than the cap.  A body that is not JSON, or
not a JSON object, is a 400 ``ServiceError`` reply.
"""

from __future__ import annotations

import json
import os
import socketserver
import threading
from concurrent.futures import TimeoutError as FutureTimeoutError
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple, Union

from repro.obs import log as obs_log
from repro.resilience.errors import (
    ResilienceError,
    ServiceOverloadedError,
    ServiceShutdownError,
    ServiceTimeoutError,
)
from repro.serve.server import metrics_text

__all__ = ["HttpFrontEnd"]

log = obs_log.get_logger("serve")


def _status_for(exc: Exception) -> int:
    if isinstance(exc, ServiceOverloadedError):
        return 429
    if isinstance(exc, ServiceShutdownError):
        return 503
    if isinstance(exc, (ServiceTimeoutError, FutureTimeoutError)):
        return 504
    if isinstance(exc, ResilienceError):
        return 400
    return 500


class _Handler(BaseHTTPRequestHandler):
    """One request; the processor does the real work."""

    protocol_version = "HTTP/1.1"
    processor = None  # bound per front end

    # -- plumbing ------------------------------------------------------------

    def log_message(self, fmt, *args):  # noqa: A003 — stdlib signature
        log.debug("http %s", fmt % args)

    def _send(self, code: int, content_type: str, data: bytes) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _reply(self, code: int, body: Dict) -> None:
        self._send(code, "application/json", json.dumps(body).encode())

    def _refuse(self, code: int, detail: str) -> None:
        self._reply(code, {"ok": False, "error": "ServiceError",
                           "detail": detail})

    def _read_body(self) -> Optional[Dict]:
        """The parsed JSON body, with the size cap enforced *before*
        any byte is read or parsed.  Replies and returns ``None`` on a
        violation."""
        cap = self.processor.max_request_bytes
        declared = self.headers.get("Content-Length")
        if declared is None:
            refusal = 411, "Content-Length is required"
        elif not (declared.isascii() and declared.isdigit()):
            refusal = 400, "Content-Length must be a non-negative integer"
        elif int(declared) > cap:
            refusal = 413, "request exceeds %d bytes" % cap
        else:
            refusal = None
        if refusal is not None:
            # the body is never read: drop the connection after replying,
            # or a keep-alive peer's body bytes would parse as the next
            # request line
            self.close_connection = True
            self._refuse(*refusal)
            return None
        length = int(declared)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            payload = json.loads(raw)
        except ValueError:  # JSONDecodeError, or bytes in no JSON encoding
            self._refuse(400, "request body is not valid JSON")
            return None
        if not isinstance(payload, dict):
            self._refuse(400, "request payload must be a JSON object")
            return None
        return payload

    def _run(self, payload: Dict) -> None:
        try:
            self._reply(200, self.processor.process(payload))
        except Exception as exc:  # noqa: BLE001 — every error must become a status code
            name = ("ServiceTimeoutError"
                    if isinstance(exc, FutureTimeoutError)
                    else type(exc).__name__)
            self._reply(_status_for(exc),
                        {"ok": False, "error": name,
                         "detail": str(exc)[:300] or "request timed out"})

    # -- routes --------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 — stdlib naming
        if self.path in ("/v1/health", "/health"):
            self._run({"op": "health"})
        elif self.path in ("/v1/status", "/status"):
            self._run({"op": "status"})
        elif self.path in ("/v1/metrics", "/metrics"):
            try:
                text = metrics_text(self.processor.service)
            except Exception as exc:  # noqa: BLE001
                self._reply(500, {"ok": False, "error": type(exc).__name__,
                                  "detail": str(exc)[:300]})
                return
            self._send(200, "text/plain; version=0.0.4", text.encode())
        else:
            self._refuse(404, "unknown path %r" % self.path)

    def do_POST(self) -> None:  # noqa: N802 — stdlib naming
        payload = self._read_body()
        if payload is None:
            return
        if self.path in self.processor.routes:
            self._run(payload)
        elif self.path in ("/v1/control", "/control"):
            payload.setdefault("op", "health")
            self._run(payload)
        elif self.path in ("/v1/dump", "/dump"):
            payload["op"] = "dump"
            self._run(payload)
        else:
            self._refuse(404, "unknown path %r" % self.path)


class _TcpServer(ThreadingHTTPServer):
    request_queue_size = 64  # `zkml submit --count N` connects at once


class _UnixServer(socketserver.ThreadingUnixStreamServer):
    daemon_threads = True
    request_queue_size = 64


class HttpFrontEnd:
    """Serve one processor over HTTP at ``address``: a unix socket path,
    or a ``(host, port)`` pair (port 0 binds an ephemeral one).

    ``target`` is what the client helpers take to reach it: the socket
    path, or ``http://host:port`` with the bound port.
    """

    def __init__(self, processor, address: Union[str, Tuple[str, int]]):
        self.processor = processor
        handler = type("BoundHandler", (_Handler,), {"processor": processor})
        if isinstance(address, str):
            if os.path.exists(address):
                os.unlink(address)
            self._httpd = _UnixServer(address, handler)
        else:
            self._httpd = _TcpServer(address, handler)
        self._serving = False
        self._thread: Optional[threading.Thread] = None

    @property
    def target(self) -> str:
        address = self._httpd.server_address
        if isinstance(address, str):
            return address
        return "http://%s:%d" % address[:2]

    def start(self) -> "HttpFrontEnd":
        """Serve in a background thread."""
        self._serving = True
        self._thread = threading.Thread(target=self.serve_forever,
                                        name="zkml-http", daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI's foreground listener)."""
        self._serving = True
        log.info("serving on %s", self.target)
        self._httpd.serve_forever(poll_interval=0.2)

    def stop(self) -> None:
        """Stop serving and remove a unix socket (the service keeps its
        own lifecycle — shut it down separately)."""
        if self._serving:
            self._httpd.shutdown()
            self._serving = False
        self._httpd.server_close()
        if isinstance(self._httpd.server_address, str) \
                and os.path.exists(self._httpd.server_address):
            os.unlink(self._httpd.server_address)
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None
