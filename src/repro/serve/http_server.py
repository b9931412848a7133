"""An HTTP/JSON front end for :class:`ProvingService`.

Runs alongside (or instead of) the unix socket: same wire payloads,
same control ops, same typed errors — both transports feed the one
:class:`~repro.serve.server.PayloadProcessor`, so anything provable
over the socket is provable with ``curl``.  Built on the stdlib
threading HTTP server; no new dependencies.

Routes::

    POST /v1/prove    proof request (socket JSON payload, verbatim)
    POST /v1/control  control op payload ({"op": "health"|...})
    GET  /v1/health   = {"op": "health"}
    GET  /v1/status   = {"op": "status"} (zkml-serve-status/v2; in
                        cluster mode includes the per-worker telemetry
                        block — identical to the socket's, test-pinned)
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
against the same ``MAX_REQUEST_BYTES`` cap as the socket (413) before a
single body byte is read, and the read is exact — a client cannot make
the server buffer or parse more than the cap.
"""

from __future__ import annotations

import json
import threading
from concurrent.futures import TimeoutError as FutureTimeoutError
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple

from repro.obs import log as obs_log
from repro.resilience.errors import (
    ResilienceError,
    ServiceOverloadedError,
    ServiceShutdownError,
    ServiceTimeoutError,
)
from repro.serve.server import (
    MAX_REQUEST_BYTES,
    PayloadProcessor,
    metrics_text,
)
from repro.serve.service import ProvingService

__all__ = ["HttpFrontEnd", "DEFAULT_HTTP_PORT"]

#: Default TCP port for ``zkml serve --http-port`` (0 = ephemeral).
DEFAULT_HTTP_PORT = 8791

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
    processor: PayloadProcessor = None  # type: ignore[assignment]

    # -- plumbing ------------------------------------------------------------

    def log_message(self, fmt, *args):  # noqa: A003 — stdlib signature
        log.debug("http %s", fmt % args)

    def _reply(self, code: int, body: Dict) -> None:
        data = json.dumps(body).encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _reply_text(self, code: int, text: str) -> None:
        data = text.encode()
        self.send_response(code)
        self.send_header("Content-Type", "text/plain; version=0.0.4")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _read_body(self) -> Optional[Dict]:
        """The parsed JSON body, with the size cap enforced *before*
        any byte is read or parsed.  Replies and returns ``None`` on a
        violation."""
        length = self.headers.get("Content-Length")
        if length is None:
            # the body was never read: drop the connection after replying
            # or a keep-alive peer's body bytes would parse as the next
            # request line
            self.close_connection = True
            self._reply(411, {"ok": False, "error": "ServiceError",
                              "detail": "Content-Length is required"})
            return None
        try:
            length = int(length)
        except ValueError:
            self.close_connection = True
            self._reply(400, {"ok": False, "error": "ServiceError",
                              "detail": "Content-Length must be an integer"})
            return None
        if length < 0 or length > MAX_REQUEST_BYTES:
            self.close_connection = True
            self._reply(413, {"ok": False, "error": "ServiceError",
                              "detail": "request exceeds %d bytes"
                              % MAX_REQUEST_BYTES})
            return None
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            payload = json.loads(raw)
        except ValueError:
            self._reply(400, {"ok": False, "error": "ServiceError",
                              "detail": "request body is not valid JSON"})
            return None
        if not isinstance(payload, dict):
            self._reply(400, {"ok": False, "error": "ServiceError",
                              "detail": "request payload must be a JSON "
                                        "object"})
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
                self._reply_text(200, metrics_text(self.processor.service))
            except Exception as exc:  # noqa: BLE001
                self._reply(500, {"ok": False,
                                  "error": type(exc).__name__,
                                  "detail": str(exc)[:300]})
        else:
            self._reply(404, {"ok": False, "error": "ServiceError",
                              "detail": "unknown path %r" % self.path})

    def do_POST(self) -> None:  # noqa: N802 — stdlib naming
        payload = self._read_body()
        if payload is None:
            return
        if self.path in ("/v1/prove", "/prove", "/"):
            self._run(payload)
        elif self.path in ("/v1/control", "/control"):
            payload.setdefault("op", "health")
            self._run(payload)
        elif self.path in ("/v1/dump", "/dump"):
            payload["op"] = "dump"
            self._run(payload)
        else:
            self._reply(404, {"ok": False, "error": "ServiceError",
                              "detail": "unknown path %r" % self.path})


class HttpFrontEnd:
    """Bind an HTTP/JSON front end over a running service.

    ``port=0`` binds an ephemeral port; read the bound one back from
    ``.port`` (tests and the CLI's startup banner both do).
    """

    def __init__(self, service: ProvingService, host: str = "127.0.0.1",
                 port: int = 0, default_timeout: float = 120.0):
        self.service = service
        self.processor = PayloadProcessor(service, default_timeout)
        handler = type("BoundHandler", (_Handler,),
                       {"processor": self.processor})
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        return self._httpd.server_address[:2]

    @property
    def host(self) -> str:
        return self.address[0]

    @property
    def port(self) -> int:
        return self.address[1]

    @property
    def url(self) -> str:
        return "http://%s:%d" % (self.host, self.port)

    def start(self) -> "HttpFrontEnd":
        """Serve in a background thread (the unix socket usually owns
        the foreground)."""
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        name="zkml-serve-http", daemon=True)
        self._thread.start()
        log.info("http front end on %s", self.url)
        return self

    def serve_forever(self) -> None:
        log.info("http front end on %s", self.url)
        self._httpd.serve_forever()

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None
