"""Client helpers for both services (``zkml submit``, ``zkml top``).

Every helper takes a *target*: a unix socket path, or an
``http://host:port`` URL.  Either way the request is one HTTP POST of a
JSON payload on its own connection (see :mod:`repro.serve.http_server`
for the routes).  :func:`submit_many` sends from worker threads, so N
requests arrive at the service concurrently and coalesce into batches —
the shape ``zkml submit --count N`` produces.

Proof requests are stamped with a client-minted ``request_id`` before
they leave the process (unless the caller already set one), so the
client's logs, the server's logs, and the flight recorder all correlate
on the same id even when the request never reaches the service.
:func:`control_request` speaks the operator side (``health`` /
``status`` / ``metrics`` / ``dump``) — it is what ``zkml top`` polls.

Every response dict gains a ``client_seconds`` field: the wall-clock the
round trip took as seen from this process (connect → response parsed),
the number an SLO about *user-visible* latency actually cares about.
An error reply (any HTTP status) is returned as the dict it carries.
"""

from __future__ import annotations

import base64
import http.client
import json
import socket
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List
from urllib.parse import urlsplit

from repro.obs.runtime import new_request_id
from repro.resilience.errors import ServiceError, ServiceTimeoutError

__all__ = ["control_request", "submit_request", "submit_many",
           "verify_request"]


class _UnixConnection(http.client.HTTPConnection):
    """``HTTPConnection`` to a unix socket path."""

    def __init__(self, path: str, timeout: float):
        super().__init__("localhost", timeout=timeout)
        self.path = path

    def connect(self) -> None:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self.timeout)
        try:
            sock.connect(self.path)
        except OSError:
            sock.close()
            raise
        self.sock = sock


def _connection(target: str, timeout: float) -> http.client.HTTPConnection:
    if target.startswith("http://"):
        url = urlsplit(target)
        return http.client.HTTPConnection(url.hostname, url.port or 80,
                                          timeout=timeout)
    return _UnixConnection(target, timeout)


def _roundtrip(target: str, path: str, payload: Dict,
               timeout: float) -> Dict:
    """POST ``payload`` to ``path`` on one connection; the reply dict.

    The reply is its ``Content-Length`` bytes, however they arrive
    (trickled, or followed by bytes that are not ours).  The failure
    edges stay distinct:

    - no connection: :class:`ServiceError` (``cannot reach``);
    - a timeout anywhere in the exchange: the typed
      :class:`~repro.resilience.errors.ServiceTimeoutError` (the peer is
      alive but the reply did not finish in time);
    - a connection closed before *any* reply byte: the silent-close
      :class:`ServiceError`;
    - a connection cut inside the body: its own :class:`ServiceError` —
      never misread as malformed JSON, because the body never completed.
    """
    rid = str(payload.get("request_id", ""))
    started = time.monotonic()
    conn = _connection(target, timeout)
    body = bytearray()
    try:
        try:
            conn.connect()
        except socket.timeout as exc:
            raise ServiceTimeoutError(
                "timed out after %.1fs connecting to %r" % (timeout, target),
                request_id=rid) from exc
        except OSError as exc:
            raise ServiceError(
                "cannot reach %r: %s" % (target, exc),
                request_id=rid) from exc
        try:
            try:
                conn.request("POST", path, json.dumps(payload).encode(),
                             {"Content-Type": "application/json",
                              "Connection": "close"})
            except ConnectionError:
                pass  # the server may have replied early (a 413) and closed
            reply = conn.getresponse()
        except socket.timeout as exc:
            raise ServiceTimeoutError(
                "timed out after %.1fs waiting for the service" % timeout,
                request_id=rid, received_bytes=0) from exc
        except ConnectionError as exc:  # RemoteDisconnected, reset, EPIPE
            raise ServiceError("service closed the connection without "
                               "responding", request_id=rid) from exc
        except http.client.HTTPException as exc:
            raise ServiceError("service sent a malformed response: %s"
                               % exc, request_id=rid) from exc
        cut = False
        try:
            while True:
                chunk = reply.read1(65536)
                if not chunk:
                    break
                body.extend(chunk)
        except socket.timeout as exc:
            raise ServiceTimeoutError(
                "timed out after %.1fs waiting for the service" % timeout,
                request_id=rid, received_bytes=len(body)) from exc
        except (http.client.IncompleteRead, ConnectionError):
            cut = True  # a chunked body cut short, or a reset
        if cut or reply.length:  # bytes still owed at EOF
            raise ServiceError(
                "connection cut mid-reply: %d bytes received" % len(body),
                request_id=rid, received_bytes=len(body))
    finally:
        conn.close()
    try:
        response = json.loads(body)
    except ValueError as exc:
        raise ServiceError(
            "service sent a malformed response: %s" % exc,
            request_id=rid, received_bytes=len(body)) from exc
    if not isinstance(response, dict):
        raise ServiceError("service response is not a JSON object",
                           got=type(response).__name__, request_id=rid)
    response["client_seconds"] = round(time.monotonic() - started, 4)
    return response


def submit_request(target: str, payload: Dict,
                   timeout: float = 120.0) -> Dict:
    """Send one proof request and block for its response dict.

    Mints and attaches a ``request_id`` when the payload has none (and
    is not a control op), so the id exists client-side even if the
    connection dies before the server answers.
    """
    if "op" in payload:
        return _roundtrip(target, "/v1/control", payload, timeout)
    if not payload.get("request_id"):
        payload = dict(payload, request_id=new_request_id())
    return _roundtrip(target, "/v1/prove", payload, timeout)


def control_request(target: str, op: str, timeout: float = 10.0,
                    **extra) -> Dict:
    """Send one operator op (``health``/``status``/``metrics``/``dump``).

    Extra keyword args ride along in the payload (e.g. ``path=...`` for
    ``dump``).  Raises :class:`ServiceError` when the server rejects the
    op, so callers never have to inspect ``ok`` themselves.
    """
    response = _roundtrip(target, "/v1/control", dict(extra, op=op),
                          timeout)
    if not response.get("ok"):
        raise ServiceError(
            "control op %r failed: %s" % (op, response.get("detail", "")),
            error=response.get("error", ""))
    return response


def verify_request(target: str, envelopes: List[bytes],
                   timeout: float = 120.0, request_id: str = "") -> Dict:
    """Send serialized envelopes to a ``zkml verify-serve`` socket.

    ``envelopes`` are raw envelope byte strings; they ride base64 on the
    wire.  Returns the server's verdict report (``results`` in input
    order) — request-level rejections come back as
    ``{"ok": false, "error": <taxonomy class>, ...}``.
    """
    payload = {
        "envelopes": [base64.b64encode(bytes(e)).decode()
                      for e in envelopes],
        "request_id": request_id or new_request_id(),
    }
    return _roundtrip(target, "/v1/verify", payload, timeout)


def submit_many(target: str, payloads: List[Dict],
                timeout: float = 120.0) -> List[Dict]:
    """Send several requests concurrently; responses come back in
    request order (each on its own connection, so the service sees them
    simultaneously and can coalesce)."""
    if not payloads:
        return []
    with ThreadPoolExecutor(max_workers=min(32, len(payloads)),
                            thread_name_prefix="zkml-submit") as pool:
        futures = [pool.submit(submit_request, target, p, timeout)
                   for p in payloads]
        return [f.result() for f in futures]
