"""A unix-domain-socket front end for :class:`ProvingService`.

``zkml serve`` binds one of these so out-of-process clients (``zkml
submit``, or anything that can write JSON to a socket) can feed the
micro-batcher.  The protocol is deliberately tiny: **one JSON request
per connection**, one JSON response back, connection closed.  A client
wanting its requests coalesced opens N concurrent connections — exactly
the traffic shape the batcher exists for.

Request fields::

    {"model": "dlrm",            # required: a zoo model name (mini scale)
     "inputs": {"x": [[...]]},   # either explicit input arrays ...
     "seed": 7,                  # ... or a seed for zkml-prove-style inputs
     "scheme": "kzg", "columns": 10, "scale_bits": 5,   # batch-key params
     "request_id": "req-...",    # correlation id (minted here if absent)
     "want_envelope": false,     # include the base64 v2 proof envelope
     "timeout": 60.0}            # per-request wait budget (seconds)

Response: ``{"ok": true, "id", "request_id", "batch_id", "model",
"verified", "batch_size", "padded_size", "queue_seconds",
"prove_seconds", "slot_prove_seconds", "keygen_cache_hit", "outputs",
["envelope_b64"]}`` or ``{"ok": false, "error", "detail"}`` —
typed service errors (overload, shutdown, proving failures) map to their
taxonomy class name in ``error``, so backpressure is visible to clients.

**Control ops** share the socket: a payload carrying ``{"op": ...}``
instead of ``"model"`` addresses the *server*, not the prover.

- ``{"op": "health"}`` — cheap liveness + queue headroom; answered from
  in-memory state, never touches the prover (safe to poll aggressively);
- ``{"op": "status"}`` — the full operator snapshot
  (``zkml-serve-status/v2``): uptime, queue, in-flight batches, pending
  per model, batcher state, pk-cache stats, resilience counters, the
  SLO sliding windows, and in cluster mode a ``cluster`` block with a
  per-worker ``telemetry`` rollup and per-priority-class SLO windows
  (``zkml top`` renders this);
- ``{"op": "metrics"}`` — the Prometheus text exposition of the
  service's registry plus the process resilience counters;
- ``{"op": "dump", "path": ...}`` — dump the flight recorder; with
  ``path`` the checksummed artifact is written server-side and the reply
  summarizes it, without ``path`` the artifact comes back inline.

An unknown or non-string ``op`` gets the structured
``{"ok": false, "error": "ServiceError", ...}`` rejection, same as any
malformed proof request.
"""

from __future__ import annotations

import base64
import json
import os
import socket
import threading
from typing import Callable, Dict, Optional

import numpy as np

from repro.model import get_model, model_names, seeded_inputs
from repro.obs import log as obs_log
from repro.obs.runtime import new_request_id
from repro.resilience import events
from repro.resilience.errors import ResilienceError, ServiceError
from repro.serve.service import ProvingService

__all__ = ["ServeServer", "FramedSocketServer", "PayloadProcessor",
           "CONTROL_OPS", "control", "metrics_text", "request_inputs"]

#: Operator ops the socket answers without touching the prover.
CONTROL_OPS = ("health", "status", "metrics", "dump")

#: Cap on a single request line (a mini-model input is a few KB).
MAX_REQUEST_BYTES = 4 << 20


def request_inputs(spec, payload: Dict) -> Dict[str, np.ndarray]:
    """Materialize a request's input arrays.

    Explicit ``inputs`` win; otherwise ``seed`` goes through the same
    :func:`~repro.model.seeded_inputs` as ``zkml prove --seed``, so a
    socket client and the CLI prove bit-identical statements.
    """
    if "inputs" in payload:
        arrays = {}
        for name, shape in spec.inputs.items():
            if name not in payload["inputs"]:
                raise ServiceError("request is missing input %r" % name,
                                   model=spec.name)
            arr = np.asarray(payload["inputs"][name], dtype=np.float64)
            if arr.shape != tuple(shape):
                raise ServiceError(
                    "input %r has shape %s, expected %s"
                    % (name, arr.shape, tuple(shape)), model=spec.name)
            arrays[name] = arr
        return arrays
    return seeded_inputs(spec, int(payload.get("seed", 0)))


class PayloadProcessor:
    """Wire payload → response dict, front-end agnostic.

    Both front ends — the unix socket (:class:`ServeServer`) and HTTP
    (:class:`~repro.serve.http_server.HttpFrontEnd`) — hand their parsed
    JSON here, so proof requests and control ops behave identically over
    either transport: same fields, same typed errors, same replies.
    """

    def __init__(self, service: ProvingService,
                 default_timeout: float = 120.0):
        self.service = service
        self.default_timeout = default_timeout

    def process(self, payload: Dict) -> Dict:
        if "op" in payload:
            return control(self.service, payload)
        model = payload.get("model")
        if model not in model_names():
            raise ServiceError("unknown model %r" % model)
        rid = payload.get("request_id")
        if rid is not None and not isinstance(rid, str):
            raise ServiceError("request_id must be a string",
                               got=type(rid).__name__)
        if not rid:
            rid = new_request_id()
        with obs_log.bind(request_id=rid):
            spec = get_model(model, "mini")
            inputs = request_inputs(spec, payload)
            future = self.service.submit(
                spec, inputs,
                scheme_name=payload.get("scheme", "kzg"),
                num_cols=int(payload.get("columns", 10)),
                scale_bits=int(payload.get("scale_bits", 5)),
                request_id=rid,
                priority=str(payload.get("priority", "interactive")),
            )
            timeout = float(payload.get("timeout", self.default_timeout))
            response = future.result(timeout=timeout)
        out = {
            "ok": True,
            "id": response.sequence,
            "request_id": response.request_id,
            "batch_id": response.batch_id,
            "model": response.model,
            "scheme": response.scheme_name,
            "verified": response.verified,
            "batch_size": response.batch_size,
            "padded_size": response.padded_size,
            "batch_index": response.batch_index,
            "queue_seconds": round(response.queue_seconds, 4),
            "prove_seconds": round(response.prove_seconds, 4),
            "slot_prove_seconds": round(response.slot_prove_seconds, 4),
            "keygen_cache_hit": response.keygen_cache_hit,
            "outputs": {name: np.asarray(values, dtype=object).tolist()
                        for name, values in response.outputs.items()},
        }
        if payload.get("want_envelope"):
            out["envelope_b64"] = base64.b64encode(
                response.envelope_bytes).decode()
        return out


def control(service, payload: Dict) -> Dict:
    """Answer an operator op (``health`` / ``status`` / ``metrics`` /
    ``dump``) from the in-memory state of ``service`` (proving or
    verifying) — never via the prover or the verifier."""
    op = payload["op"]
    if not isinstance(op, str) or op not in CONTROL_OPS:
        raise ServiceError(
            "unknown control op %r (expected one of %s)"
            % (op, "/".join(CONTROL_OPS)))
    if op == "health":
        health = service.health()
        health["ok"] = True  # protocol-level ok; liveness is "accepting"
        return health
    if op == "status":
        return {"ok": True, "status": service.status()}
    if op == "metrics":
        return {"ok": True, "metrics_text": metrics_text(service)}
    path = payload.get("path")
    if path is not None and not isinstance(path, str):
        raise ServiceError("dump path must be a string",
                           got=type(path).__name__)
    artifact = service.dump_flight(reason="operator_request", path=path)
    effective = path or service.runtime.dump_path
    out = {"ok": True, "reason": "operator_request",
           "events_recorded": artifact.get("events_recorded", 0),
           "checksum": artifact.get("checksum", "")}
    if effective:
        out["path"] = effective
    if not path:
        out["artifact"] = artifact
    return out


def metrics_text(service) -> str:
    """The Prometheus exposition (service registry + resilience); each
    part is empty or newline-terminated, so they concatenate."""
    return service.metrics.to_prometheus() + events.EVENTS.to_prometheus()


class FramedSocketServer:
    """The accept loop of both socket front ends: one JSON request line
    per connection in, one JSON reply line out.

    ``process(payload) -> dict`` handles a parsed request; whatever it
    raises becomes an ``{"ok": false, "error", "detail"}`` reply.  The
    line is capped at ``max_request_bytes`` before parsing and must hold
    a JSON object; each violation is a typed ``ServiceError`` reply.
    """

    def __init__(self, socket_path: str, max_request_bytes: int,
                 log_name: str, process: Callable[[Dict], Dict]):
        self.socket_path = socket_path
        self.max_request_bytes = max_request_bytes
        self._log = obs_log.get_logger(log_name)
        self._process = process
        self._sock: Optional[socket.socket] = None
        self._accepting = False
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle -----------------------------------------------------------

    def start(self):
        """Bind the socket and start accepting in a background thread."""
        self._bind()
        self._thread = threading.Thread(
            target=self._accept_loop,
            name="zkml-%s-accept" % self._log.name, daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Bind the socket and accept on the calling thread (CLI mode)."""
        self._bind()
        self._accept_loop()

    def _bind(self) -> None:
        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.bind(self.socket_path)
        self._sock.listen(64)
        self._sock.settimeout(0.2)
        self._accepting = True
        self._log.info("serving on %s", self.socket_path)

    def stop(self) -> None:
        """Stop accepting and remove the socket (the service keeps its
        own lifecycle — shut it down separately)."""
        self._accepting = False
        if self._thread is not None:
            self._thread.join(timeout=2.0)
        if self._sock is not None:
            self._sock.close()
            self._sock = None
        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)

    # -- connection handling -------------------------------------------------

    def _accept_loop(self) -> None:
        while self._accepting:
            try:
                conn, _ = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # socket closed under us during stop()
            handler = threading.Thread(target=self._handle, args=(conn,),
                                       daemon=True)
            handler.start()

    def _handle(self, conn: socket.socket) -> None:
        with conn:
            try:
                response = self._process(self._read_request(conn))
            except ResilienceError as exc:
                response = {"ok": False, "error": type(exc).__name__,
                            "detail": str(exc)}
            except Exception as exc:  # noqa: BLE001 — a bad request must not kill the accept loop
                response = {"ok": False, "error": type(exc).__name__,
                            "detail": str(exc)[:200]}
            try:
                conn.sendall(json.dumps(response).encode() + b"\n")
            except OSError:
                pass  # client went away; its future already resolved

    def _read_request(self, conn: socket.socket) -> Dict:
        chunks = []
        total = 0
        while not chunks or b"\n" not in chunks[-1]:
            chunk = conn.recv(65536)
            if not chunk:
                break
            total += len(chunk)
            if total > self.max_request_bytes:
                raise ServiceError("request exceeds %d bytes"
                                   % self.max_request_bytes)
            chunks.append(chunk)
        line = b"".join(chunks).split(b"\n", 1)[0]
        if not line:
            raise ServiceError("empty request")
        try:
            payload = json.loads(line)
        except ValueError:  # JSONDecodeError, or bytes in no JSON encoding
            raise ServiceError("request line is not valid JSON") from None
        if not isinstance(payload, dict):
            raise ServiceError("request payload must be a JSON object",
                               got=type(payload).__name__)
        return payload


class ServeServer(FramedSocketServer):
    """Socket connections → ``service.submit`` (via
    :class:`PayloadProcessor`)."""

    def __init__(self, service: ProvingService, socket_path: str,
                 default_timeout: float = 120.0):
        super().__init__(socket_path, MAX_REQUEST_BYTES, "serve",
                         PayloadProcessor(service, default_timeout).process)
