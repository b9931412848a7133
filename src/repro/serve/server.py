"""What both services answer: one JSON request in, one JSON reply out.

``zkml serve`` and ``zkml verify-serve`` carry these payloads over HTTP
(:mod:`repro.serve.http_server`, on a unix socket and on a TCP port);
this module is the part that does not depend on the transport.  A
processor turns one parsed JSON object into one reply dict, and
whatever it raises becomes an ``{"ok": false, "error", "detail"}``
reply whose ``error`` is the taxonomy class name, so backpressure is
visible to clients.

Proof request (:class:`PayloadProcessor`, ``POST /v1/prove``)::

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
["envelope_b64"]}``.

Verify request (:class:`VerifyProcessor`, ``POST /v1/verify``)::

    {"envelopes": ["<b64>", ...],   # serialized v2 envelopes, or ...
     "envelope": "<b64>",           # ... a single one
     "request_id": "req-..."}       # correlation id (minted if absent)

Response: ``{"ok": true, "request_id", "batch_size", "accepted",
"rejected", "verify_seconds", "results": [{"index", "ok", ...}]}``.
Base64 that fails to decode is rejected before the envelope decoder
sees a byte.

**Control ops** (:func:`control`, ``POST /v1/control``): a payload
carrying ``{"op": ...}`` addresses the *server*, not the prover or the
verifier.

- ``{"op": "health"}`` — cheap liveness + queue headroom; answered from
  in-memory state, never touches the prover (safe to poll aggressively);
- ``{"op": "status"}`` — the full operator snapshot
  (``zkml-serve-status/v2`` or ``zkml-verify-status/v1``): uptime,
  queue, in-flight batches, counters, the SLO sliding windows, and in
  cluster mode a ``cluster`` block with a per-worker ``telemetry``
  rollup and per-priority-class SLO windows (``zkml top`` renders it);
- ``{"op": "metrics"}`` — the Prometheus text exposition of the
  service's registry plus the process resilience counters;
- ``{"op": "dump", "path": ...}`` — dump the flight recorder; with
  ``path`` the checksummed artifact is written server-side and the reply
  summarizes it, without ``path`` the artifact comes back inline.

An unknown or non-string ``op`` gets the structured
``{"ok": false, "error": "ServiceError", ...}`` rejection, same as any
malformed request.
"""

from __future__ import annotations

import base64
import binascii
from typing import Dict, List, Optional

import numpy as np

from repro.model import get_model, model_names, seeded_inputs
from repro.obs import log as obs_log
from repro.obs.runtime import new_request_id
from repro.resilience import events
from repro.resilience.errors import ServiceError

__all__ = ["PayloadProcessor", "VerifyProcessor", "CONTROL_OPS",
           "MAX_REQUEST_BYTES", "control", "metrics_text", "request_inputs"]

#: Operator ops every front end answers without touching the prover.
CONTROL_OPS = ("health", "status", "metrics", "dump")

#: Cap on one proof request body (a mini-model input is a few KB).
MAX_REQUEST_BYTES = 4 << 20

#: How long a proof request waits for its proof; the request's own
#: ``"timeout"`` field is the only override.
REQUEST_TIMEOUT_SECONDS = 120.0

#: Default cap on one verify request body.  Envelopes ride base64 (4/3
#: overhead), so this holds a few mini-model envelopes while still
#: bounding what an attacker can make the server buffer.
MAX_VERIFY_REQUEST_BYTES = 64 << 20


def request_inputs(spec, payload: Dict) -> Dict[str, np.ndarray]:
    """Materialize a request's input arrays.

    Explicit ``inputs`` win; otherwise ``seed`` goes through the same
    :func:`~repro.model.seeded_inputs` as ``zkml prove --seed``, so a
    wire client and the CLI prove bit-identical statements.
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
    """Proof request or control op → reply dict (``zkml serve``).

    Every listener of one service shares one processor, so the unix
    socket and the TCP port answer alike: same fields, same typed
    errors, same replies.
    """

    routes = ("/v1/prove", "/prove", "/")
    max_request_bytes = MAX_REQUEST_BYTES

    def __init__(self, service):
        self.service = service

    def process(self, payload: Dict) -> Dict:
        if "op" in payload:
            return control(self.service, payload)
        model = payload.get("model")
        if model not in model_names():
            raise ServiceError("unknown model %r" % model)
        rid = _request_id(payload) or new_request_id()
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
            timeout = float(payload.get("timeout", REQUEST_TIMEOUT_SECONDS))
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


class VerifyProcessor:
    """Verify request or control op → reply dict (``zkml verify-serve``)."""

    routes = ("/v1/verify",)

    def __init__(self, service,
                 max_request_bytes: int = MAX_VERIFY_REQUEST_BYTES):
        self.service = service
        self.max_request_bytes = max_request_bytes

    def process(self, payload: Dict) -> Dict:
        if "op" in payload:
            return control(self.service, payload)
        rid = _request_id(payload)
        report = self.service.verify_batch(_decode_envelopes(payload),
                                           request_id=rid or None)
        report["ok"] = True
        return report


def _request_id(payload: Dict) -> Optional[str]:
    rid = payload.get("request_id")
    if rid is not None and not isinstance(rid, str):
        raise ServiceError("request_id must be a string",
                           got=type(rid).__name__)
    return rid


def _decode_envelopes(payload: Dict) -> List[bytes]:
    raw = [payload["envelope"]] if "envelope" in payload \
        else payload.get("envelopes")
    if not isinstance(raw, list) or not raw:
        raise ServiceError(
            "request must carry 'envelope' or a non-empty 'envelopes' list")
    out: List[bytes] = []
    for idx, item in enumerate(raw):
        if not isinstance(item, str):
            raise ServiceError("envelope %d is not a base64 string" % idx,
                               got=type(item).__name__)
        try:
            out.append(base64.b64decode(item, validate=True))
        except (binascii.Error, ValueError):
            raise ServiceError("envelope %d is not valid base64" % idx)
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
    artifact = service.runtime.dump(reason="operator_request", path=path)
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
