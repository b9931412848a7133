"""A unix-domain-socket front end for :class:`VerifyService`.

``zkml verify-serve`` binds one of these alongside (or instead of) the
proving socket.  Same tiny protocol as the proving server: **one JSON
request per connection**, one JSON response, connection closed.

Request fields::

    {"envelopes": ["<b64>", ...],   # serialized v2 envelopes, or ...
     "envelope": "<b64>",           # ... a single one
     "request_id": "req-..."}       # correlation id (minted if absent)

Response::

    {"ok": true, "request_id", "batch_size", "accepted", "rejected",
     "verify_seconds", "results": [{"index", "ok", ...verdict...}]}

or ``{"ok": false, "error", "detail"}`` for request-level rejections
(overload shed, batch cap, deadline, shutdown) — the typed taxonomy
class name rides in ``error`` so clients can distinguish "back off"
from "your envelope is garbage".

The wire layer is hardened independently of the service: the request
line itself is capped (``max_request_bytes``) so a client cannot stream
unbounded bytes before JSON parsing, and base64 payloads that fail to
decode are rejected without touching the envelope decoder.

**Control ops** are the proving server's: ``{"op": "health"}``,
``{"op": "status"}`` (``zkml-verify-status/v1``), ``{"op": "metrics"}``
(Prometheus text), ``{"op": "dump"}`` (flight recorder).
"""

from __future__ import annotations

import base64
import binascii
from typing import Dict, List

from repro.resilience.errors import ServiceError
from repro.serve.server import FramedSocketServer, control
from repro.serve.verify_service import VerifyService

__all__ = ["VerifyServer"]

#: Default cap on one request line.  Envelopes ride base64 (4/3
#: overhead), so this comfortably holds a few mini-model envelopes while
#: still bounding what an attacker can make us buffer.
DEFAULT_MAX_REQUEST_BYTES = 64 << 20


class VerifyServer(FramedSocketServer):
    """Socket connections → ``service.verify_batch``."""

    def __init__(self, service: VerifyService, socket_path: str,
                 max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES):
        super().__init__(socket_path, max_request_bytes, "verify",
                         self._verify)
        self.service = service

    def _decode_envelopes(self, payload: Dict) -> List[bytes]:
        if "envelope" in payload:
            raw = [payload["envelope"]]
        else:
            raw = payload.get("envelopes")
        if not isinstance(raw, list) or not raw:
            raise ServiceError(
                "request must carry 'envelope' or a non-empty "
                "'envelopes' list")
        out: List[bytes] = []
        for idx, item in enumerate(raw):
            if not isinstance(item, str):
                raise ServiceError("envelope %d is not a base64 string"
                                   % idx, got=type(item).__name__)
            try:
                out.append(base64.b64decode(item, validate=True))
            except (binascii.Error, ValueError):
                raise ServiceError("envelope %d is not valid base64" % idx)
        return out

    def _verify(self, payload: Dict) -> Dict:
        if "op" in payload:
            return control(self.service, payload)
        rid = payload.get("request_id")
        if rid is not None and not isinstance(rid, str):
            raise ServiceError("request_id must be a string",
                               got=type(rid).__name__)
        envelopes = self._decode_envelopes(payload)
        report = self.service.verify_batch(envelopes, request_id=rid or None)
        report["ok"] = True
        return report
