"""The hardened verification service behind ``zkml verify-serve``.

Where :class:`~repro.serve.service.ProvingService` turns inference
requests into batch proofs, :class:`VerifyService` is the other side of
the trust boundary: it accepts serialized proof envelopes **from
untrusted parties** and answers accept/reject — without letting a
hostile envelope hurt the service.  The hardening layers, outermost
first:

- **load shedding** — at most ``max_inflight`` requests verify
  concurrently; excess requests are rejected immediately with a typed
  :class:`~repro.resilience.errors.ServiceOverloadedError` (clients
  retry; the service never builds an unbounded backlog of attacker
  bytes);
- **per-request resource caps** — batch size is capped before any
  envelope is touched, and every envelope decodes under
  :class:`~repro.envelope.EnvelopeCaps` (total bytes, instance columns,
  public inputs, proof length), all enforced *before* field arithmetic;
- **wall-clock deadline** — each request has a per-request deadline,
  checked cooperatively between envelopes and once more at the end, so
  one request cannot hold a verify slot forever
  (:class:`~repro.resilience.errors.DeadlineExceeded`);
- **batch amortization** — envelopes are grouped by verifying-key hash;
  each distinct key is fetched from the registry (and integrity-checked)
  once per request, not once per envelope;
- **deterministic verdicts** — results come back in input order, one
  verdict per envelope; a malformed envelope rejects *itself* (typed
  error name + detail) without failing its batch-mates, and the same
  envelope bytes always produce the same verdict (property-tested);
- **accounting by cause** — every rejection increments a counter keyed
  by its taxonomy cause (``schema``/``truncated``/``cap``/``checksum``/
  ``unknown_vk``/...), surfaced through ``status`` and the Prometheus
  text op, mirroring the proving service's telemetry (SLO windows,
  flight recorder).  The ``verify_*`` series in the service's registry
  are its only counts: :meth:`VerifyService.stats` totals them.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field as dataclass_field
from typing import Dict, List, Optional

from repro.envelope import DEFAULT_CAPS, EnvelopeCaps, decode_envelope
from repro.envelope.verify import verify_envelope
from repro.obs import log as obs_log
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import FlightRecorder, RuntimeTelemetry, new_request_id
from repro.obs.trace import get_tracer
from repro.resilience import events
from repro.resilience.errors import (
    DeadlineExceeded,
    EnvelopeCapError,
    EnvelopeChecksumError,
    EnvelopeError,
    EnvelopeSchemaError,
    EnvelopeTruncatedError,
    KernelUnavailableError,
    ProofFormatError,
    RegistryError,
    ResilienceError,
    ServiceError,
    ServiceOverloadedError,
    ServiceShutdownError,
    UnknownVerifyingKeyError,
    VerificationFailure,
)

__all__ = ["VerifyConfig", "VerifyService", "rejection_cause"]

log = obs_log.get_logger("verify")

#: Histogram buckets for request verify latency (seconds).
VERIFY_LATENCY_BUCKETS = (0.005, 0.02, 0.05, 0.1, 0.25, 1.0, 5.0, 30.0)

#: Flight-recorder ring capacity (events).
FLIGHT_CAPACITY = 256

#: Taxonomy class -> rejection-cause label, most specific first (the
#: first ``isinstance`` match wins, so subclasses precede their bases).
_CAUSES = (
    (EnvelopeSchemaError, "schema"),
    (EnvelopeTruncatedError, "truncated"),
    (EnvelopeCapError, "cap"),
    (EnvelopeChecksumError, "checksum"),
    (EnvelopeError, "envelope"),
    (UnknownVerifyingKeyError, "unknown_vk"),
    (RegistryError, "registry"),
    (VerificationFailure, "verify_failed"),
    (ProofFormatError, "proof_format"),
    (DeadlineExceeded, "deadline"),
    (ServiceOverloadedError, "overload"),
    (ServiceError, "service"),
)


def rejection_cause(exc: BaseException) -> str:
    """The counter label a rejection is accounted under."""
    for cls, cause in _CAUSES:
        if isinstance(exc, cls):
            return cause
    return "other"


@dataclass
class VerifyConfig:
    """Resource caps and knobs for the verification service."""

    #: Decoder caps applied to every envelope (see ``repro.envelope``).
    caps: EnvelopeCaps = dataclass_field(default_factory=lambda: DEFAULT_CAPS)
    #: Envelopes per request; more is rejected before any decoding.
    max_batch: int = 32
    #: Concurrent requests verifying; excess is shed with a typed error.
    max_inflight: int = 4
    #: Per-request wall-clock budget (checked cooperatively).
    deadline_seconds: float = 60.0
    #: Where automatic flight dumps land (``None`` disables them).
    flight_path: Optional[str] = None
    #: Rejections within one second that count as an overload storm.
    overload_dump_threshold: int = 16


class VerifyService:
    """Batch-verify proof envelopes from untrusted parties, safely.

    ``registry`` resolves envelope verifying-key hashes to keys; without
    one, every envelope is rejected ``unknown_vk`` (a verifier with no
    trusted keys trusts nothing).
    """

    def __init__(self, registry=None, config: Optional[VerifyConfig] = None,
                 metrics: Optional[MetricsRegistry] = None, tracer=None):
        self.registry = registry
        self.config = config if config is not None else VerifyConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._tracer = tracer
        self.runtime = RuntimeTelemetry(
            recorder=FlightRecorder(capacity=FLIGHT_CAPACITY),
            dump_path=self.config.flight_path,
            overload_threshold=self.config.overload_dump_threshold)
        self._slots = threading.Semaphore(self.config.max_inflight)
        self._lock = threading.Lock()
        self._closed = False
        self._started_at = time.monotonic()
        self._inflight = 0

    @property
    def tracer(self):
        return self._tracer if self._tracer is not None else get_tracer()

    def close(self) -> None:
        with self._lock:
            self._closed = True

    # -- accounting ----------------------------------------------------------

    def _count_rejection(self, cause: str, n: int = 1) -> None:
        self.metrics.counter(
            "verify_rejected_total",
            "envelope/request rejections by taxonomy cause",
            cause=cause).inc(n)

    # -- the core request ----------------------------------------------------

    def verify_batch(self, envelopes: List[bytes],
                     request_id: Optional[str] = None) -> Dict[str, object]:
        """Verify a batch of serialized envelopes; verdicts in input order.

        Request-level rejections (shutdown, load shed, batch cap,
        deadline) raise typed errors; *per-envelope* failures never
        escape — each envelope's verdict carries its taxonomy error name
        and detail, and its batch-mates still verify.
        """
        rid = request_id if request_id else new_request_id()
        if self._closed:
            raise ServiceShutdownError(
                "verify service is shut down; request rejected",
                request_id=rid)
        if len(envelopes) > self.config.max_batch:
            self._count_rejection("batch_cap")
            raise ServiceError(
                "batch of %d envelopes exceeds the %d cap"
                % (len(envelopes), self.config.max_batch),
                request_id=rid, batch=len(envelopes),
                max_batch=self.config.max_batch)
        if not self._slots.acquire(blocking=False):
            self._count_rejection("overload")
            self.runtime.note("request_rejected", request_id=rid,
                              cause="overload",
                              max_inflight=self.config.max_inflight)
            if self.runtime.rejection():
                self._auto_dump("overload_storm")
            raise ServiceOverloadedError(
                "verify service is at its %d-request concurrency cap"
                % self.config.max_inflight,
                request_id=rid, max_inflight=self.config.max_inflight)
        started = time.monotonic()
        with self._lock:
            self._inflight += 1
        self.metrics.counter("verify_requests_total",
                             "verify requests accepted").inc()
        self.runtime.note("request_accepted", request_id=rid,
                          batch=len(envelopes))
        try:
            with obs_log.bind(request_id=rid):
                results = self._verify_all(envelopes, rid, started)
            self._check_deadline(rid, started, "after %d envelopes"
                                 % len(envelopes))
        except DeadlineExceeded:
            self._count_rejection("deadline")
            self.runtime.request_done(time.monotonic() - started, ok=False,
                                      occupancy=len(envelopes))
            self.runtime.note("request_deadline", request_id=rid,
                              batch=len(envelopes),
                              deadline=self.config.deadline_seconds)
            raise
        finally:
            with self._lock:
                self._inflight -= 1
            self._slots.release()
        elapsed = time.monotonic() - started
        accepted = sum(1 for r in results if r["ok"])
        self.metrics.counter("verify_envelopes_total",
                             "envelopes processed").inc(len(results))
        self.metrics.counter("verify_accepted_total",
                             "envelopes that verified").inc(accepted)
        if accepted < len(results):
            self.metrics.counter(
                "verify_requests_with_rejections_total",
                "verified requests with at least one rejected envelope",
            ).inc()
        self.metrics.histogram(
            "verify_request_seconds", "end-to-end verify request latency",
            buckets=VERIFY_LATENCY_BUCKETS).observe(elapsed)
        self.runtime.request_done(elapsed, ok=accepted == len(results),
                                  occupancy=len(results))
        self.runtime.note("request_verified", request_id=rid,
                          batch=len(results), accepted=accepted,
                          seconds=round(elapsed, 4))
        return {
            "request_id": rid,
            "batch_size": len(results),
            "accepted": accepted,
            "rejected": len(results) - accepted,
            "verify_seconds": round(elapsed, 6),
            "results": results,
        }

    def _verify_all(self, envelopes: List[bytes], rid: str,
                    started: float) -> List[Dict[str, object]]:
        """Decode + verify each envelope; one verdict per input, in order.

        Decoding happens first for the whole batch so key fetches can be
        amortized by vk hash; the expensive verify loop then checks the
        cooperative deadline *between* envelopes.
        """
        decoded: List[object] = []
        for idx, data in enumerate(envelopes):
            try:
                decoded.append(decode_envelope(bytes(data),
                                               caps=self.config.caps))
            except EnvelopeError as exc:
                decoded.append(exc)
        # one registry fetch (with integrity re-check) per distinct key
        vks: Dict[str, object] = {}
        for env in decoded:
            if isinstance(env, BaseException):
                continue
            if env.vk_hash_hex in vks:
                continue
            vks[env.vk_hash_hex] = self._fetch_vk(env.vk_hash_hex)
        results = []
        for idx, env in enumerate(decoded):
            self._check_deadline(rid, started, "at envelope %d/%d"
                                 % (idx, len(decoded)))
            results.append(self._verdict(idx, env, vks))
        return results

    def _check_deadline(self, rid: str, started: float, where: str) -> None:
        """Raise :class:`DeadlineExceeded` once the request overran
        ``deadline_seconds``."""
        deadline = self.config.deadline_seconds
        if deadline is not None and time.monotonic() - started > deadline:
            raise DeadlineExceeded(
                "verify request overran its %.1fs deadline %s"
                % (deadline, where), phase="verify_request", request_id=rid)

    def _fetch_vk(self, vk_hash: str):
        """``(vk, entry)`` from the registry for ``vk_hash``, or the
        typed error it raised (stored so every envelope under that key
        shares one fetch)."""
        if self.registry is None:
            return UnknownVerifyingKeyError(
                "no verifying-key registry configured; key %s cannot be "
                "resolved" % vk_hash[:16], vk_hash=vk_hash)
        try:
            return self.registry.resolve(vk_hash)
        except RegistryError as exc:
            return exc

    def _verdict(self, idx: int, env, vks: Dict[str, object]
                 ) -> Dict[str, object]:
        if isinstance(env, BaseException):
            return self._reject(idx, env)
        fetched = vks[env.vk_hash_hex]
        if isinstance(fetched, BaseException):
            return self._reject(idx, fetched, env)
        vk, entry = fetched
        try:
            entry.bind(env)
            with self.tracer.span("verify:envelope", model=env.model,
                                  scheme=env.scheme_name):
                verify_envelope(env, vk)
        except KernelUnavailableError:
            raise  # no verdict: this box cannot verify anything
        except ResilienceError as exc:
            return self._reject(idx, exc, env)
        except Exception as exc:  # noqa: BLE001 — a verifier crash must reject, not escape
            return self._reject(idx, VerificationFailure(
                "verifier crashed: %s: %s"
                % (type(exc).__name__, str(exc)[:200]), model=env.model), env)
        return {
            "index": idx,
            "ok": True,
            "model": env.model,
            "scheme": env.scheme_name,
            "vk_hash": env.vk_hash_hex,
            "public_inputs": env.num_public_inputs(),
        }

    def _reject(self, idx: int, exc: BaseException,
                env=None) -> Dict[str, object]:
        cause = rejection_cause(exc)
        self._count_rejection(cause)
        out = {
            "index": idx,
            "ok": False,
            "error": type(exc).__name__,
            "cause": cause,
            "detail": str(exc)[:300],
        }
        if env is not None:
            out["model"] = env.model
            out["vk_hash"] = env.vk_hash_hex
        return out

    # -- operator surface ----------------------------------------------------

    def _auto_dump(self, reason: str) -> None:
        if not self.runtime.dump_path:
            return
        try:
            self.runtime.dump(reason=reason)
            log.warning("flight recorder dumped", reason=reason,
                        path=self.runtime.dump_path)
        except OSError as exc:
            log.warning("flight recorder dump failed", reason=reason,
                        error=str(exc)[:120])

    def dump_flight(self, reason: str = "on_demand",
                    path: Optional[str] = None) -> Dict:
        return self.runtime.dump(reason=reason, path=path)

    def health(self) -> Dict[str, object]:
        """Cheap liveness: answered from in-memory state, no registry
        read, no verification."""
        with self._lock:
            inflight = self._inflight
        accepting = not self._closed
        return {
            "ok": accepting,
            "accepting": accepting,
            "inflight": inflight,
            "slots_free": max(0, self.config.max_inflight - inflight),
            "saturated": inflight >= self.config.max_inflight,
        }

    def stats(self) -> Dict[str, object]:
        """Counts totalled from the registry's ``verify_*`` series."""
        total = self.metrics.total
        envelopes = int(total("verify_envelopes_total"))
        accepted = int(total("verify_accepted_total"))
        by_cause = {dict(key)["cause"]: int(count) for key, count
                    in self.metrics.values("verify_rejected_total").items()}
        with self._lock:
            inflight = self._inflight
        return {
            "requests": int(total("verify_requests_total")),
            "envelopes": envelopes,
            "accepted": accepted,
            "rejected": envelopes - accepted,
            "requests_with_rejections": int(
                total("verify_requests_with_rejections_total")),
            "rejections_by_cause": dict(sorted(by_cause.items())),
            "inflight": inflight,
        }

    def status(self) -> Dict[str, object]:
        """The full operator snapshot (``zkml-verify-status/v1``)."""
        out: Dict[str, object] = {
            "schema": "zkml-verify-status/v1",
            "uptime_seconds": round(time.monotonic() - self._started_at, 3),
            "accepting": not self._closed,
            "limits": {
                "max_batch": self.config.max_batch,
                "max_inflight": self.config.max_inflight,
                "deadline_seconds": self.config.deadline_seconds,
                "max_envelope_bytes": self.config.caps.max_envelope_bytes,
                "max_public_inputs": self.config.caps.max_public_inputs,
                "max_proof_bytes": self.config.caps.max_proof_bytes,
            },
            "counters": self.stats(),
            "registry": {
                "configured": self.registry is not None,
                "root": getattr(self.registry, "root", None),
                "entries": len(self.registry.list_entries())
                if self.registry is not None else 0,
            },
            "resilience": events.counts(),
            "slo": self.runtime.slo.snapshot(),
        }
        recorder = self.runtime.recorder
        out["flight_recorder"] = {
            "buffered": len(recorder),
            "capacity": recorder.capacity,
            "recorded": recorder.recorded,
            "dumps": recorder.dumps,
            "dump_path": self.runtime.dump_path,
        }
        return out
