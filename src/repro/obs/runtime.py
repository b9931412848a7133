"""Serving-grade runtime telemetry: request ids, SLO windows, flight recorder.

The serving path (:mod:`repro.serve`) is a long-running process; this
module is what makes it *operable* while it runs and debuggable after it
dies:

- **request correlation** — :func:`new_request_id` / :func:`new_batch_id`
  mint compact ids (``req-...`` / ``batch-...``) that are carried on the
  wire, threaded through spans and structured log records (via
  :func:`repro.obs.log.bind`), and returned in ``ProofResponse`` — one
  grep over client log, server log, and a flight-recorder dump
  reconstructs a request's full lifecycle;
- **SLO windows** — :class:`SloTracker` keeps bounded ring-buffer windows
  (1m / 5m / total by default) of per-request completions and computes
  p50/p95/p99 end-to-end latency, error rate, occupancy, and throughput
  over each window.  Snapshots feed the ``status`` control op and
  ``zkml top``;
- **flight recorder** — :class:`FlightRecorder` is a bounded in-memory
  ring of recent request/batch lifecycle events.  On a worker fault, an
  overload storm, SIGTERM, or an on-demand ``dump`` op it is written out
  as a checksummed JSON artifact (:data:`FLIGHT_SCHEMA`) — the postmortem
  seam a multi-worker proving cluster inherits;
- :class:`RuntimeTelemetry` bundles the SLO windows and the flight ring
  for :class:`~repro.serve.service.ProvingService` and
  :class:`~repro.serve.verify_service.VerifyService`; both always run
  it.

Everything here is pure stdlib and never touches the prover: recording an
event is an O(1) deque append under a lock, and a ``health`` probe reads
a handful of integers.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.storage import atomic_write, checksum16

__all__ = [
    "FLIGHT_SCHEMA",
    "FlightRecorder",
    "RuntimeTelemetry",
    "SloTracker",
    "SloWindow",
    "flight_checksum",
    "new_batch_id",
    "new_request_id",
    "percentile",
    "render_status",
    "verify_flight_dump",
]

#: JSON schema tag for flight-recorder dump artifacts.
FLIGHT_SCHEMA = "zkml-flight-recorder/v1"

#: Default SLO windows: (name, horizon seconds); ``None`` = since start.
DEFAULT_WINDOWS: Tuple[Tuple[str, Optional[float]], ...] = (
    ("1m", 60.0), ("5m", 300.0), ("total", None),
)

_id_counter = itertools.count(1)
_id_prefix = os.urandom(3).hex()


def _mint(kind: str) -> str:
    """A compact process-unique id: ``<kind>-<random>-<seq>``.

    The random prefix is drawn once per process so ids from a restarted
    server (or from many clients) never collide in a merged log; the
    sequence keeps ids from one process sortable in mint order.
    """
    return "%s-%s-%d" % (kind, _id_prefix, next(_id_counter))


def new_request_id() -> str:
    """Mint a request correlation id (``req-...``)."""
    return _mint("req")


def new_batch_id() -> str:
    """Mint a batch correlation id (``batch-...``)."""
    return _mint("batch")


def percentile(sorted_values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank percentile of an already-sorted sequence.

    Returns ``None`` for an empty sequence.  ``q`` is in ``[0, 1]``.
    """
    if not sorted_values:
        return None
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must be in [0, 1]")
    rank = max(1, int(-(-q * len(sorted_values) // 1)))  # ceil(q*n), min 1
    return sorted_values[min(rank, len(sorted_values)) - 1]


class SloWindow:
    """One sliding window of request completions (ring-buffered).

    Samples older than ``horizon_seconds`` are evicted lazily on observe
    and snapshot; ``horizon_seconds=None`` keeps a "since start" window
    whose *percentiles* come from the most recent ``max_samples``
    completions while counts and error totals stay exact running sums.
    """

    __slots__ = ("name", "horizon", "max_samples", "_samples", "_count",
                 "_errors", "_started")

    def __init__(self, name: str, horizon_seconds: Optional[float],
                 max_samples: int = 2048, started_at: float = 0.0):
        self.name = name
        self.horizon = horizon_seconds
        self.max_samples = max_samples
        # each sample: (ts, latency_seconds, ok, occupancy)
        self._samples: deque = deque(maxlen=max_samples)
        self._count = 0
        self._errors = 0
        self._started = started_at

    def observe(self, now: float, latency: float, ok: bool,
                occupancy: int) -> None:
        self._evict(now)
        self._samples.append((now, latency, ok, occupancy))
        self._count += 1
        if not ok:
            self._errors += 1

    def _evict(self, now: float) -> None:
        if self.horizon is None:
            return
        cutoff = now - self.horizon
        samples = self._samples
        while samples and samples[0][0] < cutoff:
            samples.popleft()

    def snapshot(self, now: float) -> Dict[str, Any]:
        self._evict(now)
        samples = list(self._samples)
        latencies = sorted(s[1] for s in samples)
        n = len(samples)
        if self.horizon is not None:
            count = n
            errors = sum(1 for s in samples if not s[2])
            span = self.horizon
        else:
            count = self._count
            errors = self._errors
            span = max(now - self._started, 1e-9)
        out: Dict[str, Any] = {
            "window": self.name,
            "count": count,
            "errors": errors,
            "error_rate": round(errors / count, 4) if count else 0.0,
            "throughput_rps": round(count / span, 4) if span else 0.0,
            "mean_occupancy": round(
                sum(s[3] for s in samples) / n, 2) if n else 0.0,
        }
        for label, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
            value = percentile(latencies, q)
            out["%s_seconds" % label] = round(value, 4) \
                if value is not None else None
        return out


class SloTracker:
    """A set of :class:`SloWindow` fed from one observe call; thread-safe."""

    def __init__(self, windows=DEFAULT_WINDOWS, max_samples: int = 2048,
                 clock: Callable[[], float] = time.monotonic):
        self._clock = clock
        self._lock = threading.Lock()
        started = clock()
        self.windows = [SloWindow(name, horizon, max_samples=max_samples,
                                  started_at=started)
                        for name, horizon in windows]

    def observe(self, latency_seconds: float, ok: bool = True,
                occupancy: int = 1) -> None:
        """Record one finished request (success or typed failure)."""
        now = self._clock()
        with self._lock:
            for window in self.windows:
                window.observe(now, latency_seconds, ok, int(occupancy))

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Per-window SLO summaries keyed by window name."""
        now = self._clock()
        with self._lock:
            return {w.name: w.snapshot(now) for w in self.windows}


def flight_checksum(events: List[Dict[str, Any]]) -> str:
    """The integrity checksum over a dump's event list.

    Canonical form: sorted-key JSON with non-JSON values stringified —
    exactly what :meth:`FlightRecorder.dump` writes, so a reader can
    recompute and compare.
    """
    payload = json.dumps(events, sort_keys=True, default=str).encode()
    return checksum16(payload).hex()


def verify_flight_dump(artifact: Dict[str, Any]) -> bool:
    """``True`` iff a dump artifact's checksum matches its events."""
    if artifact.get("schema") != FLIGHT_SCHEMA:
        return False
    return flight_checksum(artifact.get("events", [])) == \
        artifact.get("checksum")


class FlightRecorder:
    """A bounded ring buffer of lifecycle events, dumpable as JSON.

    ``record`` is cheap (timestamped dict appended to a ``deque`` under a
    lock); the ring holds the most recent ``capacity`` events so memory
    stays bounded no matter how long the service runs.  ``dump`` snapshots
    the ring into a checksummed artifact and (optionally) writes it
    atomically to disk.
    """

    def __init__(self, capacity: int = 512,
                 clock: Callable[[], float] = time.time):
        self.capacity = capacity
        self._clock = clock
        self._lock = threading.Lock()
        self._events: deque = deque(maxlen=capacity)
        self._recorded = 0  # total ever recorded (ring keeps the tail)
        self.dumps = 0

    def record(self, kind: str, **fields: Any) -> None:
        """Append one event (older events fall off the ring)."""
        event = {"ts": round(self._clock(), 6), "kind": kind}
        event.update(fields)
        with self._lock:
            event["seq"] = self._recorded
            self._recorded += 1
            self._events.append(event)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    @property
    def recorded(self) -> int:
        """Total events ever recorded (>= ``len`` once the ring wraps)."""
        with self._lock:
            return self._recorded

    def events(self, kind: Optional[str] = None) -> List[Dict[str, Any]]:
        """A snapshot of the ring (optionally filtered by event kind)."""
        with self._lock:
            out = list(self._events)
        if kind is not None:
            out = [e for e in out if e["kind"] == kind]
        return out

    def dump(self, path: Optional[str] = None,
             reason: str = "on_demand") -> Dict[str, Any]:
        """Snapshot the ring into a checksummed artifact.

        With ``path``, the artifact is also written atomically (temp file
        + rename) so a dump racing a crash never leaves a torn file.
        Returns the artifact dict either way.
        """
        events = self.events()
        artifact = {
            "schema": FLIGHT_SCHEMA,
            "dumped_at": round(self._clock(), 6),
            "reason": reason,
            "events_recorded": self.recorded,
            "events": events,
            "checksum": flight_checksum(events),
        }
        if path:
            # best effort, single attempt: a dump is a postmortem aid
            text = json.dumps(artifact, indent=1, sort_keys=True, default=str)
            atomic_write(path, (text + "\n").encode(), attempts=1,
                         backoff_seconds=0.0, retry_event="flight_dump")
        with self._lock:
            self.dumps += 1
        return artifact


class RuntimeTelemetry:
    """The serving path's operational bundle: SLO windows + flight ring.

    ``dump_path`` enables *automatic* dumps (batch failure, overload
    storm, SIGTERM); without it the ring still records and can be dumped
    on demand (the ``dump`` control op, or :meth:`dump` directly).
    An overload storm is ``overload_threshold`` rejections inside
    ``overload_window_seconds``; storms are rate-limited to one automatic
    dump per window so a sustained storm can't thrash the disk.

    Every *automatic* dump is additionally rate-limited per **reason**
    (:meth:`auto_dump`): at most one dump per distinct reason string per
    ``auto_dump_interval_seconds``, so a crash-looping cluster worker
    failing a batch every tick cannot write unbounded dump files — the
    first failure is captured, repeats within the interval only bump
    ``suppressed_dumps``.  Distinct reasons stay independent: a
    ``batch_failure`` dump never starves an ``overload_storm`` one.
    """

    def __init__(self, slo: Optional[SloTracker] = None,
                 recorder: Optional[FlightRecorder] = None,
                 dump_path: Optional[str] = None,
                 overload_threshold: int = 16,
                 overload_window_seconds: float = 1.0,
                 auto_dump_interval_seconds: float = 5.0,
                 clock: Callable[[], float] = time.monotonic):
        self.slo = slo if slo is not None else SloTracker(clock=clock)
        self.recorder = recorder if recorder is not None else FlightRecorder()
        self.dump_path = dump_path
        self.overload_threshold = overload_threshold
        self.overload_window_seconds = overload_window_seconds
        self.auto_dump_interval_seconds = auto_dump_interval_seconds
        self._clock = clock
        self._rejections: deque = deque(maxlen=max(4, overload_threshold * 2))
        self._last_storm_dump: Optional[float] = None
        self._last_auto_dump: Dict[str, float] = {}
        self.suppressed_dumps = 0
        self._lock = threading.Lock()

    def note(self, kind: str, **fields: Any) -> None:
        """Record one lifecycle event in the flight ring."""
        self.recorder.record(kind, **fields)

    def request_done(self, latency_seconds: float, ok: bool,
                     occupancy: int = 1) -> None:
        """Feed one finished request into every SLO window."""
        self.slo.observe(latency_seconds, ok=ok, occupancy=occupancy)

    def rejection(self) -> bool:
        """Count one backpressure rejection; ``True`` on a fresh storm.

        Callers dump the flight recorder when this trips (a storm is
        exactly the moment an operator wants the recent history).
        """
        now = self._clock()
        with self._lock:
            self._rejections.append(now)
            cutoff = now - self.overload_window_seconds
            recent = sum(1 for ts in self._rejections if ts >= cutoff)
            if recent < self.overload_threshold:
                return False
            if self._last_storm_dump is not None and \
                    now - self._last_storm_dump < self.overload_window_seconds:
                return False
            self._last_storm_dump = now
            return True

    def dump(self, reason: str = "on_demand",
             path: Optional[str] = None) -> Dict[str, Any]:
        """Dump the flight ring (to ``path``, else ``dump_path``, else
        in-memory only).  Returns the artifact."""
        return self.recorder.dump(path=path if path is not None
                                  else self.dump_path, reason=reason)

    def auto_dump(self, reason: str) -> Optional[Dict[str, Any]]:
        """An automatic dump, rate-limited per ``reason``.

        Returns the artifact when a dump was written, or ``None`` when
        suppressed (no ``dump_path``, or a dump for the same reason
        landed within ``auto_dump_interval_seconds``).  Suppressions are
        counted in ``suppressed_dumps``.
        """
        if not self.dump_path:
            return None
        now = self._clock()
        with self._lock:
            last = self._last_auto_dump.get(reason)
            if last is not None and \
                    now - last < self.auto_dump_interval_seconds:
                self.suppressed_dumps += 1
                return None
            self._last_auto_dump[reason] = now
        return self.dump(reason=reason)


# -- status rendering (zkml top) ---------------------------------------------


def _fmt_seconds(value: Optional[float]) -> str:
    if value is None:
        return "    -"
    if value >= 10:
        return "%5.1f" % value
    return "%5.3f" % value


def render_status(status: Dict[str, Any]) -> str:
    """Render one ``status`` snapshot as the ``zkml top`` dashboard text."""
    lines: List[str] = []
    queue = status.get("queue", {})
    lines.append(
        "zkml serve — up %.1fs  accepting=%s  queue %d/%d  "
        "inflight %d  outstanding %d" % (
            status.get("uptime_seconds", 0.0),
            "yes" if status.get("accepting") else "NO",
            queue.get("depth", 0), queue.get("max", 0),
            status.get("inflight_batches", 0),
            status.get("outstanding_requests", 0)))
    counters = status.get("counters", {})
    lines.append(
        "requests %d  proofs %d  batches %d  rejected %d  failed %d  "
        "mean occupancy %.2f" % (
            counters.get("requests", 0), counters.get("proofs", 0),
            counters.get("batches", 0), counters.get("rejected", 0),
            counters.get("failed_batches", 0),
            counters.get("mean_occupancy", 0.0)))
    slo = status.get("slo", {})
    if slo:
        lines.append("")
        lines.append("%-7s %7s %6s %7s %7s %7s %8s %6s" % (
            "window", "count", "err%", "p50", "p95", "p99", "rps", "occ"))
        for name in ("1m", "5m", "total"):
            win = slo.get(name)
            if win is None:
                continue
            lines.append("%-7s %7d %5.1f%% %7s %7s %7s %8.2f %6.2f" % (
                name, win.get("count", 0),
                100.0 * win.get("error_rate", 0.0),
                _fmt_seconds(win.get("p50_seconds")),
                _fmt_seconds(win.get("p95_seconds")),
                _fmt_seconds(win.get("p99_seconds")),
                win.get("throughput_rps", 0.0),
                win.get("mean_occupancy", 0.0)))
    pending = status.get("pending_by_model") or {}
    if pending:
        lines.append("")
        lines.append("pending: " + "  ".join(
            "%s=%d" % kv for kv in sorted(pending.items())))
    cluster = status.get("cluster") or {}
    if cluster:
        workers = cluster.get("workers", [])
        lines.append(
            "cluster: %d/%d workers alive (%d busy)  backlog %d/%d  "
            "restarts %d  redispatched %d  shed %d  evicted %d" % (
                cluster.get("alive", 0), len(workers),
                cluster.get("busy", 0),
                cluster.get("backlog_total", 0),
                cluster.get("max_backlog_batches", 0),
                cluster.get("restarts", 0),
                cluster.get("redispatched", 0),
                cluster.get("shed", 0),
                cluster.get("evicted", 0)))
        if workers and any(w.get("telemetry") for w in workers):
            lines.append("%-4s %7s %-5s %5s %5s %9s %10s %8s %8s  %s" % (
                "wkr", "pid", "state", "done", "fail", "prove(s)",
                "keygen(s)", "pk-hit", "ops", "last batch"))
            for w in workers:
                tel = w.get("telemetry") or {}
                lines.append(
                    "w%-3d %7s %-5s %5d %5d %9.3f %10.3f %8d %8d  %s"
                    % (w.get("id", -1), w.get("pid", "?"),
                       "busy" if w.get("busy") else
                       ("idle" if w.get("alive") else "DEAD"),
                       tel.get("batches", w.get("batches_done", 0)),
                       tel.get("failures", 0),
                       tel.get("prove_seconds", 0.0),
                       tel.get("keygen_seconds", 0.0),
                       tel.get("keygen_cache_hits", 0),
                       tel.get("ops_total", 0),
                       tel.get("last_batch_id") or "-"))
        elif workers:
            lines.append("workers: " + "  ".join(
                "w%d[pid %s %s %d done]" % (
                    w.get("id", -1), w.get("pid", "?"),
                    "busy" if w.get("busy") else
                    ("idle" if w.get("alive") else "DEAD"),
                    w.get("batches_done", 0))
                for w in workers))
        backlog = cluster.get("backlog") or {}
        busy_backlog = {model: dict(classes) for model, classes
                        in sorted(backlog.items())
                        if any(classes.values())}
        if busy_backlog:
            lines.append("backlog: " + "  ".join(
                "%s[%s]" % (model, " ".join(
                    "%s=%d" % kv for kv in sorted(classes.items())))
                for model, classes in busy_backlog.items()))
        by_class = cluster.get("slo_by_class") or {}
        for cls in sorted(by_class):
            win = (by_class[cls] or {}).get("total") or {}
            if not win.get("count"):
                continue
            lines.append(
                "class %-12s n=%-6d err %4.1f%%  p50 %s  p95 %s  p99 %s"
                % (cls, win.get("count", 0),
                   100.0 * win.get("error_rate", 0.0),
                   _fmt_seconds(win.get("p50_seconds")).strip(),
                   _fmt_seconds(win.get("p95_seconds")).strip(),
                   _fmt_seconds(win.get("p99_seconds")).strip()))
    batcher = status.get("batcher", {})
    if batcher:
        ema = batcher.get("ema_prove_seconds")
        lines.append("batcher: max_batch=%d  flush deadline %.3fs  "
                     "ema prove %s" % (
                         batcher.get("max_batch", 0),
                         batcher.get("flush_deadline_seconds", 0.0),
                         "%.3fs" % ema if ema is not None else "(no data)"))
    cache = status.get("pk_cache", {})
    if cache:
        lines.append("pk cache: %d/%d entries  hits %d  misses %d  "
                     "rebuilds %d" % (
                         cache.get("entries", 0), cache.get("maxsize", 0),
                         cache.get("hits", 0), cache.get("misses", 0),
                         cache.get("rebuilds", 0)))
    resilience = status.get("resilience", {})
    lines.append("resilience: degraded=%d retries=%d recovered=%d" % (
        resilience.get("degraded", 0), resilience.get("retries", 0),
        resilience.get("recovered", 0)))
    flight = status.get("flight_recorder", {})
    if flight:
        lines.append("flight recorder: %d/%d events buffered  "
                     "(%d recorded, %d dumps)" % (
                         flight.get("buffered", 0), flight.get("capacity", 0),
                         flight.get("recorded", 0), flight.get("dumps", 0)))
    return "\n".join(lines)
