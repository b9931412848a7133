"""Process-wide resilience event counters and their log lines.

Every recovery the pipeline performs — a retry, a degradation (Freivalds
falling back to direct matmul), a cache rebuild — is *visible*: it
increments a counter here and emits a ``warning`` log line.  The
counters live in a module-global
:class:`~repro.obs.metrics.MetricsRegistry` so call sites that have no
per-run registry (e.g. ``repro.perf.pkcache``) can still report, and the
benchmark harness can assert a clean run performed **zero** recoveries.

Counter families (Prometheus naming):

- ``resilience_degraded_total{reason=...}`` — a feature was given up on
  (the run continues on a slower/simpler path);
- ``resilience_retries_total{phase=...}``   — a disk write failed and
  was retried (:func:`repro.storage.atomic_write`);
- ``resilience_recovered_total{reason=...}`` — a corrupted artifact was
  detected and rebuilt.

Observers (the serving path's flight recorder) can subscribe with
:func:`add_listener` to receive every event as it happens — a crash dump
then shows the degradations and retries that led up to the fault, not
just the final error.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List

from repro.obs import log as obs_log
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "EVENTS",
    "add_listener",
    "remove_listener",
    "degraded",
    "retried",
    "recovered",
    "counts",
    "reset",
    "merge_into",
]

#: Process-global registry holding every resilience counter.
EVENTS = MetricsRegistry()

_log = obs_log.get_logger("resilience")

_DEGRADED = ("resilience_degraded_total",
             "degradation events (feature given up, run continued)")
_RETRIES = ("resilience_retries_total",
            "disk write retries after OSError")
_RECOVERED = ("resilience_recovered_total",
              "corrupted artifacts detected and rebuilt")

#: Subscribed observers, called as ``fn(kind, fields)`` per event.
_listeners: List[Callable[[str, Dict[str, Any]], None]] = []


def add_listener(fn: Callable[[str, Dict[str, Any]], None]) -> None:
    """Subscribe ``fn(kind, fields)`` to every resilience event.

    ``kind`` is ``"degraded"`` / ``"retried"`` / ``"recovered"``;
    ``fields`` carries the reason/phase plus the call's detail kwargs.
    Listener exceptions are swallowed — observability must never turn a
    recovery into a failure.
    """
    _listeners.append(fn)


def remove_listener(fn: Callable[[str, Dict[str, Any]], None]) -> None:
    """Unsubscribe a listener (no-op if it was never added)."""
    try:
        _listeners.remove(fn)
    except ValueError:
        pass


def _notify(kind: str, fields: Dict[str, Any]) -> None:
    for fn in list(_listeners):
        try:
            fn(kind, fields)
        except Exception:  # noqa: BLE001 — observers must not break recovery
            pass


def degraded(reason: str, **detail: Any) -> None:
    """Count and log one degradation event (``reason`` labels the path)."""
    EVENTS.counter(*_DEGRADED, reason=reason).inc()
    _log.warning("degraded", reason=reason, **detail)
    _notify("degraded", dict(detail, reason=reason))


def retried(phase: str, attempt: int, **detail: Any) -> None:
    """Count and log one retry of a failed disk write."""
    EVENTS.counter(*_RETRIES, phase=phase).inc()
    _log.warning("retrying", phase=phase, attempt=attempt, **detail)
    _notify("retried", dict(detail, phase=phase, attempt=attempt))


def recovered(reason: str, **detail: Any) -> None:
    """Count and log one detect-and-rebuild recovery."""
    EVENTS.counter(*_RECOVERED, reason=reason).inc()
    _log.warning("recovered", reason=reason, **detail)
    _notify("recovered", dict(detail, reason=reason))


def counts() -> Dict[str, float]:
    """Current totals per family (summed over labels) plus per-label detail.

    Keys: ``degraded`` / ``retries`` / ``recovered`` totals, and
    ``degraded{reason="x"}``-style entries for each label combination.
    """
    out: Dict[str, float] = {"degraded": 0.0, "retries": 0.0,
                             "recovered": 0.0}
    for family, short in ((_DEGRADED[0], "degraded"),
                          (_RETRIES[0], "retries"),
                          (_RECOVERED[0], "recovered")):
        try:
            values = EVENTS.values(family)
        except KeyError:
            continue
        for key, value in sorted(values.items()):
            out[short] += value
            label = ",".join('%s="%s"' % kv for kv in key)
            out["%s{%s}" % (short, label)] = value
    return out


def reset() -> None:
    """Drop all recorded events (tests and bench runs start clean)."""
    EVENTS._families.clear()


def merge_into(registry: MetricsRegistry) -> None:
    """Copy current resilience counters into another registry.

    Lets ``zkml --metrics`` output include the recoveries of the run it
    just performed.
    """
    for name in (_DEGRADED[0], _RETRIES[0], _RECOVERED[0]):
        try:
            family = EVENTS._families[name]
        except KeyError:
            continue
        for key, metric in family.instances.items():
            registry.counter(name, family.help,
                             **dict(key)).inc(metric.value)
