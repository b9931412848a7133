"""Per-phase wall-clock accounting for the prover.

A :class:`PhaseTimer` is handed into ``create_proof`` and accumulates
seconds per named phase; the same phase name may be entered repeatedly
(times add up).  Since the observability PR the timer is a *span-backed
shim*: each phase also opens a span on the active
:mod:`repro.obs.trace` tracer, so ``zkml prove --trace`` sees the
commit/helpers/quotient/openings breakdown as children of the prove span
while ``ProveResult.phase_seconds`` keeps its original shape.
:class:`NullTimer` is the zero-overhead default so the prover never
branches on "is profiling on".
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict

from repro.obs.trace import get_tracer


class PhaseTimer:
    """Accumulates wall-clock seconds per named phase (and emits spans)."""

    def __init__(self, tracer=None) -> None:
        self.seconds: Dict[str, float] = {}
        #: Tracer receiving one span per phase entry; ``None`` means
        #: "whatever tracer is active when the phase runs".
        self._tracer = tracer

    @contextmanager
    def phase(self, name: str):
        tracer = self._tracer if self._tracer is not None else get_tracer()
        start = time.perf_counter()
        with tracer.span(name):
            try:
                yield
            finally:
                elapsed = time.perf_counter() - start
                self.seconds[name] = self.seconds.get(name, 0.0) + elapsed

    @property
    def total(self) -> float:
        return sum(self.seconds.values())

    def breakdown(self) -> str:
        """A one-phase-per-line report, longest phase first."""
        if not self.seconds:
            return "(no phases recorded)"
        total = self.total
        lines = []
        for name, secs in sorted(self.seconds.items(), key=lambda kv: -kv[1]):
            share = 100.0 * secs / total if total else 0.0
            lines.append("%-12s %8.3f s  %5.1f%%" % (name, secs, share))
        lines.append("%-12s %8.3f s" % ("total", total))
        return "\n".join(lines)


class NullTimer:
    """A do-nothing :class:`PhaseTimer` stand-in (the prover's default)."""

    seconds: Dict[str, float] = {}

    @contextmanager
    def phase(self, name: str):
        yield

    @property
    def total(self) -> float:
        return 0.0

    def breakdown(self) -> str:
        return "(profiling disabled)"


#: Shared no-op timer instance.
NULL_TIMER = NullTimer()
