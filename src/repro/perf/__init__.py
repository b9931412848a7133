"""Proving-performance toolkit: phase timers, the keygen cache, bench views.

The ROADMAP's north star is a prover that "runs as fast as the hardware
allows"; this package holds the substrate-level machinery for that:

- :class:`PhaseTimer` — per-phase wall-clock accounting the prover
  instruments (commit / helpers / quotient / openings), surfaced through
  ``ProveResult.phase_seconds`` and ``zkml prove --profile``;
- :class:`ProvingKeyCache` — a keygen cache keyed by circuit digest, so
  repeated proves of the same circuit skip preprocessing;
- :mod:`repro.perf.views` — the ``BENCH_*.json`` perf trajectory, written
  by ``zkml bench`` as projections of a zkbench result file (the
  benchmark itself is ``benchmarks/zkbench/``; nothing here measures).
"""

from repro.perf.pkcache import ProvingKeyCache, circuit_digest
from repro.perf.timer import NULL_TIMER, NullTimer, PhaseTimer

__all__ = [
    "PhaseTimer",
    "NullTimer",
    "NULL_TIMER",
    "ProvingKeyCache",
    "circuit_digest",
]
