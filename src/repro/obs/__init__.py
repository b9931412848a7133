"""Observability for the prove/verify pipeline (tracing, metrics, logs).

The paper's optimizer prices a circuit layout from per-phase operation
counts (Algorithm 1, Eqs. 1–2); this package makes the runtime report the
same vocabulary so predictions can be checked against reality:

- :mod:`repro.obs.trace` — hierarchical spans
  (``synthesize -> layout -> keygen -> witness -> commit/helpers/
  quotient/openings -> verify``) exported as JSON lines or Chrome
  ``trace_event`` JSON (loadable in ``chrome://tracing`` / Perfetto);
- :mod:`repro.obs.metrics` — a counter/gauge/histogram registry with a
  Prometheus text exporter plus the predicted-vs-actual report that diffs
  the cost model's counts against observed ones;
- :mod:`repro.obs.stats` — the process-wide operation counters the hot
  paths bump (NTTs, commitments, hashes);
- :mod:`repro.obs.log` — the CLI's structured logger
  (``--quiet`` / ``-v`` / ``ZKML_LOG_LEVEL``);
- :mod:`repro.obs.cluster` — the batch telemetry plane: a served
  batch's span/STATS/pk-cache capture, shipped on its ``BatchResult``
  and folded into the service's registry under per-worker labels;
- :mod:`repro.obs.diagnose` — MockProver failures enriched with layer /
  region / cell context (``zkml diagnose``), imported lazily because it
  pulls in the compiler.

Tracing is disabled by default through the inert
:data:`~repro.obs.trace.NULL_TRACER`; metrics are recorded only into a
registry a caller passes.  The prover hot loop never allocates or
branches on "is observability on".

The package imports nothing: callers import from the defining submodule,
so a process that only verifies loads :mod:`~repro.obs.stats` and
:mod:`~repro.obs.trace` and none of the metrics, log or cluster modules.
"""
