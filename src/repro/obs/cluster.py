"""Batch telemetry: capture where a batch is proved, fold where it resolves.

A served batch is proved by :func:`repro.serve.worker.prove_job`, either
on the service's own proving thread or — ``zkml serve --workers N`` — in
a forked worker process, where spans, STATS op counts and
proving-key-cache counters accumulate in an address space the front end
cannot see.  This module is the bridge, the same in both cases:

- **capture** — :func:`capture_batch` wraps one batch prove: it
  snapshots the global :data:`~repro.obs.stats.STATS` counters
  before/after, reads the pk-cache counters, and — when the job asks for
  a trace — records the prove under a fresh :class:`~repro.obs.trace.Tracer`
  that ``prove_job`` hands down to the pipeline.  The result is a
  picklable :class:`WorkerTelemetry` that rides back inside the
  ``BatchResult`` (in a cluster: piggybacked on the existing result
  queue — no extra IPC channel, no extra syscalls on the hot path);
- **fold** — :func:`fold_worker_result` folds a finished batch into the
  service's :class:`~repro.obs.metrics.MetricsRegistry`: the per-model
  prover series ``zkml prove --metrics`` also writes
  (:func:`~repro.obs.metrics.record_prover_run`) and the per-worker
  series (``zkml_worker_prove_seconds_total{worker="2"}``,
  ``zkml_worker_ops_total{worker="2",op="ntt_base"}``, ...; the
  service's own proving thread is worker ``0``).
  :class:`WorkerAggregate` keeps the per-worker rollup that a cluster's
  ``status`` control op (schema ``zkml-serve-status/v2``) and the
  ``zkml top`` per-worker panel report;
- **stitch** — :func:`stitch_batch` records the batch into the
  service's trace where it resolves: ``Tracer.record_span`` for the
  ``serve:batch`` span and its queue wait, ``Tracer.ingest`` for the
  captured tree.

Timestamps inside shipped spans are ``time.perf_counter`` readings; on
Linux that is CLOCK_MONOTONIC, shared between the parent and its forked
workers, so ingested worker spans line up with parent spans on one
Chrome-trace timeline without any clock translation.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from repro.obs.metrics import record_prover_run
from repro.obs.stats import STATS
from repro.obs.trace import NULL_TRACER, Tracer

__all__ = [
    "WorkerTelemetry",
    "WorkerAggregate",
    "capture_batch",
    "fold_worker_result",
    "stitch_batch",
]

#: pk-cache counter fields exported as ``zkml_worker_pk_cache`` gauges.
_PK_FIELDS = ("entries", "hits", "misses", "rebuilds", "disk_hits", "lookups")
_PK_DISK_FIELDS = ("loads", "load_hits", "stores", "evictions")


@dataclass
class WorkerTelemetry:
    """One batch's worth of prover-side observability, picklable.

    Carried on :class:`~repro.serve.worker.BatchResult` (through the
    multiprocessing result queue in a cluster); everything is plain
    dicts/lists so the default pickler handles it and the parent can
    JSON-serialize it.  ``spans`` is empty unless the job asked for a
    trace.
    """

    worker_id: int = -1
    pid: int = 0
    spans: List[Dict[str, Any]] = field(default_factory=list)
    stats_delta: Dict[str, int] = field(default_factory=dict)
    pk_cache: Dict[str, Any] = field(default_factory=dict)


class _Capture:
    """What :func:`capture_batch` yields: the tracer to prove under, and
    (filled on exit) the batch's telemetry."""

    __slots__ = ("tracer", "telemetry")

    def __init__(self, tracer: Any) -> None:
        self.tracer = tracer
        self.telemetry: Optional[WorkerTelemetry] = None


@contextmanager
def capture_batch(job: Any, worker_id: int) -> Iterator[_Capture]:
    """Record one batch prove's op deltas, pk-cache counters and spans.

    Yields a capture whose ``tracer`` the caller must hand to the
    pipeline explicitly: a fresh :class:`Tracer` when ``job.trace``, the
    inert :data:`NULL_TRACER` otherwise.  It is never installed
    process-wide — ``use_tracer`` swaps a process global, which is a race
    on a service thread while some other thread holds its own.  The body
    runs under a ``worker:prove`` root span attributed with the batch
    correlation id; on exit ``capture.telemetry`` is filled.  The capture
    itself never touches proof construction — field ops, transcripts,
    and randomness are untouched, so proof bytes are byte-identical
    traced or not (test-asserted in
    ``tests/serve/test_cluster_telemetry.py``).
    """
    from repro.perf.pkcache import GLOBAL_PK_CACHE

    tracer = Tracer() if job.trace else NULL_TRACER
    before = STATS.snapshot()
    capture = _Capture(tracer)
    try:
        with tracer.span("worker:prove",
                         worker=worker_id,
                         batch_id=job.batch_id,
                         model=job.spec.name,
                         occupancy=job.occupancy,
                         padded=job.padded_size,
                         priority=job.priority,
                         redispatches=job.redispatches):
            yield capture
    finally:
        capture.telemetry = WorkerTelemetry(
            worker_id=worker_id,
            pid=os.getpid(),
            spans=[span.as_dict() for span in tracer.spans()],
            stats_delta=STATS.delta(before),
            pk_cache=GLOBAL_PK_CACHE.stats(),
        )


def fold_worker_result(metrics: Any, job: Any, result: Any) -> None:
    """Fold one finished batch into the service's metrics registry.

    Per model, for a proved batch, the series of
    :func:`~repro.obs.metrics.record_prover_run` (op counts around
    ``create_proof``, predicted counts, phase seconds).  Per worker:

    - ``zkml_worker_batches_total{worker}`` / ``zkml_worker_failed_batches_total{worker}``
    - ``zkml_worker_prove_seconds_total{worker}`` / ``zkml_worker_keygen_seconds_total{worker}``
    - ``zkml_worker_pk_cache_hits_total{worker}`` (in-memory keygen cache hits)
    - ``zkml_worker_ops_total{worker,op}`` from the STATS delta over the
      whole job (keygen and the strict verify included)
    - ``zkml_worker_pk_cache{worker,field}`` gauges from the pk-cache
      snapshot (disk-layer counters get a ``disk_`` prefix)

    ``metrics`` may be a :class:`~repro.obs.metrics.NullMetrics`; every
    call is then a no-op.
    """
    if result.ok:
        record_prover_run(metrics, job.spec.name, result.observed_counts,
                          result.predicted_counts,
                          phase_seconds=result.phase_seconds,
                          slots=job.padded_size)
    worker = str(result.worker_id)
    metrics.counter("zkml_worker_batches_total",
                    "Batches completed per worker",
                    worker=worker).inc()
    if not result.ok:
        metrics.counter("zkml_worker_failed_batches_total",
                        "Failed batches per worker",
                        worker=worker).inc()
    if result.proving_seconds:
        metrics.counter("zkml_worker_prove_seconds_total",
                        "Cumulative prove wall time per worker",
                        worker=worker).inc(result.proving_seconds)
    if result.keygen_seconds:
        metrics.counter("zkml_worker_keygen_seconds_total",
                        "Cumulative keygen wall time per worker",
                        worker=worker).inc(result.keygen_seconds)
    if result.keygen_cache_hit:
        metrics.counter("zkml_worker_pk_cache_hits_total",
                        "Worker batches served from a warm proving-key cache",
                        worker=worker).inc()
    telemetry = result.telemetry
    for op, count in sorted(telemetry.stats_delta.items()):
        if count:
            metrics.counter("zkml_worker_ops_total",
                            "Prover op counts per worker",
                            worker=worker, op=op).inc(count)
    pk = telemetry.pk_cache
    for name in _PK_FIELDS:
        if name in pk:
            metrics.gauge("zkml_worker_pk_cache",
                          "Worker-process proving-key cache counters",
                          worker=worker, field=name).set(float(pk[name]))
    disk = pk.get("disk") or {}
    for name in _PK_DISK_FIELDS:
        if name in disk:
            metrics.gauge("zkml_worker_pk_cache",
                          "Worker-process proving-key cache counters",
                          worker=worker,
                          field="disk_%s" % name).set(float(disk[name]))


def stitch_batch(tracer: Any, job: Any, result: Any,
                 request_ids: List[str]) -> None:
    """Stitch one resolved batch into the service's trace.

    Records the ``serve:batch`` span (launch → resolve, timed on
    ``perf_counter`` like every tracer span), a ``serve:queue-wait``
    child covering the wait for the proving thread or a cluster worker,
    and ingests the prove's captured span tree under the batch span — a
    worker process's own pid is preserved, so the Chrome export shows
    client → queue-wait → dispatch → worker-prove → resolve with one
    lane per worker process.  A no-op under :data:`NULL_TRACER`.
    """
    if not tracer.enabled:
        return
    span_id = tracer.record_span(
        "serve:batch", job.enqueued_pc, time.perf_counter(),
        model=job.spec.name, scheme=job.scheme_name,
        batch_id=job.batch_id, request_ids=request_ids,
        occupancy=job.occupancy, padded=job.padded_size,
        worker=result.worker_id, ok=result.ok)
    if job.dispatched_pc:
        tracer.record_span(
            "serve:queue-wait", job.enqueued_pc, job.dispatched_pc,
            parent_id=span_id, batch_id=job.batch_id,
            priority=job.priority)
    tracer.ingest(result.telemetry.spans, parent_id=span_id)


class WorkerAggregate:
    """Running per-worker rollup kept by the scheduler's collect loop.

    Keyed by logical worker id, so it survives respawns (the aggregate
    spans every incarnation of worker ``N``).  :meth:`snapshot` is the
    JSON-safe ``telemetry`` block inside ``status()["cluster"]["workers"]``.
    """

    __slots__ = ("worker_id", "batches", "failures", "prove_seconds",
                 "keygen_seconds", "keygen_cache_hits", "ops",
                 "last_batch_id", "last_prove_seconds", "pk_cache")

    def __init__(self, worker_id: int):
        self.worker_id = worker_id
        self.batches = 0
        self.failures = 0
        self.prove_seconds = 0.0
        self.keygen_seconds = 0.0
        self.keygen_cache_hits = 0
        self.ops: Dict[str, int] = {}
        self.last_batch_id: Optional[str] = None
        self.last_prove_seconds: Optional[float] = None
        self.pk_cache: Dict[str, Any] = {}

    def note_result(self, result: Any) -> None:
        self.batches += 1
        if not result.ok:
            self.failures += 1
        self.prove_seconds += result.proving_seconds or 0.0
        self.keygen_seconds += result.keygen_seconds or 0.0
        if result.keygen_cache_hit:
            self.keygen_cache_hits += 1
        self.last_batch_id = result.batch_id
        self.last_prove_seconds = result.proving_seconds
        telemetry = result.telemetry
        for op, count in telemetry.stats_delta.items():
            if count:
                self.ops[op] = self.ops.get(op, 0) + int(count)
        if telemetry.pk_cache:
            self.pk_cache = dict(telemetry.pk_cache)

    def snapshot(self) -> Dict[str, Any]:
        return {
            "batches": self.batches,
            "failures": self.failures,
            "prove_seconds": round(self.prove_seconds, 6),
            "keygen_seconds": round(self.keygen_seconds, 6),
            "keygen_cache_hits": self.keygen_cache_hits,
            "ops_total": int(sum(self.ops.values())),
            "ops": dict(sorted(self.ops.items())),
            "last_batch_id": self.last_batch_id,
            "last_prove_seconds": self.last_prove_seconds,
            "pk_cache": dict(self.pk_cache),
        }
