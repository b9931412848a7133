"""Batch telemetry, folded and stitched where a batch resolves.

A served batch is proved by :func:`repro.serve.worker.prove_job`, either
on the service's in-process worker thread or — ``zkml serve --workers
N`` — in a forked worker process, where spans, STATS op counts and
proving-key-cache counters accumulate in an address space the front end
cannot see.  ``prove_job`` captures them as plain fields of its
``BatchResult`` — the span dicts (when the job asks for a trace), the
:data:`~repro.obs.stats.STATS` delta over the job, and the pk-cache
counters after it — which in a cluster ride back on the existing result
queue (no extra IPC channel, no extra syscalls on the hot path).  This
module is the other half, the same in both modes:

- **fold** — :func:`fold_worker_result` folds a finished batch into the
  service's :class:`~repro.obs.metrics.MetricsRegistry`: the per-model
  prover series ``zkml prove --metrics`` also writes
  (:func:`~repro.obs.metrics.record_prover_run`) and the per-worker
  series (``zkml_worker_prove_seconds_total{worker="2"}``,
  ``zkml_worker_ops_total{worker="2",op="ntt_base"}``, ...; the
  in-process worker thread is worker ``0``).  The service folds a
  batch once, after its job-table pop, so a crash re-dispatch duplicate
  is never billed; a cluster's ``status`` control op (schema
  ``zkml-serve-status/v2``) and the ``zkml top`` per-worker panel read
  these series back;
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

import time
from typing import Any, List

from repro.obs.metrics import record_prover_run

__all__ = ["fold_worker_result", "stitch_batch"]

#: pk-cache counter fields exported as ``zkml_worker_pk_cache`` gauges.
_PK_FIELDS = ("entries", "hits", "misses", "rebuilds", "disk_hits", "lookups")
_PK_DISK_FIELDS = ("loads", "load_hits", "stores", "evictions")


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
    for op, count in sorted(result.stats_delta.items()):
        if count:
            metrics.counter("zkml_worker_ops_total",
                            "Prover op counts per worker",
                            worker=worker, op=op).inc(count)
    pk = result.pk_cache
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
    child covering the wait for a worker (thread or process),
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
    tracer.ingest(result.spans, parent_id=span_id)

