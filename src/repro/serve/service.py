"""The batch-aware proving service: queue → micro-batcher → workers.

:class:`ProvingService` turns one-shot batch proves into a
request-serving loop.  The moving parts:

- **bounded request queue with backpressure** — ``submit`` enqueues a
  request and returns a future; when the queue is full it raises a typed
  :class:`~repro.resilience.errors.ServiceOverloadedError` (or blocks up
  to ``block_seconds``) instead of buffering without bound;
- **adaptive micro-batcher** — a dispatcher thread coalesces requests
  with the same :class:`BatchKey` (model, scheme, grid parameters) into
  one group and flushes it as a single
  :class:`~repro.serve.worker.BatchJob` — one batch proof — when the
  group reaches ``max_batch`` *or* its oldest request has waited out the
  flush deadline, whichever comes first.  The deadline adapts: it tracks a
  fraction of the exponentially-averaged batch proving time (clamped to
  ``[MIN_FLUSH_SECONDS, max_flush_seconds]``), so queueing never adds
  more than a sliver of the work it amortizes;
- **warm proving keys** — partial flushes are padded up to the next
  occupancy bucket (powers of two up to ``max_batch``), so the handful
  of distinct batch shapes all stay resident in the global
  :class:`~repro.perf.pkcache.ProvingKeyCache` and keygen is skipped
  after each shape's first flush;
- **per-request futures** — each future resolves to a
  :class:`ProofResponse` carrying the shared batch proof bytes, the full
  instance, this request's slot, its outputs, and its verification
  status (every batch is strict-verified before any future resolves);
- **one way to run a batch** — every flushed group is registered in
  one job table, dispatched by the
  :class:`~repro.serve.scheduler.ClusterScheduler`, proved by
  :func:`~repro.serve.worker.prove_job` and resolved from its
  :class:`~repro.serve.worker.BatchResult` by one handler;
  ``cluster_workers`` decides only *where* the worker runs — one thread
  of this process (``0``) or N worker processes;
- **resilience** — a failed batch fails *only* its own requests, with
  the typed error as raised;
- **graceful drain** — ``shutdown(drain=True)`` stops intake, flushes
  every pending group regardless of occupancy, and waits for in-flight
  batches to resolve their futures.

Everything is observable through ``repro.obs``: ``serve_*`` counters and
histograms (queue depth, batch occupancy, time-to-flush, end-to-end
latency) and the per-model / per-worker prover series land in the
registry passed at construction — the only place the service keeps a
count: :meth:`ProvingService.stats` and :meth:`ProvingService.status`
read them back — and every batch is recorded as a ``serve:batch`` span
on the active tracer with the prove's own span tree stitched under it.

Runtime telemetry (:mod:`repro.obs.runtime`) makes the running service
*operable*:

- every request carries a string ``request_id`` (caller-supplied or
  minted on submit) and every flushed group a ``batch_id``; both are
  threaded through spans, bound into structured log records, recorded in
  the flight ring, and returned on :class:`ProofResponse` — one grep
  reconstructs a request's lifecycle including the batch it rode in;
- :meth:`ProvingService.health` is a cheap liveness probe (queue
  headroom, never touches the prover); :meth:`ProvingService.status` is
  the full operator snapshot (uptime, in-flight, per-model queue depths,
  batcher state, pk-cache stats, resilience counters, SLO windows);
- the flight recorder rings recent lifecycle events and auto-dumps a
  checksummed JSON artifact on a batch failure or an overload storm
  (when ``ServeConfig.flight_path`` is set), or on demand via
  ``service.runtime.dump()``.
"""

from __future__ import annotations

import itertools
import queue as queue_mod
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field as dataclass_field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.field import native
from repro.model.spec import ModelSpec
from repro.obs import log as obs_log
from repro.obs.cluster import fold_worker_result, stitch_batch
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import RuntimeTelemetry, new_batch_id, new_request_id
from repro.obs.trace import get_tracer
from repro.perf.pkcache import GLOBAL_PK_CACHE, DiskPKCache
from repro.registry import VKRegistry
from repro.resilience import events
from repro.resilience.errors import (
    ResilienceError,
    ServiceError,
    ServiceOverloadedError,
    ServiceShutdownError,
)
from repro.serve.scheduler import PRIORITIES, ClusterScheduler
from repro.serve.worker import BatchJob, BatchResult

__all__ = [
    "BatchKey",
    "ProofRequest",
    "ProofResponse",
    "ProvingService",
    "ServeConfig",
]

log = obs_log.get_logger("serve")

#: Histogram buckets for batch occupancy (requests coalesced per proof).
OCCUPANCY_BUCKETS = (1, 2, 4, 8, 16, 32)

#: Histogram buckets for queueing/flush latencies (seconds).
LATENCY_BUCKETS = (0.001, 0.005, 0.02, 0.05, 0.1, 0.25, 1.0, 5.0, 30.0)

#: Floor for the adaptive flush deadline (don't busy-flush singletons).
MIN_FLUSH_SECONDS = 0.005

#: Adaptive flush deadline = this fraction of the EMA batch proving time.
FLUSH_FRACTION = 0.25

#: Dispatcher poll interval (also bounds flush-deadline resolution).
TICK_SECONDS = 0.002

_STOP = object()

#: ``stats()`` keys and the registry series each one totals.
_STATS_SERIES = (
    ("requests", "serve_requests_total"),
    ("rejected", "serve_rejected_total"),
    ("batches", "serve_batches_total"),
    ("proofs", "serve_proofs_total"),
    ("failed_batches", "serve_failed_batches_total"),
    ("worker_restarts", "serve_worker_restarts_total"),
    ("redispatched_batches", "serve_redispatched_batches_total"),
    ("shed_batches", "serve_shed_batches_total"),
    ("evicted_batches", "zkml_scheduler_evicted_total"),
    ("poisoned_batches", "zkml_scheduler_poisoned_total"),
)


@dataclass(frozen=True)
class BatchKey:
    """What must match for two requests to share one batch proof.

    The model is identified by name: the zoo materializes a given
    mini-model deterministically, so the name binds the weights.  Callers
    submitting ad-hoc :class:`~repro.model.spec.ModelSpec` objects must
    give distinct specs distinct names.
    """

    model: str
    scheme_name: str
    num_cols: int
    scale_bits: int
    lookup_bits: Optional[int]
    #: Dispatch class (``interactive`` or ``bulk``).  Part of the key so
    #: one batch never mixes classes — a bulk request can neither ride an
    #: interactive batch's priority nor drag one down.
    priority: str = "interactive"


@dataclass
class ServeConfig:
    """Tuning knobs for the service (defaults suit mini-model traffic)."""

    #: Bounded queue size; a full queue rejects with backpressure.
    max_queue: int = 64
    #: Flush a group as soon as it holds this many requests.
    max_batch: int = 8
    #: Ceiling on how long the oldest request may wait before a flush.
    max_flush_seconds: float = 0.25
    #: Where automatic flight-recorder dumps land (batch failure,
    #: overload storm).  ``None`` disables automatic dumps; the ring
    #: still records and can be dumped on demand.
    flight_path: Optional[str] = None
    #: Prover worker *processes* (the cluster).  ``0`` runs one
    #: in-process worker thread under the same scheduler; ``N>=1``
    #: spawns N worker processes.
    cluster_workers: int = 0
    #: The state directory (``--registry``): the registry every served key
    #: is published into, and the workers' shared disk pk cache
    #: (:class:`~repro.perf.pkcache.DiskPKCache`).  ``None``: in-memory
    #: keys only, nothing published.
    registry_dir: Optional[str] = None
    #: Per-model cap on batches queued for worker dispatch; beyond it the
    #: scheduler sheds (bulk first) with a typed overload error.
    max_backlog_batches: int = 8


@dataclass
class ProofRequest:
    """One queued inference-proof request (internal)."""

    id: int
    spec: ModelSpec
    inputs: Dict[str, np.ndarray]
    key: BatchKey
    submitted_at: float
    #: Wire-level correlation id (``req-...``), caller-supplied or minted.
    request_id: str = ""
    future: "Future[ProofResponse]" = dataclass_field(default_factory=Future)


@dataclass
class ProofResponse:
    """What a request's future resolves to.

    The proof covers the whole coalesced batch; ``batch_index`` says
    which inference slot belongs to this request (its instance columns
    are the slot's contiguous block of ``instance``).  ``verified``
    reports that the *service* strict-verified the batch proof before
    responding.  ``request_id`` is the string correlation id the request
    carried end to end; ``batch_id`` names the batch proof it rode in
    (the same id appears on the ``serve:batch`` span, in bound log
    records, and in flight-recorder events).
    """

    request_id: str
    sequence: int
    batch_id: str
    model: str
    scheme_name: str
    verified: bool
    #: The batch proof packaged as a serialized ``zkml-proof-envelope/v2``
    #: envelope (shared by every request in the batch; built once per
    #: batch).
    envelope_bytes: bytes
    instance: List[List[int]]
    outputs: Dict[str, np.ndarray]
    batch_index: int
    batch_size: int
    padded_size: int
    #: End-to-end latency minus ``BatchResult.batch_seconds``: all the
    #: waiting — queue, flush, and for a worker.
    queue_seconds: float
    #: Wall-clock of the *whole batch proof* this request rode in.
    prove_seconds: float
    #: ``prove_seconds`` amortized over the batch's occupied slots — the
    #: honest per-request proving cost (a batch of 8 is not 8 fast runs).
    slot_prove_seconds: float
    keygen_seconds: float
    keygen_cache_hit: bool


class ProvingService:
    """Coalesce concurrent proof requests into batch proofs.

    Use as a context manager, or call :meth:`start` / :meth:`shutdown`::

        with ProvingService(ServeConfig(max_batch=4)) as svc:
            futures = [svc.submit(spec, inp) for inp in request_inputs]
            responses = [f.result() for f in futures]

    Requests may be submitted before :meth:`start`; they queue up and
    are dispatched once the service runs.
    """

    def __init__(self, config: Optional[ServeConfig] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 tracer=None):
        self.config = config if config is not None else ServeConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._tracer = tracer
        self.runtime = RuntimeTelemetry(dump_path=self.config.flight_path)
        self._queue: "queue_mod.Queue" = queue_mod.Queue(
            maxsize=self.config.max_queue)
        self._pending: Dict[BatchKey, List[ProofRequest]] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._closed = False
        self._started = False
        self._started_at: Optional[float] = None
        self._dispatcher: Optional[threading.Thread] = None
        #: The only way a launched job reaches a prover.
        self._scheduler = ClusterScheduler(
            workers=self.config.cluster_workers,
            on_result=self._on_result,
            on_shed=self._on_shed,
            metrics=self.metrics,
            registry_dir=self.config.registry_dir,
            max_backlog_batches=self.config.max_backlog_batches,
            runtime=self.runtime,
        )
        self._job_ids = itertools.count(1)
        # the job table: job_id -> (group, job) for every launched,
        # unresolved batch.  Popped exactly once, so a crash-re-dispatch
        # duplicate result can never double-resolve a future
        self._jobs: Dict[int, Tuple[List[ProofRequest], BatchJob]] = {}
        self._ema_prove_seconds: Optional[float] = None
        # resilience events observed while we run land in the flight ring
        self._events_listener = (
            lambda kind, fields: self.runtime.note(
                "resilience_" + kind,
                **{k: str(v) for k, v in fields.items()}))
        self._outstanding = 0  # accepted but not yet resolved/failed

    @property
    def tracer(self):
        return self._tracer if self._tracer is not None else get_tracer()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ProvingService":
        """Open the state directory, then start the workers and dispatcher."""
        if self._started:
            return self
        root = self.config.registry_dir
        if root:
            try:
                VKRegistry(root)
                DiskPKCache(root)
            except OSError as exc:
                raise ServiceError("cannot open the state directory %s: %s"
                                   % (root, exc), path=root) from exc
        self._started = True
        self._started_at = time.monotonic()
        events.add_listener(self._events_listener)
        self.runtime.note("service_started",
                          cluster_workers=self.config.cluster_workers,
                          max_batch=self.config.max_batch,
                          max_queue=self.config.max_queue)
        # any worker processes fork before the dispatcher thread exists
        self._scheduler.start()
        self._dispatcher = threading.Thread(target=self._dispatch_loop,
                                            name="zkml-serve-dispatch",
                                            daemon=True)
        self._dispatcher.start()
        log.debug("service started",
                  cluster_workers=self.config.cluster_workers,
                  max_batch=self.config.max_batch,
                  max_queue=self.config.max_queue)
        return self

    def __enter__(self) -> "ProvingService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(drain=exc_type is None)

    def shutdown(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop intake; with ``drain`` flush and finish everything queued.

        Without ``drain``, queued and pending requests fail with a typed
        :class:`ServiceShutdownError` (their futures resolve either way —
        a shutdown never leaves a caller hanging).
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self.runtime.note("service_shutdown", drain=drain)
        if not self._started:
            self._fail_queued(ServiceShutdownError(
                "service was shut down before it started"))
            return
        self._queue.put(_STOP)
        self._dispatcher.join(timeout=timeout)
        if not drain:
            self._fail_queued(ServiceShutdownError(
                "service shut down without draining"))
        self._scheduler.shutdown(drain=drain, timeout=timeout)
        # anything still tracked (worker terminated at the join
        # deadline, non-drain shutdown) fails typed, never hangs
        with self._lock:
            leftovers = list(self._jobs.values())
            self._jobs.clear()
        for group, job in leftovers:
            self._fail_group(group, job, ServiceShutdownError(
                "service shut down before the batch was proved",
                model=job.spec.name))
        events.remove_listener(self._events_listener)

    def drain(self, timeout: Optional[float] = None) -> None:
        """Block until every accepted request has resolved or failed
        (the service keeps running and keeps accepting)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._lock:
                if self._outstanding == 0:
                    return
                outstanding = self._outstanding
            if deadline is not None and time.monotonic() > deadline:
                raise ServiceError("drain timed out",
                                   outstanding=outstanding,
                                   queued=self._queue.qsize())
            time.sleep(TICK_SECONDS)

    # -- intake --------------------------------------------------------------

    def submit(
        self,
        spec: ModelSpec,
        inputs: Dict[str, np.ndarray],
        scheme_name: str = "kzg",
        num_cols: int = 10,
        scale_bits: int = 5,
        lookup_bits: Optional[int] = None,
        block_seconds: Optional[float] = None,
        request_id: Optional[str] = None,
        priority: str = "interactive",
    ) -> "Future[ProofResponse]":
        """Enqueue one proof request; returns its future.

        ``request_id`` is the end-to-end correlation id; one is minted
        when the caller does not supply it (clients usually mint their
        own so their logs correlate with the server's).  ``priority``
        picks the dispatch class (``interactive`` beats ``bulk`` at the
        scheduler, and bulk is shed first under overload).

        Raises :class:`ServiceShutdownError` after shutdown and
        :class:`ServiceOverloadedError` when the queue is full (after
        waiting up to ``block_seconds`` if given — backpressure, not
        unbounded buffering).
        """
        rid = request_id if request_id else new_request_id()
        if priority not in PRIORITIES:
            raise ServiceError(
                "unknown priority %r (expected one of %s)"
                % (priority, "/".join(PRIORITIES)),
                model=spec.name, request_id=rid)
        if self._closed:
            raise ServiceShutdownError(
                "service is shut down; request rejected", model=spec.name,
                request_id=rid)
        request = ProofRequest(
            id=next(self._ids),
            spec=spec,
            inputs=inputs,
            key=BatchKey(spec.name, scheme_name, num_cols, scale_bits,
                         lookup_bits, priority),
            submitted_at=time.monotonic(),
            request_id=rid,
        )
        try:
            if block_seconds is None:
                self._queue.put_nowait(request)
            else:
                self._queue.put(request, timeout=block_seconds)
        except queue_mod.Full:
            self.metrics.counter(
                "serve_rejected_total",
                "requests rejected by backpressure (queue full)",
                model=spec.name).inc()
            self.runtime.note("request_rejected", request_id=rid,
                              model=spec.name,
                              max_queue=self.config.max_queue)
            if self.runtime.rejection():
                self.runtime.auto_dump("overload_storm")
            raise ServiceOverloadedError(
                "request queue is full (%d waiting)" % self.config.max_queue,
                model=spec.name, max_queue=self.config.max_queue,
                request_id=rid,
            ) from None
        with self._lock:
            self._outstanding += 1
        self.metrics.counter("serve_requests_total", "requests accepted",
                             model=spec.name).inc()
        self.metrics.gauge("serve_queue_depth",
                           "requests waiting in the bounded queue").set(
            self._queue.qsize())
        self.runtime.note("request_accepted", request_id=rid,
                          model=spec.name, sequence=request.id,
                          queue_depth=self._queue.qsize())
        log.debug("request accepted", request_id=rid, model=spec.name)
        return request.future

    # -- dispatcher ----------------------------------------------------------

    def _flush_deadline(self) -> float:
        """The adaptive time-to-flush for the oldest queued request."""
        cfg = self.config
        if self._ema_prove_seconds is None:
            return cfg.max_flush_seconds
        return min(cfg.max_flush_seconds,
                   max(MIN_FLUSH_SECONDS,
                       FLUSH_FRACTION * self._ema_prove_seconds))

    def _dispatch_loop(self) -> None:
        stopping = False
        while True:
            try:
                item = self._queue.get(timeout=TICK_SECONDS)
            except queue_mod.Empty:
                item = None
            if item is _STOP:
                stopping = True
            elif item is not None:
                with self._lock:
                    self._pending.setdefault(item.key, []).append(item)
            self.metrics.gauge(
                "serve_queue_depth",
                "requests waiting in the bounded queue").set(
                self._queue.qsize())
            now = time.monotonic()
            deadline = self._flush_deadline()
            for key in list(self._pending):
                with self._lock:
                    group = self._pending.get(key)
                    flush = group is not None and (
                        len(group) >= self.config.max_batch or stopping
                        or now - group[0].submitted_at >= deadline)
                    if flush:
                        del self._pending[key]
                if flush:
                    self._launch(key, group)
            if stopping and not self._pending and self._queue.empty():
                return

    def _launch(self, key: BatchKey, group: List[ProofRequest]) -> None:
        """Turn one flushed group into a job, table it, hand it off."""
        flush_wait = time.monotonic() - group[0].submitted_at
        self.metrics.histogram(
            "serve_flush_seconds",
            "time from a group's first request to its flush",
            buckets=LATENCY_BUCKETS).observe(flush_wait)
        batch_id = new_batch_id()
        self.runtime.note("batch_flushed", batch_id=batch_id,
                          model=key.model, occupancy=len(group),
                          flush_wait_seconds=round(flush_wait, 4),
                          request_ids=[r.request_id for r in group])
        batch_inputs, padded_size = self._padded_inputs(group)
        job = BatchJob(
            job_id=next(self._job_ids),
            batch_id=batch_id,
            spec=group[0].spec,
            batch_inputs=batch_inputs,
            scheme_name=key.scheme_name,
            num_cols=key.num_cols,
            scale_bits=key.scale_bits,
            lookup_bits=key.lookup_bits,
            occupancy=len(group),
            padded_size=padded_size,
            priority=key.priority,
            trace=self.tracer.enabled,
        )
        with self._lock:
            self._jobs[job.job_id] = (group, job)
        # a job the scheduler sheds fires _on_shed synchronously, which
        # pops the entry back out and fails the group typed
        self._scheduler.enqueue(job)

    # -- batch proving -------------------------------------------------------

    @staticmethod
    def _bucket(size: int, max_batch: int) -> int:
        """The smallest power-of-two occupancy >= ``size`` (capped)."""
        bucket = 1
        while bucket < size:
            bucket *= 2
        return min(bucket, max(size, max_batch))

    def _padded_inputs(self, group: List[ProofRequest]):
        """The group's inputs padded to its occupancy bucket."""
        cfg = self.config
        batch_inputs = [r.inputs for r in group]
        padded_size = len(batch_inputs)
        if len(group) < cfg.max_batch:
            padded_size = self._bucket(len(group), cfg.max_batch)
            batch_inputs = batch_inputs + [batch_inputs[-1]] * (
                padded_size - len(batch_inputs))
        return batch_inputs, padded_size

    def _on_result(self, result: BatchResult) -> None:
        """Resolve or fail one batch from its result.

        Runs on the scheduler's collector thread, or the in-process
        worker's (a poison batch's on the scheduler's monitor thread).
        The job-table pop is the at-most-once gate: a worker process
        that shipped its result and then died gets re-dispatched,
        and whichever of the two results lands second finds no entry and
        is dropped.
        """
        with self._lock:
            entry = self._jobs.pop(result.job_id, None)
        if entry is None:
            return
        group, job = entry
        stitch_batch(self.tracer, job, result,
                     [r.request_id for r in group])
        if result.worker_id >= 0:  # a poison batch has no worker to bill
            fold_worker_result(self.metrics, job, result)
        if result.ok:
            self._resolve_group(group, job, result)
        else:
            self._fail_group(group, job, result.error)

    def _on_shed(self, job: BatchJob, reason: str) -> None:
        """Fail a batch the scheduler shed (overload or shutdown)."""
        with self._lock:
            entry = self._jobs.pop(job.job_id, None)
        if entry is None:
            return
        group, _ = entry
        model = job.spec.name
        self.runtime.note("batch_shed", batch_id=job.batch_id,
                          model=model, priority=job.priority,
                          reason=reason, occupancy=len(group))
        if reason == "shutdown":
            exc: ResilienceError = ServiceShutdownError(
                "service shut down before the batch was proved",
                model=model, batch_id=job.batch_id)
        else:
            exc = ServiceOverloadedError(
                "batch shed: per-model dispatch backlog is full",
                model=model, priority=job.priority,
                max_backlog_batches=self.config.max_backlog_batches,
                batch_id=job.batch_id)
        self._fail_group(group, job, exc)

    # -- resolution ----------------------------------------------------------

    def _resolve_group(self, group: List[ProofRequest], job: BatchJob,
                       result: BatchResult) -> None:
        model, batch_id = job.spec.name, job.batch_id
        batch_seconds = result.batch_seconds
        ema = self._ema_prove_seconds
        self._ema_prove_seconds = (batch_seconds if ema is None
                                   else 0.5 * ema + 0.5 * batch_seconds)
        now = time.monotonic()
        with self._lock:
            self._outstanding -= len(group)
        self.metrics.counter("serve_batches_total", "batch proofs produced",
                             model=model).inc()
        self.metrics.counter("serve_proofs_total",
                             "requests resolved with a verified proof",
                             model=model).inc(len(group))
        self.metrics.histogram("serve_batch_occupancy",
                               "requests coalesced per batch proof",
                               buckets=OCCUPANCY_BUCKETS).observe(len(group))
        self.metrics.gauge("serve_keygen_cache_hit",
                           "1 if the last batch skipped keygen",
                           model=model).set(int(result.keygen_cache_hit))
        latency = self.metrics.histogram(
            "serve_request_seconds", "end-to-end request latency",
            buckets=LATENCY_BUCKETS)
        # the batch's proving time amortized over its *occupied* slots:
        # what one request actually cost, not the whole batch's latency
        slot_seconds = result.proving_seconds / max(1, len(group))
        slot_hist = self.metrics.histogram(
            "serve_slot_prove_seconds",
            "per-request proving cost (batch time / occupancy)",
            buckets=LATENCY_BUCKETS)
        for index, request in enumerate(group):
            e2e_seconds = now - request.submitted_at
            latency.observe(e2e_seconds)
            slot_hist.observe(slot_seconds)
            self.runtime.request_done(e2e_seconds, ok=True,
                                      occupancy=len(group))
            self.runtime.note("request_resolved",
                              request_id=request.request_id,
                              batch_id=batch_id, slot=index,
                              latency_seconds=round(e2e_seconds, 4),
                              verified=True)
            request.future.set_result(ProofResponse(
                request_id=request.request_id,
                sequence=request.id,
                batch_id=batch_id,
                model=model,
                scheme_name=job.scheme_name,
                verified=True,
                envelope_bytes=result.envelope_bytes,
                instance=result.instance,
                outputs=result.slot_outputs[index],
                batch_index=index,
                batch_size=len(group),
                padded_size=job.padded_size,
                queue_seconds=max(0.0, now - request.submitted_at
                                  - batch_seconds),
                prove_seconds=result.proving_seconds,
                slot_prove_seconds=slot_seconds,
                keygen_seconds=result.keygen_seconds,
                keygen_cache_hit=result.keygen_cache_hit,
            ))
        self.runtime.note("batch_resolved", batch_id=batch_id,
                          model=model, occupancy=len(group),
                          seconds=round(batch_seconds, 4),
                          verified=True,
                          keygen_cache_hit=result.keygen_cache_hit)
        log.debug("batch resolved", batch_id=batch_id, model=model,
                  occupancy=len(group), padded=job.padded_size,
                  seconds=round(batch_seconds, 4),
                  keygen_cache_hit=result.keygen_cache_hit)

    def _fail_group(self, group: List[ProofRequest], job: BatchJob,
                    exc: ResilienceError) -> None:
        model, batch_id = job.spec.name, job.batch_id
        now = time.monotonic()
        with self._lock:
            self._outstanding -= len(group)
        self.metrics.counter("serve_failed_batches_total",
                             "batches that failed with a typed error",
                             model=model).inc()
        for request in group:
            self.runtime.request_done(now - request.submitted_at, ok=False,
                                      occupancy=len(group))
        self.runtime.note("batch_failed", batch_id=batch_id,
                          model=model, occupancy=len(group),
                          error=type(exc).__name__, detail=str(exc)[:200],
                          request_ids=[r.request_id for r in group])
        log.warning("batch failed", batch_id=batch_id, model=model,
                    occupancy=len(group), error=type(exc).__name__)
        self.runtime.auto_dump("batch_failure")
        for request in group:
            request.future.set_exception(exc)

    def _fail_queued(self, exc: ServiceShutdownError) -> None:
        while True:
            try:
                item = self._queue.get_nowait()
            except queue_mod.Empty:
                break
            if item is not _STOP:
                item.future.set_exception(exc)
                with self._lock:
                    self._outstanding -= 1
        for group in self._pending.values():
            for request in group:
                request.future.set_exception(exc)
                with self._lock:
                    self._outstanding -= 1
        self._pending.clear()

    # -- introspection -------------------------------------------------------

    def health(self) -> Dict[str, object]:
        """A cheap liveness probe: reads in-memory counters and never
        touches the prover.  ``ok`` means the service is accepting and a
        worker is alive; ``saturated`` warns that backpressure is
        imminent."""
        depth = self._queue.qsize()
        headroom = max(0, self.config.max_queue - depth)
        accepting = self._started and not self._closed
        inflight = len(self._jobs)
        alive = self._scheduler.alive_workers()
        return {
            "ok": accepting and alive > 0,
            "accepting": accepting,
            "queue_depth": depth,
            "queue_headroom": headroom,
            "saturated": headroom == 0,
            "inflight_batches": inflight,
            "workers_alive": alive,
            "workers": self.config.cluster_workers,
        }

    def status(self) -> Dict[str, object]:
        """The full operator snapshot (the ``status`` op / ``zkml top``).

        Everything is read from in-memory state — no proving, no disk.
        """
        now = time.monotonic()
        with self._lock:
            pending: Dict[str, int] = {}
            for key, group in self._pending.items():
                pending[key.model] = pending.get(key.model, 0) + len(group)
            inflight = len(self._jobs)
            outstanding = self._outstanding
        return {
            "schema": "zkml-serve-status/v2",
            "uptime_seconds": round(now - self._started_at, 3)
            if self._started_at is not None else 0.0,
            "accepting": self._started and not self._closed,
            "queue": {
                "depth": self._queue.qsize(),
                "max": self.config.max_queue,
                "headroom": max(0, self.config.max_queue
                                - self._queue.qsize()),
            },
            "inflight_batches": inflight,
            "outstanding_requests": outstanding,
            "pending_by_model": pending,
            "batcher": {
                "max_batch": self.config.max_batch,
                "flush_deadline_seconds": round(self._flush_deadline(), 4),
                "ema_prove_seconds": round(self._ema_prove_seconds, 4)
                if self._ema_prove_seconds is not None else None,
            },
            "counters": self.stats(),
            "pk_cache": GLOBAL_PK_CACHE.stats(),
            "field_kernel": {
                "lanes": native.lane_width(),
                "threads": self._scheduler.kernel_threads
                or native.thread_count(),
            },
            "resilience": events.counts(),
            "mode": "cluster" if self.config.cluster_workers else "inline",
            "cluster": self._scheduler.status(),
            "slo": self.runtime.slo.snapshot(),
            "flight_recorder": self.runtime.recorder_status(),
        }

    def stats(self) -> Dict[str, float]:
        """A plain-dict snapshot (the smoke test's assertion surface),
        totalled from the registry's ``serve_*`` series."""
        total = self.metrics.total
        out: Dict[str, float] = {
            key: int(total(series)) for key, series in _STATS_SERIES}
        out["queue_depth"] = self._queue.qsize()
        occupancy = total("serve_batch_occupancy")
        out["mean_occupancy"] = (occupancy[0] / occupancy[1]
                                 if occupancy and occupancy[1] else 0.0)
        if self._ema_prove_seconds is not None:
            out["ema_prove_seconds"] = round(self._ema_prove_seconds, 4)
        return out
