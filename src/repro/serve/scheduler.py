"""The scheduler: flushed batches → prover workers.

The micro-batcher (:class:`~repro.serve.service.ProvingService`) turns
requests into batches; this module alone hands them to workers running
:func:`~repro.serve.worker.worker_main`: N worker processes, or with
``workers=0`` one daemon thread of the service's process.  Layout::

    micro-batcher ──▶ ClusterScheduler ──▶ worker 0 (process or thread)
                        │  per-model         worker 1 (process)
                        │  priority queues    ...
                        ◀────────────── shared result queue (processes)

Responsibilities, the same for either kind of worker:

- **per-model dispatch queues, two priority classes** — every batch
  lands in its model's ``interactive`` or ``bulk`` deque.  Dispatch
  drains all interactive work before any bulk work, round-robining
  across models within a class so one hot model cannot starve the rest;
- **load shedding** — each model's backlog is bounded
  (``max_backlog_batches``).  An overflowing *interactive* batch evicts
  the newest queued bulk batch (shed, typed overload error) before being
  rejected itself; bulk overflow sheds the incoming batch.  Shedding
  fails futures fast instead of letting queue time grow without bound;
- **event-driven dispatch** — ``enqueue`` and each settled result hand
  queued batches to idle workers; the monitor only polls liveness.  The
  in-process worker settles its own results (no hand-off, no contention);
- **crash recovery** — a worker process that dies (SIGKILL, OOM,
  segfault) is detected by liveness polling: its in-flight batch is
  re-queued at the *front* of its priority class and a replacement
  worker is spawned.  A batch that out-lives ``REDISPATCH_LIMIT``
  workers is declared poison and failed with a typed
  :class:`~repro.resilience.errors.WorkerCrashError` — one bad batch
  can never crash-loop the whole pool (a thread worker cannot crash);
- **at-most-once resolution** — a worker that manages to ship its
  result *and* die before the scheduler notices produces both a result
  and a re-dispatch; the service's job table resolves the first and
  ignores the duplicate, so futures settle exactly once.

The scheduler prefers the ``fork`` start method (workers inherit the
parent's warm imports; startup is milliseconds) and falls back to the
platform default elsewhere.  Workers attach the shared
:class:`~repro.perf.pkcache.DiskPKCache` in the state directory
(``registry_dir``), so keygen happens once per circuit *cluster-wide*.
"""

from __future__ import annotations

import bisect
import multiprocessing as mp
import os
import queue as queue_mod
import threading
import time
from collections import deque
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional

from repro.field import native
from repro.obs import log as obs_log
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import RuntimeTelemetry, SloTracker
from repro.resilience.errors import WorkerCrashError
from repro.serve.worker import STOP, BatchJob, BatchResult, worker_main

__all__ = ["ClusterScheduler", "PRIORITIES"]

#: Dispatch classes, highest priority first.
PRIORITIES = ("interactive", "bulk")

log = obs_log.get_logger("serve")

#: How often the monitor polls worker liveness; also a draining
#: shutdown's wait granularity.  Dispatch does not wait on it.
MONITOR_TICK_SECONDS = 0.01

#: Worker-process crashes one batch may survive before it is declared
#: poison (:class:`~repro.resilience.errors.WorkerCrashError`).
REDISPATCH_LIMIT = 2


def _mp_context():
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else methods[0])


class _WorkerHandle:
    """One worker plus its private job queue: a process of ``ctx``, or a
    thread of this process when ``ctx`` is None (its ``pid`` is ours).
    ``batches_before`` is its logical worker's batch count at spawn."""

    def __init__(self, worker_id: int, ctx, result_queue,
                 registry_dir: Optional[str], batches_before: int = 0,
                 kernel_threads: Optional[int] = None):
        self.worker_id = worker_id
        self.in_process = ctx is None
        self.job_queue = queue_mod.Queue() if ctx is None else ctx.Queue()
        self.current: Optional[BatchJob] = None
        self.batches_before = batches_before
        self.started_at = time.monotonic()
        self.runner = (threading.Thread if ctx is None else ctx.Process)(
            target=worker_main,
            args=(worker_id, self.job_queue, result_queue, registry_dir,
                  kernel_threads),
            name="zkml-prover-%d" % worker_id,
            daemon=True,
        )
        self.runner.start()
        self.pid = os.getpid() if self.in_process else self.runner.pid

    @property
    def busy(self) -> bool:
        return self.current is not None

    @property
    def alive(self) -> bool:
        return self.runner.is_alive()

    def join(self) -> None:
        """Wait for the worker after its ``STOP``; terminate a straggling
        process (a daemon thread is left to finish its batch)."""
        self.runner.join(timeout=5.0)
        if self.runner.is_alive() and not self.in_process:
            self.runner.terminate()
            self.runner.join(timeout=2.0)


class ClusterScheduler:
    """Dispatch batches over ``workers`` prover processes, or over one
    in-process worker thread when ``workers`` is 0.

    ``on_result(result)`` fires on the collector thread, or the
    in-process worker's, for every finished batch (including typed
    failures; a poison batch's fires on the monitor thread);
    ``on_shed(job, reason)`` fires for
    batches dropped by load
    shedding (``reason="overload"``) or a non-draining shutdown
    (``reason="shutdown"``).  Both callbacks must be thread-safe.

    ``metrics`` is the service's registry, the only place the
    scheduler's counts live; ``on_result`` folds each batch into the
    ``zkml_worker_*{worker}`` series that :meth:`status` reads back.
    """

    def __init__(self, workers: int,
                 on_result: Callable[[BatchResult], None],
                 on_shed: Callable[[BatchJob, str], None],
                 metrics: MetricsRegistry,
                 registry_dir: Optional[str] = None,
                 max_backlog_batches: int = 8,
                 runtime: Optional[RuntimeTelemetry] = None):
        if workers < 0:
            raise ValueError("workers must be >= 0")
        self.workers = workers
        self.on_result = on_result
        self.on_shed = on_shed
        self.registry_dir = registry_dir
        self.max_backlog_batches = max_backlog_batches
        self.metrics = metrics
        self.runtime = runtime if runtime is not None else RuntimeTelemetry()
        #: Threads a worker process's kernel calls split over: the CPUs
        #: shared out between the workers (``None`` in process: all of them).
        self.kernel_threads = max(1, native.cpu_count() // workers) \
            if workers else None
        #: ``None`` for the in-process worker: no processes, and its
        #: "result queue" settles each result on the worker's own thread.
        self._ctx = _mp_context() if workers else None
        self._result_queue = SimpleNamespace(put=self._collect) \
            if self._ctx is None else self._ctx.Queue()
        self._handles: List[_WorkerHandle] = []
        self._backlog: Dict[str, Dict[str, deque]] = {}
        #: Per class, the model served last ('' sorts before every name).
        self._last_served: Dict[str, str] = {p: "" for p in PRIORITIES}
        self._lock = threading.Lock()
        self._running = False
        self._closed = False
        self._stopping = False
        self._monitor: Optional[threading.Thread] = None
        self._collector: Optional[threading.Thread] = None
        #: Per logical worker (survives respawns): the last batch the
        #: collect loop matched to it, and that result's pk-cache counters.
        self._last: Dict[int, Dict[str, Any]] = {}
        #: End-to-end batch SLO windows per priority class.
        self.class_slo: Dict[str, SloTracker] = {
            p: SloTracker() for p in PRIORITIES}

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ClusterScheduler":
        if self._running:
            return self
        self._running = True
        for worker_id in range(max(1, self.workers)):
            self._handles.append(self._spawn(worker_id))
        self._monitor = threading.Thread(target=self._monitor_loop,
                                         name="zkml-cluster-monitor",
                                         daemon=True)
        self._monitor.start()
        if self._ctx is not None:
            self._collector = threading.Thread(target=self._collect_loop,
                                               name="zkml-cluster-results",
                                               daemon=True)
            self._collector.start()
        log.debug("scheduler started", workers=self.workers,
                  registry=self.registry_dir or "")
        return self

    def _spawn(self, worker_id: int) -> _WorkerHandle:
        return _WorkerHandle(worker_id, self._ctx, self._result_queue,
                             self.registry_dir,
                             batches_before=self._worker_batches(worker_id),
                             kernel_threads=self.kernel_threads)

    def _worker_batches(self, worker_id: int) -> int:
        return int(self.metrics.total("zkml_worker_batches_total",
                                      worker=str(worker_id)))

    def shutdown(self, drain: bool = True,
                 timeout: Optional[float] = None) -> None:
        """Stop intake; with ``drain`` prove out the backlog first.

        Without ``drain`` every queued batch is shed
        (``reason="shutdown"``) so its futures fail typed instead of
        hanging.  Workers get a ``STOP`` sentinel and a bounded join;
        straggling processes are terminated.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        deadline = None if timeout is None else time.monotonic() + timeout
        if drain:
            while True:
                with self._lock:
                    idle = (not any(h.busy for h in self._handles)
                            and self._backlog_total() == 0)
                if idle:
                    break
                if deadline is not None and time.monotonic() > deadline:
                    break
                time.sleep(MONITOR_TICK_SECONDS)
        else:
            for job in self._drain_backlog():
                self._count_shed(job, "shutdown")
                self.on_shed(job, "shutdown")
        self._stopping = True
        for handle in self._handles:
            try:
                handle.job_queue.put(STOP)
            except (OSError, ValueError):  # pragma: no cover - dead feeder
                pass
        for handle in self._handles:
            handle.join()
        self._running = False
        if self._monitor is not None:
            self._monitor.join(timeout=2.0)
        if self._collector is not None:
            self._result_queue.put(STOP)
            self._collector.join(timeout=2.0)
        if self._ctx is not None:
            self._result_queue.cancel_join_thread()

    def _drain_backlog(self) -> List[BatchJob]:
        out: List[BatchJob] = []
        with self._lock:
            for queues in self._backlog.values():
                for priority in PRIORITIES:
                    out.extend(queues[priority])
                    queues[priority].clear()
            self._update_backlog_gauges()
        return out

    # -- intake --------------------------------------------------------------

    def _backlog_total(self) -> int:
        return sum(len(q[p]) for q in self._backlog.values()
                   for p in PRIORITIES)

    def enqueue(self, job: BatchJob) -> bool:
        """Queue one batch for dispatch; ``False`` if it was shed.

        An accepted batch is handed to an idle worker, if there is one,
        before this returns.  Shedding (and the eviction of a queued bulk
        victim making room for an interactive batch) invokes ``on_shed``
        synchronously on the caller's thread.
        """
        model = job.spec.name
        victim: Optional[BatchJob] = None
        accepted = True
        job.enqueued_pc = time.perf_counter()
        with self._lock:
            if self._closed:
                accepted = False
            else:
                queues = self._backlog.setdefault(
                    model, {p: deque() for p in PRIORITIES})
                total = sum(len(queues[p]) for p in PRIORITIES)
                if total >= self.max_backlog_batches:
                    if job.priority == "interactive" and queues["bulk"]:
                        victim = queues["bulk"].pop()  # newest bulk yields
                    else:
                        accepted = False
                if accepted:
                    queues[job.priority].append(job)
            self._update_backlog_gauges()
        if victim is not None:
            self._count_shed(victim, "overload")
            self.metrics.counter(
                "zkml_scheduler_evicted_total",
                "queued bulk batches evicted for interactive traffic",
                model=victim.spec.name).inc()
            self.runtime.note("bulk_evicted", batch_id=victim.batch_id,
                              model=victim.spec.name,
                              for_batch=job.batch_id)
            self.on_shed(victim, "overload")
        if not accepted:
            reason = "shutdown" if self._closed else "overload"
            self._count_shed(job, reason)
            self.on_shed(job, reason)
            return False
        self._dispatch_ready()
        return True

    def _count_shed(self, job: BatchJob, reason: str) -> None:
        self.metrics.counter(
            "serve_shed_batches_total",
            "batches dropped by load shedding or shutdown",
            model=job.spec.name, reason=reason).inc()

    def _update_backlog_gauges(self) -> None:
        """Refresh per-(model, class) backlog gauges (lock held).

        Gauges are set for every model ever seen — including zeros — so
        a scrape after a burst still shows the series (at 0) instead of
        the series vanishing.
        """
        total = 0
        for model, queues in self._backlog.items():
            for priority in PRIORITIES:
                depth = len(queues[priority])
                total += depth
                self.metrics.gauge(
                    "zkml_scheduler_backlog",
                    "queued batches per model and priority class",
                    model=model, priority=priority).set(depth)
        self.metrics.gauge(
            "zkml_scheduler_backlog_total",
            "queued batches across all models and classes").set(total)

    # -- dispatch + liveness -------------------------------------------------

    def _monitor_loop(self) -> None:
        while self._running:
            self._reap_dead()
            time.sleep(MONITOR_TICK_SECONDS)

    def _next_job(self) -> Optional[BatchJob]:
        """The next batch to dispatch: interactive before bulk, and within
        a class the first model after the one served last, in sorted
        order, so a model that appears mid-stream waits its turn (call
        with the lock held)."""
        models = sorted(self._backlog)
        for priority in PRIORITIES:
            split = bisect.bisect_right(models, self._last_served[priority])
            for model in models[split:] + models[:split]:
                queue = self._backlog[model][priority]
                if queue:
                    self._last_served[priority] = model
                    return queue.popleft()
        return None

    def _dispatch_ready(self) -> None:
        """Hand queued batches to idle live workers until either runs out."""
        while True:
            with self._lock:
                idle = next((h for h in self._handles
                             if not h.busy and h.alive), None)
                if idle is None:
                    return
                job = self._next_job()
                if job is None:
                    return
                idle.current = job
                job.dispatched_pc = time.perf_counter()
                self._update_backlog_gauges()
            queue_seconds = job.dispatched_pc - job.enqueued_pc
            self.metrics.histogram(
                "zkml_scheduler_dispatch_seconds",
                "batch queue wait: enqueue to worker dispatch",
            ).observe(queue_seconds)
            self.metrics.counter(
                "zkml_scheduler_dispatched_total",
                "batches handed to a worker",
                model=job.spec.name, priority=job.priority).inc()
            self.runtime.note("batch_dispatched", batch_id=job.batch_id,
                              worker=idle.worker_id, model=job.spec.name,
                              priority=job.priority,
                              queue_seconds=round(queue_seconds, 6))
            try:
                idle.job_queue.put(job)
            except (OSError, ValueError):
                # the worker died between the liveness check and the put;
                # the reaper will re-dispatch `current`
                return

    def _reap_dead(self) -> None:
        """Replace every dead worker, re-queue its batch at the front of
        its class (or fail it as poison past ``REDISPATCH_LIMIT``), then
        dispatch to the replacements."""
        if self._stopping:
            return
        poisoned: List[BatchJob] = []
        reaped = False
        with self._lock:
            for index, handle in enumerate(self._handles):
                if handle.alive:
                    continue
                reaped = True
                job = handle.current
                exitcode = getattr(handle.runner, "exitcode", None)
                self.metrics.counter(
                    "serve_worker_restarts_total",
                    "prover worker processes replaced after a crash",
                ).inc()
                self.runtime.note("worker_respawned",
                                  worker=handle.worker_id,
                                  pid=handle.pid, exitcode=exitcode,
                                  inflight=job.batch_id if job else "")
                log.warning("worker died; respawning",
                            worker=handle.worker_id,
                            pid=handle.pid, exitcode=exitcode,
                            inflight=job.batch_id if job else "")
                self._handles[index] = self._spawn(handle.worker_id)
                if job is None:
                    continue
                job.redispatches += 1
                if job.redispatches > REDISPATCH_LIMIT:
                    poisoned.append(job)
                    continue
                self.metrics.counter(
                    "serve_redispatched_batches_total",
                    "in-flight batches re-queued after a worker crash",
                    model=job.spec.name).inc()
                self.runtime.note("batch_redispatched",
                                  batch_id=job.batch_id,
                                  model=job.spec.name,
                                  redispatches=job.redispatches)
                # front of its class: a crashed batch does not lose its
                # place behind newer traffic
                self._backlog.setdefault(
                    job.spec.name, {p: deque() for p in PRIORITIES}
                )[job.priority].appendleft(job)
                self._update_backlog_gauges()
        for job in poisoned:
            self.metrics.counter(
                "zkml_scheduler_poisoned_total",
                "batches declared poison after the re-dispatch limit",
                model=job.spec.name).inc()
            self.runtime.note("batch_poisoned", batch_id=job.batch_id,
                              model=job.spec.name,
                              redispatches=job.redispatches)
            self._observe_class_slo(job, ok=False)
            self.on_result(BatchResult(
                job_id=job.job_id, batch_id=job.batch_id, ok=False,
                worker_id=-1, pid=0, error=WorkerCrashError(
                    "batch killed %d workers (re-dispatch limit %d); "
                    "declared poison" % (job.redispatches, REDISPATCH_LIMIT),
                    model=job.spec.name, batch_id=job.batch_id)))
        if reaped:
            self._dispatch_ready()

    def _observe_class_slo(self, job: BatchJob, ok: bool) -> None:
        """Feed one finished batch into its priority class's SLO windows."""
        self.class_slo[job.priority].observe(
            time.perf_counter() - job.enqueued_pc, ok=ok,
            occupancy=job.occupancy)

    def _collect_loop(self) -> None:
        # blocks until a result or shutdown's STOP: no idle wake-ups
        while True:
            try:
                result = self._result_queue.get()
            except (OSError, ValueError):  # the queue was closed under us
                return
            if result is STOP:
                return
            self._collect(result)

    def _collect(self, result: BatchResult) -> None:
        """Free ``result``'s worker, hand it the next batch, pass it on."""
        job = None
        with self._lock:
            for handle in self._handles:
                current = handle.current
                if current is not None and current.job_id == result.job_id:
                    handle.current = None
                    self._last[handle.worker_id] = {
                        "last_batch_id": result.batch_id,
                        "last_prove_seconds": result.proving_seconds,
                        "pk_cache": dict(result.pk_cache),
                    }
                    job = current
                    break
        if job is not None:
            self._observe_class_slo(job, ok=result.ok)
            self._dispatch_ready()
        # else: a result from a worker already reaped (it shipped the
        # result and then died); the re-dispatched duplicate is still
        # queued — resolve with this one, the service's job table drops
        # whichever lands second (and bills only the first)
        self.on_result(result)

    # -- introspection -------------------------------------------------------

    def alive_workers(self) -> int:
        with self._lock:
            return sum(1 for h in self._handles if h.alive)

    def _telemetry(self, worker_id: int, batches: int) -> Dict[str, Any]:
        """One worker's ``telemetry`` block, read from its series."""
        worker = str(worker_id)
        ops = {dict(key)["op"]: int(count) for key, count
               in self.metrics.values("zkml_worker_ops_total").items()
               if ("worker", worker) in key}

        def total(name: str) -> float:
            return self.metrics.total(name, worker=worker)

        block: Dict[str, Any] = {
            "batches": batches,
            "failures": int(total("zkml_worker_failed_batches_total")),
            "prove_seconds": round(
                float(total("zkml_worker_prove_seconds_total")), 6),
            "keygen_seconds": round(
                float(total("zkml_worker_keygen_seconds_total")), 6),
            "keygen_cache_hits": int(total("zkml_worker_pk_cache_hits_total")),
            "ops_total": sum(ops.values()),
            "ops": dict(sorted(ops.items())),
            "last_batch_id": None,
            "last_prove_seconds": None,
            "pk_cache": {},
        }
        block.update(self._last.get(worker_id, {}))
        return block

    def status(self) -> Dict[str, object]:
        total = self.metrics.total
        with self._lock:
            backlog = {
                model: {p: len(queues[p]) for p in PRIORITIES
                        if len(queues[p])}
                for model, queues in self._backlog.items()
                if any(len(queues[p]) for p in PRIORITIES)
            }
            workers = []
            for handle in self._handles:
                batches = self._worker_batches(handle.worker_id)
                snap: Dict[str, object] = {
                    "id": handle.worker_id,
                    "pid": handle.pid,
                    "alive": handle.alive,
                    "busy": handle.busy,
                    "batches_done": batches - handle.batches_before,
                    "uptime_seconds": round(
                        time.monotonic() - handle.started_at, 3),
                }
                if batches:
                    snap["telemetry"] = self._telemetry(handle.worker_id,
                                                        batches)
                workers.append(snap)
            return {
                "workers": workers,
                "alive": sum(1 for h in self._handles if h.alive),
                "busy": sum(1 for h in self._handles if h.busy),
                "backlog": backlog,
                "backlog_total": self._backlog_total(),
                "max_backlog_batches": self.max_backlog_batches,
                "restarts": int(total("serve_worker_restarts_total")),
                "redispatched": int(
                    total("serve_redispatched_batches_total")),
                "shed": int(total("serve_shed_batches_total")),
                "evicted": int(total("zkml_scheduler_evicted_total")),
                "poisoned": int(total("zkml_scheduler_poisoned_total")),
                "slo_by_class": {
                    priority: tracker.snapshot()
                    for priority, tracker in self.class_slo.items()
                },
                "registry": self.registry_dir,
            }
