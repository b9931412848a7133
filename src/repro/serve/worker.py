"""The one way a served batch is proved: :func:`prove_job`.

A flushed batch is a :class:`BatchJob`; :func:`prove_job` proves it with
:func:`~repro.runtime.pipeline.prove_batch`, strict-verifies the proof,
encodes the envelope and packages everything as a :class:`BatchResult`.
The service decides only *where* that runs: on its own proving thread
(worker ``0``) or in a cluster worker process running
:func:`worker_main` — a loop that takes jobs off its private job queue
and ships results back on the shared result queue.  Everything in a job
or a result is a plain picklable dataclass — proof *bytes*, not live
:class:`~repro.halo2.Proof` objects, and the typed error itself, not its
name — so it reads the same on either side of a process boundary.

Workers attach the shared :class:`~repro.perf.pkcache.DiskPKCache`
under their in-process ``GLOBAL_PK_CACHE`` at startup: the first worker
to see a circuit runs keygen under the digest's advisory file lock and
persists the keys; every other worker (and every restarted worker)
loads them from disk instead of re-deriving them.

A worker never *exits* on a proving failure — typed errors travel back
inside ``BatchResult`` and fail only that batch's requests.  A worker
*process* death (SIGKILL, OOM, segfault) is the scheduler's problem: it
detects the corpse, re-dispatches the in-flight batch, and spawns a
replacement (see :mod:`repro.serve.scheduler`).
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, field as dataclass_field, replace
from typing import Any, Dict, List, Optional

import numpy as np

from repro.model.spec import ModelSpec
from repro.obs.stats import STATS
from repro.obs.trace import NULL_TRACER, Tracer
from repro.perf.pkcache import GLOBAL_PK_CACHE
from repro.resilience.errors import ResilienceError, ServiceError
from repro.runtime.pipeline import prove_batch

__all__ = ["BatchJob", "BatchResult", "prove_job", "worker_main"]

#: Sentinel the scheduler enqueues to stop a worker cleanly.
STOP = None


@dataclass
class BatchJob:
    """One flushed batch, ready to prove (crosses the process boundary).

    ``batch_inputs`` is already padded to ``padded_size``; ``occupancy``
    is the real request count — the result carries outputs only for the
    occupied slots.  ``redispatches`` counts how many workers died with
    this job in flight (the scheduler's poison-batch guard).
    """

    job_id: int
    batch_id: str
    spec: ModelSpec
    batch_inputs: List[Dict[str, np.ndarray]]
    scheme_name: str
    num_cols: int
    scale_bits: int
    lookup_bits: Optional[int]
    occupancy: int
    padded_size: int
    priority: str = "interactive"
    redispatches: int = 0
    #: Record the prove's span tree and ship it back in the result: set
    #: when the job is built, iff the service's tracer is enabled.
    trace: bool = False
    #: ``time.perf_counter`` stamps: launch, and hand-off to whatever
    #: runs :func:`prove_job` (0.0 = unset).  perf_counter is
    #: CLOCK_MONOTONIC on Linux, so these are directly comparable with
    #: worker-side span timestamps after a fork.
    enqueued_pc: float = 0.0
    dispatched_pc: float = 0.0


@dataclass
class BatchResult:
    """The outcome of one :class:`BatchJob`."""

    job_id: int
    batch_id: str
    ok: bool
    #: ``0`` on the service's own proving thread, the logical worker id
    #: in a cluster, ``-1`` when no worker produced it (a poison batch).
    worker_id: int
    pid: int
    #: The typed failure, as raised (``None`` when ``ok``; ``ok`` means
    #: proved *and* strict-verified).
    error: Optional[ResilienceError] = None
    envelope_bytes: bytes = b""
    instance: List[List[int]] = dataclass_field(default_factory=list)
    #: Per-occupied-slot output arrays (``occupancy`` entries).
    slot_outputs: List[Dict[str, np.ndarray]] = dataclass_field(
        default_factory=list)
    #: Wall-clock of the whole job — synthesis through strict verify and
    #: envelope encode — measured where it ran.
    batch_seconds: float = 0.0
    proving_seconds: float = 0.0
    keygen_seconds: float = 0.0
    keygen_cache_hit: bool = False
    #: As on :class:`~repro.runtime.pipeline.ProveResult`.
    observed_counts: Dict[str, int] = dataclass_field(default_factory=dict)
    predicted_counts: Dict[str, float] = dataclass_field(default_factory=dict)
    phase_seconds: Dict[str, float] = dataclass_field(default_factory=dict)
    #: The prove's span dicts (empty unless ``job.trace``), the STATS
    #: delta over the whole job, and the pk-cache counters after it.
    spans: List[Dict[str, Any]] = dataclass_field(default_factory=list)
    stats_delta: Dict[str, int] = dataclass_field(default_factory=dict)
    pk_cache: Dict[str, Any] = dataclass_field(default_factory=dict)


def prove_job(job: BatchJob, worker_id: int) -> BatchResult:
    """Prove one batch job and package the outcome (never raises).

    The proving pipeline underneath is deterministic, so the proof bytes
    do not depend on where this runs.  The result always carries the
    job's STATS op-count delta and the pk-cache counters after it; with
    ``job.trace`` it also carries the prove's span tree, recorded under
    a ``worker:prove`` root on a fresh tracer handed down to the
    pipeline — never installed process-wide, since ``use_tracer`` swaps
    a process global and the caller may be one thread among several.
    None of this touches proof construction: proof bytes are
    byte-identical traced or not (``tests/serve/test_cluster_telemetry.py``).
    """
    result = BatchResult(job_id=job.job_id, batch_id=job.batch_id, ok=False,
                         worker_id=worker_id, pid=os.getpid())
    tracer = Tracer() if job.trace else NULL_TRACER
    before = STATS.snapshot()
    started = time.monotonic()
    with tracer.span("worker:prove", worker=worker_id, batch_id=job.batch_id,
                     model=job.spec.name, occupancy=job.occupancy,
                     padded=job.padded_size, priority=job.priority,
                     redispatches=job.redispatches):
        try:
            proved = prove_batch(
                job.spec, job.batch_inputs, scheme_name=job.scheme_name,
                num_cols=job.num_cols, scale_bits=job.scale_bits,
                lookup_bits=job.lookup_bits, tracer=tracer,
            )
            # strict: raises on any malformation
            proved.verify(tracer=tracer)
            result = replace(
                result,
                ok=True,
                envelope_bytes=proved.envelope_bytes(),
                instance=proved.instance,
                slot_outputs=proved.slot_outputs[:job.occupancy],
                proving_seconds=proved.proving_seconds,
                keygen_seconds=proved.keygen_seconds,
                keygen_cache_hit=proved.keygen_cache_hit,
                observed_counts=proved.observed_counts,
                predicted_counts=proved.predicted_counts,
                phase_seconds=proved.phase_seconds)
        except ResilienceError as exc:
            result.error = exc
        except Exception as exc:  # noqa: BLE001 — a crash must fail its batch, not the proving thread or the worker loop
            result.error = ServiceError(
                "batch proving crashed: %s: %s"
                % (type(exc).__name__, str(exc)[:200]),
                model=job.spec.name, occupancy=job.occupancy,
                batch_id=job.batch_id)
    result.batch_seconds = time.monotonic() - started
    result.spans = [span.as_dict() for span in tracer.spans()]
    result.stats_delta = STATS.delta(before)
    result.pk_cache = GLOBAL_PK_CACHE.stats()
    return result


def worker_main(worker_id: int, job_queue, result_queue,
                pk_cache_dir: Optional[str] = None) -> None:
    """Entry point of a prover worker process.

    Blocks on ``job_queue``; a ``STOP`` (``None``) sentinel ends the
    loop.  SIGINT is ignored so a Ctrl-C at the operator's terminal
    drains through the scheduler instead of killing workers mid-batch
    (SIGTERM/SIGKILL still work — that is what the crash-recovery path
    is for).
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    if pk_cache_dir:
        GLOBAL_PK_CACHE.attach_disk(pk_cache_dir)
    while True:
        job = job_queue.get()
        if job is STOP:
            return
        result_queue.put(prove_job(job, worker_id))
