"""Prover worker process for the serve cluster.

One worker = one OS process running :func:`worker_main`: a loop that
takes :class:`BatchJob` messages off its private job queue, proves them
with :func:`~repro.runtime.pipeline.prove_batch`, strict-verifies the
proof, and ships a :class:`BatchResult` back on the shared result queue.
Everything that crosses the process boundary is a plain picklable
dataclass — proof *bytes*, not live :class:`~repro.halo2.Proof` objects,
so the scheduler side never needs to touch prover state.

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
from dataclasses import dataclass, field as dataclass_field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.model.spec import ModelSpec
from repro.resilience.errors import ResilienceError

__all__ = ["BatchJob", "BatchResult", "worker_main"]

#: Sentinel the scheduler enqueues to stop a worker cleanly.
STOP = None


@dataclass
class BatchJob:
    """One flushed batch, ready to prove (crosses the process boundary).

    ``batch_inputs`` is already padded to ``padded_size``; ``occupancy``
    is the real request count — the worker returns outputs only for the
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
    #: ``time.perf_counter`` stamps set by the scheduler (0.0 = unset);
    #: perf_counter is CLOCK_MONOTONIC on Linux, so these are directly
    #: comparable with worker-side span timestamps after a fork.
    enqueued_pc: float = 0.0
    dispatched_pc: float = 0.0


@dataclass
class BatchResult:
    """What a worker sends back for one :class:`BatchJob`."""

    job_id: int
    batch_id: str
    ok: bool
    worker_id: int
    pid: int
    error: str = ""
    detail: str = ""
    verified: bool = False
    proof_bytes: bytes = b""
    envelope_bytes: bytes = b""
    instance: List[List[int]] = dataclass_field(default_factory=list)
    #: Per-occupied-slot output arrays (``occupancy`` entries), named as
    #: on :class:`~repro.runtime.pipeline.ProveResult` so the service
    #: resolves either result with the same code.
    slot_outputs: List[Dict[str, np.ndarray]] = dataclass_field(
        default_factory=list)
    proving_seconds: float = 0.0
    keygen_seconds: float = 0.0
    keygen_cache_hit: bool = False
    #: :class:`~repro.obs.cluster.WorkerTelemetry` when the worker ran
    #: with batch telemetry capture on; ``None`` otherwise.
    telemetry: Optional[Any] = None


def prove_job(job: BatchJob, worker_id: int,
              telemetry: bool = False) -> BatchResult:
    """Prove one batch job and package the outcome (never raises).

    Shared by the worker process loop and the scheduler's in-process
    fallback path, so both produce identical result messages — and
    identical proof bytes, since the proving pipeline underneath is the
    same deterministic code either way.  With ``telemetry`` the prove
    runs under a fresh worker-local tracer and the result carries a
    :class:`~repro.obs.cluster.WorkerTelemetry` (spans, STATS delta,
    pk-cache counters) for the parent to ingest; capture never touches
    proof construction, so proof bytes stay identical either way.
    """
    if telemetry:
        from repro.obs.cluster import capture_batch

        with capture_batch(job, worker_id) as capture:
            result = _prove_job(job, worker_id)
        result.telemetry = capture.telemetry
        return result
    return _prove_job(job, worker_id)


def _prove_job(job: BatchJob, worker_id: int) -> BatchResult:
    from repro.runtime.pipeline import prove_batch

    pid = os.getpid()
    try:
        result = prove_batch(
            job.spec, job.batch_inputs, scheme_name=job.scheme_name,
            num_cols=job.num_cols, scale_bits=job.scale_bits,
            lookup_bits=job.lookup_bits,
        )
        result.verify()  # strict: raises on any malformation
        envelope = result.envelope()  # serializes the proof once
        return BatchResult(
            job_id=job.job_id,
            batch_id=job.batch_id,
            ok=True,
            worker_id=worker_id,
            pid=pid,
            verified=True,
            proof_bytes=envelope.proof_bytes,
            envelope_bytes=envelope.encode(),
            instance=result.instance,
            slot_outputs=result.slot_outputs[:job.occupancy],
            proving_seconds=result.proving_seconds,
            keygen_seconds=result.keygen_seconds,
            keygen_cache_hit=result.keygen_cache_hit,
        )
    except ResilienceError as exc:
        return BatchResult(
            job_id=job.job_id, batch_id=job.batch_id, ok=False,
            worker_id=worker_id, pid=pid,
            error=type(exc).__name__, detail=str(exc)[:300])
    except Exception as exc:  # noqa: BLE001 — a crash must fail its batch, not the worker loop
        return BatchResult(
            job_id=job.job_id, batch_id=job.batch_id, ok=False,
            worker_id=worker_id, pid=pid,
            error=type(exc).__name__, detail=str(exc)[:300])


def worker_main(worker_id: int, job_queue, result_queue,
                pk_cache_dir: Optional[str] = None,
                telemetry: bool = False) -> None:
    """Entry point of a prover worker process.

    Blocks on ``job_queue``; a ``STOP`` (``None``) sentinel ends the
    loop.  SIGINT is ignored so a Ctrl-C at the operator's terminal
    drains through the scheduler instead of killing workers mid-batch
    (SIGTERM/SIGKILL still work — that is what the crash-recovery path
    is for).  ``telemetry`` turns on per-batch span/metric capture
    (shipped back inside each :class:`BatchResult`).
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    if pk_cache_dir:
        from repro.perf.pkcache import GLOBAL_PK_CACHE

        GLOBAL_PK_CACHE.attach_disk(pk_cache_dir)
    while True:
        job = job_queue.get()
        if job is STOP:
            return
        result_queue.put(prove_job(job, worker_id, telemetry=telemetry))
