"""Batch-aware proving service (``zkml serve`` / ``zkml submit``).

Scaling zkML is a proof-construction *scheduling* problem: the repo's
prover already amortizes keygen (pk cache), weights, and lookup tables
across a batch (``prove_batch``), but nothing coalesced concurrent
requests into those batches.  This package is that layer:

- :class:`~repro.serve.service.ProvingService` — the in-process API: a
  bounded request queue with backpressure, an adaptive micro-batcher
  that coalesces same-(model, scheme, config) requests into single
  ``prove_batch`` calls, a worker pool that keeps proving keys warm, and
  per-request futures carrying proof bytes + instance + verification
  status;
- :class:`~repro.serve.scheduler.ClusterScheduler` /
  :mod:`~repro.serve.worker` — cluster mode (``zkml serve --workers N``):
  flushed batches dispatch to N prover worker *processes* over per-model
  priority queues, with load shedding, crash re-dispatch, and a shared
  disk-backed proving-key cache
  (:class:`~repro.perf.pkcache.DiskPKCache`);
- :class:`~repro.serve.verify_service.VerifyService` — the *other* side
  of the trust boundary (``zkml verify-serve``): batch-verify proof
  envelopes from untrusted parties under hard resource caps, load
  shedding, and per-request deadlines;
- :mod:`~repro.serve.server` — what both services answer, independent
  of transport: :class:`~repro.serve.server.PayloadProcessor` (proof
  requests), :class:`~repro.serve.server.VerifyProcessor` (envelopes)
  and the ``health``/``status``/``metrics``/``dump`` control ops;
- :class:`~repro.serve.http_server.HttpFrontEnd` — the one wire
  protocol, HTTP/JSON, bound on a unix socket (``--socket``) and, for
  ``zkml serve``, on a TCP port (``--http-port``);
- :mod:`~repro.serve.client` — the matching client (``zkml submit``,
  ``zkml top``), taking a socket path or an ``http://host:port`` URL.

Only the service modules are imported eagerly; the front end, the
processors and the client are explicit imports so the in-process API
stays dependency-light.
"""

from repro.serve.service import (
    BatchKey,
    ProofRequest,
    ProofResponse,
    ProvingService,
    ServeConfig,
)
from repro.serve.verify_service import VerifyConfig, VerifyService

__all__ = [
    "BatchKey",
    "ProofRequest",
    "ProofResponse",
    "ProvingService",
    "ServeConfig",
    "VerifyConfig",
    "VerifyService",
]
