"""Model-based test of the service's job table (at-most-once resolution).

A started :class:`ProvingService` whose scheduler's ``enqueue`` is
replaced by a fake: hypothesis interleaves launches, results (ok and failed),
duplicate results (a crashed worker's re-dispatched twin), sheds (late
and synchronous-at-enqueue), poison results and a non-draining shutdown,
and after every step the real table must agree with a three-line model.
No proving happens — ``_launch`` / ``_on_result`` / ``_on_shed`` are
exactly the code every served batch runs.
"""

import time
from types import SimpleNamespace

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.resilience.errors import ProvingError, WorkerCrashError
from repro.serve import ProvingService, ServeConfig
from repro.serve.service import BatchKey, ProofRequest
from repro.serve.worker import BatchResult

KEY = BatchKey("tabled", "kzg", 4, 6, None)
SPEC = SimpleNamespace(name="tabled")


class JobTableMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.service = ProvingService(
            ServeConfig(max_batch=4)).start()
        self.service._scheduler.enqueue = self.enqueue
        self.shed_next = False
        self.open = {}        # job_id -> (job, group): launched, unsettled
        self.delivered = []   # results already handed to the service
        self.requests = []    # every request ever launched
        self.sequence = 0

    # -- the fake scheduler ------------------------------------------------

    def enqueue(self, job):
        if self.shed_next:  # the scheduler sheds on the caller's thread
            self.shed_next = False
            self.service._on_shed(job, "overload")
        else:
            self.open[job.job_id] = (job, self.launching)

    def result(self, job, ok, worker_id=0):
        error = None if ok else (
            ProvingError("witness does not satisfy the circuit")
            if worker_id >= 0 else WorkerCrashError("declared poison"))
        return BatchResult(
            job_id=job.job_id, batch_id=job.batch_id, ok=ok,
            worker_id=worker_id, pid=0, error=error,
            slot_outputs=[{} for _ in range(job.occupancy)])

    # -- rules ---------------------------------------------------------------

    @rule(size=st.integers(1, 4), shed=st.booleans())
    def launch(self, size, shed):
        group = []
        for _ in range(size):
            self.sequence += 1
            group.append(ProofRequest(
                id=self.sequence, spec=SPEC, inputs={}, key=KEY,
                submitted_at=time.monotonic(),
                request_id="req-%d" % self.sequence))
        self.requests.extend(group)
        with self.service._lock:  # what submit() does on acceptance
            self.service._outstanding += size
        self.shed_next, self.launching = shed, group
        self.service._launch(KEY, group)

    @precondition(lambda self: self.open)
    @rule(data=st.data(), ok=st.booleans())
    def deliver(self, data, ok):
        job, _ = self.open.pop(data.draw(st.sampled_from(sorted(self.open))))
        result = self.result(job, ok)
        self.delivered.append(result)
        self.service._on_result(result)

    @precondition(lambda self: self.delivered)
    @rule(data=st.data())
    def deliver_duplicate(self, data):
        self.service._on_result(data.draw(st.sampled_from(self.delivered)))

    @precondition(lambda self: self.open)
    @rule(data=st.data())
    def shed_queued(self, data):
        job, _ = self.open.pop(data.draw(st.sampled_from(sorted(self.open))))
        self.service._on_shed(job, "overload")

    @precondition(lambda self: self.open)
    @rule(data=st.data())
    def poison(self, data):
        job, _ = self.open.pop(data.draw(st.sampled_from(sorted(self.open))))
        self.service._on_result(self.result(job, ok=False, worker_id=-1))
        # the worker it killed last may still have shipped a result
        self.delivered.append(self.result(job, ok=True))

    # -- invariants ----------------------------------------------------------

    @invariant()
    def table_matches_model(self):
        service = self.service
        assert set(service._jobs) == set(self.open)
        assert service.health()["inflight_batches"] == len(self.open)
        assert service.status()["inflight_batches"] == len(self.open)
        outstanding = sum(len(group) for _, group in self.open.values())
        assert service._outstanding == outstanding
        if service._outstanding == 0:
            assert not service._jobs

    @invariant()
    def futures_settle_with_their_batch(self):
        # settling twice would have raised InvalidStateError in the rule
        unsettled = {r.id for _, group in self.open.values() for r in group}
        for request in self.requests:
            assert request.future.done() == (request.id not in unsettled)

    def teardown(self):
        # a non-draining shutdown fails whatever is still tabled, typed
        self.service.shutdown(drain=False)
        assert not self.service._jobs
        assert self.service._outstanding == 0
        assert all(r.future.done() for r in self.requests)
        stats = self.service.stats()
        assert stats["proofs"] + sum(
            1 for r in self.requests if r.future.exception() is not None
        ) == len(self.requests)


TestJobTable = JobTableMachine.TestCase
TestJobTable.settings = settings(max_examples=40, stateful_step_count=25,
                                 deadline=None)
