"""Model-based test of the scheduler's queue policy and reap path.

Hypothesis drives an unstarted :class:`ClusterScheduler` whose workers
are fake handles — no process or thread behind them: the machine flips
their ``alive`` and reads their ``current`` — with random enqueues,
dispatches, finished batches, kills, reaps and one shutdown, and checks
it against a reference model after every step:

- per-(model, class) deques, bounded per model;
- an interactive batch meeting a full backlog evicts the model's newest
  queued bulk batch, and any other overflow sheds the incoming batch;
- dispatch takes interactive before bulk, and within a class takes the
  first model after the one served last, in sorted order (so a model
  that sorts earlier and appears mid-stream waits its turn);
- dispatch is event-driven: an ``enqueue`` that finds an idle live
  worker sets that worker's ``current`` before it returns, and a
  finished batch hands its worker the next one, so an idle live worker
  never coexists with a queued batch;
- a reaped dead worker is replaced; its batch goes back to the *front*
  of its class, or past ``REDISPATCH_LIMIT`` reaches ``on_result``
  exactly once, failed with :class:`WorkerCrashError`;
- a non-draining shutdown sheds the whole backlog, and every later
  enqueue is shed with reason ``shutdown``; every shed is counted.

Besides the dispatch order, which batches were shed or evicted and what
``on_result`` saw, the registry's ``serve_shed_batches_total``,
``zkml_scheduler_evicted_total``, ``serve_worker_restarts_total``,
``serve_redispatched_batches_total`` and ``zkml_scheduler_poisoned_total``
must equal the model's counts.
"""

import queue
import time
from collections import deque
from types import SimpleNamespace

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.obs.metrics import MetricsRegistry
from repro.resilience.errors import WorkerCrashError
from repro.serve import scheduler as scheduler_module
from repro.serve.scheduler import PRIORITIES, ClusterScheduler
from repro.serve.worker import BatchJob, BatchResult

MODELS = ("a", "b", "c")
BACKLOG = 2
WORKERS = 2
REDISPATCH_LIMIT = 1


def _job(job_id, model, priority="interactive"):
    return BatchJob(
        job_id=job_id, batch_id="b%d" % job_id,
        spec=SimpleNamespace(name=model), batch_inputs=[],
        scheme_name="kzg", num_cols=4, scale_bits=6, lookup_bits=None,
        occupancy=1, padded_size=1, priority=priority)


class FakeWorker:
    """A worker handle with nothing behind it: ``alive`` is a plain
    attribute the machine flips."""

    def __init__(self, worker_id):
        self.worker_id = worker_id
        self.current = None
        self.alive = True
        self.pid = 0
        self.runner = SimpleNamespace()  # no exitcode
        self.batches_before = 0
        self.started_at = time.monotonic()
        self.job_queue = queue.SimpleQueue()

    @property
    def busy(self):
        return self.current is not None

    def join(self):
        pass


class SchedulerMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.metrics = MetricsRegistry()
        self.shed = []  # (job_id, reason), in on_shed order
        self.results = []  # what on_result saw, in order
        self.scheduler = ClusterScheduler(
            workers=0, on_result=self.results.append,
            on_shed=lambda job, reason: self.shed.append(
                (job.job_id, reason)),
            metrics=self.metrics, max_backlog_batches=BACKLOG)
        # the scheduler reads its module constant; teardown restores it
        self._limit = scheduler_module.REDISPATCH_LIMIT
        scheduler_module.REDISPATCH_LIMIT = REDISPATCH_LIMIT
        self.scheduler._handles = [FakeWorker(i) for i in range(WORKERS)]
        self.scheduler._spawn = FakeWorker  # the reaper's replacements
        self.job_ids = 0
        # the reference model
        self.queues = {}  # model -> {priority: deque of job ids}
        self.last_served = {p: None for p in PRIORITIES}
        self.closed = False
        self.expected_shed = []
        self.counted = {"overload": 0, "shutdown": 0}
        self.evicted = 0
        self.classes = {}  # job id -> (model, priority)
        self.running = [None] * WORKERS  # job id per worker slot
        self.alive = [True] * WORKERS
        self.redispatches = {}  # job id -> workers it outlived
        self.expected_results = []  # (job id, ok)
        self.restarts = self.redispatched = self.poisoned = 0

    def teardown(self):
        scheduler_module.REDISPATCH_LIMIT = self._limit

    def _shed(self, job_id, reason):
        self.expected_shed.append((job_id, reason))
        self.counted[reason] += 1

    def _idle_slot(self):
        return next((slot for slot in range(WORKERS)
                     if self.running[slot] is None and self.alive[slot]),
                    None)

    def _model_dispatch(self):
        while True:
            slot = self._idle_slot()
            if slot is None:
                return
            job_id = self._model_next()
            if job_id is None:
                return
            self.running[slot] = job_id

    @rule(model=st.sampled_from(MODELS),
          priority=st.sampled_from(PRIORITIES))
    def enqueue(self, model, priority):
        self.job_ids += 1
        job_id = self.job_ids
        self.classes[job_id] = (model, priority)
        idle = None if self.closed else self._idle_slot()
        accepted = self.scheduler.enqueue(_job(job_id, model, priority))
        if idle is not None:
            # handed over before enqueue returned
            assert self.scheduler._handles[idle].current.job_id == job_id
        if self.closed:
            self._shed(job_id, "shutdown")
            assert not accepted
            return
        queues = self.queues.setdefault(
            model, {p: deque() for p in PRIORITIES})
        if sum(map(len, queues.values())) >= BACKLOG:
            if priority == "interactive" and queues["bulk"]:
                self._shed(queues["bulk"].pop(), "overload")
                self.evicted += 1
            else:
                self._shed(job_id, "overload")
                assert not accepted
                return
        queues[priority].append(job_id)
        assert accepted
        self._model_dispatch()

    @rule()
    def dispatch(self):
        with self.scheduler._lock:
            job = self.scheduler._next_job()
        assert (job and job.job_id) == self._model_next()

    def _model_next(self):
        for priority in PRIORITIES:
            last = self.last_served[priority]
            ready = sorted(m for m, q in self.queues.items() if q[priority])
            if not ready:
                continue
            later = [m for m in ready if last is not None and m > last]
            model = (later or ready)[0]
            self.last_served[priority] = model
            return self.queues[model][priority].popleft()
        return None

    @precondition(lambda self: any(self.running))
    @rule(data=st.data())
    def finish(self, data):
        """A busy worker — live, or dead but not yet reaped — ships its
        result."""
        slot = data.draw(st.sampled_from(
            [s for s in range(WORKERS) if self.running[s] is not None]))
        job_id, self.running[slot] = self.running[slot], None
        self.scheduler._collect(BatchResult(
            job_id=job_id, batch_id="b%d" % job_id, ok=True,
            worker_id=slot, pid=0))
        self.expected_results.append((job_id, True))
        self._model_dispatch()

    @precondition(lambda self: any(self.alive))
    @rule(data=st.data(), reap=st.booleans())
    def kill(self, data, reap):
        slot = data.draw(st.sampled_from(
            [s for s in range(WORKERS) if self.alive[s]]))
        self.scheduler._handles[slot].alive = False
        self.alive[slot] = False
        if reap:
            self.reap()

    @rule()
    def reap(self):
        self.scheduler._reap_dead()
        if self.closed:  # a stopping scheduler reaps nothing
            return
        poisoned = []
        for slot in range(WORKERS):
            if self.alive[slot]:
                continue
            self.restarts += 1
            self.alive[slot] = True
            job_id, self.running[slot] = self.running[slot], None
            if job_id is None:
                continue
            self.redispatches[job_id] = self.redispatches.get(job_id, 0) + 1
            if self.redispatches[job_id] > REDISPATCH_LIMIT:
                poisoned.append(job_id)
                continue
            self.redispatched += 1
            model, priority = self.classes[job_id]
            self.queues.setdefault(model, {p: deque() for p in PRIORITIES})[
                priority].appendleft(job_id)
        for job_id in poisoned:
            self.poisoned += 1
            self.expected_results.append((job_id, False))
        self._model_dispatch()

    @precondition(lambda self: not self.closed)
    @rule()
    def shutdown_without_draining(self):
        self.scheduler.shutdown(drain=False)
        self.closed = True
        # the backlog is shed model by model, interactive first
        for queues in self.queues.values():
            for priority in PRIORITIES:
                for job_id in queues[priority]:
                    self._shed(job_id, "shutdown")
                queues[priority].clear()

    @invariant()
    def shed_and_evicted_match_the_model(self):
        assert self.shed == self.expected_shed
        total = self.metrics.total
        for reason, count in self.counted.items():
            assert total("serve_shed_batches_total", reason=reason) == count
        assert total("zkml_scheduler_evicted_total") == self.evicted
        status = self.scheduler.status()
        assert status["shed"] == sum(self.counted.values())
        assert status["evicted"] == self.evicted
        assert status["backlog_total"] == sum(
            len(q) for queues in self.queues.values() for q in queues.values())

    @invariant()
    def workers_and_results_match_the_model(self):
        handles = self.scheduler._handles
        assert [h.current and h.current.job_id for h in handles] \
            == self.running
        assert [h.alive for h in handles] == self.alive
        assert [(r.job_id, r.ok) for r in self.results] \
            == self.expected_results
        assert all(isinstance(r.error, WorkerCrashError)
                   for r in self.results if not r.ok)
        total = self.metrics.total
        assert total("serve_worker_restarts_total") == self.restarts
        assert total("serve_redispatched_batches_total") == self.redispatched
        assert total("zkml_scheduler_poisoned_total") == self.poisoned
        if self._idle_slot() is not None and not self.closed:
            # work-conserving: an idle live worker means nothing queued
            assert self.scheduler.status()["backlog_total"] == 0


SchedulerMachine.TestCase.settings = settings(
    max_examples=200, stateful_step_count=30, deadline=None)
TestSchedulerModel = SchedulerMachine.TestCase


def test_a_model_that_appears_mid_stream_waits_its_turn():
    # b, b, c queued; b is served, then a arrives: a cursor into the
    # sorted model list would now point at b again (b, c, a); the fair
    # rule resumes after b (c, a, b)
    scheduler = ClusterScheduler(
        workers=1, on_result=lambda result: None,
        on_shed=lambda job, reason: None, metrics=MetricsRegistry())
    for job_id, model in enumerate("bbc", start=1):
        assert scheduler.enqueue(_job(job_id, model))
    served = []
    with scheduler._lock:
        served.append(scheduler._next_job().spec.name)
    assert scheduler.enqueue(_job(4, "a"))
    with scheduler._lock:
        while True:
            job = scheduler._next_job()
            if job is None:
                break
            served.append(job.spec.name)
    assert served == ["b", "c", "a", "b"]


def test_a_crashed_batch_goes_first_then_poisons_past_the_limit(
        monkeypatch):
    monkeypatch.setattr(scheduler_module, "REDISPATCH_LIMIT", 1)
    results = []
    metrics = MetricsRegistry()
    scheduler = ClusterScheduler(
        workers=0, on_result=results.append,
        on_shed=lambda job, reason: None, metrics=metrics,
        max_backlog_batches=4)
    scheduler._handles = [FakeWorker(0)]
    scheduler._spawn = FakeWorker
    jobs = [_job(job_id, "a") for job_id in (1, 2, 3)]
    for job in jobs:
        assert scheduler.enqueue(job)
    assert scheduler._handles[0].current is jobs[0]

    def crash():
        scheduler._handles[0].alive = False
        scheduler._reap_dead()
        return scheduler._handles[0].current

    # the replacement takes the crashed batch ahead of the queued ones
    assert crash() is jobs[0]
    assert results == []
    # past the limit it is failed once, typed, and the queue moves on
    assert crash() is jobs[1]
    scheduler._reap_dead()
    assert [(r.job_id, r.ok) for r in results] == [(1, False)]
    assert isinstance(results[0].error, WorkerCrashError)
    total = metrics.total
    assert total("serve_worker_restarts_total") == 2
    assert total("serve_redispatched_batches_total") == 1
    assert total("zkml_scheduler_poisoned_total") == 1
