"""Model-based test of the cluster scheduler's queue policy.

Hypothesis drives an unstarted :class:`ClusterScheduler` (no worker
processes: ``enqueue``, ``_next_job`` and a non-draining shutdown are
pure queue manipulation) with random enqueues, dispatches and one
shutdown, and checks it against a reference model after every step:

- per-(model, class) deques, bounded per model;
- an interactive batch meeting a full backlog evicts the model's newest
  queued bulk batch, and any other overflow sheds the incoming batch;
- dispatch takes interactive before bulk, and within a class takes the
  first model after the one served last, in sorted order (so a model
  that sorts earlier and appears mid-stream waits its turn);
- a non-draining shutdown sheds the whole backlog, and every later
  enqueue is shed with reason ``shutdown``; every shed is counted.

Besides the dispatch order and which batches were shed or evicted, the
registry's ``serve_shed_batches_total`` and
``zkml_scheduler_evicted_total`` must equal the model's counts.
"""

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
from repro.serve.scheduler import PRIORITIES, ClusterScheduler
from repro.serve.worker import BatchJob

MODELS = ("a", "b", "c")
BACKLOG = 2


def _job(job_id, model, priority="interactive"):
    return BatchJob(
        job_id=job_id, batch_id="b%d" % job_id,
        spec=SimpleNamespace(name=model), batch_inputs=[],
        scheme_name="kzg", num_cols=4, scale_bits=6, lookup_bits=None,
        occupancy=1, padded_size=1, priority=priority)


class SchedulerMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.metrics = MetricsRegistry()
        self.shed = []  # (job_id, reason), in on_shed order
        self.scheduler = ClusterScheduler(
            workers=1, on_result=lambda result: None,
            on_shed=lambda job, reason: self.shed.append(
                (job.job_id, reason)),
            metrics=self.metrics, max_backlog_batches=BACKLOG)
        self.job_ids = 0
        # the reference model
        self.queues = {}  # model -> {priority: deque of job ids}
        self.last_served = {p: None for p in PRIORITIES}
        self.closed = False
        self.expected_shed = []
        self.counted = {"overload": 0, "shutdown": 0}
        self.evicted = 0

    def _shed(self, job_id, reason):
        self.expected_shed.append((job_id, reason))
        self.counted[reason] += 1

    @rule(model=st.sampled_from(MODELS),
          priority=st.sampled_from(PRIORITIES))
    def enqueue(self, model, priority):
        self.job_ids += 1
        job_id = self.job_ids
        accepted = self.scheduler.enqueue(_job(job_id, model, priority))
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


SchedulerMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=30, deadline=None)
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
