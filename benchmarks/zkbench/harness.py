"""Measurement plumbing shared by the zkbench workloads.

Nothing here knows what a workload does: it draws seeded inputs, times
regions against the machine's speed, records op latencies, verdicts and
the timed wall, keeps the benchmark's own spans, collects per-layer
samples, and runs an open-loop request schedule.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from zkbench.catalog import PER_LAYER_UNITS

#: An open-loop request that has not resolved this long after its due
#: time counts as failed.
REQUEST_TIMEOUT_SECONDS = 120.0


def model_inputs(spec, seed: int, index: int) -> Dict[str, np.ndarray]:
    """The inputs of op ``index`` under ``seed``: the same pair always
    gives the same arrays, however many ops a run fits in."""
    rng = np.random.default_rng([seed, index])
    return {name: rng.uniform(-0.5, 0.5, shape)
            for name, shape in spec.inputs.items()}


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    """Peak resident set of this process and its reaped children, in MB
    (``ru_maxrss`` is kilobytes on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Timing:
    """One timed region, as the run reports it."""

    #: Seconds the region took: wall seconds in a traced run, wall
    #: seconds times :attr:`scale` in an end-to-end run.
    seconds = 0.0
    #: What a wall time inside the region is multiplied by to be reported:
    #: one over the machine's slowdown around the region, or 1.
    scale = 1.0


class SpeedMeter:
    """How fast this machine is right now, against a fixed nominal.

    The boxes this benchmark runs on change speed by up to 1.8x for
    seconds to minutes at a time (other tenants), so raw wall times of
    the same commit repeat only within 15-25% and their medians move by
    up to 20% from one hour to the next (README, "Box noise").  The
    driver accepts a benchmark whose metrics repeat within their bounds,
    so end-to-end runs time a small fixed kernel, numpy and interpreter
    work in the proportion the prover has them, before and after every
    timed region and divide the region's wall by the kernel's slowdown.
    Times so corrected read as seconds on this class of box at its usual
    speed: :data:`NOMINAL_SECONDS` is the kernel's usual time inside a
    proving process there, a unit conversion that cancels whenever two
    commits are compared on one box.  With ``apply=False`` (traced runs)
    the meter still samples, so the run can report how slow the box was,
    but corrects nothing.
    """

    NOMINAL_SECONDS = 0.0065
    #: A sample this recent is reused, so short ops do not each pay for
    #: one.
    MAX_AGE_SECONDS = 0.25

    def __init__(self, apply: bool) -> None:
        self.apply = apply
        self._data = np.random.default_rng(0).integers(
            0, 2 ** 62, size=1 << 18, dtype=np.uint64)
        self._factor = 1.0
        self._at = float("-inf")
        self.samples: List[float] = []

    def _kernel(self) -> float:
        start = time.perf_counter()
        for _ in range(2):
            np.sort((self._data * self._data) >> np.uint64(3))
        total = 0
        for i in range(30000):
            total += i * i
        return time.perf_counter() - start

    def factor(self) -> float:
        """The slowdown against nominal, sampled now unless just sampled."""
        if time.perf_counter() - self._at > self.MAX_AGE_SECONDS:
            sample = statistics.median(self._kernel() for _ in range(3))
            self._factor = sample / self.NOMINAL_SECONDS
            self._at = time.perf_counter()
            self.samples.append(self._factor)
        return self._factor

    @contextmanager
    def timed(self):
        """Time the enclosed region into the yielded :class:`Timing`."""
        timing = Timing()
        before = self.factor()
        start = time.perf_counter()
        try:
            yield timing
        finally:
            wall = time.perf_counter() - start
            slowdown = (before + self.factor()) / 2
            if self.apply:
                timing.scale = 1.0 / slowdown
            timing.seconds = wall * timing.scale


class Recorder:
    """Op latencies, verdicts, artefact sizes and the timed wall of one run.

    A *kind* names ops that do the same work (one model, or one flavour
    of tampered envelope); the latency metrics pool all kinds.
    """

    def __init__(self) -> None:
        self.by_kind: Dict[str, List[float]] = {}
        self.attempted = 0
        self.passed = 0
        self.sizes: List[int] = []
        #: Seconds the clock ran.  A closed loop adds each op's latency
        #: (the clock stops while the benchmark checks an output, so with
        #: one caller this is first start to last completion less the
        #: checks); an open loop adds each episode's wall, first due time
        #: to last completion.
        self.wall = 0.0

    def op(self, kind: str, seconds: float, ok: bool, size: int,
           wall: Optional[float] = None) -> None:
        """An op that completed; ``wall`` is what it adds to the timed
        wall, its own latency unless the caller says otherwise."""
        self.attempted += 1
        self.passed += bool(ok)
        self.by_kind.setdefault(kind, []).append(seconds)
        self.sizes.append(size)
        self.wall += seconds if wall is None else wall

    def fail(self) -> None:
        """An op that produced no latency (refused, raised, timed out)."""
        self.attempted += 1

    @property
    def failed(self) -> int:
        return self.attempted - self.passed

    def latencies(self) -> List[float]:
        return [s for values in self.by_kind.values() for s in values]

    def end_to_end(self, setup_s: float) -> Dict[str, float]:
        latencies = self.latencies()
        return {
            "setup_s": setup_s,
            "ops_per_s": self.passed / self.wall,
            "op_p50_s": statistics.median(latencies),
            "op_mean_s": statistics.fmean(latencies),
            "peak_rss_mb": peak_rss_mb(),
            "envelope_kb_per_op": statistics.fmean(self.sizes) / 1024.0,
        }


class SpanLog:
    """The benchmark's own spans: name, start, end, parent, shared op id.

    Kept in memory and written once when the run ends.  Spans are opened
    from the measuring thread only; work that happens on service threads
    is added afterwards with :meth:`record`.
    """

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, op: str):
        record = {"name": name, "op": op, "start": time.perf_counter(),
                  "end": None,
                  "parent": self._open[-1] if self._open else None}
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def record(self, name: str, op: str, start: float, end: float) -> None:
        self.spans.append({"name": name, "op": op, "start": start,
                           "end": end, "parent": None})


def seconds_of(span: Dict[str, object]) -> float:
    return span["end"] - span["start"]


class Layers:
    """Per-layer samples of a traced run.

    Times are reported as the median sample, counts as the mean per op
    (exact when every round has the same composition).  A name outside
    the catalog is a bug in the workload, not a new metric.
    """

    def __init__(self) -> None:
        self.samples: Dict[str, List[float]] = {}
        #: Why the layer drives could not run, if they could not.
        self.dropped = ""

    def add(self, name: str, value: float) -> None:
        if name not in PER_LAYER_UNITS:
            raise KeyError("%r is not a catalogued per-layer metric" % name)
        self.samples.setdefault(name, []).append(float(value))

    def median(self, name: str) -> float:
        values = self.samples.get(name)
        return statistics.median(values) if values else 0.0

    def values(self) -> Dict[str, float]:
        """The metrics this run took samples of.  One a workload does not
        exercise is left out, so no reader takes it for a measured 0."""
        return {name: (statistics.median(self.samples[name])
                       if unit in ("s", "us")
                       else statistics.fmean(self.samples[name]))
                for name, unit in PER_LAYER_UNITS.items()
                if name in self.samples}


def kendall_tau(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Kendall's tau-a of two equally long sequences."""
    concordant = discordant = 0
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            sign = (xs[i] - xs[j]) * (ys[i] - ys[j])
            if sign > 0:
                concordant += 1
            elif sign < 0:
                discordant += 1
    pairs = len(xs) * (len(xs) - 1) // 2
    return (concordant - discordant) / pairs if pairs else 0.0


@dataclass
class Sent:
    """One open-loop request: when it was due, sent, and resolved."""

    index: int
    due: float
    sent: float = 0.0
    done: Optional[float] = None
    future: object = None
    refused: Optional[BaseException] = None
    response: object = None


def run_open_loop(count: int, rate: float,
                  submit: Callable[[int], object],
                  refusals: Tuple[type, ...]) -> List[Sent]:
    """Send ``count`` requests on a fixed schedule from this one thread.

    Request ``i`` is due ``i / rate`` seconds after the start whatever
    the service does with the earlier ones, and its latency is counted
    from that due time, so a stall is charged to every request it
    delays.  ``submit(i)`` returns a future; raising one of ``refusals``
    marks the request refused.  Completion times are stamped by the
    futures' callbacks, so no client thread waits per request.
    """
    start = time.perf_counter() + 0.05
    sent: List[Sent] = []
    for index in range(count):
        item = Sent(index=index, due=start + index / rate)
        delay = item.due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        item.sent = time.perf_counter()
        try:
            item.future = submit(index)
        except refusals as exc:
            item.refused = exc
        else:
            item.future.add_done_callback(
                lambda _f, item=item: setattr(item, "done",
                                              time.perf_counter()))
        sent.append(item)
    for item in sent:
        if item.future is None:
            continue
        remaining = item.due + REQUEST_TIMEOUT_SECONDS - time.perf_counter()
        try:
            item.response = item.future.result(timeout=max(0.0, remaining))
        except Exception:  # noqa: BLE001 — a failed op is counted (no response), not raised
            pass
    return sent
