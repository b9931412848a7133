"""Hierarchical trace spans for the prove/verify pipeline.

A :class:`Tracer` records nested, attributed spans::

    with tracer.span("keygen", k=11, scheme="kzg") as sp:
        ...
        sp.set_attr("pk_cache_hit", False)

Span nesting follows the call stack per thread (a ``threading.local``
stack), so spans opened on worker threads parent correctly.  Finished
spans are kept flat with parent ids; :meth:`Tracer.to_tree` rebuilds the
hierarchy.  Two export formats are supported:

- **JSON lines** (:meth:`Tracer.to_jsonl`): one span object per line,
  convenient for grep/jq pipelines;
- **Chrome trace_event** (:meth:`Tracer.to_chrome_trace`): complete
  ``"X"``-phase events loadable in ``chrome://tracing`` or Perfetto —
  every distinct ``(pid, tid)`` pair gets its own named lane (metadata
  events), so worker-process spans don't collapse onto the main lane;
- **collapsed stacks** (:meth:`Tracer.to_collapsed`): the
  ``flamegraph.pl`` folded format (``a;b;c <self-µs>``).

Spans recorded in ``zkml serve --workers N`` worker *processes* are
shipped back with each batch result and re-registered here via
:meth:`Tracer.ingest`, keeping the worker's own pid/tid so the exported
trace shows real parallelism.

The disabled default is :data:`NULL_TRACER`, whose :meth:`span` returns a
shared inert singleton — no span objects, no clock reads, no allocations
on the prover hot path (as long as callers pass no attribute kwargs).
The process-wide current tracer is managed with :func:`get_tracer` /
:func:`set_tracer` / :func:`use_tracer`.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "use_tracer",
]


class Span:
    """One timed, attributed region of work.  Context manager."""

    __slots__ = ("name", "span_id", "parent_id", "start", "end", "attrs",
                 "pid", "tid", "_tracer")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id: int = 0
        self.parent_id: Optional[int] = None
        self.start: float = 0.0
        self.end: float = 0.0
        self.pid: int = 0
        self.tid: int = 0

    def set_attr(self, key: str, value: Any) -> None:
        self.attrs[key] = value

    @property
    def duration(self) -> float:
        return self.end - self.start

    def __enter__(self) -> "Span":
        self._tracer._enter(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._exit(self)
        return False

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "id": self.span_id,
            "parent": self.parent_id,
            "start": self.start,
            "end": self.end,
            "dur": self.duration,
            "pid": self.pid,
            "tid": self.tid,
            "attrs": self.attrs,
        }


class Tracer:
    """Collects a process's span tree; thread-safe."""

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._epoch = clock()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self.finished: List[Span] = []

    # -- recording ----------------------------------------------------------

    def span(self, name: str, **attrs: Any) -> Span:
        return Span(self, name, attrs)

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _enter(self, span: Span) -> None:
        stack = self._stack()
        span.span_id = next(self._ids)
        span.parent_id = stack[-1].span_id if stack else None
        span.pid = os.getpid()
        span.tid = threading.get_ident()
        stack.append(span)
        span.start = self._clock()

    def _exit(self, span: Span) -> None:
        span.end = self._clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        else:  # out-of-order exit; drop it from wherever it is
            try:
                stack.remove(span)
            except ValueError:
                pass
        with self._lock:
            self.finished.append(span)

    # -- views --------------------------------------------------------------

    def spans(self) -> List[Span]:
        """Finished spans in deterministic (start time, id) order."""
        with self._lock:
            out = list(self.finished)
        out.sort(key=lambda s: (s.start, s.span_id))
        return out

    def now(self) -> float:
        """A timestamp on this tracer's clock (for :meth:`record_span`)."""
        return self._clock()

    def record_span(self, name: str, start: float, end: float,
                    parent_id: Optional[int] = None,
                    pid: Optional[int] = None, tid: Optional[int] = None,
                    **attrs: Any) -> int:
        """Register an externally-timed, already-finished span.

        The cluster path needs this: the parent process times a batch from
        dispatch to resolve across *other* threads and processes, so there
        is no ``with tracer.span(...)`` block whose lifetime matches the
        work.  Timestamps must come from this tracer's clock (the default
        ``time.perf_counter`` is CLOCK_MONOTONIC on Linux, comparable
        across forked worker processes).  Returns the new span id, ready
        to be passed to :meth:`ingest` as ``parent_id``.
        """
        span = Span(self, name, attrs)
        span.span_id = next(self._ids)
        span.parent_id = parent_id
        span.start = float(start)
        span.end = float(end)
        span.pid = pid if pid is not None else os.getpid()
        span.tid = tid if tid is not None else threading.get_ident()
        with self._lock:
            self.finished.append(span)
        return span.span_id

    def ingest(self, span_dicts: List[Dict[str, Any]],
               parent_id: Optional[int] = None) -> None:
        """Adopt spans recorded by another tracer (a worker process).

        Each dict is a :meth:`Span.as_dict` payload.  Fresh span ids are
        assigned (worker tracers restart their counters at 1, so raw ids
        would collide); parent links *within* the batch are remapped, and
        batch roots are attached under ``parent_id`` — pass the id of the
        span that dispatched the work.  The worker's own ``pid``/``tid``
        are kept, which is what gives Chrome-trace exports one lane per
        worker instead of everything collapsing onto the caller's lane.
        """
        remap: Dict[int, int] = {}
        adopted: List[Span] = []
        for payload in span_dicts:
            span = Span(self, str(payload.get("name", "?")),
                        dict(payload.get("attrs") or {}))
            span.span_id = next(self._ids)
            remap[payload.get("id", 0)] = span.span_id
            span.start = float(payload.get("start", 0.0))
            span.end = float(payload.get("end", span.start))
            span.pid = int(payload.get("pid", 0))
            span.tid = int(payload.get("tid", 0))
            adopted.append((span, payload.get("parent")))
        for span, old_parent in adopted:
            span.parent_id = remap.get(old_parent, parent_id) \
                if old_parent is not None else parent_id
        with self._lock:
            self.finished.extend(span for span, _ in adopted)

    def to_tree(self) -> List[Dict[str, Any]]:
        """Root span dicts with nested ``children`` lists."""
        nodes: Dict[int, Dict[str, Any]] = {}
        roots: List[Dict[str, Any]] = []
        for span in self.spans():
            node = span.as_dict()
            node["children"] = []
            nodes[span.span_id] = node
        for node in nodes.values():
            parent = nodes.get(node["parent"]) if node["parent"] else None
            (parent["children"] if parent else roots).append(node)
        return roots

    # -- exports ------------------------------------------------------------

    def to_jsonl(self) -> str:
        """One JSON object per finished span, one span per line."""
        return "\n".join(
            json.dumps(span.as_dict(), sort_keys=True) for span in self.spans()
        ) + ("\n" if self.finished else "")

    def to_chrome_trace(self) -> Dict[str, Any]:
        """The Chrome ``trace_event`` JSON document (complete events).

        Thread ids are compacted to small per-process lane indices (raw
        ``threading.get_ident()`` values are huge and unstable), and each
        distinct ``(pid, tid)`` pair gets ``process_name``/``thread_name``
        metadata events, so spans ingested from worker processes render
        as their own named lanes instead of collapsing onto the caller's.
        """
        spans = self.spans()
        main_pid = os.getpid()
        lanes: Dict[tuple, int] = {}   # (pid, tid) -> compact lane index
        per_pid: Dict[int, int] = {}   # pid -> lanes allocated so far
        for span in spans:
            key = (span.pid, span.tid)
            if key not in lanes:
                lanes[key] = per_pid.get(span.pid, 0)
                per_pid[span.pid] = lanes[key] + 1
        events: List[Dict[str, Any]] = []
        for pid in sorted(per_pid):
            name = "zkml" if pid == main_pid else "zkml worker %d" % pid
            events.append({"name": "process_name", "ph": "M", "pid": pid,
                           "tid": 0, "args": {"name": name}})
        for (pid, tid), lane in sorted(lanes.items()):
            label = "main" if pid == main_pid and lane == 0 else \
                "thread %d" % lane if pid == main_pid else "worker"
            events.append({"name": "thread_name", "ph": "M", "pid": pid,
                           "tid": lane, "args": {"name": label}})
        for span in spans:
            events.append({
                "name": span.name,
                "cat": "zkml",
                "ph": "X",
                "ts": (span.start - self._epoch) * 1e6,
                "dur": span.duration * 1e6,
                "pid": span.pid,
                "tid": lanes[(span.pid, span.tid)],
                "args": span.attrs,
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def to_collapsed(self) -> str:
        """``flamegraph.pl`` folded stacks: ``root;child;leaf <self-µs>``.

        Each line carries a span's *self* time (duration minus the time
        covered by its direct children), so the flamegraph's widths add
        up like wall-clock does.
        """
        spans = self.spans()
        by_id = {s.span_id: s for s in spans}
        child_time: Dict[int, float] = {}
        for span in spans:
            if span.parent_id is not None and span.parent_id in by_id:
                child_time[span.parent_id] = (
                    child_time.get(span.parent_id, 0.0) + span.duration)
        lines: Dict[str, int] = {}
        for span in spans:
            stack = [span.name]
            node = span
            while node.parent_id is not None and node.parent_id in by_id:
                node = by_id[node.parent_id]
                stack.append(node.name)
            self_us = int(round(
                (span.duration - child_time.get(span.span_id, 0.0)) * 1e6))
            if self_us <= 0:
                continue
            key = ";".join(reversed(stack))
            lines[key] = lines.get(key, 0) + self_us
        return "\n".join("%s %d" % (stack, us)
                         for stack, us in sorted(lines.items())) \
            + ("\n" if lines else "")

    def write(self, path: str) -> None:
        """Write the trace by extension: ``*.jsonl`` as JSON lines,
        ``*.folded``/``*.collapsed`` as flamegraph stacks, else Chrome
        ``trace_event`` JSON."""
        with open(path, "w") as fh:
            if path.endswith(".jsonl"):
                fh.write(self.to_jsonl())
            elif path.endswith((".folded", ".collapsed")):
                fh.write(self.to_collapsed())
            else:
                json.dump(self.to_chrome_trace(), fh, indent=1, sort_keys=True)
                fh.write("\n")


class _NullSpan:
    """Inert shared span: every operation is a no-op."""

    __slots__ = ()

    def set_attr(self, key: str, value: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: ``span()`` hands back one shared inert object."""

    enabled = False

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def spans(self) -> List[Span]:
        return []

    def now(self) -> float:
        return 0.0

    def record_span(self, name, start, end, parent_id=None,
                    pid=None, tid=None, **attrs) -> None:
        return None

    def ingest(self, span_dicts, parent_id=None) -> None:
        pass


#: Shared no-op tracer instance (the process default).
NULL_TRACER = NullTracer()

_CURRENT: Any = NULL_TRACER


def get_tracer():
    """The process-wide current tracer (:data:`NULL_TRACER` by default)."""
    return _CURRENT


def set_tracer(tracer) -> None:
    """Install ``tracer`` as the process-wide current tracer."""
    global _CURRENT
    _CURRENT = tracer if tracer is not None else NULL_TRACER


@contextmanager
def use_tracer(tracer):
    """Temporarily install a tracer (restores the previous one on exit)."""
    previous = _CURRENT
    set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
