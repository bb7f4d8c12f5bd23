"""In-memory span recorder for the benchmark's traced run.

A span is one call across a layer boundary: its name, start, end, the id of
the span that was open when it began (its parent) and the id of the traced
run it belongs to.  The open span is tracked in a :mod:`contextvars`
variable, so concurrent asyncio tasks (the ``net`` peers) each nest under
their own parent instead of under whichever task last opened a span.

A span's *self time* is its duration minus the part of that interval its
child spans cover.  Children of concurrent tasks can overlap, so the covered
part is the length of the union of the child intervals, clipped to the
parent.  Spans are kept in memory and exported once, as Chrome trace-event
JSON (``chrome://tracing`` / Perfetto).
"""

from __future__ import annotations

import asyncio
import contextvars
import itertools
import os
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

__all__ = ["Span", "Recorder", "covered", "chrome_events"]

_OPEN: "contextvars.ContextVar[Optional[Span]]" = contextvars.ContextVar(
    "bench_open_span", default=None)


def covered(intervals: Iterable[Tuple[float, float]], lo: float,
            hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


class Span:
    """One recorded layer call."""

    __slots__ = ("id", "name", "start", "end", "parent", "run", "lane",
                 "children", "self_s")

    def __init__(self, span_id: int, name: str, start: float,
                 parent: Optional["Span"], run: str, lane: int):
        self.id = span_id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.run = run
        self.lane = lane
        self.children: List[Tuple[float, float]] = []
        self.self_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _lane() -> int:
    """The asyncio task running this code (0 outside an event loop)."""
    try:
        task = asyncio.current_task()
    except RuntimeError:
        return 0
    return id(task) if task is not None else 0


class Recorder:
    """Records spans for one traced run.

    ``forward(name, self_s)`` (optional) receives every span that closes in
    a process other than the one that created the recorder — a forked pool
    worker, whose in-memory spans the parent never sees.
    """

    def __init__(self, run: str, clock: Callable[[], float] = time.perf_counter,
                 forward: Optional[Callable[[str, float], None]] = None):
        self.run = run
        self.clock = clock
        self.forward = forward
        self.pid = os.getpid()
        self.origin = clock()
        self.spans: List[Span] = []
        self._ids = itertools.count(1)

    def open(self, name: str, current: bool = True):
        """Start a span; returns ``(span, token)`` for :meth:`close`.

        ``current=False`` records the span without making it the parent of
        spans opened after it (used for generator lifetimes, whose consumer
        runs between yields).
        """
        span = Span(next(self._ids), name, self.clock(), _OPEN.get(), self.run,
                    _lane())
        token = _OPEN.set(span) if current else None
        return span, token

    def close(self, span: Span, token) -> None:
        span.end = self.clock()
        if token is not None:
            _OPEN.reset(token)
        span.self_s = span.duration - covered(span.children, span.start,
                                              span.end)
        if span.parent is not None:
            span.parent.children.append((span.start, span.end))
        if os.getpid() != self.pid:
            if self.forward is not None:
                self.forward(span.name, span.self_s)
            return
        self.spans.append(span)

    def totals(self) -> Dict[str, Tuple[int, float]]:
        """``name -> (calls, summed self time)`` over the recorded spans."""
        out: Dict[str, Tuple[int, float]] = {}
        for span in self.spans:
            calls, seconds = out.get(span.name, (0, 0.0))
            out[span.name] = (calls + 1, seconds + span.self_s)
        return out

    def union(self, name: str) -> float:
        """Wall time covered by the spans of one name (merging overlaps)."""
        intervals = [(s.start, s.end) for s in self.spans if s.name == name]
        if not intervals:
            return 0.0
        return covered(intervals, min(lo for lo, _ in intervals),
                       max(hi for _, hi in intervals))


def chrome_events(recorder: Recorder, pid: int) -> List[Dict[str, object]]:
    """The recorder's spans as Chrome trace events of process ``pid``.

    Each asyncio task gets its own thread row, so concurrent peers' spans
    do not render as if nested in one another.
    """
    lanes: Dict[int, int] = {}
    events = []
    for span in recorder.spans:
        events.append({
            "name": span.name, "ph": "X", "pid": pid,
            "tid": lanes.setdefault(span.lane, len(lanes)),
            "ts": (span.start - recorder.origin) * 1e6,
            "dur": span.duration * 1e6,
            "args": {"id": span.id,
                     "parent": span.parent.id if span.parent else None,
                     "run": span.run, "self_us": span.self_s * 1e6},
        })
    return events
