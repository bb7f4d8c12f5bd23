"""Phase tracing: lightweight nested spans with Chrome trace-event export.

A :class:`Tracer` records *spans* — named wall-clock intervals with optional
key/value arguments — via a context manager::

    with tracer.span("sync_round", k=3):
        ...

Spans nest naturally (a per-thread stack tracks depth and parent), cost two
``perf_counter`` calls plus one list append each, and never touch simulated
time or RNG state.  Two export formats:

* :meth:`Tracer.chrome_trace` — the Chrome trace-event JSON format
  (``"ph": "X"`` complete events, microsecond timestamps), loadable in
  ``chrome://tracing`` or https://ui.perfetto.dev;
* :meth:`Tracer.tree` — a plain-text indentation tree with durations, for
  terminals and logs.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional

__all__ = ["SpanRecord", "Tracer"]


class SpanRecord:
    """One completed span: name, interval, nesting depth, arguments."""

    __slots__ = ("name", "start", "duration", "depth", "args")

    def __init__(self, name: str, start: float, duration: float,
                 depth: int, args: Optional[Dict[str, Any]]):
        self.name = name
        self.start = start
        self.duration = duration
        self.depth = depth
        self.args = args

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SpanRecord({self.name!r}, start={self.start:.6f}, "
                f"dur={self.duration:.6f}, depth={self.depth})")


class Tracer:
    """Collects nested spans against a process-local ``perf_counter`` origin."""

    def __init__(self) -> None:
        self._origin = perf_counter()
        self._records: List[SpanRecord] = []
        self._depth = 0

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> List[SpanRecord]:
        return list(self._records)

    @contextmanager
    def span(self, name: str, **args: Any) -> Iterator[None]:
        """Record a span around the wrapped block (exceptions still close it)."""
        depth = self._depth
        self._depth = depth + 1
        start = perf_counter() - self._origin
        try:
            yield
        finally:
            duration = perf_counter() - self._origin - start
            self._depth = depth
            self._records.append(
                SpanRecord(name, start, duration, depth, args or None))

    # -- Chrome trace-event export -------------------------------------------
    def chrome_events(self) -> List[Dict[str, Any]]:
        """Trace events in the Chrome trace-event dict form (µs timestamps)."""
        pid = os.getpid()
        events: List[Dict[str, Any]] = []
        for record in self._records:
            event: Dict[str, Any] = {
                "name": record.name,
                "ph": "X",
                "ts": round(record.start * 1e6, 3),
                "dur": round(record.duration * 1e6, 3),
                "pid": pid,
                "tid": pid,
                "cat": "repro",
            }
            if record.args:
                event["args"] = {key: _jsonable(value)
                                 for key, value in record.args.items()}
            events.append(event)
        return events

    def chrome_trace(self) -> Dict[str, Any]:
        """The full Chrome trace JSON object (``{"traceEvents": [...]}``)."""
        return {"traceEvents": self.chrome_events(),
                "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle)
            handle.write("\n")

    # -- plain-text tree -------------------------------------------------------
    def tree(self, min_duration: float = 0.0) -> str:
        """An indentation tree of spans with durations.

        Spans are listed in completion order re-sorted by start time, which —
        because children complete before parents but start after them —
        reconstructs the call tree from the flat record list.
        """
        records = sorted(
            (r for r in self._records if r.duration >= min_duration),
            key=lambda r: (r.start, -r.depth))
        if not records:
            return "(no spans recorded)"
        lines = []
        for record in records:
            label = record.name
            if record.args:
                inner = ", ".join(f"{key}={value}"
                                  for key, value in record.args.items())
                label = f"{label}({inner})"
            lines.append(f"{'  ' * record.depth}{label:<{48 - 2 * record.depth}}"
                         f" {record.duration * 1e3:10.3f} ms")
        return "\n".join(lines)


def _jsonable(value: Any) -> Any:
    """Coerce a span argument to something json.dump accepts."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)
