"""Execution traces: everything the analysis layer needs from a run.

A trace captures, for every process, the physical clock and the full history
of its CORR variable (so local time ``L_p(t)`` and every logical clock
``C^i_p`` can be reconstructed for arbitrary real times after the run), plus
message statistics and the algorithm-level events the processes chose to log.

Traces produced by :meth:`repro.sim.system.System.trace` are *shared views*:
they reference the system's live clocks, histories, and event log instead of
deep-copying them (the copy made ``run_until`` O(events) per call).  The
``faulty_ids`` set is still snapshotted at trace-creation time.  Construct
with ``copy=True`` (the default) to get the old isolated-snapshot behavior.

Recording a trace is itself just the default observer of the streaming
pipeline (:mod:`repro.sim.observers`).  A system built with
``record_trace=False`` still hands out traces, but they are *lightweight*:
the event log stays empty and the correction histories are bounded to their
recent tail, so batch metrics over such a trace only see the trim horizon —
use the online observers (:mod:`repro.analysis.online`) for metrics on
no-trace runs.

Reconstruction queries (``local_time``, ``skew_series``, ``max_skew``) run on
a lazily built :class:`~repro.sim.traceindex.TraceIndex` — precomputed
per-process breakpoint arrays evaluated in one merged sweep per grid, with an
optional numpy path — and are guaranteed bit-identical to the naive
per-sample reconstruction (the fast-path equivalence tests keep it as their
oracle, ``tests/slowpath.py``).

The event log is an :class:`EventLog` of four columns; :class:`TraceEvent`
objects are built only when a reader asks.  Results cross the pool's pipes
and the store as pickles: :meth:`ExecutionTrace.__reduce__` sends the four
columns and the clocks and histories dicts as they are (so pickle keeps
their sharing with online observers), but not the ``TraceIndex``.  Stored
payloads name the reconstructor, ``_trace_from_columns``; renaming it would
turn every stored result into a corrupt miss.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import (Any, Dict, Iterable, List, NamedTuple, Optional, Sequence,
                    Tuple)

from ..clocks.base import Clock
from ..clocks.logical import CorrectionHistory, LogicalClockView
from .traceindex import TraceIndex

__all__ = ["TraceEvent", "MessageStats", "ExecutionTrace"]


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """An algorithm-level event logged via ``ctx.log``."""

    real_time: float
    process_id: int
    name: str
    data: Dict[str, Any]


class EventLog(NamedTuple):
    """The event log as columns in :class:`TraceEvent` field order."""

    real_times: List[float]
    process_ids: List[int]
    names: List[str]
    data: List[Dict[str, Any]]

    def append(self, real_time: float, process_id: int, name: str,
               data: Dict[str, Any]) -> None:
        self.real_times.append(real_time)
        self.process_ids.append(process_id)
        self.names.append(name)
        self.data.append(data)


@dataclass
class MessageStats:
    """Counters describing message traffic during a run."""

    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    #: messages that traversed at least one intermediate relay hop.
    relayed: int = 0
    #: messages dropped because no route existed at send time (partition).
    unroutable: int = 0
    timers_set: int = 0
    timers_fired: int = 0
    per_process_sent: Dict[int, int] = field(default_factory=Counter)

    def __post_init__(self) -> None:
        # Callers may pass a plain dict; normalize so record_send can rely on
        # Counter's missing-key-is-zero behaviour.
        if not isinstance(self.per_process_sent, Counter):
            self.per_process_sent = Counter(self.per_process_sent)

    def record_send(self, sender: int, count: int = 1) -> None:
        self.sent += count
        self.per_process_sent[sender] += count

    def as_dict(self) -> Dict[str, int]:
        """The scalar counters as a plain dict (for manifests and telemetry)."""
        return {"sent": self.sent, "delivered": self.delivered,
                "dropped": self.dropped, "relayed": self.relayed,
                "unroutable": self.unroutable, "timers_set": self.timers_set,
                "timers_fired": self.timers_fired}


class ExecutionTrace:
    """Immutable-ish view over the results of a simulation run."""

    __slots__ = ("_clocks", "_histories", "_faulty", "_log", "_stats",
                 "_end_time", "_nonfaulty", "_index")

    def __init__(
        self,
        clocks: Dict[int, Clock],
        histories: Dict[int, CorrectionHistory],
        faulty_ids: Iterable[int],
        events: Iterable[TraceEvent],
        stats: MessageStats,
        end_time: float,
        copy: bool = True,
    ):
        self._clocks = dict(clocks) if copy else clocks
        self._histories = dict(histories) if copy else histories
        self._faulty = frozenset(faulty_ids)
        self._log = EventLog([], [], [], [])
        for event in events:
            self._log.append(event.real_time, event.process_id, event.name,
                             event.data)
        self._stats = stats
        self._end_time = end_time
        self._nonfaulty: Optional[List[int]] = None
        self._index: Optional[TraceIndex] = None

    # -- basic accessors -------------------------------------------------------
    @property
    def n(self) -> int:
        return len(self._clocks)

    @property
    def end_time(self) -> float:
        """Real time at which the run stopped."""
        return self._end_time

    @property
    def faulty_ids(self) -> frozenset:
        return self._faulty

    @property
    def nonfaulty_ids(self) -> List[int]:
        return list(self._nonfaulty_cached())

    def _nonfaulty_cached(self) -> List[int]:
        """The sorted nonfaulty ids, computed once (do not mutate)."""
        if self._nonfaulty is None:
            self._nonfaulty = [pid for pid in sorted(self._clocks)
                               if pid not in self._faulty]
        return self._nonfaulty

    @property
    def stats(self) -> MessageStats:
        return self._stats

    @property
    def log(self) -> EventLog:
        """The event log's columns (shared with the run; do not mutate)."""
        return self._log

    @property
    def events(self) -> Sequence[TraceEvent]:
        return tuple(map(TraceEvent, *self._log))

    def events_named(self, name: str,
                     process_id: Optional[int] = None) -> List[TraceEvent]:
        """All logged events with a given name (optionally for one process),
        found in the names column; only the matches become objects."""
        real_times, process_ids, names, data = self._log
        return [TraceEvent(real_times[i], process_ids[i], logged, data[i])
                for i, logged in enumerate(names) if logged == name
                and (process_id is None or process_ids[i] == process_id)]

    # -- clock reconstruction -----------------------------------------------------
    def index(self) -> TraceIndex:
        """The (lazily built, auto-refreshing) batch reconstruction index."""
        if self._index is None or self._index.stale():
            self._index = TraceIndex(self._clocks, self._histories)
        return self._index

    def view(self, process_id: int) -> LogicalClockView:
        """Logical-clock view (physical clock + correction history) of a process."""
        return LogicalClockView(self._clocks[process_id], self._histories[process_id])

    def local_time(self, process_id: int, real_time: float) -> float:
        """``L_p(t)`` for the given process."""
        return (self._clocks[process_id].read(real_time)
                + self._histories[process_id].correction_at(real_time))

    def local_times(self, real_time: float,
                    include_faulty: bool = False) -> Dict[int, float]:
        """Local times of all (by default non-faulty) processes at ``real_time``."""
        ids = sorted(self._clocks) if include_faulty else self._nonfaulty_cached()
        return {pid: self.local_time(pid, real_time) for pid in ids}

    def adjustments(self, process_id: int) -> List[float]:
        """The per-round adjustments applied by a process."""
        return self._histories[process_id].adjustments

    def correction_history(self, process_id: int) -> CorrectionHistory:
        return self._histories[process_id]

    # -- convenience metrics (the heavier ones live in repro.analysis) -------------
    def skew(self, real_time: float) -> float:
        """Maximum difference between non-faulty local times at ``real_time``."""
        pids = self._nonfaulty_cached()
        if len(pids) < 2:
            return 0.0
        values = [self.local_time(pid, real_time) for pid in pids]
        return max(values) - min(values)

    def skew_series(self, times: Sequence[float]) -> List[Tuple[float, float]]:
        """(real time, skew) samples over a grid of real times."""
        return self.index().skew_series(self._nonfaulty_cached(), times)

    def max_skew(self, times: Sequence[float]) -> float:
        """Maximum skew over the sample grid."""
        if not times:
            return 0.0
        return self.index().max_skew(self._nonfaulty_cached(), times)

    # -- adversarial transforms ----------------------------------------------------
    def shifted(self, shifts) -> "ExecutionTrace":
        """This execution retimed by a per-process real-time shift vector.

        The executable form of the paper's lower-bound argument: clocks,
        correction histories and the event log all move by each process's
        shift while local views stay indistinguishable.  ``shifts`` is a
        pid → offset mapping (missing pids shift by 0) or a sequence with one
        entry per process.  See :mod:`repro.adversary.shifting` for the
        admissibility and indistinguishability checkers.
        """
        from ..adversary.shifting import shift_execution
        return shift_execution(self, shifts).trace

    # -- pickling (see the module docstring) ----------------------------------------
    def __reduce__(self):
        return (_trace_from_columns, (
            self._clocks, self._histories, self._faulty, *self._log,
            self._stats, self._end_time))

    def __setstate__(self, state) -> None:
        # A payload pickled before __reduce__ existed (default slot state).
        slots = state[1]
        self.__init__(slots["_clocks"], slots["_histories"], slots["_faulty"],
                      slots["_events"], slots["_stats"], slots["_end_time"],
                      copy=False)


def _trace_from_columns(clocks, histories, faulty_ids, real_times, process_ids,
                        names, data, stats, end_time) -> ExecutionTrace:
    """A trace sharing the given dicts and log columns (the unpickler of
    :meth:`ExecutionTrace.__reduce__`; ``System.trace`` and shifts use it).

    Stored payloads name this function: renaming or moving it turns every
    stored result into a corrupt miss.
    """
    trace = ExecutionTrace(clocks, histories, faulty_ids, (), stats, end_time,
                           copy=False)
    trace._log = EventLog(real_times, process_ids, names, data)
    return trace
