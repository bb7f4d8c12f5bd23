"""Streaming (online) forms of the metrics engine — O(n) memory per observer.

The batch metrics in :mod:`repro.analysis.metrics` need a finished
:class:`~repro.sim.trace.ExecutionTrace`; these observers compute the same
quantities *while the run happens*, from nothing but per-process
last-correction state:

* :class:`OnlineSkew` — the running agreement/skew envelope over a sample
  grid (``max_skew`` equals :meth:`ExecutionTrace.max_skew` on that grid);
* :class:`OnlineValidity` — the Theorem 19 envelope check plus long-run rate
  estimates (``report()`` equals :func:`~repro.analysis.metrics.validity_report`);
* :class:`OnlineDivergence` — per-partition centroid divergence
  (``series()`` equals :func:`~repro.analysis.metrics.divergence_series`).

**Why this is exact, not approximate.**  A local time is
``L_p(t) = Ph_p(t) + CORR_p(t)``: the physical clock is a pure function of
``t``, so the only run-dependent input is the correction in force at ``t``.
The simulator delivers interrupts in nondecreasing real-time order, which
means that once a correction is applied at real time ``tc``, no process can
ever apply a correction at a time earlier than ``tc``.  Each observer holds
the grid of sample times and a cursor: whenever a correction arrives at
``tc``, every pending grid point strictly before ``tc`` is *final* and gets
evaluated with the current per-process corrections; the end-of-run
``on_advance`` flushes the rest.  The arithmetic mirrors
:mod:`repro.sim.traceindex` operation for operation (linear-clock fast form
``(offset + rate*t) + CORR``, ``clock.read(t) + CORR`` fallback), so every
float produced here is bit-identical to the batch path — a guarantee the
hypothesis suite enforces on both the numpy and pure-python backends.

Memory: O(n) state (one correction per process) plus O(1) accumulators —
series retention is opt-in.  This is what makes ``record_trace=False``
long-horizon runs possible: million-event horizons stream through the
observers without ever materializing a trace.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from ..core.bounds import validity_envelope
from ..core.config import SyncParameters
from ..sim.observers import Observer
from ..sim.recording import NetworkRecorder
from ..sim.traceindex import _linear_form
from .metrics import ValidityReport, sample_grid

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..sim.system import System

__all__ = [
    "OnlineSkew",
    "OnlineValidity",
    "OnlineDivergence",
    "ONLINE_OBSERVER_NAMES",
    "audit_window",
    "build_observers",
]

#: observer names the runner/CLI ``--observe`` vocabulary accepts.
ONLINE_OBSERVER_NAMES = ("skew", "validity", "network")

#: flush-point tags: ordinary grid samples vs rate-estimate capture times.
_GRID, _CAPTURE = 0, 1


class _GridObserver(Observer):
    """Shared machinery: finalize grid points as real time passes them.

    Subclasses implement :meth:`_emit`, called exactly once per flush point
    in time order, when every process' correction at that point is final.
    """

    def __init__(self, points: Sequence[Tuple[float, int]],
                 pids: Optional[Sequence[int]] = None):
        ordered = list(points)
        if any(b[0] < a[0] for a, b in zip(ordered, ordered[1:])):
            raise ValueError("flush points must be sorted by time")
        self._points = ordered
        self._cursor = 0
        self._pids: Optional[List[int]] = list(pids) if pids is not None else None
        self._corr: Dict[int, float] = {}
        self._linear: Dict[int, Optional[Tuple[float, float]]] = {}
        self._clocks: Dict[int, object] = {}

    # -- pipeline hooks ------------------------------------------------------
    def on_attach(self, system: "System") -> None:
        ids = sorted(system.processes)
        if self._pids is None:
            faulty = set(system.faulty_ids())
            self._pids = [pid for pid in ids if pid not in faulty]
        for pid in ids:
            clock = system.clock_of(pid)
            self._clocks[pid] = clock
            self._linear[pid] = _linear_form(clock)
            self._corr[pid] = system.correction_history(pid).current()

    def on_correction(self, pid: int, real_time: float, adjustment: float,
                      new_correction: float, round_index: int) -> None:
        # Everything strictly before this correction is final; the point at
        # exactly ``real_time`` must wait (a later correction may share it).
        points = self._points
        cursor = self._cursor
        while cursor < len(points) and points[cursor][0] < real_time:
            self._emit(*points[cursor])
            cursor += 1
        self._cursor = cursor
        self._corr[pid] = new_correction

    def on_advance(self, time: float) -> None:
        points = self._points
        cursor = self._cursor
        while cursor < len(points) and points[cursor][0] <= time:
            self._emit(*points[cursor])
            cursor += 1
        self._cursor = cursor

    def on_finalize(self) -> None:
        # Flush everything left: grid endpoints can land an ulp past the
        # final on_advance time, but corrections are final once the run ends.
        points = self._points
        cursor = self._cursor
        while cursor < len(points):
            self._emit(*points[cursor])
            cursor += 1
        self._cursor = cursor

    def _restore_clock_state(self, clocks: Dict[int, object],
                             corr: Dict[int, float]) -> None:
        """Install final clock/correction state without a system attach.

        Used by the ``from_batch`` constructors: the round kernel already
        knows every process' clock and final correction, so the observer can
        be brought to its end-of-run state without replaying the run.
        """
        for pid, clock in clocks.items():
            self._clocks[pid] = clock
            self._linear[pid] = _linear_form(clock)
            self._corr[pid] = float(corr[pid])

    def bind_clocks(self, clocks: Dict[int, object],
                    corr: Dict[int, float]) -> None:
        """Attach to a live run that has no :class:`~repro.sim.system.System`.

        The real-socket backend (:mod:`repro.net`) drives observers directly:
        it knows every peer's clock and initial correction up front and then
        feeds :meth:`on_correction` in nondecreasing real-time order (one
        event loop, one monotonic axis), which is exactly the contract
        :meth:`on_attach` + the simulator normally provide.
        """
        self._restore_clock_state(clocks, corr)

    # -- evaluation ----------------------------------------------------------
    def _local_time(self, pid: int, t: float) -> float:
        """``L_p(t)`` via the TraceIndex fast form (bit-identical to batch)."""
        linear = self._linear[pid]
        corr = self._corr[pid]
        if linear is not None:
            offset, rate = linear
            return (offset + rate * t) + corr
        return self._clocks[pid].read(t) + corr

    def _local_time_read(self, pid: int, t: float) -> float:
        """``L_p(t)`` via ``clock.read`` (matches ``ExecutionTrace.local_time``)."""
        return self._clocks[pid].read(t) + self._corr[pid]

    def _emit(self, t: float, tag: int) -> None:
        raise NotImplementedError


class OnlineSkew(_GridObserver):
    """Running agreement: the nonfaulty skew envelope over a sample grid.

    After the run, :attr:`max_skew` equals ``trace.max_skew(grid)`` and
    (with ``keep_series=True``) :meth:`series` equals
    ``trace.skew_series(grid)`` — bit for bit.
    """

    name = "skew"

    def __init__(self, grid: Sequence[float],
                 pids: Optional[Sequence[int]] = None,
                 keep_series: bool = False):
        super().__init__([(t, _GRID) for t in grid], pids)
        self.max_skew = 0.0
        self.samples = 0
        self._series: Optional[List[Tuple[float, float]]] = \
            [] if keep_series else None

    def _emit(self, t: float, tag: int) -> None:
        pids = self._pids
        if len(pids) < 2:
            spread = 0.0
        else:
            values = [self._local_time(pid, t) for pid in pids]
            spread = max(values) - min(values)
        self.samples += 1
        if spread > self.max_skew:
            self.max_skew = spread
        if self._series is not None:
            self._series.append((t, spread))

    def series(self) -> List[Tuple[float, float]]:
        """The (t, skew) samples (requires ``keep_series=True``)."""
        if self._series is None:
            raise RuntimeError("constructed with keep_series=False; only the "
                               "envelope (max_skew) was retained")
        return list(self._series)

    def result(self) -> Dict[str, float]:
        """Summary dict for reporting/export."""
        return {"max_skew": self.max_skew, "samples": self.samples}

    @classmethod
    def from_batch(cls, grid: Sequence[float], pids: Sequence[int],
                   clocks: Dict[int, object], corr: Dict[int, float],
                   max_skew: float, samples: int) -> "OnlineSkew":
        """A finalized observer restored from round-kernel state.

        The round kernel (:mod:`repro.sim.roundengine`) evaluates the
        whole grid as array expressions and rebuilds the observer object the
        serial run would have finished with: cursor exhausted, per-process
        corrections at their final values, ``max_skew``/``samples`` filled.
        """
        observer = cls(grid, pids=pids, keep_series=False)
        observer._restore_clock_state(clocks, corr)
        observer.max_skew = float(max_skew)
        observer.samples = int(samples)
        observer._cursor = len(observer._points)
        return observer


class OnlineValidity(_GridObserver):
    """Streaming Theorem 19 check: envelope violations + long-run rates.

    :meth:`report` equals the batch
    :func:`~repro.analysis.metrics.validity_report` called with the same
    parameters, window and grid.
    """

    name = "validity"

    def __init__(self, params: SyncParameters, tmin0: float, tmax0: float,
                 grid: Sequence[float], start: float, end: float,
                 pids: Optional[Sequence[int]] = None):
        # Rate estimates sample L_p at exactly `start` and `end` (which may
        # differ from the grid's endpoints in the last ulp), so they ride as
        # separate capture points merged into the flush sequence.
        points = sorted(
            [(t, _GRID) for t in grid] + [(float(start), _CAPTURE),
                                          (float(end), _CAPTURE)],
            key=lambda point: point[0])
        super().__init__(points, pids)
        self._params = params
        self._tmin0 = float(tmin0)
        self._tmax0 = float(tmax0)
        self._start = float(start)
        self._end = float(end)
        self.violations = 0
        self.samples = 0
        self._captures: Dict[float, Dict[int, float]] = {}

    def _emit(self, t: float, tag: int) -> None:
        if tag == _CAPTURE:
            self._captures[t] = {pid: self._local_time_read(pid, t)
                                 for pid in self._pids}
            return
        lower, upper = validity_envelope(self._params, t, self._tmin0,
                                         self._tmax0)
        low = lower - 1e-9
        high = upper + 1e-9
        initial = self._params.initial_round_time
        for pid in self._pids:
            elapsed = self._local_time(pid, t) - initial
            self.samples += 1
            if not (low <= elapsed <= high):
                self.violations += 1

    @property
    def holds(self) -> bool:
        return self.violations == 0

    def report(self) -> ValidityReport:
        """The finished :class:`~repro.analysis.metrics.ValidityReport`."""
        start_values = self._captures.get(self._start)
        end_values = self._captures.get(self._end)
        if start_values is None or end_values is None:
            raise RuntimeError(
                "rate capture points not reached yet; report() is available "
                "once the run has advanced past the audit window")
        span = self._end - self._start
        rates = [(end_values[pid] - start_values[pid]) / span
                 for pid in self._pids]
        return ValidityReport.from_counts(self.samples, self.violations, rates)

    def result(self) -> Dict[str, float]:
        report = self.report()
        return {"samples": report.samples, "violations": report.violations,
                "min_rate": report.min_rate, "max_rate": report.max_rate,
                "holds": report.holds}

    @classmethod
    def from_batch(cls, params: SyncParameters, tmin0: float, tmax0: float,
                   grid: Sequence[float], start: float, end: float,
                   pids: Sequence[int], clocks: Dict[int, object],
                   corr: Dict[int, float], violations: int, samples: int,
                   captures: Dict[float, Dict[int, float]]) -> "OnlineValidity":
        """A finalized observer restored from batch-engine state.

        ``captures`` holds the rate-estimate samples keyed by capture time
        (``start`` and ``end``), exactly as :meth:`_emit` would have stored
        them, so :meth:`report` works unchanged.
        """
        observer = cls(params, tmin0, tmax0, grid, start, end, pids=pids)
        observer._restore_clock_state(clocks, corr)
        observer.violations = int(violations)
        observer.samples = int(samples)
        observer._captures = {float(t): dict(values)
                              for t, values in captures.items()}
        observer._cursor = len(observer._points)
        return observer


class OnlineDivergence(_GridObserver):
    """Streaming cross-group centroid divergence (partition experiments).

    With ``keep_series=True``, :meth:`series` equals
    :func:`~repro.analysis.metrics.divergence_series` over the same grid.
    """

    name = "divergence"

    def __init__(self, groups: Sequence[Sequence[int]], grid: Sequence[float],
                 keep_series: bool = False):
        super().__init__([(t, _GRID) for t in grid], pids=None)
        self._groups_raw = [list(group) for group in groups]
        self._groups: List[List[int]] = []
        self.max_divergence = 0.0
        self._series: Optional[List[Tuple[float, float]]] = \
            [] if keep_series else None

    def on_attach(self, system: "System") -> None:
        super().on_attach(system)
        nonfaulty = set(self._pids)
        filtered = [[pid for pid in group if pid in nonfaulty]
                    for group in self._groups_raw]
        self._groups = [group for group in filtered if group]

    def _emit(self, t: float, tag: int) -> None:
        if len(self._groups) < 2:
            spread = 0.0
        else:
            centroids = [sum(self._local_time(pid, t) for pid in group)
                         / len(group) for group in self._groups]
            spread = max(centroids) - min(centroids)
        if spread > self.max_divergence:
            self.max_divergence = spread
        if self._series is not None:
            self._series.append((t, spread))

    def series(self) -> List[Tuple[float, float]]:
        """The (t, divergence) samples (requires ``keep_series=True``)."""
        if self._series is None:
            raise RuntimeError("constructed with keep_series=False; only the "
                               "envelope (max_divergence) was retained")
        return list(self._series)

    def result(self) -> Dict[str, float]:
        return {"max_divergence": self.max_divergence,
                "groups": len(self._groups)}


def audit_window(params: SyncParameters, start_times: Dict[int, float],
                 faulty) -> Tuple[float, float, float]:
    """``(tmin0, tmax0, start)`` of the standard observation window.

    ``tmin0``/``tmax0`` are the earliest/latest nonfaulty START times (0.0
    with no nonfaulty process) and ``start`` — one round after ``tmax0`` —
    is where the audit grids begin.  Shared by :func:`build_observers` and
    the round kernel so both derive identical grids.
    """
    faulty = set(faulty)
    nonfaulty_starts = [t for pid, t in start_times.items()
                        if pid not in faulty]
    tmin0 = min(nonfaulty_starts) if nonfaulty_starts else 0.0
    tmax0 = max(nonfaulty_starts) if nonfaulty_starts else 0.0
    return tmin0, tmax0, tmax0 + params.round_length


def build_observers(names: Sequence[str], system: "System",
                    params: SyncParameters, start_times: Dict[int, float],
                    end_time: float, samples: int = 200,
                    keep_series: bool = False) -> List[Observer]:
    """Instantiate named online observers for one assembled run.

    Uses the same audit window as :func:`check_maintenance_run` — from one
    round after the latest nonfaulty START to the end of the run, 200-sample
    agreement grid, ``max(50, samples // 2)``-sample validity grid — so the
    streaming numbers are directly comparable to the batch audits.
    """
    tmin0, tmax0, start = audit_window(params, start_times,
                                       system.faulty_ids())
    built: List[Observer] = []
    for name in names:
        if name == "skew":
            built.append(OnlineSkew(sample_grid(start, end_time, samples),
                                    keep_series=keep_series))
        elif name == "validity":
            built.append(OnlineValidity(
                params, tmin0, tmax0,
                sample_grid(start, end_time, max(50, samples // 2)),
                start, end_time))
        elif name == "network":
            built.append(NetworkRecorder())
        else:
            raise ValueError(f"unknown online observer {name!r}; choose from "
                             f"{', '.join(ONLINE_OBSERVER_NAMES)}")
    return built
