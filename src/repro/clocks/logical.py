"""Logical clocks: physical clock + correction variable (Section 3.2).

A process obtains its *local time* by adding the value of its correction
variable ``CORR`` to its read-only physical clock: ``L_p = Ph_p + CORR_p``.
Each adjustment of ``CORR`` switches the process to a new *logical clock*
``C^{i+1} = C^i + ADJ^i``.  The local time is therefore a piecewise function
whose pieces are logical clocks.

:class:`CorrectionHistory` records the sequence of corrections applied during
an execution (with the real times at which they were applied) so that the
analysis code can reconstruct ``L_p(t)`` for any ``t``, enumerate the logical
clocks ``C^i_p``, and measure per-round adjustments.

:class:`AmortizedCorrection` implements the "known technique for stretching a
negative adjustment out over the resynchronization interval" mentioned in
Section 4.1, so local time never jumps backwards: the adjustment is applied
gradually over a spreading interval at a bounded extra rate.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .base import Clock

__all__ = [
    "CorrectionEvent",
    "CorrectionHistory",
    "LogicalClockView",
    "AmortizedCorrection",
]


@dataclass(frozen=True, slots=True)
class CorrectionEvent:
    """One update of the CORR variable.

    ``real_time`` is when the update happened, ``adjustment`` the delta added
    to CORR, ``new_correction`` the resulting CORR value, and ``round_index``
    the algorithm round that produced it (``-1`` for the initial value).
    """

    real_time: float
    adjustment: float
    new_correction: float
    round_index: int = -1


class CorrectionHistory:
    """The full CORR_p(t) history of one process during an execution.

    Each CORR update is one entry of four parallel columns (real time,
    adjustment, resulting CORR, round index; entry 0 is the -inf sentinel).
    :attr:`times` / :attr:`corrections` / :attr:`rounds` expose three of them
    read-only, for ``correction_at`` (one ``bisect``: the package's hottest
    lookup) and column readers such as :mod:`repro.sim.traceindex`;
    :attr:`events` builds :class:`CorrectionEvent` objects only on request.
    """

    __slots__ = ("_times", "_adjustments", "_corrections", "_rounds",
                 "_initial", "_max_entries")

    def __init__(self, initial_correction: float = 0.0,
                 max_entries: Optional[int] = None):
        initial = float(initial_correction)
        self._initial = initial
        if max_entries is not None and max_entries < 2:
            raise ValueError("max_entries must be at least 2 (sentinel + "
                             "latest breakpoint)")
        self._max_entries = max_entries
        self._times: List[float] = [float("-inf")]
        self._adjustments: List[float] = [0.0]
        self._corrections: List[float] = [initial]
        self._rounds: List[int] = [-1]

    @classmethod
    def from_breakpoints(cls, horizon: float, times: Sequence[float],
                         adjustments: Sequence[float],
                         corrections: Sequence[float], rounds: Sequence[int],
                         max_entries: Optional[int] = None
                         ) -> "CorrectionHistory":
        """The history a run of ``apply`` calls from CORR = 0 leaves, built
        from only the breakpoints it retains.

        Breakpoint ``i`` is one ``apply(times[i], adjustments[i],
        rounds[i])`` and its result ``corrections[i]``, in real-time order.
        ``horizon`` is the CORR in force just before the first of them: the
        value the -inf sentinel holds once older breakpoints were trimmed
        (0.0 when none were).  The synthetic initial event keeps CORR = 0,
        as trimming leaves it.  Nothing is re-added, so an array engine that
        kept its running CORR sums hands over the serial bits.  More
        breakpoints than ``max_entries`` allows are trimmed as ``apply``
        would trim them.
        """
        history = cls(max_entries=max_entries)
        history._corrections[0] = horizon
        history._times.extend(times)
        history._adjustments.extend(adjustments)
        history._corrections.extend(corrections)
        history._rounds.extend(rounds)
        history._trim()
        return history

    @property
    def initial_correction(self) -> float:
        return self._initial

    @property
    def bounded(self) -> bool:
        """True when old breakpoints are discarded (streaming/no-trace runs)."""
        return self._max_entries is not None

    @property
    def max_entries(self) -> Optional[int]:
        """The breakpoint retention bound (None = keep the full history)."""
        return self._max_entries

    @property
    def events(self) -> Sequence[CorrectionEvent]:
        """All correction events including the synthetic initial one, built
        on each call; that one carries the initial CORR, not a trim horizon."""
        events = list(map(CorrectionEvent, self._times, self._adjustments,
                          self._corrections, self._rounds))
        events[0] = CorrectionEvent(events[0].real_time, 0.0, self._initial, -1)
        return tuple(events)

    @property
    def adjustments(self) -> List[float]:
        """The per-round adjustments (excluding the initial correction)."""
        return self._adjustments[1:]

    @property
    def times(self) -> Sequence[float]:
        """Breakpoint real times (index array; first entry is -inf).

        Shared with the history — callers must not mutate it.
        """
        return self._times

    @property
    def corrections(self) -> Sequence[float]:
        """CORR values per breakpoint, parallel to :attr:`times` (read-only)."""
        return self._corrections

    @property
    def rounds(self) -> Sequence[int]:
        """Round index per breakpoint, parallel to :attr:`times` (read-only)."""
        return self._rounds

    def current(self) -> float:
        """The most recent CORR value."""
        return self._corrections[-1]

    def shifted(self, shift: float) -> "CorrectionHistory":
        """This history with every breakpoint ``shift`` later in real time;
        every other column (the trim horizon included) is kept as it is."""
        times = [time + shift for time in self._times]
        corrections = list(self._corrections)
        return _history_from_columns(
            self._initial, self._max_entries, times, corrections, times,
            list(self._adjustments), corrections, list(self._rounds))

    def apply(self, real_time: float, adjustment: float, round_index: int) -> float:
        """Record ``CORR := CORR + adjustment`` at ``real_time``; returns new CORR."""
        real_time = float(real_time)
        if real_time < self._times[-1]:
            raise ValueError(
                f"corrections must be recorded in real-time order; "
                f"{real_time} < {self._times[-1]}"
            )
        adjustment = float(adjustment)
        new_corr = self._corrections[-1] + adjustment
        self._times.append(real_time)
        self._adjustments.append(adjustment)
        self._corrections.append(new_corr)
        self._rounds.append(round_index)
        self._trim()
        return new_corr

    def _trim(self) -> None:
        """Streaming mode: forget the oldest breakpoints beyond the bound.

        The -inf sentinel inherits the correction in force just before the
        earliest retained breakpoint, so lookups at or after the trim
        horizon stay exact; lookups before it get the horizon value.
        """
        if self._max_entries is not None and len(self._times) > self._max_entries:
            excess = len(self._times) - self._max_entries
            self._corrections[0] = self._corrections[excess]
            for column in (self._times, self._adjustments, self._corrections,
                           self._rounds):
                del column[1:1 + excess]

    def correction_at(self, real_time: float) -> float:
        """CORR_p(t): the correction in force at real time ``t``."""
        index = bisect.bisect_right(self._times, real_time) - 1
        if index < 0:
            index = 0
        return self._corrections[index]

    def correction_for_round(self, round_index: int) -> Optional[float]:
        """CORR value while logical clock ``C^{round_index+1}`` is in force."""
        if round_index not in self._rounds:
            return None
        index = self._rounds.index(round_index)
        return self._corrections[index] if index else self._initial

    def __reduce__(self):
        # The columns as they are, in the layout stored payloads carry (real
        # times and new corrections repeat two columns; pickle writes each
        # list once).  corrections[0] carries a trimmed history's horizon.
        return (_history_from_columns, (
            self._initial, self._max_entries, self._times, self._corrections,
            self._times, self._adjustments, self._corrections, self._rounds))

    def __setstate__(self, state) -> None:
        # A payload pickled before __reduce__ existed (default slot state).
        slots = state[1]
        self._initial = slots["_initial"]
        self._max_entries = slots["_max_entries"]
        self._times = slots["_times"]
        self._corrections = slots["_corrections"]
        self._adjustments = [event.adjustment for event in slots["_events"]]
        self._rounds = [event.round_index for event in slots["_events"]]


def _history_from_columns(initial, max_entries, times, corrections,
                          real_times, adjustments, new_corrections,
                          round_indices) -> CorrectionHistory:
    """Unpickle a :meth:`CorrectionHistory.__reduce__` payload.

    ``real_times`` and ``new_corrections`` repeat two other columns.
    Stored payloads name this function: renaming or moving it turns every
    stored result into a corrupt miss.
    """
    history = CorrectionHistory.__new__(CorrectionHistory)
    history._initial = initial
    history._max_entries = max_entries
    history._times = times
    history._adjustments = adjustments
    history._corrections = corrections
    history._rounds = round_indices
    return history


class LogicalClockView:
    """Read-only view combining a physical clock and a correction history.

    Provides the local time ``L_p(t)`` and the individual logical clocks
    ``C^i_p`` of the paper, for analysis and metric computation.
    """

    __slots__ = ("_physical", "_history")

    def __init__(self, physical_clock: Clock, history: CorrectionHistory):
        self._physical = physical_clock
        self._history = history

    @property
    def physical_clock(self) -> Clock:
        return self._physical

    @property
    def history(self) -> CorrectionHistory:
        return self._history

    def local_time(self, real_time: float) -> float:
        """``L_p(t) = Ph_p(t) + CORR_p(t)``."""
        return self._physical.read(real_time) + self._history.correction_at(real_time)

    def logical_clock_value(self, clock_index: int, real_time: float) -> float:
        """``C^i_p(t)``: physical clock plus the correction of the ``i``-th clock.

        ``clock_index`` 0 denotes the initial logical clock.
        """
        return self._physical.read(real_time) + self._correction(clock_index)

    def logical_clock_inverse(self, clock_index: int, clock_time: float) -> float:
        """``c^i_p(T)``: real time at which logical clock ``i`` reads ``clock_time``."""
        corr = self._correction(clock_index)
        return self._physical.real_time_at(clock_time - corr)

    def number_of_logical_clocks(self) -> int:
        return len(self._history.times)

    def _correction(self, clock_index: int) -> float:
        """The CORR of logical clock ``clock_index``."""
        events = self._history.events
        if not 0 <= clock_index < len(events):
            raise IndexError(
                f"logical clock index {clock_index} out of range (have {len(events)})"
            )
        return events[clock_index].new_correction


class AmortizedCorrection:
    """Spread a (possibly negative) adjustment over an interval of local time.

    Section 4.1 notes that the algorithm may set a clock backwards but that
    "there are known techniques for stretching a negative adjustment out over
    the resynchronization interval".  This class implements that technique:
    instead of applying ``adjustment`` instantaneously at local time ``start``,
    the effective correction ramps linearly from 0 to ``adjustment`` over
    ``spread_interval`` units of (uncorrected) local time.  As long as
    ``|adjustment| < spread_interval`` the amortized local time remains
    strictly increasing.
    """

    def __init__(self, adjustment: float, start_local_time: float,
                 spread_interval: float):
        if spread_interval <= 0:
            raise ValueError("spread_interval must be positive")
        self.adjustment = float(adjustment)
        self.start_local_time = float(start_local_time)
        self.spread_interval = float(spread_interval)

    def effective_offset(self, raw_local_time: float) -> float:
        """The portion of the adjustment in force at ``raw_local_time``."""
        if raw_local_time <= self.start_local_time:
            return 0.0
        if raw_local_time >= self.start_local_time + self.spread_interval:
            return self.adjustment
        fraction = (raw_local_time - self.start_local_time) / self.spread_interval
        return self.adjustment * fraction

    def adjusted_time(self, raw_local_time: float) -> float:
        """Local time with the amortized adjustment applied."""
        return raw_local_time + self.effective_offset(raw_local_time)

    def is_monotone(self) -> bool:
        """True when the amortized clock can never run backwards."""
        return self.adjustment > -self.spread_interval


def apply_amortized_schedule(
    raw_times: Sequence[float], corrections: Sequence[AmortizedCorrection]
) -> List[float]:
    """Apply a sequence of amortized corrections to a series of raw local times.

    Convenience used by the analysis examples; corrections are cumulative.
    """
    adjusted: List[float] = []
    for raw in raw_times:
        total = raw
        for correction in corrections:
            total += correction.effective_offset(raw)
        adjusted.append(total)
    return adjusted
