"""Marzullo's interval-intersection time service [M].

Section 10: each process maintains an upper bound on the error of its clock,
which defines an interval guaranteed to contain the correct real time.
Periodically it obtains intervals from its neighbours and intersects them —
more precisely it computes the smallest interval consistent with the largest
number of sources (tolerating up to ``f`` of them lying), widening received
intervals by the delay uncertainty.

The classic intersection routine (:func:`marzullo_intersection`) scans the
interval endpoints and returns the region covered by at least ``m`` of the
``n`` intervals.  The process then adopts the midpoint of that region and
shrinks its error bound to the region's half-width (never below the floor set
by the delay uncertainty).

Because the original analysis is probabilistic, Section 10 declines to give a
closed-form agreement figure; the E8 comparison (``repro compare`` and
``tests/integration/test_claims_comparison.py``) reports the measured one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.config import SyncParameters
from ..sim.process import Process, ProcessContext

__all__ = ["IntervalMessage", "MarzulloProcess", "marzullo_intersection"]


@dataclass(frozen=True)
class IntervalMessage:
    """A clock reading together with the sender's error bound."""

    value: float
    error: float


def marzullo_intersection(intervals: List[Tuple[float, float]],
                          required: int) -> Optional[Tuple[float, float]]:
    """The region covered by at least ``required`` of the given intervals.

    Returns the (lo, hi) of the *first maximal* region with coverage >=
    ``required`` (sweeping endpoints left to right), or ``None`` when no point
    is covered by that many intervals.  This is Marzullo's original endpoint
    sweep: +1 at each interval start, −1 at each end.
    """
    if required <= 0:
        raise ValueError("required coverage must be positive")
    endpoints: List[Tuple[float, int]] = []
    for lo, hi in intervals:
        if hi < lo:
            raise ValueError(f"malformed interval ({lo}, {hi})")
        endpoints.append((lo, +1))
        endpoints.append((hi, -1))
    # Starts before ends at the same coordinate so touching intervals count.
    endpoints.sort(key=lambda pair: (pair[0], -pair[1]))
    best: Optional[Tuple[float, float]] = None
    best_coverage = 0
    coverage = 0
    region_start = None
    for coordinate, delta in endpoints:
        previous = coverage
        coverage += delta
        if coverage >= required and previous < required:
            region_start = coordinate
        elif coverage < required and previous >= required and region_start is not None:
            if previous > best_coverage:
                best_coverage = previous
                best = (region_start, coordinate)
            region_start = None
    return best


class MarzulloProcess(Process):
    """One participant in the interval-intersection synchronization service."""

    def __init__(self, params: SyncParameters, initial_error: Optional[float] = None,
                 max_rounds: Optional[int] = None):
        self.params = params
        self.max_rounds = max_rounds
        self.error = (float(initial_error) if initial_error is not None
                      else params.beta + params.epsilon)
        self.round_time = params.initial_round_time
        self.round_index = 0
        self.collecting = False
        self.intervals: Dict[int, Tuple[float, float]] = {}
        self.last_adjustment: Optional[float] = None

    # -- interrupt handlers ---------------------------------------------------------
    def on_start(self, ctx: ProcessContext) -> None:
        self._broadcast_phase(ctx)

    def on_timer(self, ctx: ProcessContext, payload=None) -> None:
        if self.collecting:
            self._update_phase(ctx)
        else:
            self._broadcast_phase(ctx)

    def on_message(self, ctx: ProcessContext, sender: int, payload) -> None:
        if not isinstance(payload, IntervalMessage) or not self.collecting:
            return
        # Convert the sender's reading into an interval for *our* local time
        # axis: their value, advanced by the nominal delay, should match our
        # local time now, up to their error plus the delay uncertainty.
        now = ctx.local_time()
        offset = payload.value + self.params.delta - now
        radius = payload.error + self.params.epsilon
        self.intervals[sender] = (offset - radius, offset + radius)

    # -- phases -------------------------------------------------------------------------
    def _broadcast_phase(self, ctx: ProcessContext) -> None:
        self.intervals = {ctx.process_id: (-self.error, self.error)}
        ctx.broadcast(IntervalMessage(value=ctx.local_time(), error=self.error))
        self.collecting = True
        ctx.set_timer(self.round_time + self.params.collection_window())
        ctx.log("broadcast", round_index=self.round_index, error=self.error,
                local_time=ctx.local_time())

    def _update_phase(self, ctx: ProcessContext) -> None:
        required = max(1, ctx.n - self.params.f)
        region = marzullo_intersection(list(self.intervals.values()), required)
        if region is None:
            adjustment = 0.0
        else:
            lo, hi = region
            adjustment = (lo + hi) / 2.0
            floor = self.params.epsilon
            self.error = max((hi - lo) / 2.0 + self.params.rho * self.params.round_length,
                             floor)
        ctx.adjust_correction(adjustment, round_index=self.round_index)
        self.last_adjustment = adjustment
        ctx.log("update", round_index=self.round_index, adjustment=adjustment,
                error=self.error, local_time=ctx.local_time())
        self.collecting = False
        self.round_index += 1
        self.round_time += self.params.round_length
        if self.max_rounds is None or self.round_index < self.max_rounds:
            if not ctx.set_timer(self.round_time):
                ctx.log("missed_round", round_index=self.round_index)

    def label(self) -> str:
        return "Marzullo"
