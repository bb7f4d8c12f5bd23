"""Amortized (spread-out) application of adjustments.

Section 4.1 notes that the algorithm may set a clock *backwards* and that
"there are known techniques for stretching a negative adjustment out over the
resynchronization interval".  Monotone local time matters to applications that
timestamp events: a backwards step can make a later event appear earlier.

:class:`AmortizedWelchLynchProcess` implements the standard technique on top
of the basic maintenance algorithm: the per-round adjustment ``ADJ`` computed
by the averaging function is not added to ``CORR`` in one step; instead it is
split into ``steps`` equal slices applied at evenly spaced local times across
a spreading interval (by default half a round).  As long as
``|ADJ| < spread_interval`` the local time remains strictly increasing, and by
the end of the spreading interval the process holds exactly the same logical
clock as the instantaneous variant — so the Theorem 16/19 analysis applies
unchanged from the next round boundary on, at the cost of a slightly larger
transient within the spreading interval (at most ``|ADJ|``, i.e. within the
Theorem 4(a) bound).

Ablation A1 (``tests/integration/test_claims_ablations.py``) compares it with
immediate application of negative adjustments.
"""

from __future__ import annotations

from typing import Optional

from ..sim.process import ProcessContext
from .averaging import AveragingFunction
from .config import SyncParameters
from .maintenance import Phase, WelchLynchProcess

__all__ = ["AmortizedWelchLynchProcess"]

#: timer payload tag for one amortization slice.
_SLICE = "amortize-slice"


class AmortizedWelchLynchProcess(WelchLynchProcess):
    """Maintenance algorithm whose adjustments are spread over an interval.

    Parameters
    ----------
    params:
        The usual algorithm constants.
    steps:
        Number of equal slices each adjustment is divided into (>= 1; 1 is the
        instantaneous behaviour of the base class).
    spread_fraction:
        Fraction of the round length over which the slices are spread
        (0 < spread_fraction <= 1; default one half, leaving the second half
        of the round "clean" before the next broadcast).
    """

    def __init__(
        self,
        params: SyncParameters,
        steps: int = 8,
        spread_fraction: float = 0.5,
        averaging: Optional[AveragingFunction] = None,
        max_rounds: Optional[int] = None,
    ):
        if steps < 1:
            raise ValueError("steps must be at least 1")
        if not 0 < spread_fraction <= 1:
            raise ValueError("spread_fraction must be in (0, 1]")
        super().__init__(params, averaging=averaging, max_rounds=max_rounds)
        self.steps = int(steps)
        self.spread_fraction = float(spread_fraction)
        #: total adjustment applied in slices so far (for tests/metrics).
        self.amortized_total = 0.0

    # -- spreading machinery ----------------------------------------------------
    def spread_interval(self) -> float:
        """Local-time length over which each adjustment is spread."""
        return self.params.round_length * self.spread_fraction

    def is_monotone_for(self, adjustment: float) -> bool:
        """Whether spreading keeps local time increasing for this adjustment.

        Each slice of size ``adjustment/steps`` is applied after a gap of
        ``spread_interval/steps`` of local time, so monotonicity needs the
        slice magnitude to stay below the gap.
        """
        return abs(adjustment) / self.steps < self.spread_interval() / self.steps

    def _apply_adjustment(self, ctx: ProcessContext, adjustment: float) -> None:
        """Schedule ``adjustment`` as ``steps`` slices over the spreading interval.

        The first slice is applied immediately (mirroring the base class's
        bookkeeping instant); the rest are timers tagged with the slice size.
        """
        slice_size = adjustment / self.steps
        ctx.adjust_correction(slice_size, round_index=self.round_index)
        self.amortized_total += slice_size
        gap = self.spread_interval() / self.steps
        next_time = ctx.local_time()
        for _ in range(self.steps - 1):
            next_time += gap
            ctx.set_timer(next_time, payload=(_SLICE, slice_size, self.round_index))

    # -- overridden round machinery ------------------------------------------------
    def _update_phase(self, ctx: ProcessContext) -> None:
        """Compute the adjustment as usual but apply it in slices."""
        values = self._collected_values(ctx)
        average = self.averaging.average(values, self.params.f)
        adjustment = self.round_time + self.params.delta - average
        self.last_average = average
        self.last_adjustment = adjustment
        ctx.log("update", round_index=self.round_index, average=average,
                adjustment=adjustment, round_time=self.round_time,
                local_time=ctx.local_time(), amortized=True, steps=self.steps)
        self._apply_adjustment(ctx, adjustment)
        self.round_index += 1
        self.round_time += self.params.round_length
        self.flag = Phase.BCAST
        if self.max_rounds is None or self.round_index < self.max_rounds:
            self._schedule_next_round(ctx)

    def on_timer(self, ctx: ProcessContext, payload=None) -> None:
        if isinstance(payload, tuple) and payload and payload[0] == _SLICE:
            _tag, slice_size, round_index = payload
            ctx.adjust_correction(slice_size, round_index=round_index)
            self.amortized_total += slice_size
            return
        super().on_timer(ctx, payload)

    def label(self) -> str:
        return (f"AmortizedWelchLynch(steps={self.steps}, "
                f"spread={self.spread_fraction})")
