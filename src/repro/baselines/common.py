"""Shared structure for the round-based comparison algorithms (Section 10).

Most of the algorithms compared in Section 10 share the outer skeleton of the
Welch-Lynch algorithm: a resynchronization round starts when the local clock
reaches ``T^i = T0 + i·P``; the process broadcasts a round message, collects
the other processes' round messages for a bounded window, estimates from the
arrival times how far each other clock is from its own, and applies some
correction.  They differ only in *how the collected estimates are combined*.

:class:`RoundBasedClockSync` implements the skeleton; subclasses override
:meth:`combine` (and, for the non-averaging algorithms, the whole round
machinery).  Arrival-time bookkeeping matches the core algorithm so the
Section 10 comparison (E8, ``tests/integration/test_claims_comparison.py``)
is apples-to-apples.
"""

from __future__ import annotations

import abc
from enum import Enum
from typing import Dict, List, Optional

from ..core.config import SyncParameters
from ..core.messages import RoundMessage
from ..sim.process import Process, ProcessContext

__all__ = ["RoundPhase", "RoundBasedClockSync"]


class RoundPhase(Enum):
    BCAST = "bcast"
    UPDATE = "update"


class RoundBasedClockSync(Process, abc.ABC):
    """Skeleton of a round-based averaging clock synchronization algorithm."""

    def __init__(self, params: SyncParameters, max_rounds: Optional[int] = None):
        self.params = params
        self.max_rounds = max_rounds
        self.arr: Dict[int, float] = {}
        self.phase = RoundPhase.BCAST
        self.round_time = params.initial_round_time
        self.round_index = 0
        self.last_adjustment: Optional[float] = None

    # -- to be provided by each algorithm -----------------------------------------
    @abc.abstractmethod
    def combine(self, ctx: ProcessContext, offsets: Dict[int, float]) -> float:
        """Turn per-process clock-offset estimates into an adjustment.

        ``offsets[q]`` estimates how far process q's clock is *ahead* of this
        process' clock (positive means q is ahead); the value for this process
        itself is always 0.  The returned value is added to CORR.
        """

    # -- interrupt handlers ----------------------------------------------------------
    def on_start(self, ctx: ProcessContext) -> None:
        if self.phase is RoundPhase.BCAST:
            self._broadcast_phase(ctx)

    def on_timer(self, ctx: ProcessContext, payload=None) -> None:
        if self.phase is RoundPhase.BCAST:
            self._broadcast_phase(ctx)
        else:
            self._update_phase(ctx)

    def on_message(self, ctx: ProcessContext, sender: int, payload) -> None:
        if isinstance(payload, RoundMessage):
            self.arr[sender] = ctx.local_time()

    # -- the round skeleton --------------------------------------------------------------
    def _broadcast_phase(self, ctx: ProcessContext) -> None:
        ctx.broadcast(RoundMessage(round_time=self.round_time))
        ctx.set_timer(self.round_time + self.params.collection_window())
        ctx.log("broadcast", round_index=self.round_index,
                round_time=self.round_time, local_time=ctx.local_time())
        self.phase = RoundPhase.UPDATE

    def _update_phase(self, ctx: ProcessContext) -> None:
        offsets = self._offset_estimates(ctx)
        adjustment = self.combine(ctx, offsets)
        ctx.adjust_correction(adjustment, round_index=self.round_index)
        self.last_adjustment = adjustment
        ctx.log("update", round_index=self.round_index, adjustment=adjustment,
                local_time=ctx.local_time())
        self.round_index += 1
        self.round_time += self.params.round_length
        self.phase = RoundPhase.BCAST
        if self.max_rounds is None or self.round_index < self.max_rounds:
            if not ctx.set_timer(self.round_time):
                ctx.log("missed_round", round_index=self.round_index,
                        round_time=self.round_time)

    # -- helpers ----------------------------------------------------------------------------
    def _offset_estimates(self, ctx: ProcessContext) -> Dict[int, float]:
        """Per-process estimates of how far each clock is ahead of ours.

        A round message from q that arrives at local time ``ARR[q]`` would, if
        q were perfectly synchronized with us and the delay were exactly δ,
        arrive at ``T^i + δ``; so ``T^i + δ − ARR[q]`` estimates q's lead.
        Processes never heard from this round get estimate 0 (our own value),
        the conventional "use your own clock" substitution.
        """
        expected = self.round_time + self.params.delta
        offsets: Dict[int, float] = {}
        for q in ctx.process_ids:
            if q == ctx.process_id:
                offsets[q] = 0.0
            elif q in self.arr:
                offsets[q] = expected - self.arr[q]
            else:
                offsets[q] = 0.0
        return offsets

    def label(self) -> str:
        return type(self).__name__
