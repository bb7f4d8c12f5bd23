"""The Welch-Lynch clock synchronization maintenance algorithm (Section 4).

Direct implementation of the Section 4.2 pseudo-code on top of the
interrupt-driven process model:

Local variables (names as in the paper):

* ``ARR[1..n]`` — local arrival times of the most recent message from each
  process ("initially arbitrary");
* ``CORR`` — the correction added to the physical clock (held by the system's
  correction history so the analysis can reconstruct every logical clock);
* ``FLAG`` — toggles between BCAST and UPDATE;
* ``T`` — the beginning of the current round (``T0, T0+P, T0+2P, ...``).

Code:

* ``receive(m) from q``: ``ARR[q] := local-time()``;
* ``(receive(START) or receive(TIMER)) and FLAG = BCAST``: broadcast ``T``,
  set a timer for ``T + (1+ρ)(β+δ+ε)``, ``FLAG := UPDATE``;
* ``receive(TIMER) and FLAG = UPDATE``: ``AV := mid(reduce(ARR))``,
  ``ADJ := T + δ − AV``, ``CORR := CORR + ADJ``, ``T := T + P``, set a timer
  for ``T`` (on the new logical clock), ``FLAG := BCAST``.

Implementation notes:

* ``ARR`` entries for processes never heard from are "arbitrary" in the paper;
  we fill them with the process' own local time at averaging, which is safe
  because at most ``f`` entries can be missing and ``reduce`` removes the ``f``
  extreme values on either side (Lemma 6's argument).
* The optional ``stagger_interval`` implements the Section 9.3 variant: process
  ``p`` broadcasts at ``T^i + p·σ`` and subtracts ``q·σ`` from ``ARR[q]``
  before averaging, which keeps the adjustment semantics identical while
  spreading sends out in real time.
* The optional :class:`~repro.core.averaging.AveragingFunction` swaps midpoint
  for mean (Section 7 variant).
* ``discard_stale=True`` clears ``ARR`` right after each averaging step, so
  an entry is used for at most one round.  Under A2/A3 this changes nothing
  (every nonfaulty value is refreshed each round before it is next used);
  when the network can partition — more than ``f`` peers unreachable, a
  regime the paper never covers — it is essential: a retained ARR entry from
  ``i`` rounds ago is ``≈ i·P`` local-time units stale, drags the midpoint
  down by ``P/2`` or more, and within two rounds the resulting jumps make
  every process miss its next-round timer and halt.  Clearing happens at the
  *update* (not at the broadcast) because messages from fast peers
  legitimately arrive before the recipient's own broadcast whenever clock
  offsets exceed the one-hop delay — Lemma 12 only guarantees arrival after
  the previous update.  The topology subsystem's partition experiments run
  this variant.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, Optional

from ..sim.process import Process, ProcessContext
from .averaging import AveragingFunction, FaultTolerantMidpoint
from .config import SyncParameters
from .messages import RoundMessage

__all__ = ["Phase", "WelchLynchProcess"]


class Phase(Enum):
    """The FLAG variable of the pseudo-code."""

    BCAST = "bcast"
    UPDATE = "update"


class WelchLynchProcess(Process):
    """One participant in the maintenance algorithm."""

    def __init__(
        self,
        params: SyncParameters,
        averaging: Optional[AveragingFunction] = None,
        max_rounds: Optional[int] = None,
        stagger_interval: float = 0.0,
        discard_stale: bool = False,
    ):
        self.params = params
        self.averaging = averaging or FaultTolerantMidpoint()
        self.max_rounds = max_rounds
        self.stagger_interval = float(stagger_interval)
        self.discard_stale = bool(discard_stale)
        # Paper-named local variables.
        self.arr: Dict[int, float] = {}
        self.flag = Phase.BCAST
        self.round_time = params.initial_round_time  # T
        self.round_index = 0  # i (number of completed updates)
        self.last_adjustment: Optional[float] = None
        self.last_average: Optional[float] = None

    # -- interrupt handlers --------------------------------------------------
    def on_start(self, ctx: ProcessContext) -> None:
        if self.flag is not Phase.BCAST:
            return
        if self.stagger_interval and ctx.process_id > 0:
            # Section 9.3: process p broadcasts at T^0 + p·σ, so defer the
            # first broadcast to its staggered slot.
            slot = self.round_time + ctx.process_id * self.stagger_interval
            if ctx.set_timer(slot):
                return
        self._broadcast_phase(ctx)

    def on_timer(self, ctx: ProcessContext, payload=None) -> None:
        if self.flag is Phase.BCAST:
            self._broadcast_phase(ctx)
        else:
            self._update_phase(ctx)

    def on_message(self, ctx: ProcessContext, sender: int, payload) -> None:
        # "receive(m) from q: ARR[q] := local-time()"
        self.arr[sender] = ctx.local_time()

    # -- the two halves of a round -------------------------------------------
    def _broadcast_phase(self, ctx: ProcessContext) -> None:
        """Broadcast T^i and arm the collection-window timer.

        With a stagger interval the timer that got us here was set for the
        staggered slot ``T^i + p·σ``, so broadcasting immediately is already
        the Section 9.3 behaviour.
        """
        ctx.broadcast(RoundMessage(round_time=self.round_time))
        window_end = self.round_time + self._window_length(ctx)
        ctx.set_timer(window_end)
        ctx.log("broadcast", round_index=self.round_index,
                round_time=self.round_time, local_time=ctx.local_time())
        self.flag = Phase.UPDATE

    def _update_phase(self, ctx: ProcessContext) -> None:
        """Apply the fault-tolerant average and move to the next round."""
        values = self._collected_values(ctx)
        if self.discard_stale:
            self.arr.clear()
        average = self.averaging.average(values, self.params.f)
        adjustment = self.round_time + self.params.delta - average
        ctx.adjust_correction(adjustment, round_index=self.round_index)
        self.last_average = average
        self.last_adjustment = adjustment
        ctx.log("update", round_index=self.round_index, average=average,
                adjustment=adjustment, round_time=self.round_time,
                local_time=ctx.local_time())
        self.round_index += 1
        self.round_time += self.params.round_length
        self.flag = Phase.BCAST
        if self.max_rounds is None or self.round_index < self.max_rounds:
            self._schedule_next_round(ctx)

    # -- helpers -----------------------------------------------------------------
    def _window_length(self, ctx: ProcessContext) -> float:
        """Collection window; extended by (n−1)σ under staggered broadcast."""
        extra = (ctx.n - 1) * self.stagger_interval
        return self.params.collection_window() + extra

    def _collected_values(self, ctx: ProcessContext):
        """The ARR array, de-staggered and with missing entries filled."""
        fallback = ctx.local_time()
        arr = self.arr
        stagger = self.stagger_interval
        return [arr.get(q, fallback) - q * stagger for q in ctx.process_ids]

    def _schedule_next_round(self, ctx: ProcessContext) -> None:
        target = self.round_time
        if self.stagger_interval:
            target = self.round_time + ctx.process_id * self.stagger_interval
        scheduled = ctx.set_timer(target)
        if not scheduled:
            # P was chosen too small (violating the Section 5.2 lower bound):
            # the next broadcast time is already in the past on the new clock.
            ctx.log("missed_round", round_index=self.round_index,
                    round_time=self.round_time)

    def label(self) -> str:
        return f"WelchLynch({self.averaging.name})"
