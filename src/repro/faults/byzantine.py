"""Byzantine adversaries that actively attack the synchronization algorithm.

These processes exploit every capability the model grants a faulty process
(Section 2.1/2.3): they may send different messages to different recipients,
send at arbitrary times, lie about round values, and set whatever timers they
like.  The ones implemented here are the attacks that matter for the
fault-tolerant averaging function:

* :class:`TwoFacedClockAttacker` — the classic attack: make half the correct
  processes believe the attacker's clock is fast and the other half believe it
  is slow, trying to pull the group apart.  Defeated by ``reduce`` throwing
  away the ``f`` extreme values seen by *each* recipient.
* :class:`SkewAttacker` — always report as early (or late) as possible to drag
  every correct clock in one direction (an attack on validity).
* :class:`RandomNoiseAttacker` — spray random round values at random times to
  random subsets of processes.
* :class:`CollusionScheduler` — coordinates several attacker ids so that they
  pull in the same direction per recipient (the strongest multiset attack:
  ``f`` values on the same side of a recipient's window).

All attackers know the public parameters (``T0``, ``P``, δ, ε, β) — the
algorithm does not rely on keeping them secret — and run on their own
ρ-bounded physical clocks.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..core.config import SyncParameters
from ..core.messages import RoundMessage
from ..sim.process import Process, ProcessContext

__all__ = [
    "TwoFacedClockAttacker",
    "SkewAttacker",
    "RandomNoiseAttacker",
    "CollusionScheduler",
]


class _RoundTrackingAttacker(Process):
    """Shared machinery: wake up once per round on the attacker's own clock."""

    is_faulty = True

    def __init__(self, params: SyncParameters, max_rounds: Optional[int] = None):
        self.params = params
        self.max_rounds = max_rounds
        self.round_index = 0

    def on_start(self, ctx: ProcessContext) -> None:
        self._arm_round_timer(ctx)

    def _arm_round_timer(self, ctx: ProcessContext) -> None:
        while self.max_rounds is None or self.round_index < self.max_rounds:
            if ctx.set_timer(self._wakeup_time(self.round_index)):
                return
            # The slot for this round is already in the past (e.g. the attack
            # leads the round boundary and we just started): attack right away
            # and move on to the next round.
            self.attack_round(ctx, self.round_index)
            self.round_index += 1

    def _wakeup_time(self, round_index: int) -> float:
        return self.params.round_time(round_index)

    def on_timer(self, ctx: ProcessContext, payload=None) -> None:
        self.attack_round(ctx, self.round_index)
        self.round_index += 1
        self._arm_round_timer(ctx)

    def attack_round(self, ctx: ProcessContext, round_index: int) -> None:
        raise NotImplementedError


class TwoFacedClockAttacker(_RoundTrackingAttacker):
    """Tell half the recipients the round started early and the other half late.

    At each round the attacker sends ``T^i`` immediately to the "early" half
    (so they record an early arrival and think the attacker is ahead) and
    schedules the same message ``2·lead`` later for the "late" half.  ``lead``
    defaults to β, the largest plausible spread.
    """

    def __init__(self, params: SyncParameters, lead: Optional[float] = None,
                 max_rounds: Optional[int] = None):
        super().__init__(params, max_rounds=max_rounds)
        self.lead = float(lead) if lead is not None else params.beta

    def _wakeup_time(self, round_index: int) -> float:
        # Wake slightly before the nominal round time so the "early" sends
        # arrive near the front edge of every recipient's window.
        return self.params.round_time(round_index) - self.lead

    def attack_round(self, ctx: ProcessContext, round_index: int) -> None:
        message = RoundMessage(round_time=self.params.round_time(round_index))
        early = {pid: message for pid in ctx.process_ids if pid % 2 == 0}
        late = {pid: message for pid in ctx.process_ids if pid % 2 == 1}
        ctx.send_divergent(early)
        # Deliver the "late" copies after 2·lead of local time.
        ctx.set_timer(ctx.local_time() + 2 * self.lead, payload=("late", late))

    def on_timer(self, ctx: ProcessContext, payload=None) -> None:
        if isinstance(payload, tuple) and payload and payload[0] == "late":
            ctx.send_divergent(payload[1])
            return
        super().on_timer(ctx, payload)

    def label(self) -> str:
        return f"TwoFaced(lead={self.lead})"


class SkewAttacker(_RoundTrackingAttacker):
    """Always broadcast as early (direction=-1) or as late (direction=+1) as possible.

    An early broadcast makes every recipient believe the attacker's clock is
    ahead, nudging the fault-tolerant average — and hence every correct clock —
    forward; a late broadcast nudges it backward.  With at most ``f``
    attackers the nudge is removed by ``reduce``; with more it shows up as a
    validity violation (clock rate drifting away from real time).
    """

    def __init__(self, params: SyncParameters, direction: int = -1,
                 magnitude: Optional[float] = None,
                 max_rounds: Optional[int] = None):
        super().__init__(params, max_rounds=max_rounds)
        if direction not in (-1, 1):
            raise ValueError("direction must be -1 (early) or +1 (late)")
        self.direction = direction
        self.magnitude = (float(magnitude) if magnitude is not None
                          else params.beta + params.epsilon)

    def _wakeup_time(self, round_index: int) -> float:
        return self.params.round_time(round_index) + self.direction * self.magnitude

    def attack_round(self, ctx: ProcessContext, round_index: int) -> None:
        ctx.broadcast(RoundMessage(round_time=self.params.round_time(round_index)))

    def label(self) -> str:
        side = "early" if self.direction < 0 else "late"
        return f"SkewAttacker({side}, {self.magnitude})"


class RandomNoiseAttacker(Process):
    """Send random round values to random subsets of processes at random times."""

    is_faulty = True

    def __init__(self, params: SyncParameters, messages_per_round: int = 3,
                 max_rounds: Optional[int] = None):
        self.params = params
        self.messages_per_round = int(messages_per_round)
        self.max_rounds = max_rounds
        self._sent = 0

    def on_start(self, ctx: ProcessContext) -> None:
        ctx.set_timer(ctx.local_time() + self._next_gap(ctx))

    def _next_gap(self, ctx: ProcessContext) -> float:
        per_round = max(1, self.messages_per_round)
        return max(self.params.round_length / per_round
                   * ctx.rng.uniform(0.5, 1.5), self.params.delta)

    def on_timer(self, ctx: ProcessContext, payload=None) -> None:
        limit = (None if self.max_rounds is None
                 else self.max_rounds * self.messages_per_round)
        if limit is not None and self._sent >= limit:
            return
        rng = ctx.rng
        fake_round = (self.params.initial_round_time
                      + rng.randint(0, 50) * self.params.round_length
                      + rng.uniform(-self.params.beta, self.params.beta))
        recipients = [pid for pid in ctx.process_ids if rng.random() < 0.6]
        for pid in recipients:
            ctx.send(pid, RoundMessage(round_time=fake_round))
        self._sent += 1
        ctx.set_timer(ctx.local_time() + self._next_gap(ctx))

    def label(self) -> str:
        return "RandomNoise"


class CollusionScheduler:
    """Builds a coordinated team of attackers pulling in the same direction.

    The strongest attack the multiset lemmas allow is ``f`` faulty values all
    on the same side of every recipient's window; this helper produces ``f``
    :class:`SkewAttacker` instances sharing a direction and magnitude so the
    test scenarios can instantiate "the worst case the analysis covers"
    with one call.
    """

    def __init__(self, params: SyncParameters, direction: int = -1,
                 magnitude: Optional[float] = None):
        self.params = params
        self.direction = direction
        self.magnitude = magnitude

    def build(self, count: int, max_rounds: Optional[int] = None):
        """Return ``count`` coordinated attacker processes."""
        return [SkewAttacker(self.params, direction=self.direction,
                             magnitude=self.magnitude, max_rounds=max_rounds)
                for _ in range(count)]
