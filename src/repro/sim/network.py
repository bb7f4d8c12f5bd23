"""Message delay models and the message system (assumption A3, Section 2.2).

Assumption A3 fixes constants ``δ > ε >= 0`` and requires every message delay
to lie in ``[δ - ε, δ + ε]``.  The delay models here all (by default) respect
that envelope; some can be configured to violate it so robustness experiments
can show what happens when the assumption breaks.

* :class:`FixedDelayModel` — every delay exactly δ (ε = 0);
* :class:`UniformDelayModel` — i.i.d. uniform on [δ-ε, δ+ε] (the default);
* :class:`TruncatedGaussianDelayModel` — Gaussian centred at δ, truncated to
  the envelope (models a realistic latency distribution);
* :class:`PerLinkDelayModel` — a fixed per-(sender, recipient) delay inside the
  envelope (models heterogeneous links);
* :class:`ContentionDelayModel` — the Ethernet-style model of Section 9.3:
  messages *sent* within a small window of each other suffer extra queueing
  delay (and, optionally, loss), which is what motivates the staggered
  broadcast variant;
* :class:`AdversarialDelayModel` — delivers messages from selected senders at
  the extreme early/late edge of the envelope, the worst case the analysis
  allows.

The *pair-* and *time-targeted* adversaries of the lower-bound engine (the
``per_pair``, ``skew_max`` and ``round_aware`` families) live in
:mod:`repro.adversary.delays`; they subclass :class:`DelayModel` and register
with :func:`repro.analysis.experiments.make_delay_model` like the models
here.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "DelayModel",
    "FixedDelayModel",
    "UniformDelayModel",
    "TruncatedGaussianDelayModel",
    "PerLinkDelayModel",
    "ContentionDelayModel",
    "AdversarialDelayModel",
    "BASE_DELAY_KINDS",
    "ADVERSARIAL_DELAY_KINDS",
    "DELAY_MODEL_KINDS",
]

#: the canonical delay-family name vocabulary.  This module owns the single
#: source of truth; the builders (``make_delay_model``,
#: :func:`repro.adversary.delays.build_adversarial_delay_model`) and the
#: eager :class:`~repro.runner.spec.RunSpec` validation all consume it, so
#: the three layers cannot drift.
BASE_DELAY_KINDS = ("uniform", "fixed", "gaussian", "adversarial",
                    "contention")
#: the worst-case families implemented in :mod:`repro.adversary.delays`.
ADVERSARIAL_DELAY_KINDS = ("per_pair", "skew_max", "round_aware")
#: every family name a declarative spec may carry.
DELAY_MODEL_KINDS = BASE_DELAY_KINDS + ADVERSARIAL_DELAY_KINDS


class DelayModel:
    """Produces the delay for each message; may also drop messages."""

    #: nominal delay midpoint δ and uncertainty ε, exposed for bound formulas.
    delta: float = 0.0
    epsilon: float = 0.0

    def delay(self, sender: int, recipient: int, send_time: float,
              rng: random.Random) -> Optional[float]:
        """Delay for this message, or ``None`` to drop the message entirely."""
        raise NotImplementedError

    def draws(self, sender: int, recipients: Sequence[int], send_time: float,
              rng: random.Random) -> List[Optional[float]]:
        """One :meth:`delay` (or ``None``) per recipient, in recipient order.

        The RNG ledger of the complete graph: the system draws all copies of
        one send in one call, and the round kernel
        (:mod:`repro.sim.roundengine`) replays the same sequence from
        mirrored generator streams.  This form calls :meth:`delay` once per
        recipient, so stateful and adversarial models consume the RNG
        exactly as per-message calls would.  :class:`UniformDelayModel`
        overrides it with the same floats in one loop, so a subclass of it
        that redefines :meth:`delay` must redefine this too.
        """
        delay = self.delay
        return [delay(sender, recipient, send_time, rng)
                for recipient in recipients]

    def envelope(self) -> Tuple[float, float]:
        """The [δ-ε, δ+ε] envelope this model nominally respects."""
        return self.delta - self.epsilon, self.delta + self.epsilon

    def contains(self, delay: float, tolerance: float = 1e-12) -> bool:
        """Whether a delay lies inside this model's nominal envelope.

        The single predicate the A3 audits and the adversarial-model
        property suite share, so "inside the envelope" cannot drift between
        checkers.
        """
        low, high = self.envelope()
        return low - tolerance <= delay <= high + tolerance

    def stats(self) -> Dict[str, float]:
        """Model-internal counters, for telemetry flushes (empty by default).

        Stateful models override this to expose whatever they count — e.g.
        :class:`ContentionDelayModel` reports its contention drops — so the
        telemetry layer reads one uniform hook instead of poking at
        per-model attributes.
        """
        return {}


def _validate(delta: float, epsilon: float) -> None:
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if epsilon < 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    if epsilon >= delta:
        raise ValueError(
            f"the paper assumes delta > epsilon; got delta={delta}, epsilon={epsilon}"
        )


class FixedDelayModel(DelayModel):
    """Every message takes exactly δ."""

    def __init__(self, delta: float):
        _validate(delta, 0.0)
        self.delta = float(delta)
        self.epsilon = 0.0

    def delay(self, sender: int, recipient: int, send_time: float,
              rng: random.Random) -> Optional[float]:
        return self.delta


class UniformDelayModel(DelayModel):
    """Delays drawn i.i.d. uniform from [δ-ε, δ+ε]."""

    def __init__(self, delta: float, epsilon: float):
        _validate(delta, epsilon)
        self.delta = float(delta)
        self.epsilon = float(epsilon)

    def delay(self, sender: int, recipient: int, send_time: float,
              rng: random.Random) -> Optional[float]:
        return rng.uniform(self.delta - self.epsilon, self.delta + self.epsilon)

    def draws(self, sender: int, recipients: Sequence[int], send_time: float,
              rng: random.Random) -> List[Optional[float]]:
        # random.uniform(a, b) evaluates a + (b - a) * random(); this is the
        # same expression, hoisted out of the per-recipient loop.
        low = self.delta - self.epsilon
        span = (self.delta + self.epsilon) - low
        rand = rng.random
        return [low + span * rand() for _ in recipients]


class TruncatedGaussianDelayModel(DelayModel):
    """Gaussian delay centred at δ with given σ, truncated to [δ-ε, δ+ε]."""

    def __init__(self, delta: float, epsilon: float, sigma: Optional[float] = None):
        _validate(delta, epsilon)
        self.delta = float(delta)
        self.epsilon = float(epsilon)
        self.sigma = float(sigma) if sigma is not None else epsilon / 2.0 or 1e-9

    def delay(self, sender: int, recipient: int, send_time: float,
              rng: random.Random) -> Optional[float]:
        lo, hi = self.envelope()
        for _ in range(64):
            sample = rng.gauss(self.delta, self.sigma)
            if lo <= sample <= hi:
                return sample
        return min(max(rng.gauss(self.delta, self.sigma), lo), hi)


class PerLinkDelayModel(DelayModel):
    """A deterministic delay per (sender, recipient) link inside the envelope."""

    def __init__(self, delta: float, epsilon: float,
                 link_delays: Dict[Tuple[int, int], float]):
        _validate(delta, epsilon)
        self.delta = float(delta)
        self.epsilon = float(epsilon)
        lo, hi = self.envelope()
        for link, value in link_delays.items():
            if not lo <= value <= hi:
                raise ValueError(f"link {link} delay {value} outside envelope [{lo}, {hi}]")
        self._links = dict(link_delays)

    def delay(self, sender: int, recipient: int, send_time: float,
              rng: random.Random) -> Optional[float]:
        return self._links.get((sender, recipient), self.delta)


class ContentionDelayModel(DelayModel):
    """Delay grows (and messages may be lost) when sends cluster in real time.

    Models the Ethernet datagram behaviour described in Section 9.3: when all
    processes broadcast at nearly the same real time, datagrams queue up and
    old ones are overwritten.  A broadcast is one datagram on the wire, so the
    ``n`` per-recipient copies of a single ``broadcast(m)`` count as one send;
    distinct senders transmitting within ``window`` of at least ``threshold``
    other transmissions incur ``penalty`` extra delay per queued transmission
    (capped so delays stay finite) and are dropped with probability
    ``drop_probability`` per excess transmission.
    """

    def __init__(self, delta: float, epsilon: float, window: float = 0.05,
                 threshold: int = 3, penalty: float = 0.0,
                 drop_probability: float = 0.15, max_queue: int = 64):
        _validate(delta, epsilon)
        self.delta = float(delta)
        self.epsilon = float(epsilon)
        self.window = float(window)
        self.threshold = int(threshold)
        self.penalty = float(penalty)
        self.drop_probability = float(drop_probability)
        self.max_queue = int(max_queue)
        self._recent_sends: list = []
        self.dropped = 0

    def delay(self, sender: int, recipient: int, send_time: float,
              rng: random.Random) -> Optional[float]:
        self._recent_sends = [(t, s) for t, s in self._recent_sends
                              if send_time - t <= self.window]
        if (send_time, sender) not in self._recent_sends:
            self._recent_sends.append((send_time, sender))
        if len(self._recent_sends) > self.max_queue:
            self._recent_sends = self._recent_sends[-self.max_queue:]
        backlog = len(self._recent_sends) - 1
        base = rng.uniform(self.delta - self.epsilon, self.delta + self.epsilon)
        if backlog < self.threshold:
            return base
        excess = backlog - self.threshold + 1
        if rng.random() < min(0.95, self.drop_probability * excess):
            self.dropped += 1
            return None
        extra = min(self.penalty * excess, self.epsilon)
        return min(base + extra, self.delta + self.epsilon)

    def stats(self) -> Dict[str, float]:
        return {"contention_dropped": self.dropped,
                "contention_backlog": len(self._recent_sends)}


class AdversarialDelayModel(DelayModel):
    """Pushes messages from chosen senders to the extremes of the envelope.

    Messages from ``fast_senders`` arrive after δ-ε, from ``slow_senders``
    after δ+ε, everything else after δ.  This is the worst case assumption A3
    permits and is what the ε terms in the paper's bounds account for.
    """

    def __init__(self, delta: float, epsilon: float,
                 fast_senders: Iterable[int] = (),
                 slow_senders: Iterable[int] = ()):
        _validate(delta, epsilon)
        self.delta = float(delta)
        self.epsilon = float(epsilon)
        self.fast = frozenset(fast_senders)
        self.slow = frozenset(slow_senders)
        overlap = self.fast & self.slow
        if overlap:
            raise ValueError(f"senders {sorted(overlap)} are both fast and slow")

    def delay(self, sender: int, recipient: int, send_time: float,
              rng: random.Random) -> Optional[float]:
        if sender in self.fast:
            return self.delta - self.epsilon
        if sender in self.slow:
            return self.delta + self.epsilon
        return self.delta
