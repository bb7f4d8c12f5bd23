"""Concrete ρ-bounded physical-clock (drift) models.

The analysis of the paper only relies on clocks being ρ-bounded (assumption
A1); any concrete drift model that respects the rate bounds exercises the same
algorithmic code paths.  We provide several:

* :class:`PerfectClock` — rate exactly 1 (useful in tests as a control),
* :class:`ConstantRateClock` — ``Ph(t) = offset + rate * t`` with a fixed rate
  inside ``[1/(1+ρ), 1+ρ]``; this is the standard model and the one used by the
  paper-claim tests,
* :class:`PiecewiseLinearClock` — the rate changes at given real-time
  breakpoints but always stays inside the ρ band (models temperature steps),
* :class:`SinusoidalDriftClock` — the rate oscillates smoothly inside the band
  (models periodic environmental effects); inverse computed by bisection,
* :class:`RandomRateWalkClock` — a reproducible random piecewise-linear clock
  whose per-segment rates follow a bounded random walk inside the band.

All models expose exact forward and inverse mappings (the piecewise-linear
ones analytically, the sinusoidal one numerically) and a closed-form
``rate_at``.
"""

from __future__ import annotations

import bisect
import math
import random
from typing import List, Optional, Sequence, Tuple

from .base import Clock, InvertibleClockMixin, rho_rate_bounds

__all__ = [
    "PerfectClock",
    "ConstantRateClock",
    "PiecewiseLinearClock",
    "SinusoidalDriftClock",
    "RandomRateWalkClock",
    "make_clock_ensemble",
    "CLOCK_KINDS",
]


class PerfectClock(Clock):
    """A drift-free clock: ``Ph(t) = t + offset``."""

    def __init__(self, offset: float = 0.0):
        self.offset = float(offset)
        self.rho = 0.0

    def read(self, real_time: float) -> float:
        return real_time + self.offset

    def real_time_at(self, clock_time: float) -> float:
        return clock_time - self.offset

    def rate_at(self, real_time: float, dt: float = 1e-6) -> float:
        return 1.0

    def __repr__(self) -> str:
        return f"PerfectClock(offset={self.offset!r})"


class ConstantRateClock(Clock):
    """``Ph(t) = offset + rate * t`` with ``rate`` in the ρ band."""

    def __init__(self, offset: float = 0.0, rate: float = 1.0, rho: float = 1e-6):
        lo, hi = rho_rate_bounds(rho)
        if not lo <= rate <= hi:
            raise ValueError(
                f"rate {rate} outside the rho-bounded band [{lo}, {hi}] for rho={rho}"
            )
        self.offset = float(offset)
        self.rate = float(rate)
        self.rho = float(rho)

    def read(self, real_time: float) -> float:
        return self.offset + self.rate * real_time

    def real_time_at(self, clock_time: float) -> float:
        return (clock_time - self.offset) / self.rate

    def rate_at(self, real_time: float, dt: float = 1e-6) -> float:
        return self.rate

    def __repr__(self) -> str:
        return (f"ConstantRateClock(offset={self.offset!r}, rate={self.rate!r}, "
                f"rho={self.rho!r})")


class PiecewiseLinearClock(Clock):
    """A clock whose rate is constant on consecutive real-time segments.

    ``breakpoints`` are strictly increasing real times ``t_1 < t_2 < ...``; the
    clock runs at ``rates[0]`` before ``t_1``, ``rates[i]`` on
    ``[t_i, t_{i+1})``, and ``rates[-1]`` after the last breakpoint, so
    ``len(rates) == len(breakpoints) + 1``.  Every rate must lie inside the ρ
    band.  ``offset`` is the clock reading at real time 0 (real time 0 need not
    be inside any particular segment; readings are integrated from 0).
    """

    def __init__(
        self,
        offset: float = 0.0,
        rates: Sequence[float] = (1.0,),
        breakpoints: Sequence[float] = (),
        rho: float = 1e-6,
    ):
        if len(rates) != len(breakpoints) + 1:
            raise ValueError("need exactly len(breakpoints) + 1 rates")
        if list(breakpoints) != sorted(set(breakpoints)):
            raise ValueError("breakpoints must be strictly increasing")
        lo, hi = rho_rate_bounds(rho)
        for rate in rates:
            if not lo <= rate <= hi:
                raise ValueError(
                    f"rate {rate} outside rho-bounded band [{lo}, {hi}] for rho={rho}"
                )
        self.offset = float(offset)
        self.rates = [float(r) for r in rates]
        self.breakpoints = [float(b) for b in breakpoints]
        self.rho = float(rho)

    def _rate_for_segment_containing(self, real_time: float) -> float:
        index = bisect.bisect_right(self.breakpoints, real_time)
        return self.rates[index]

    def read(self, real_time: float) -> float:
        # Reading is offset + signed integral of the step-function rate from 0
        # to real_time.
        total = self.offset
        if real_time == 0.0:
            return total
        sign = 1.0 if real_time > 0 else -1.0
        low, high = (0.0, real_time) if real_time > 0 else (real_time, 0.0)
        inner = [p for p in self.breakpoints if low < p < high]
        points = [low] + inner + [high]
        for seg_lo, seg_hi in zip(points, points[1:]):
            rate = self._rate_for_segment_containing(0.5 * (seg_lo + seg_hi))
            total += sign * rate * (seg_hi - seg_lo)
        return total

    def real_time_at(self, clock_time: float) -> float:
        # Monotonicity + positive minimum rate lets us bisect on real time.
        lo_rate, _ = rho_rate_bounds(self.rho)
        guess = (clock_time - self.offset)
        span = abs(guess) + 1.0
        lo, hi = guess - span, guess + span
        while self.read(lo) > clock_time:
            lo -= span
            span *= 2
        while self.read(hi) < clock_time:
            hi += span
            span *= 2
        for _ in range(200):
            mid_point = 0.5 * (lo + hi)
            value = self.read(mid_point)
            if abs(value - clock_time) < 1e-12:
                return mid_point
            if value < clock_time:
                lo = mid_point
            else:
                hi = mid_point
        return 0.5 * (lo + hi)

    def rate_at(self, real_time: float, dt: float = 1e-6) -> float:
        return self._rate_for_segment_containing(real_time)

    def __repr__(self) -> str:
        return (f"PiecewiseLinearClock(offset={self.offset!r}, rates={self.rates!r}, "
                f"breakpoints={self.breakpoints!r}, rho={self.rho!r})")


class SinusoidalDriftClock(InvertibleClockMixin, Clock):
    """A clock whose instantaneous rate oscillates within the ρ band.

    ``rate(t) = 1 + amplitude * sin(2π t / period + phase)`` with
    ``|amplitude| <= rho_effective`` so the clock remains ρ-bounded (using the
    symmetric band ``[1-ρ', 1+ρ']`` which is contained in ``[1/(1+ρ), 1+ρ]``
    when ``ρ' = ρ/(1+ρ)``).  The reading integrates to a closed form:

    ``Ph(t) = offset + t - (amplitude * period / 2π) * (cos(2π t/period + phase) - cos(phase))``.
    """

    def __init__(
        self,
        offset: float = 0.0,
        amplitude: float = 5e-7,
        period: float = 1000.0,
        phase: float = 0.0,
        rho: float = 1e-6,
    ):
        max_amp = rho / (1.0 + rho)
        if abs(amplitude) > max_amp + 1e-18:
            raise ValueError(
                f"amplitude {amplitude} exceeds the symmetric rho band {max_amp}"
            )
        if period <= 0:
            raise ValueError("period must be positive")
        self.offset = float(offset)
        self.amplitude = float(amplitude)
        self.period = float(period)
        self.phase = float(phase)
        self.rho = float(rho)
        self._omega = 2.0 * math.pi / self.period

    def read(self, real_time: float) -> float:
        integral = (self.amplitude / self._omega) * (
            math.cos(self.phase) - math.cos(self._omega * real_time + self.phase)
        )
        return self.offset + real_time + integral

    def rate_at(self, real_time: float, dt: float = 1e-6) -> float:
        return 1.0 + self.amplitude * math.sin(self._omega * real_time + self.phase)

    def __repr__(self) -> str:
        return (f"SinusoidalDriftClock(offset={self.offset!r}, amplitude={self.amplitude!r}, "
                f"period={self.period!r}, phase={self.phase!r}, rho={self.rho!r})")


class RandomRateWalkClock(PiecewiseLinearClock):
    """A reproducible random piecewise-linear clock.

    Segment boundaries occur every ``segment_length`` real seconds over
    ``[0, horizon]``; each segment's rate takes a bounded random-walk step from
    the previous one and is clamped to the ρ band.  Deterministic given
    ``seed``.
    """

    def __init__(
        self,
        offset: float = 0.0,
        rho: float = 1e-6,
        horizon: float = 10_000.0,
        segment_length: float = 250.0,
        step_fraction: float = 0.3,
        seed: int = 0,
    ):
        if segment_length <= 0 or horizon <= 0:
            raise ValueError("horizon and segment_length must be positive")
        rng = random.Random(seed)
        lo, hi = rho_rate_bounds(rho)
        count = max(1, int(math.ceil(horizon / segment_length)))
        breakpoints = [segment_length * (i + 1) for i in range(count)]
        rates: List[float] = []
        rate = rng.uniform(lo, hi)
        for _ in range(count + 1):
            rates.append(rate)
            step = rng.uniform(-step_fraction, step_fraction) * (hi - lo)
            rate = min(hi, max(lo, rate + step))
        super().__init__(offset=offset, rates=rates, breakpoints=breakpoints, rho=rho)
        self.seed = seed


#: the drift models :func:`make_clock_ensemble` builds (a spec's ``clock_kind``).
CLOCK_KINDS = ("perfect", "constant", "piecewise", "sinusoidal", "walk")


def make_clock_ensemble(
    n: int,
    rho: float,
    beta: float,
    seed: int = 0,
    kind: str = "constant",
    reference_time: float = 0.0,
) -> List[Clock]:
    """Construct ``n`` ρ-bounded physical clocks whose initial offsets span ≤ β.

    The offsets are chosen so that at real time ``reference_time`` the clock
    readings are spread over an interval of width at most ``beta`` — this
    realises assumption A4 for logical clocks whose initial corrections are
    zero.  ``kind`` selects the drift model, one of :data:`CLOCK_KINDS`.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if kind not in CLOCK_KINDS:
        raise ValueError(f"unknown clock kind {kind!r}; "
                         f"choose from {', '.join(CLOCK_KINDS)}")
    rng = random.Random(seed)
    lo_rate, hi_rate = rho_rate_bounds(rho)
    clocks: List[Clock] = []
    for index in range(n):
        # Target reading spread at the reference real time is at most beta wide.
        target = rng.uniform(-beta / 2.0, beta / 2.0) if n > 1 else 0.0
        offset = reference_time + target
        if kind == "perfect":
            clocks.append(PerfectClock(offset=offset - reference_time))
        elif kind == "constant":
            rate = rng.uniform(lo_rate, hi_rate)
            clocks.append(ConstantRateClock(offset=offset - rate * reference_time,
                                            rate=rate, rho=rho))
        elif kind == "piecewise":
            count = 4
            rates = [rng.uniform(lo_rate, hi_rate) for _ in range(count + 1)]
            breakpoints = sorted(rng.uniform(10.0, 5000.0) for _ in range(count))
            clocks.append(PiecewiseLinearClock(offset=target, rates=rates,
                                               breakpoints=breakpoints, rho=rho))
        elif kind == "sinusoidal":
            amp = rng.uniform(0.0, rho / (1.0 + rho))
            clocks.append(SinusoidalDriftClock(offset=target, amplitude=amp,
                                               period=rng.uniform(500.0, 2000.0),
                                               phase=rng.uniform(0, 2 * math.pi),
                                               rho=rho))
        else:  # "walk"
            clocks.append(RandomRateWalkClock(offset=target, rho=rho,
                                              seed=rng.randrange(1 << 30)))
    return clocks
