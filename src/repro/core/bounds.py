"""Closed-form theoretical bounds from the paper's analysis (Sections 5-9).

The paper-claim tests (``tests/integration/test_claims_*.py``) and the CLI
audits compare every measured quantity with the corresponding bound computed
here, so the "paper vs measured" comparison is a one-liner.

Implemented bounds:

* Lemma 7 / Theorem 4(a): ``|ADJ| <= (1+ρ)(β+ε) + ρδ``;
* Lemma 9: per-round compensation error ``β/2 + 2ε + 2ρ(β+δ+ε)``;
* Lemma 10: real-time separation of the new clocks at any clock time T;
* Theorem 16: the agreement bound γ;
* Theorem 19: the validity parameters (α₁, α₂, α₃) and the envelope itself;
* Section 5.2 / Section 7: steady-state β ≈ 4ε + 4ρP and its k-exchange
  generalisation ``β ≈ 4ε + 2ρP·2^k/(2^k−1)``;
* Lemma 20 (start-up): ``B^{i+1} <= B^i/2 + 2ε + 2ρ(11δ + 39ε)`` and its fixed
  point ``≈ 4ε + 4ρ(11δ + 39ε)``;
* the impossibility half: no algorithm can synchronize the clocks to better
  than ``ε(1 − 1/n)`` (:func:`lower_bound`), with :func:`tightness_gap`
  positioning a measured skew between that floor and the Theorem 16 γ — the
  executable construction behind the bound lives in
  :mod:`repro.adversary.certifier`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .config import SyncParameters

__all__ = [
    "adjustment_bound",
    "lemma9_compensation_error",
    "lemma10_separation_bound",
    "agreement_bound",
    "validity_parameters",
    "validity_envelope",
    "validity_holds",
    "shortest_round_real_time",
    "steady_state_beta",
    "k_exchange_beta",
    "startup_round_recurrence",
    "startup_convergence_series",
    "startup_limit",
    "mean_variant_rate",
    "lower_bound",
    "TightnessGap",
    "tightness_gap",
]


def adjustment_bound(params: SyncParameters) -> float:
    """Theorem 4(a): ``|ADJ^i_p| <= (1+ρ)(β+ε) + ρδ`` for every nonfaulty p, i."""
    return (1 + params.rho) * (params.beta + params.epsilon) + params.rho * params.delta


def lemma9_compensation_error(params: SyncParameters) -> float:
    """Lemma 9: the adjustments compensate for clock differences to within
    ``β/2 + 2ε + 2ρ(β+δ+ε)``."""
    return (params.beta / 2.0 + 2 * params.epsilon
            + 2 * params.rho * (params.beta + params.delta + params.epsilon))


def lemma10_separation_bound(params: SyncParameters, clock_offset: float) -> float:
    """Lemma 10: bound on ``|c^{i+1}_p(T) − c^{i+1}_q(T)|`` when ``|T − T^i| = clock_offset``.

    ``2ρ|T − T^i| + β/2 + 2ε + 2ρ(2β + δ + 2ε) + 2ρ²(β + δ + ε)``.
    """
    rho, beta, delta, eps = params.rho, params.beta, params.delta, params.epsilon
    return (2 * rho * abs(clock_offset) + beta / 2.0 + 2 * eps
            + 2 * rho * (2 * beta + delta + 2 * eps)
            + 2 * rho ** 2 * (beta + delta + eps))


def agreement_bound(params: SyncParameters) -> float:
    """Theorem 16: the γ of γ-agreement.

    ``γ = β + ε + ρ(7β + 3δ + 7ε) + 8ρ²(β + δ + ε) + 4ρ³(β + δ + ε)``.
    """
    rho, beta, delta, eps = params.rho, params.beta, params.delta, params.epsilon
    bulk = beta + delta + eps
    return (beta + eps + rho * (7 * beta + 3 * delta + 7 * eps)
            + 8 * rho ** 2 * bulk + 4 * rho ** 3 * bulk)


def shortest_round_real_time(params: SyncParameters) -> float:
    """λ — the length of the shortest round in real time (Section 8).

    ``λ = (P − (1+ρ)(β+ε) − ρδ)/(1+ρ)``: the clock time elapsed during a round
    is at least P minus the maximum adjustment, converted to real time at the
    fastest admissible rate.
    """
    rho = params.rho
    return (params.round_length - (1 + rho) * (params.beta + params.epsilon)
            - rho * params.delta) / (1 + rho)


@dataclass(frozen=True)
class ValidityParameters:
    """The (α₁, α₂, α₃) triple of Theorem 19."""

    alpha1: float
    alpha2: float
    alpha3: float


def validity_parameters(params: SyncParameters) -> ValidityParameters:
    """Theorem 19: ``α₁ = 1 − ρ − ε/λ``, ``α₂ = 1 + ρ + ε/λ``, ``α₃ = ε``."""
    lam = shortest_round_real_time(params)
    if lam <= 0:
        raise ValueError(
            "round length too small: the shortest round has non-positive real length"
        )
    ratio = params.epsilon / lam
    return ValidityParameters(alpha1=1 - params.rho - ratio,
                              alpha2=1 + params.rho + ratio,
                              alpha3=params.epsilon)


def validity_envelope(params: SyncParameters, t: float, tmin0: float,
                      tmax0: float) -> Tuple[float, float]:
    """The (lower, upper) bounds on ``L_p(t) − T0`` required by validity."""
    vp = validity_parameters(params)
    lower = vp.alpha1 * (t - tmax0) - vp.alpha3
    upper = vp.alpha2 * (t - tmin0) + vp.alpha3
    return lower, upper


def validity_holds(params: SyncParameters, t: float, local_time: float,
                   tmin0: float, tmax0: float, tolerance: float = 1e-9) -> bool:
    """Check one sample of the validity condition."""
    lower, upper = validity_envelope(params, t, tmin0, tmax0)
    elapsed = local_time - params.initial_round_time
    return lower - tolerance <= elapsed <= upper + tolerance


def steady_state_beta(params: SyncParameters) -> float:
    """Section 5.2 / 7: the achievable real-time spread ``β ≈ 4ε + 4ρP``."""
    return 4 * params.epsilon + 4 * params.rho * params.round_length


def k_exchange_beta(params: SyncParameters, k: int) -> float:
    """Section 7: with k exchanges per round, ``β ≳ 4ε + 2ρP·2^k/(2^k − 1)``."""
    if k < 1:
        raise ValueError("k must be at least 1")
    factor = (2.0 ** k) / (2.0 ** k - 1.0)
    return 4 * params.epsilon + 2 * params.rho * params.round_length * factor


def mean_variant_rate(n: int, f: int) -> float:
    """Section 7: convergence rate of the mean variant, ``≈ f/(n − 2f)``."""
    if n <= 2 * f:
        raise ValueError(f"mean variant requires n > 2f; got n={n}, f={f}")
    if f == 0:
        return 0.0
    return f / float(n - 2 * f)


# ---------------------------------------------------------------------------
# Start-up algorithm (Section 9.2, Lemma 20)
# ---------------------------------------------------------------------------

def startup_round_recurrence(params: SyncParameters, previous_spread: float) -> float:
    """Lemma 20: ``B^{i+1} <= B^i/2 + 2ε + 2ρ(11δ + 39ε)``."""
    return (previous_spread / 2.0 + 2 * params.epsilon
            + 2 * params.rho * (11 * params.delta + 39 * params.epsilon))


def startup_convergence_series(params: SyncParameters, initial_spread: float,
                               rounds: int) -> List[float]:
    """The sequence of Lemma 20 upper bounds ``B^0, B^1, ..., B^rounds``."""
    series = [initial_spread]
    for _ in range(rounds):
        series.append(startup_round_recurrence(params, series[-1]))
    return series


def startup_limit(params: SyncParameters) -> float:
    """Lemma 20's fixed point: ``4ε + 4ρ(11δ + 39ε)`` — about 4ε in practice."""
    return 4 * params.epsilon + 4 * params.rho * (11 * params.delta
                                                  + 39 * params.epsilon)


# ---------------------------------------------------------------------------
# The impossibility half: the ε(1 − 1/n) lower bound
# ---------------------------------------------------------------------------

def lower_bound(params: SyncParameters) -> float:
    """The shifting-argument floor: no algorithm beats ``ε(1 − 1/n)``.

    The paper's second headline result, proved by indistinguishability: any
    admissible execution can be retimed by per-process shifts spanning up to
    ε without any process noticing, so in *some* admissible execution the
    clocks are at least ``ε(1 − 1/n)`` apart no matter what the algorithm
    does.  Monotone in n, approaching ε as n → ∞, and always below the
    Theorem 16 γ (which exceeds β + ε > ε).  A single process (n = 1) is
    trivially synchronized with itself, so the bound is zero there.

    :func:`repro.adversary.certifier.certify_lower_bound` constructs the
    witnessing execution family and certifies this value is actually reached.
    """
    if params.n < 2:
        return 0.0
    return params.epsilon * (1.0 - 1.0 / params.n)


@dataclass(frozen=True)
class TightnessGap:
    """Where a measured skew sits between the lower bound and Theorem 16's γ.

    The paper leaves a constant-factor gap between what any algorithm must
    concede (``lower``) and what its algorithm guarantees (``gamma``); the
    ratios here quantify that gap for a concrete run.
    """

    lower: float
    gamma: float
    achieved: float

    @property
    def gamma_over_lower(self) -> float:
        """How loose the provable window is (∞ when the lower bound is 0)."""
        return self.gamma / self.lower if self.lower > 0 else math.inf

    @property
    def achieved_over_lower(self) -> float:
        """≥ 1 once an adversarial run actually reaches the floor."""
        return self.achieved / self.lower if self.lower > 0 else math.inf

    @property
    def achieved_over_gamma(self) -> float:
        """≤ 1 for any admissible run of the paper's algorithm."""
        return self.achieved / self.gamma if self.gamma > 0 else math.inf

    @property
    def position(self) -> float:
        """``(achieved − lower) / (gamma − lower)``, clamped to [0, 1]-ish.

        0 means the run sat exactly on the impossibility floor, 1 exactly on
        the γ guarantee; adversarial runs land in between.
        """
        width = self.gamma - self.lower
        if width <= 0:
            return 0.0
        return (self.achieved - self.lower) / width


def tightness_gap(params: SyncParameters, achieved: float) -> TightnessGap:
    """Bundle a measured skew with its lower/upper theoretical brackets."""
    return TightnessGap(lower=lower_bound(params),
                        gamma=agreement_bound(params),
                        achieved=achieved)
