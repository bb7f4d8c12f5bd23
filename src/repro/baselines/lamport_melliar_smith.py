"""The interactive convergence algorithm of Lamport and Melliar-Smith [LM].

This is the algorithm the paper builds on (Section 1, Section 10).  Every
round each process obtains a value for each of the other processes' clocks and
sets its clock to the *egocentric average*: the mean of those values, where any
value that differs from its own by more than a threshold Δ is replaced by its
own value.

Performance (Section 10, adapted to our delay model): with ε' the delay
uncertainty, the closeness of synchronization achieved is about ``2nε'`` —
note the factor n, versus the n-independent ≈4ε of the Welch-Lynch algorithm —
and the adjustment per round is about ``(2n+1)ε'``.  That n-dependence is the
headline difference the E8 comparison
(``tests/integration/test_claims_comparison.py``) reproduces.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..core.config import SyncParameters
from ..sim.process import ProcessContext
from .common import RoundBasedClockSync

__all__ = ["InteractiveConvergenceProcess", "lm_agreement_estimate",
           "lm_adjustment_estimate"]


class InteractiveConvergenceProcess(RoundBasedClockSync):
    """One participant in the [LM] interactive convergence algorithm CNV."""

    def __init__(self, params: SyncParameters, threshold: Optional[float] = None,
                 max_rounds: Optional[int] = None):
        super().__init__(params, max_rounds=max_rounds)
        # Δ must exceed the achievable closeness of synchronization plus the
        # estimate error; the usual engineering choice is a small multiple of
        # the guaranteed skew.  Default: 2(β + ε).
        self.threshold = (float(threshold) if threshold is not None
                          else 2.0 * (params.beta + params.epsilon))

    def combine(self, ctx: ProcessContext, offsets: Dict[int, float]) -> float:
        clipped = [value if abs(value) <= self.threshold else 0.0
                   for value in offsets.values()]
        return sum(clipped) / len(clipped)

    def label(self) -> str:
        return f"LM-CNV(threshold={self.threshold:.4g})"


def lm_agreement_estimate(params: SyncParameters) -> float:
    """Section 10's statement of [LM] closeness: about ``2nε'``."""
    return 2.0 * params.n * params.epsilon


def lm_adjustment_estimate(params: SyncParameters) -> float:
    """Section 10's statement of the [LM] adjustment size: about ``(2n+1)ε'``."""
    return (2.0 * params.n + 1.0) * params.epsilon
