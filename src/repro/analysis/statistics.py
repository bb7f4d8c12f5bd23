"""Summary statistics over seeds.

The theorems are worst-case statements, but measured quantities (skew,
adjustment sizes, spreads) depend on the random draws of the delay model and
the clock ensemble.  The helpers here summarize a sample of such
measurements, so tests and users can distinguish "this bound holds with
margin" from "this bound holds by luck on one seed".  They run nothing: the
per-seed runs come from :func:`repro.runner.replicate`, which executes them
through a :class:`~repro.runner.batch.BatchRunner`.

Everything is dependency-free (no numpy/scipy needed at runtime): the
confidence interval uses a small Student-t table with a normal fall-back for
large samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from ..core.bounds import agreement_bound
from ..core.config import SyncParameters
from ..runner.replication import replicate
from ..runner.spec import RunSpec

__all__ = [
    "SummaryStats",
    "summarize",
    "bound_margin",
    "compare_samples",
]

# Two-sided 95% Student-t critical values by degrees of freedom (1..30); the
# normal value 1.96 is used beyond the table.
_T_TABLE = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447, 7: 2.365,
    8: 2.306, 9: 2.262, 10: 2.228, 11: 2.201, 12: 2.179, 13: 2.160, 14: 2.145,
    15: 2.131, 16: 2.120, 17: 2.110, 18: 2.101, 19: 2.093, 20: 2.086,
    21: 2.080, 22: 2.074, 23: 2.069, 24: 2.064, 25: 2.060, 26: 2.056,
    27: 2.052, 28: 2.048, 29: 2.045, 30: 2.042,
}


def _t_critical(dof: int) -> float:
    if dof <= 0:
        return float("inf")
    return _T_TABLE.get(dof, 1.96)


@dataclass(frozen=True)
class SummaryStats:
    """Five-number-plus summary of a sample of measurements."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float
    median: float
    ci95_low: float
    ci95_high: float

    def ci95(self) -> tuple:
        """The (low, high) 95% confidence interval on the mean."""
        return self.ci95_low, self.ci95_high

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (f"n={self.count} mean={self.mean:.6g} std={self.std:.6g} "
                f"min={self.minimum:.6g} max={self.maximum:.6g} "
                f"ci95=[{self.ci95_low:.6g}, {self.ci95_high:.6g}]")


def summarize(values: Sequence[float]) -> SummaryStats:
    """Summary statistics (mean, std, extrema, median, t-based 95% CI)."""
    data = [float(v) for v in values]
    if not data:
        raise ValueError("cannot summarize an empty sample")
    count = len(data)
    ordered = sorted(data)
    # fsum keeps the mean accurate for large samples; the clamp guards against
    # the one-ulp drift a final rounding can introduce (the true mean always
    # lies inside [min, max]).
    mean = min(max(math.fsum(data) / count, ordered[0]), ordered[-1])
    if count > 1:
        variance = math.fsum((v - mean) ** 2 for v in data) / (count - 1)
    else:
        variance = 0.0
    std = math.sqrt(variance)
    middle = count // 2
    if count % 2:
        median = ordered[middle]
    else:
        median = 0.5 * (ordered[middle - 1] + ordered[middle])
    if count > 1:
        half_width = _t_critical(count - 1) * std / math.sqrt(count)
    else:
        # One observation carries no dispersion estimate: the t-interval is
        # undefined (dof = 0, critical value inf, inf * 0 std = NaN).  Return
        # the degenerate point-estimate interval instead, so single-seed
        # replicate() calls report ci95_low == ci95_high == mean, never NaN.
        half_width = 0.0
    return SummaryStats(count=count, mean=mean, std=std,
                        minimum=ordered[0], maximum=ordered[-1], median=median,
                        ci95_low=mean - half_width, ci95_high=mean + half_width)


def bound_margin(stats: SummaryStats, bound: float) -> float:
    """How much head-room the worst observation leaves under a bound.

    Returns ``(bound − max) / bound``: 1 means the measurements are far below
    the bound, 0 means the worst case touches it, negative means a violation.
    """
    if bound <= 0:
        raise ValueError("bound must be positive")
    return (bound - stats.maximum) / bound


def compare_samples(a: Sequence[float], b: Sequence[float]) -> Dict[str, float]:
    """Compare two samples (e.g. an ablation): mean difference and overlap.

    Returns a dict with the two means, the difference of means (``a − b``),
    the ratio ``mean(a)/mean(b)`` (``inf`` when b's mean is 0), and Cohen's d
    computed with the pooled standard deviation (0 when both samples are
    constant).
    """
    stats_a, stats_b = summarize(a), summarize(b)
    pooled_var = 0.0
    if stats_a.count + stats_b.count > 2:
        pooled_var = (((stats_a.count - 1) * stats_a.std ** 2
                       + (stats_b.count - 1) * stats_b.std ** 2)
                      / (stats_a.count + stats_b.count - 2))
    pooled_std = math.sqrt(pooled_var)
    difference = stats_a.mean - stats_b.mean
    return {
        "mean_a": stats_a.mean,
        "mean_b": stats_b.mean,
        "difference": difference,
        "ratio": (stats_a.mean / stats_b.mean) if stats_b.mean else float("inf"),
        "cohens_d": (difference / pooled_std) if pooled_std else 0.0,
    }


def agreement_margin_report(params: SyncParameters,
                            seeds: Sequence[int] = tuple(range(10)),
                            rounds: int = 10,
                            fault_kind: Optional[str] = "two_faced"
                            ) -> Dict[str, float]:
    """One-call report: agreement statistics plus the margin under γ.

    Each seed's agreement is measured from one round after the last
    nonfaulty START to the end of the run, over 150 samples.
    """
    spec = RunSpec.maintenance(params, rounds=rounds, fault_kind=fault_kind)
    stats = replicate(spec, seeds, samples=150).agreement
    gamma = agreement_bound(params)
    return {
        "gamma": gamma,
        "mean": stats.mean,
        "worst": stats.maximum,
        "ci95_high": stats.ci95_high,
        "margin": bound_margin(stats, gamma),
    }
