"""Multi-seed replication: one spec, many seeds, summary statistics.

The paper's theorems are worst-case statements while measurements depend on
the random draws of the delay model and the clock ensemble, so a credible
reproduction reports distributions, not single numbers.  :func:`replicate`
runs one :class:`~repro.runner.spec.RunSpec` across a list of seeds (through a
:class:`~repro.runner.batch.BatchRunner`, so seeds run in parallel with
``jobs > 1``) and summarizes the agreement and validity metrics with
mean/min/max and a Student-t 95% confidence interval (via
:func:`repro.analysis.statistics.summarize`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from .batch import BatchRunner
from .resilient import QuarantinedResult
from .spec import RunSpec

if TYPE_CHECKING:  # pragma: no cover - type-only imports, avoid the cycle
    from ..analysis.experiments import ScenarioResult
    from ..analysis.statistics import SummaryStats

__all__ = ["ReplicatedResult", "ReplicationError", "SeedFailure", "replicate"]


@dataclass(frozen=True)
class SeedFailure:
    """One seed's failure inside a replication: which seed, what happened."""

    seed: int
    error: str
    traceback: str = ""

    def describe(self) -> str:
        return f"seed {self.seed} failed: {self.error}"


class ReplicationError(RuntimeError):
    """Every seed of a replication failed — there is nothing to summarize.

    ``failures`` carries the per-seed :class:`SeedFailure` records, so the
    caller still sees exactly what went wrong where.
    """

    def __init__(self, message: str, failures: Tuple[SeedFailure, ...] = ()):
        super().__init__(message)
        self.failures = failures


@dataclass(frozen=True)
class ReplicatedResult:
    """One spec measured across many seeds.

    ``agreement`` summarizes the maximum nonfaulty skew (Theorem 16's γ
    territory) per seed; ``validity_violation_rate`` the fraction of local
    time samples outside the Theorem 19 envelope (0.0 everywhere the paper's
    claims hold).  ``results`` keeps the per-seed scenario results, in seed
    order, for callers that want to audit or export individual runs.

    A replication may be **partial**: ``seeds`` / ``*_values`` / ``results``
    cover only the seeds that completed, and ``failures`` records the ones
    that did not (empty in the common all-seeds-succeeded case).  Summary
    statistics are computed over the completed seeds only.
    """

    spec: RunSpec
    seeds: Tuple[int, ...]
    agreement: "SummaryStats"
    validity_violation_rate: "SummaryStats"
    agreement_values: Tuple[float, ...]
    validity_values: Tuple[float, ...]
    results: Tuple["ScenarioResult", ...]
    failures: Tuple[SeedFailure, ...] = ()

    @property
    def complete(self) -> bool:
        """True when every requested seed produced a result."""
        return not self.failures

    @property
    def failed_seeds(self) -> Tuple[int, ...]:
        """The seeds that failed, in request order."""
        return tuple(failure.seed for failure in self.failures)

    @property
    def worst_agreement(self) -> float:
        """The worst skew seen over every seed — what bounds must dominate."""
        return self.agreement.maximum

    @property
    def validity_holds(self) -> bool:
        """True when no seed produced a single validity-envelope violation."""
        return self.validity_violation_rate.maximum == 0.0

    def metrics(self) -> Dict[str, float]:
        """A flat dict of the summary numbers (for tables and CSV export)."""
        return {
            "seeds": float(len(self.seeds)),
            "failed_seeds": float(len(self.failures)),
            "agreement_mean": self.agreement.mean,
            "agreement_min": self.agreement.minimum,
            "agreement_max": self.agreement.maximum,
            "agreement_ci95_low": self.agreement.ci95_low,
            "agreement_ci95_high": self.agreement.ci95_high,
            "validity_violation_rate_mean": self.validity_violation_rate.mean,
            "validity_violation_rate_max": self.validity_violation_rate.maximum,
        }


def replicate(spec: RunSpec, seeds: Sequence[int], jobs: int = 1,
              runner: Optional[BatchRunner] = None, settle_rounds: int = 1,
              samples: int = 150,
              tolerate_failures: bool = False) -> ReplicatedResult:
    """Run ``spec`` once per seed and summarize agreement and validity.

    Agreement is measured from ``settle_rounds`` rounds after the last
    nonfaulty START (so the shared initial transient does not mask
    steady-state behaviour) to the end of each run.  ``runner`` lets callers
    share one :class:`BatchRunner` (and its cache) across replications;
    otherwise a fresh ``BatchRunner(jobs=jobs)`` is used.

    ``tolerate_failures=True`` makes the replication **partial-on-failure**
    instead of all-or-nothing: a failing seed becomes a :class:`SeedFailure`
    in ``result.failures`` while every completed seed keeps its result and
    the summaries cover the survivors.  (Quarantined specs from a
    :class:`~repro.runner.resilient.ResilientRunner` are folded the same way
    regardless of the flag — supervision already chose not to raise.)  Only
    when *every* seed fails is :class:`ReplicationError` raised.

    Streaming specs (``record_trace=False``) carry no usable trace, so their
    per-seed metrics come from the online observers instead — the spec must
    request at least ``('skew', 'validity')``.  The observer grids are the
    standard audit windows (1 settle round, 200/100 samples), so
    ``settle_rounds`` / ``samples`` do not apply to streamed replicas.
    """
    from ..analysis.metrics import measured_agreement, validity_report
    from ..analysis.statistics import summarize

    seeds = tuple(int(seed) for seed in seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"seeds must be distinct, got {seeds}")
    if not spec.record_trace and not {"skew", "validity"} <= set(spec.observers):
        raise ValueError(
            "replicating a record_trace=False spec needs online metrics: "
            "construct it with observers=('skew', 'validity')")
    batch = runner if runner is not None else BatchRunner(jobs=jobs)
    raw = batch.run([spec.with_seed(seed) for seed in seeds],
                    tolerate_failures=tolerate_failures)
    failures: List[SeedFailure] = []
    kept_seeds: List[int] = []
    results: List["ScenarioResult"] = []
    for seed, outcome in zip(seeds, raw):
        if isinstance(outcome, QuarantinedResult):
            failures.append(SeedFailure(seed=seed, error=outcome.last_error,
                                        traceback=outcome.last_traceback))
        else:
            kept_seeds.append(seed)
            results.append(outcome)
    if failures and not results:
        raise ReplicationError(
            f"all {len(seeds)} seeds failed; first: {failures[0].describe()}",
            failures=tuple(failures))
    agreements = []
    violation_rates = []
    for result in results:
        if not spec.record_trace:
            agreements.append(result.online("skew").max_skew)
            report = result.online("validity").report()
            violation_rates.append(report.violations / max(1, report.samples))
            continue
        start = result.tmax0 + settle_rounds * result.params.round_length
        agreements.append(measured_agreement(result.trace, start,
                                             result.end_time, samples=samples))
        report = validity_report(result.trace, result.params, result.tmin0,
                                 result.tmax0, start, result.end_time)
        violation_rates.append(report.violations / max(1, report.samples))
    return ReplicatedResult(
        spec=spec, seeds=tuple(kept_seeds),
        agreement=summarize(agreements),
        validity_violation_rate=summarize(violation_rates),
        agreement_values=tuple(agreements),
        validity_values=tuple(violation_rates),
        results=tuple(results),
        failures=tuple(failures),
    )
