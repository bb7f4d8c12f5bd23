"""The Section 10 comparison, measured (experiment E8).

Runs every algorithm in :data:`repro.analysis.experiments.ALGORITHM_FACTORIES`
on an identical workload (same clocks, same delay model, same faults, same
number of rounds) and collects the quantities Section 10 discusses for each:
achieved agreement (closeness of synchronization), maximum adjustment size,
and messages per round — next to the paper's qualitative estimate where it
gives one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from ..baselines.halpern_simons_strong_dolev import (
    hssd_adjustment_estimate,
    hssd_agreement_estimate,
)
from ..baselines.lamport_melliar_smith import (
    lm_adjustment_estimate,
    lm_agreement_estimate,
)
from ..baselines.srikanth_toueg import st_adjustment_estimate, st_agreement_estimate
from ..core.bounds import adjustment_bound, agreement_bound
from ..core.config import SyncParameters
from ..runner.batch import BatchRunner
from ..runner.replication import distinct_seeds
from ..runner.spec import RunSpec
from ..topology.base import Topology
from ..topology.spec import build_topology
from .experiments import (
    ALGORITHM_FACTORIES,
    ScenarioResult,
    effective_parameters,
)
from .metrics import adjustment_statistics, measured_agreement, messages_per_round
from .statistics import SummaryStats, summarize

__all__ = ["ComparisonRow", "ReplicatedComparisonRow", "run_comparison",
           "run_replicated_comparison", "paper_estimates"]


@dataclass(frozen=True)
class ComparisonRow:
    """One algorithm's measured behaviour on the shared workload."""

    algorithm: str
    agreement: float
    max_adjustment: float
    messages_per_round: float
    paper_agreement: Optional[float]
    paper_adjustment: Optional[float]


def paper_estimates(params: SyncParameters) -> Dict[str, Dict[str, Optional[float]]]:
    """Section 10's closed-form estimates, where the paper states one."""
    return {
        "welch_lynch": {"agreement": agreement_bound(params),
                        "adjustment": adjustment_bound(params)},
        "lamport_melliar_smith": {"agreement": lm_agreement_estimate(params),
                                  "adjustment": lm_adjustment_estimate(params)},
        "mahaney_schneider": {"agreement": None, "adjustment": None},
        "srikanth_toueg": {"agreement": st_agreement_estimate(params),
                           "adjustment": st_adjustment_estimate(params)},
        "hssd": {"agreement": hssd_agreement_estimate(params),
                 "adjustment": hssd_adjustment_estimate(params)},
        "marzullo": {"agreement": None, "adjustment": None},
        "unsynchronized": {"agreement": None, "adjustment": None},
    }


def _comparison_specs(params: SyncParameters, names: Sequence[str],
                      rounds: int, fault_kind: Optional[str],
                      fault_count: Optional[int], seed: int,
                      topology: Union[str, Topology, None]) -> List[RunSpec]:
    return [RunSpec.algorithm_run(name, params, rounds=rounds,
                                  fault_kind=fault_kind,
                                  fault_count=fault_count, seed=seed,
                                  topology=topology)
            for name in names]


def _measure_row(name: str, result: ScenarioResult, rounds: int,
                 settle_rounds: int,
                 estimates: Dict[str, Dict[str, Optional[float]]]
                 ) -> ComparisonRow:
    # tmax0 is a real time already; adding the logical initial_round_time
    # to it would push the window past the run's end whenever T0 > 0.
    start = result.tmax0 + settle_rounds * result.params.round_length
    agreement = measured_agreement(result.trace, start, result.end_time)
    stats = adjustment_statistics(result.trace)
    est = estimates.get(name, {})
    return ComparisonRow(
        algorithm=name,
        agreement=agreement,
        max_adjustment=stats.max_abs,
        messages_per_round=messages_per_round(result.trace, rounds),
        paper_agreement=est.get("agreement"),
        paper_adjustment=est.get("adjustment"),
    )


def run_comparison(
    params: SyncParameters,
    rounds: int = 10,
    algorithms: Optional[Sequence[str]] = None,
    fault_kind: Optional[str] = "two_faced",
    fault_count: Optional[int] = None,
    seed: int = 0,
    settle_rounds: int = 2,
    topology: Union[str, Topology, None] = None,
    runner: Optional[BatchRunner] = None,
) -> List[ComparisonRow]:
    """Run every requested algorithm on the same workload and summarize.

    Agreement is measured after ``settle_rounds`` rounds so the initial
    transient (which all the algorithms share) does not mask steady-state
    behaviour.  With a ``topology`` every algorithm relays over the same
    graph and the paper estimates use the topology-effective constants.

    The algorithms run as one batch on ``runner`` (default: a fresh
    in-process ``BatchRunner()``), so a runner with ``jobs=N`` runs up to N
    of them concurrently with per-algorithm results identical to serial
    execution.
    """
    names = list(algorithms) if algorithms is not None else list(ALGORITHM_FACTORIES)
    graph = build_topology(topology, n=params.n, seed=seed)
    estimates = paper_estimates(effective_parameters(params, graph))
    batch = runner if runner is not None else BatchRunner()
    results = batch.run(_comparison_specs(params, names, rounds, fault_kind,
                                          fault_count, seed, topology))
    return [_measure_row(name, result, rounds, settle_rounds, estimates)
            for name, result in zip(names, results)]


@dataclass(frozen=True)
class ReplicatedComparisonRow:
    """One algorithm's behaviour across many seeds of the shared workload."""

    algorithm: str
    agreement: SummaryStats
    max_adjustment: SummaryStats
    messages_per_round: float
    paper_agreement: Optional[float]
    paper_adjustment: Optional[float]


def run_replicated_comparison(
    params: SyncParameters,
    seeds: Sequence[int],
    rounds: int = 10,
    algorithms: Optional[Sequence[str]] = None,
    fault_kind: Optional[str] = "two_faced",
    fault_count: Optional[int] = None,
    settle_rounds: int = 2,
    topology: Union[str, Topology, None] = None,
    runner: Optional[BatchRunner] = None,
) -> List[ReplicatedComparisonRow]:
    """The Section 10 comparison with per-algorithm across-seed statistics.

    Every (algorithm, seed) pair becomes one spec and the whole product runs
    as a single batch, so a runner with ``jobs=N`` parallelizes across
    algorithms *and* seeds at once.  Each row summarizes agreement and max |ADJ| with
    mean/min/max and a 95% CI, which is what makes "algorithm A beats B"
    claims defensible rather than one lucky draw.
    """
    seeds = distinct_seeds(seeds)
    names = list(algorithms) if algorithms is not None else list(ALGORITHM_FACTORIES)
    # Estimates are closed-form per graph; for seed-dependent topology spec
    # strings (e.g. random_gnp) they use the first seed's draw.
    graph = build_topology(topology, n=params.n, seed=seeds[0])
    estimates = paper_estimates(effective_parameters(params, graph))
    specs = [spec
             for seed in seeds
             for spec in _comparison_specs(params, names, rounds, fault_kind,
                                           fault_count, seed, topology)]
    batch = runner if runner is not None else BatchRunner()
    results = batch.run(specs)
    per_algorithm: Dict[str, List[ComparisonRow]] = {name: [] for name in names}
    for spec, result in zip(specs, results):
        per_algorithm[spec.algorithm].append(
            _measure_row(spec.algorithm, result, rounds, settle_rounds,
                         estimates))
    rows: List[ReplicatedComparisonRow] = []
    for name in names:
        measured = per_algorithm[name]
        est = estimates.get(name, {})
        rows.append(ReplicatedComparisonRow(
            algorithm=name,
            agreement=summarize([row.agreement for row in measured]),
            max_adjustment=summarize([row.max_adjustment for row in measured]),
            messages_per_round=summarize(
                [row.messages_per_round for row in measured]).mean,
            paper_agreement=est.get("agreement"),
            paper_adjustment=est.get("adjustment"),
        ))
    return rows
