"""Cross-algorithm conformance: axioms A1–A3 and bound compliance, differentially.

Every algorithm in the repository — the paper's maintenance algorithm plus
the six Section 10 baselines — runs in the *same* system model, so the model
axioms are a shared contract:

* **A1** — every physical clock is ρ-bounded (its instantaneous rate stays in
  ``[1/(1+ρ), 1+ρ]``);
* **A2** — at most ``f`` faulty processes with ``n ≥ 3f + 1``;
* **A3** — every delivered message's end-to-end delay lies in ``[δ−ε, δ+ε]``.

On top of that shared contract, each algorithm carries its *own* agreement
bound (Theorem 16's γ for the paper's algorithm, the Section 10 closed-form
estimates for [LM]/[ST]/[HSSD], harness-pinned contracts for the algorithms
the paper gives no formula for, and the pure drift envelope for the
unsynchronized control).  The harness sweeps the cartesian product

    algorithms × fault models × topologies

as one batch of :class:`~repro.runner.spec.RunSpec` cells on a
:class:`~repro.runner.batch.BatchRunner` (no per-cell callback: the returned
report holds every outcome), audits every cell against the axioms (the rows of
:func:`repro.analysis.verification.check_axioms`, which ``net run`` reports
too), and checks bound compliance differentially: axiom
violations fail the matrix anywhere; bound violations fail it on *nonfaulty*
configurations (where every algorithm promises its bound) and are recorded —
not enforced — under fault injection, where the weaker baselines are
expected, and observed, to degrade.

``python -m repro conformance`` is the CLI face; the pytest suite in
``tests/integration/test_adversarial_conformance.py`` pins the default
matrix to zero violations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..clocks.base import rho_rate_bounds
from ..core.bounds import adjustment_bound, agreement_bound
from ..core.config import SyncParameters
from ..runner.batch import BatchRunner
from ..runner.spec import RunSpec

__all__ = [
    "ConformanceCase",
    "ConformanceOutcome",
    "ConformanceReport",
    "DEFAULT_FAULT_KINDS",
    "agreement_bound_for",
    "build_conformance_matrix",
    "check_conformance_run",
    "run_conformance",
]

#: the default fault-model axis: clean, Byzantine two-faced, mid-run crash.
DEFAULT_FAULT_KINDS: Tuple[Optional[str], ...] = (None, "two_faced", "crash")


# ---------------------------------------------------------------------------
# Per-algorithm agreement bounds (the differential half of the contract)
# ---------------------------------------------------------------------------

def _unsynchronized_bound(params: SyncParameters, window_end: float) -> float:
    """Drift envelope: with no synchronization at all, only A1 + A4 bound skew.

    Clocks start within β of each other and rates differ by at most
    ``(1+ρ) − 1/(1+ρ)``, so skew at real time t is at most ``β + spread·t``.
    This is the weakest sound bound in the harness — the control every real
    algorithm must beat.
    """
    low_rate, high_rate = rho_rate_bounds(params.rho)
    return params.beta + (high_rate - low_rate) * max(0.0, window_end)


def _interactive_convergence_bound(params: SyncParameters,
                                   window_end: float) -> float:
    """Section 10's [LM] estimate ≈ 2nε (also the Mahaney–Schneider contract).

    The paper states the interactive-convergence closeness as about ``2nε'``;
    Mahaney–Schneider's accept-and-average step converges the same way, so
    the harness pins it to the same contract.
    """
    return 2.0 * params.n * params.epsilon


def _broadcast_primitive_bound(params: SyncParameters,
                               window_end: float) -> float:
    """Section 10's [ST]/[HSSD] estimate: closeness about ``δ + ε``."""
    return params.delta + params.epsilon


def _intersection_bound(params: SyncParameters, window_end: float) -> float:
    """Harness contract for Marzullo's intersection algorithm: ``2(δ + ε)``.

    The paper gives no closed form; interval intersection recovers the source
    time to within the interval width, so twice the one-way worst case is the
    pinned contract (measured runs sit well inside it).
    """
    return 2.0 * (params.delta + params.epsilon)


def _welch_lynch_bound(params: SyncParameters, window_end: float) -> float:
    return agreement_bound(params)


#: algorithm name → (params, audit-window end) → agreement bound.
AGREEMENT_BOUNDS: Dict[str, Callable[[SyncParameters, float], float]] = {
    "welch_lynch": _welch_lynch_bound,
    "lamport_melliar_smith": _interactive_convergence_bound,
    "mahaney_schneider": _interactive_convergence_bound,
    "srikanth_toueg": _broadcast_primitive_bound,
    "hssd": _broadcast_primitive_bound,
    "marzullo": _intersection_bound,
    "unsynchronized": _unsynchronized_bound,
}


def agreement_bound_for(algorithm: str, params: SyncParameters,
                        window_end: float) -> float:
    """The agreement bound the conformance harness holds ``algorithm`` to."""
    try:
        bound = AGREEMENT_BOUNDS[algorithm]
    except KeyError:
        raise KeyError(f"no conformance bound registered for {algorithm!r}; "
                       f"known: {', '.join(sorted(AGREEMENT_BOUNDS))}") \
            from None
    return bound(params, window_end)


# ---------------------------------------------------------------------------
# Matrix construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConformanceCase:
    """One cell of the conformance matrix, with its executable spec."""

    algorithm: str
    fault_kind: Optional[str]
    topology: Optional[str]
    spec: RunSpec

    @property
    def nonfaulty(self) -> bool:
        """Whether this cell injects no faults (bounds are enforced here)."""
        return self.fault_kind is None

    @property
    def label(self) -> str:
        return (f"{self.algorithm}/{self.fault_kind or 'none'}"
                f"/{self.topology or 'complete'}")


def build_conformance_matrix(
    n: int = 7,
    f: int = 2,
    rounds: int = 6,
    seed: int = 0,
    algorithms: Optional[Sequence[str]] = None,
    fault_kinds: Sequence[Optional[str]] = DEFAULT_FAULT_KINDS,
    topologies: Sequence[Optional[str]] = (None,),
    delay: str = "uniform",
    params: Optional[SyncParameters] = None,
) -> List[ConformanceCase]:
    """The cartesian product algorithms × fault models × topologies, as specs.

    Every spec attaches the ``"network"`` observer so assumption A3 can be
    audited from the exact end-to-end records.  ``fault_kinds`` entries of
    ``None`` (or the string ``"none"``) mean no fault injection — those are
    the cells where bound compliance is enforced.
    """
    from ..analysis.experiments import ALGORITHM_FACTORIES, default_parameters
    if algorithms is None:
        algorithms = sorted(ALGORITHM_FACTORIES)
    if params is None:
        params = default_parameters(n=n, f=f)
    cases: List[ConformanceCase] = []
    for topology in topologies:
        for fault_kind in fault_kinds:
            kind = None if fault_kind in (None, "none") else fault_kind
            for algorithm in algorithms:
                spec = RunSpec.algorithm_run(
                    algorithm, params, rounds=rounds, fault_kind=kind,
                    delay=delay, topology=topology, seed=seed,
                    observers=("network",))
                cases.append(ConformanceCase(algorithm=algorithm,
                                             fault_kind=kind,
                                             topology=topology, spec=spec))
    return cases


# ---------------------------------------------------------------------------
# Per-run checking
# ---------------------------------------------------------------------------

@dataclass
class ConformanceOutcome:
    """The audited checks for one matrix cell."""

    case: ConformanceCase
    checks: List  # List[ClaimCheck]; untyped to avoid the analysis import here

    def check(self, claim: str):
        for item in self.checks:
            if item.claim == claim:
                return item
        raise KeyError(f"no claim named {claim!r} for {self.case.label}")

    @property
    def axioms_passed(self) -> bool:
        return all(item.passed for item in self.checks
                   if item.claim.startswith("axiom_"))

    @property
    def bounds_passed(self) -> bool:
        return all(item.passed for item in self.checks
                   if item.claim.startswith("bound_"))

    @property
    def passed(self) -> bool:
        """Axioms always; bounds only where the cell enforces them."""
        return self.axioms_passed and (self.bounds_passed
                                       or not self.case.nonfaulty)


def check_conformance_run(result, case: ConformanceCase,
                          settle_rounds: int = 2, samples: int = 100,
                          tolerance: float = 1e-9) -> ConformanceOutcome:
    """Audit one finished run against the axioms and its algorithm's bound."""
    from ..analysis.metrics import measured_agreement
    from ..analysis.verification import ClaimCheck, check_axioms

    params: SyncParameters = result.params
    trace = result.trace
    recorder = result.online("network")
    if recorder is None:
        raise ValueError(f"{case.label}: the conformance spec must attach "
                         f"the 'network' observer for the A3 audit")
    # A1-A3 against the run's own (topology-effective) delta and epsilon.
    pids = sorted(set(trace.nonfaulty_ids) | trace.faulty_ids)
    checks: List[ClaimCheck] = check_axioms(
        params, {pid: trace.view(pid).physical_clock for pid in pids},
        len(trace.faulty_ids), recorder.records, result.end_time,
        tolerance=tolerance)

    # The algorithm's own agreement bound over the settled window.
    start = result.tmax0 + settle_rounds * params.round_length
    agreement = measured_agreement(trace, start, result.end_time,
                                   samples=samples)
    bound = agreement_bound_for(case.algorithm, params, result.end_time)
    checks.append(ClaimCheck(
        claim="bound_agreement",
        bound=bound, measured=agreement,
        passed=agreement <= bound + tolerance,
        detail=f"window [{start:.4f}, {result.end_time:.4f}], "
               f"{samples} samples" + ("" if case.nonfaulty
                                       else " (recorded, not enforced)"),
    ))

    # Theorem 4(a) applies to the paper's algorithm specifically.
    if case.algorithm == "welch_lynch":
        from ..analysis.metrics import adjustment_statistics
        stats = adjustment_statistics(trace)
        adj_bound = adjustment_bound(params)
        checks.append(ClaimCheck(
            claim="bound_adjustment",
            bound=adj_bound, measured=stats.max_abs,
            passed=stats.max_abs <= adj_bound + tolerance,
            detail=f"{stats.count} adjustments",
        ))
    return ConformanceOutcome(case=case, checks=checks)


# ---------------------------------------------------------------------------
# The harness
# ---------------------------------------------------------------------------

@dataclass
class ConformanceReport:
    """Every audited cell of one conformance matrix."""

    outcomes: List[ConformanceOutcome] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """Axioms hold everywhere; bounds hold on every nonfaulty cell."""
        return all(outcome.passed for outcome in self.outcomes)

    def violations(self) -> List[Tuple[ConformanceCase, object]]:
        """Every enforced check that failed, as (case, claim-check) pairs."""
        failed = []
        for outcome in self.outcomes:
            for check in outcome.checks:
                if check.passed:
                    continue
                if check.claim.startswith("bound_") \
                        and not outcome.case.nonfaulty:
                    continue  # recorded, not enforced, under fault injection
                failed.append((outcome.case, check))
        return failed

    def rows(self) -> List[Tuple]:
        """Table rows: one per cell, with per-check verdicts."""
        rows = []
        for outcome in self.outcomes:
            case = outcome.case
            agreement = outcome.check("bound_agreement")
            rows.append((
                case.algorithm,
                case.fault_kind or "none",
                case.topology or "complete",
                "ok" if outcome.axioms_passed else "FAIL",
                agreement.measured,
                agreement.bound,
                ("pass" if agreement.passed
                 else ("over" if not case.nonfaulty else "FAIL")),
            ))
        return rows

    @staticmethod
    def headers() -> List[str]:
        return ["algorithm", "faults", "topology", "axioms A1-A3",
                "agreement", "bound", "verdict"]


def run_conformance(cases: Optional[Sequence[ConformanceCase]] = None,
                    runner: Optional[BatchRunner] = None,
                    settle_rounds: int = 2, samples: int = 100,
                    **matrix_kwargs) -> ConformanceReport:
    """Execute a conformance matrix and audit every cell.

    ``cases`` defaults to :func:`build_conformance_matrix` built from
    ``matrix_kwargs``.  All cells execute as one batch on ``runner``
    (default: a fresh in-process :class:`~repro.runner.batch.BatchRunner`;
    one with ``jobs=N`` fans them out with per-cell results bit-identical to
    serial execution).
    """
    if cases is None:
        cases = build_conformance_matrix(**matrix_kwargs)
    elif matrix_kwargs:
        raise ValueError("pass either explicit cases or matrix kwargs, "
                         "not both")
    batch = runner if runner is not None else BatchRunner()
    report = ConformanceReport()
    results = batch.run_iter([case.spec for case in cases])
    for case in cases:
        report.outcomes.append(check_conformance_run(
            next(results), case, settle_rounds=settle_rounds,
            samples=samples))
    return report
