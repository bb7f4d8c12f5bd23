"""Theorem checking: audit a finished run against every claim of the paper.

The paper-claim tests (``tests/integration/test_claims_*.py``) check
individual claims; this module bundles the checks into a single report so
that any scenario — including ones a user of the library assembles by
hand — can be audited after the fact:

* **Theorem 4(a)** — every adjustment applied by a nonfaulty process is at
  most ``(1+ρ)(β+ε) + ρδ`` in magnitude;
* **Theorem 4(c)** — the nonfaulty processes begin every round within β real
  time of each other;
* **Theorem 16** — γ-agreement over the post-transient window;
* **Theorem 19** — the (α₁, α₂, α₃) validity envelope;
* **Lemma 20** (for start-up runs) — the per-round spread recurrence;
* **partition-and-heal** (for runs with a network partition) — divergence
  while split, then re-convergence inside the Lemma 20 halving envelope once
  healed;
* **axioms A1–A3** (for the conformance matrix and real-socket runs) —
  ρ-bounded clock rates, ``n ≥ 3f + 1``, every delivered delay inside
  ``[δ−ε, δ+ε]``.

Each check produces a :class:`ClaimCheck` with the bound, the measured value,
and a pass flag; :func:`format_report` renders the familiar paper-vs-measured
table.  :func:`audit` is the one verdict for a maintenance run: it picks the
partition-heal, trace or online-observer audit the result's evidence
supports.  The Theorem 16/19 rows and the A1–A3 rows are each built in one
place (:func:`agreement_check`, :func:`validity_check`,
:func:`check_axioms`), so every substrate — trace, online observers,
conformance cells, real sockets — judges them by the same rule under the
same claim names.

Every grid-sampled quantity here (agreement windows, validity envelopes,
divergence series, boundary skews) evaluates through the trace's batched
reconstruction index (:mod:`repro.sim.traceindex`), so full audits stay
cheap even at n in the hundreds; results are bit-identical to the seed's
per-sample loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..clocks.base import Clock, rho_rate_bounds
from ..core.bounds import (
    adjustment_bound,
    agreement_bound,
    startup_round_recurrence,
)
from ..core.config import SyncParameters
from ..sim.recording import MessageRecord, envelope_violations
from .experiments import PartitionHealResult, ScenarioResult
from .metrics import (
    ValidityReport,
    adjustment_statistics,
    cross_group_divergence,
    divergence_series,
    measured_agreement,
    round_start_spreads,
    startup_spread_series,
    validity_report,
)
from .reporting import format_paper_vs_measured

__all__ = [
    "ClaimCheck",
    "TheoremReport",
    "audit",
    "agreement_check",
    "validity_check",
    "check_axioms",
    "check_online_run",
    "check_maintenance_run",
    "check_startup_run",
    "check_partition_heal_run",
    "check_certificate",
    "format_report",
]


@dataclass(frozen=True)
class ClaimCheck:
    """One audited claim: its bound, the measured value, and the verdict."""

    claim: str
    bound: float
    measured: float
    passed: bool
    detail: str = ""


@dataclass
class TheoremReport:
    """The collection of claim checks for one run."""

    params: SyncParameters
    checks: List[ClaimCheck]

    @property
    def all_passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def failed(self) -> List[ClaimCheck]:
        return [check for check in self.checks if not check.passed]

    def check(self, claim: str) -> ClaimCheck:
        """Look up one claim by name."""
        for item in self.checks:
            if item.claim == claim:
                return item
        raise KeyError(f"no claim named {claim!r} in this report")

    @property
    def verdict(self) -> str:
        """One line: every claim holds, or which ones are violated."""
        failed = self.failed()
        if not failed:
            return "all claims hold"
        return (f"{len(failed)} claim(s) VIOLATED: "
                + ", ".join(check.claim for check in failed))


def audit(result: ScenarioResult, samples: int = 200) -> TheoremReport:
    """The one verdict for a maintenance run, from the evidence it carries.

    * a partition-and-heal run: :func:`check_partition_heal_run`;
    * a run that recorded no trace: :func:`check_online_run`, the Theorem
      16/19 rows from its online observers.  Such a run logs no events and
      keeps only the recent tail of each correction history, so the trace
      audit would judge it on evidence it no longer has.  Its bounded
      histories say so, with or without a spec;
    * any other run: the full trace audit, :func:`check_maintenance_run`
      over ``samples`` grid points.
    """
    if result.is_partition_heal:
        return check_partition_heal_run(result)
    trace = result.trace
    if any(trace.correction_history(pid).bounded
           for pid in trace.nonfaulty_ids):
        return check_online_run(result)
    return check_maintenance_run(result, samples=samples)


def agreement_check(bound: float, measured: float, tolerance: float = 1e-9,
                    detail: str = "") -> ClaimCheck:
    """The Theorem 16 row: the measured skew is within ``bound + tolerance``."""
    return ClaimCheck(claim="theorem16_agreement", bound=bound,
                      measured=measured, passed=measured <= bound + tolerance,
                      detail=detail)


def validity_check(report: ValidityReport) -> ClaimCheck:
    """The Theorem 19 row: no local-time sample outside the envelope."""
    return ClaimCheck(
        claim="theorem19_validity",
        bound=0.0,
        measured=float(report.violations),
        passed=report.holds,
        detail=(f"rates in [{report.min_rate:.6f}, {report.max_rate:.6f}] "
                f"over {report.samples} samples"),
    )


def check_online_run(result: ScenarioResult) -> TheoremReport:
    """Audit a run against Theorems 16 and 19 from its online observers.

    The ``skew`` and ``validity`` observers sample the windows and grids of
    :func:`check_maintenance_run` (see
    :func:`repro.analysis.online.build_observers`), so on a run that also
    recorded its trace both audits give the same two rows.
    """
    skew, validity = result.online("skew"), result.online("validity")
    if skew is None or validity is None:
        raise ValueError("a run without a trace is audited from its online "
                         "observers: attach both 'skew' and 'validity'")
    return TheoremReport(params=result.params, checks=[
        agreement_check(agreement_bound(result.params), skew.max_skew,
                        detail=f"{skew.samples} online samples"),
        validity_check(validity.report()),
    ])


def check_axioms(params: SyncParameters, clocks: Dict[int, Clock],
                 faulty: int, records: Sequence[MessageRecord],
                 end_time: float, tolerance: float = 1e-9
                 ) -> List[ClaimCheck]:
    """The model axioms A1–A3 on one run's evidence, one row each.

    * ``axiom_a1_rate_bound`` — every physical clock's rate, probed at eight
      evenly spaced times in ``[0, end_time]``, stays in the ρ band (with
      1e-6 of slack for numerically differentiated rates);
    * ``axiom_a2_fault_threshold`` — ``faulty`` processes leave
      ``n ≥ 3·faulty + 1``;
    * ``axiom_a3_delay_envelope`` — every delivered record's delay lies in
      ``[δ−ε, δ+ε]`` of ``params`` (the topology-effective or the measured
      envelope, whichever the run's parameters carry).
    """
    low_rate, high_rate = rho_rate_bounds(params.rho)
    probes = [end_time * index / 7.0 for index in range(8)]
    worst_excess = 0.0
    for clock in clocks.values():
        for t in probes:
            rate = clock.rate_at(t)
            worst_excess = max(worst_excess, rate - high_rate,
                               low_rate - rate)
    offenders = envelope_violations(records, params.delta, params.epsilon)
    return [
        ClaimCheck(
            claim="axiom_a1_rate_bound",
            bound=0.0, measured=worst_excess,
            passed=worst_excess <= 1e-6 + tolerance,
            detail=f"rates of {len(clocks)} clocks probed at {len(probes)} "
                   f"times against [{low_rate:.6f}, {high_rate:.6f}]",
        ),
        ClaimCheck(
            claim="axiom_a2_fault_threshold",
            bound=float((params.n - 1) // 3), measured=float(faulty),
            passed=params.n >= 3 * faulty + 1,
            detail=f"n={params.n}, {faulty} faulty",
        ),
        ClaimCheck(
            claim="axiom_a3_delay_envelope",
            bound=0.0, measured=float(len(offenders)),
            passed=not offenders,
            detail=f"{len(records)} end-to-end records",
        ),
    ]


def _settle_time(result: ScenarioResult, settle_rounds: int) -> float:
    return result.tmax0 + settle_rounds * result.params.round_length


def check_maintenance_run(result: ScenarioResult, settle_rounds: int = 1,
                          samples: int = 200,
                          tolerance: float = 1e-9) -> TheoremReport:
    """Audit a maintenance-algorithm run against Theorems 4, 16 and 19.

    ``settle_rounds`` rounds after the latest nonfaulty START are excluded
    from the agreement/validity windows, matching the theorems' "for all
    t ≥ tmin⁰" once the initial transient (which the paper folds into β and
    the round-0 adjustment) has passed.
    """
    params = result.params
    checks: List[ClaimCheck] = []

    # Theorem 4(a): adjustment bound.
    stats = adjustment_statistics(result.trace)
    bound = adjustment_bound(params)
    checks.append(ClaimCheck(
        claim="theorem4a_adjustment",
        bound=bound,
        measured=stats.max_abs,
        passed=stats.max_abs <= bound + tolerance,
        detail=f"{stats.count} adjustments audited",
    ))

    # Theorem 4(c): round-start spread within beta, for every observed round.
    spreads = round_start_spreads(result.trace)
    worst_spread = max(spreads.values()) if spreads else 0.0
    checks.append(ClaimCheck(
        claim="theorem4c_round_spread",
        bound=params.beta,
        measured=worst_spread,
        passed=worst_spread <= params.beta + tolerance,
        detail=f"{len(spreads)} rounds audited",
    ))

    # Theorem 16: gamma-agreement after the transient.
    start = _settle_time(result, settle_rounds)
    gamma = agreement_bound(params)
    skew = measured_agreement(result.trace, start, result.end_time, samples=samples)
    checks.append(agreement_check(
        gamma, skew, tolerance,
        detail=f"window [{start:.4f}, {result.end_time:.4f}], {samples} samples"))

    # Theorem 19: validity envelope.
    checks.append(validity_check(validity_report(
        result.trace, params, result.tmin0, result.tmax0, start,
        result.end_time, samples=max(50, samples // 2))))
    return TheoremReport(params=params, checks=checks)


def check_startup_run(result: ScenarioResult, tolerance: float = 1e-9
                      ) -> TheoremReport:
    """Audit a start-up run against the Lemma 20 recurrence.

    One claim per round transition: ``B^{i+1} ≤ B^i/2 + 2ε + 2ρ(11δ + 39ε)``.
    """
    params = result.params
    series = startup_spread_series(result.trace)
    checks: List[ClaimCheck] = []
    for index, (before, after) in enumerate(zip(series, series[1:])):
        bound = startup_round_recurrence(params, before)
        checks.append(ClaimCheck(
            claim=f"lemma20_round_{index}",
            bound=bound,
            measured=after,
            passed=after <= bound + tolerance,
            detail=f"B^{index} = {before:.6f}",
        ))
    return TheoremReport(params=params, checks=checks)


def check_partition_heal_run(result: PartitionHealResult,
                             divergence_factor: float = 1.5,
                             heal_rounds: int = 4,
                             tolerance: float = 1e-9) -> TheoremReport:
    """Audit a partition-and-heal run: split sides diverge, healing re-converges.

    Three kinds of claims:

    * ``partition_divergence`` — the maximum cross-group divergence while the
      network is split must exceed ``divergence_factor`` times the settled
      post-heal divergence (the healed network is the natural reference: it
      shows what the same clocks and delays produce when connected).  Note
      the *inverted* sense: this claim passes when the measured value
      EXCEEDS the bound, demonstrating that the partition really did what a
      partition does.
    * ``lemma20_heal_round_i`` — once healed, the round-boundary skews obey
      the Lemma 20 halving recurrence ``B^{k+1} ≤ B^k/2 + 2ε + 2ρ(11δ+39ε)``
      (healing is re-synchronization from spread clocks, exactly the start-up
      regime, so the start-up envelope is the right yardstick).
    * ``healed_agreement`` — from two rounds after the heal to the end of the
      run, the global skew is back inside the Theorem 16 γ bound.
    """
    params = result.params
    P = params.round_length
    checks: List[ClaimCheck] = []

    available = max(0.0, result.end_time - result.heal_time)
    rounds_available = min(heal_rounds, int(available / P))
    boundary_skews = [result.trace.skew(result.heal_time + k * P)
                      for k in range(rounds_available + 1)]

    # Divergence while split, against the settled healed reference.
    during = max(d for _, d in divergence_series(
        result.trace, result.groups,
        result.partition_start + P, result.heal_time, samples=80))
    settled_times = [result.heal_time + k * P
                     for k in range(2, rounds_available + 1)] or [result.end_time]
    healed = min(cross_group_divergence(result.trace, result.groups, t)
                 for t in settled_times)
    reference = divergence_factor * healed
    checks.append(ClaimCheck(
        claim="partition_divergence",
        bound=reference,
        measured=during,
        passed=during > reference,
        detail=(f"groups {'/'.join(str(len(g)) for g in result.groups)}; "
                f"healed reference {healed:.6f} x {divergence_factor:g} "
                f"(this claim passes when measured EXCEEDS the bound)"),
    ))

    # Lemma 20 halving once healed.
    for index, (before, after) in enumerate(zip(boundary_skews,
                                                boundary_skews[1:])):
        bound = startup_round_recurrence(params, before)
        checks.append(ClaimCheck(
            claim=f"lemma20_heal_round_{index}",
            bound=bound,
            measured=after,
            passed=after <= bound + tolerance,
            detail=f"B^{index} = {before:.6f} at heal + {index}P",
        ))

    # Global agreement restored.
    start = min(result.heal_time + 2 * P, result.end_time)
    gamma = agreement_bound(params)
    skew = measured_agreement(result.trace, start, result.end_time, samples=100)
    checks.append(ClaimCheck(
        claim="healed_agreement",
        bound=gamma,
        measured=skew,
        passed=skew <= gamma + tolerance,
        detail=f"window [{start:.4f}, {result.end_time:.4f}]",
    ))
    return TheoremReport(params=params, checks=checks)


def check_certificate(certificate, params: Optional[SyncParameters] = None,
                      tolerance: float = 1e-9) -> TheoremReport:
    """Audit a lower-bound certificate as a theorem report.

    Renders the :class:`repro.adversary.certifier.LowerBoundCertificate`
    claims in the same paper-vs-measured vocabulary as the upper-bound
    audits:

    * ``lower_bound_consistent`` — the offline re-check
      (:func:`repro.adversary.certifier.verify_certificate`) found no
      internal inconsistency and every shifted execution is admissible;
    * ``lower_bound_achieved`` — the certified family reaches the
      ε(1 − 1/n) floor.  *Inverted sense*: this claim passes when the
      measured skew EQUALS-OR-EXCEEDS the bound, demonstrating the
      impossibility result rather than an algorithm guarantee;
    * ``lower_bound_vs_gamma`` — the witnessing execution, being an
      admissible execution of the paper's algorithm, still respects the
      Theorem 16 γ from above; the gap between the two claims is the
      paper's open tightness window.

    ``params`` defaults to a parameter probe rebuilt from the certificate's
    stored constants (used only for the report header).
    """
    from ..adversary.certifier import verify_certificate

    problems = verify_certificate(certificate, tolerance=tolerance)
    if params is None:
        params = SyncParameters(
            n=certificate.n, f=0, rho=certificate.rho,
            delta=certificate.delta, epsilon=certificate.epsilon,
            beta=max(certificate.delta, 4 * certificate.epsilon, 1e-9),
            round_length=max(certificate.delta, 1e-9) * 10,
        )
    checks = [
        ClaimCheck(
            claim="lower_bound_consistent",
            bound=0.0,
            measured=float(len(problems) + (0 if certificate.verified else 1)),
            passed=certificate.verified and not problems,
            detail=("; ".join(problems) if problems
                    else f"{len(certificate.executions)} shifted executions "
                         f"admissible, views preserved"),
        ),
        ClaimCheck(
            claim="lower_bound_achieved",
            bound=certificate.bound,
            measured=certificate.achieved_skew,
            passed=certificate.achieved_skew >= certificate.bound - tolerance,
            detail="eps(1 - 1/n) floor; this claim passes when measured "
                   "EQUALS-OR-EXCEEDS the bound",
        ),
        ClaimCheck(
            claim="lower_bound_vs_gamma",
            bound=certificate.gamma,
            measured=certificate.achieved_skew,
            passed=certificate.achieved_skew <= certificate.gamma + tolerance,
            detail=f"the shifted executions stay inside Theorem 16's "
                   f"guarantee; window looseness gamma/lower = "
                   f"{certificate.gamma / certificate.bound:.2f}"
                   if certificate.bound > 0 else "degenerate bound",
        ),
    ]
    return TheoremReport(params=params, checks=checks)


def format_report(report: TheoremReport, precision: int = 6) -> str:
    """Render a report as the usual paper-vs-measured table plus a verdict."""
    table = format_paper_vs_measured(
        [(check.claim, check.bound, check.measured) for check in report.checks],
        precision=precision,
    )
    return f"{table}\n{report.verdict}"
