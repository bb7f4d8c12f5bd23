"""Unit tests for the cross-algorithm conformance harness."""

import pytest

from repro.adversary.conformance import (
    DEFAULT_FAULT_KINDS,
    ConformanceOutcome,
    agreement_bound_for,
    build_conformance_matrix,
    check_conformance_run,
    run_conformance,
)
from repro.analysis.experiments import ALGORITHM_FACTORIES, default_parameters
from repro.analysis.verification import ClaimCheck
from repro.core.bounds import agreement_bound
from repro.runner import execute


class TestMatrixConstruction:
    def test_default_matrix_covers_every_algorithm_and_fault_model(self):
        cases = build_conformance_matrix(n=7, f=2, rounds=4)
        algorithms = {case.algorithm for case in cases}
        fault_kinds = {case.fault_kind for case in cases}
        assert algorithms == set(ALGORITHM_FACTORIES)
        assert len(algorithms) >= 6          # the acceptance floor
        assert fault_kinds == set(DEFAULT_FAULT_KINDS)
        assert len(cases) == len(algorithms) * len(fault_kinds)
        for case in cases:
            assert case.spec.kind == "algorithm"
            assert case.spec.observers == ("network",)
            assert case.nonfaulty == (case.fault_kind is None)

    def test_none_string_normalizes_to_no_faults(self):
        cases = build_conformance_matrix(n=4, f=1, rounds=3,
                                         algorithms=["welch_lynch"],
                                         fault_kinds=["none", "silent"])
        assert [case.fault_kind for case in cases] == [None, "silent"]

    def test_topology_axis_threads_into_the_specs(self):
        cases = build_conformance_matrix(n=5, f=1, rounds=3,
                                         algorithms=["welch_lynch"],
                                         fault_kinds=[None],
                                         topologies=[None, "ring"])
        assert [case.spec.topology for case in cases] == [None, "ring"]
        assert cases[0].label == "welch_lynch/none/complete"
        assert cases[1].label == "welch_lynch/none/ring"


class TestAgreementBounds:
    def test_every_algorithm_has_a_registered_bound(self):
        params = default_parameters(n=7, f=2)
        for name in ALGORITHM_FACTORIES:
            assert agreement_bound_for(name, params, 10.0) > 0.0

    def test_welch_lynch_bound_is_theorem_16(self):
        params = default_parameters(n=7, f=2)
        assert agreement_bound_for("welch_lynch", params, 10.0) \
            == agreement_bound(params)

    def test_unsynchronized_bound_grows_with_the_window(self):
        params = default_parameters(n=7, f=2)
        early = agreement_bound_for("unsynchronized", params, 1.0)
        late = agreement_bound_for("unsynchronized", params, 100.0)
        assert late > early > params.beta

    def test_unknown_algorithm_is_a_helpful_error(self):
        params = default_parameters(n=4, f=1)
        with pytest.raises(KeyError, match="no conformance bound"):
            agreement_bound_for("quantum_sync", params, 1.0)


class TestCheckConformanceRun:
    def test_clean_cell_passes_every_check(self):
        cases = build_conformance_matrix(n=4, f=1, rounds=3,
                                         algorithms=["welch_lynch"],
                                         fault_kinds=[None])
        outcome = check_conformance_run(execute(cases[0].spec), cases[0])
        claims = {check.claim for check in outcome.checks}
        assert claims == {"axiom_a1_rate_bound", "axiom_a2_fault_threshold",
                          "axiom_a3_delay_envelope", "bound_agreement",
                          "bound_adjustment"}
        assert outcome.axioms_passed and outcome.bounds_passed
        assert outcome.passed

    def test_non_paper_algorithms_skip_the_adjustment_claim(self):
        cases = build_conformance_matrix(n=4, f=1, rounds=3,
                                         algorithms=["unsynchronized"],
                                         fault_kinds=[None])
        outcome = check_conformance_run(execute(cases[0].spec), cases[0])
        claims = {check.claim for check in outcome.checks}
        assert "bound_adjustment" not in claims
        assert outcome.passed

    def test_missing_network_observer_is_an_error(self):
        cases = build_conformance_matrix(n=4, f=1, rounds=3,
                                         algorithms=["welch_lynch"],
                                         fault_kinds=[None])
        bare = execute(cases[0].spec.replace(observers=()))
        with pytest.raises(ValueError, match="network"):
            check_conformance_run(bare, cases[0])


class TestEnforcementSemantics:
    def _outcome(self, fault_kind, bound_passed):
        case = build_conformance_matrix(
            n=4, f=1, rounds=3, algorithms=["welch_lynch"],
            fault_kinds=[fault_kind])[0]
        checks = [
            ClaimCheck(claim="axiom_a1_rate_bound", bound=0.0, measured=0.0,
                       passed=True),
            ClaimCheck(claim="bound_agreement", bound=1.0,
                       measured=0.5 if bound_passed else 2.0,
                       passed=bound_passed),
        ]
        return ConformanceOutcome(case=case, checks=checks)

    def test_bound_violations_fail_nonfaulty_cells(self):
        assert not self._outcome(None, bound_passed=False).passed

    def test_bound_violations_are_recorded_not_enforced_under_faults(self):
        outcome = self._outcome("two_faced", bound_passed=False)
        assert not outcome.bounds_passed
        assert outcome.passed

    def test_outcome_claim_lookup(self):
        outcome = self._outcome(None, bound_passed=True)
        assert outcome.check("bound_agreement").passed
        with pytest.raises(KeyError):
            outcome.check("no_such_claim")


class TestRunConformance:
    def test_small_matrix_reports_clean(self):
        report = run_conformance(n=4, f=1, rounds=3,
                                 algorithms=["welch_lynch",
                                             "unsynchronized"],
                                 fault_kinds=[None, "silent"])
        assert len(report.outcomes) == 4
        assert report.passed
        assert report.violations() == []
        rows = report.rows()
        assert len(rows) == 4
        assert len(report.headers()) == len(rows[0])
        assert {row[6] for row in rows} == {"pass"}

    def test_cases_and_matrix_kwargs_are_exclusive(self):
        cases = build_conformance_matrix(n=4, f=1, rounds=3,
                                         algorithms=["welch_lynch"],
                                         fault_kinds=[None])
        with pytest.raises(ValueError, match="not both"):
            run_conformance(cases, n=4)
