"""Unit tests for repro.analysis.verification (the theorem checker)."""

import pytest

from repro.analysis import (
    check_maintenance_run,
    check_startup_run,
    format_report,
    run_maintenance_scenario,
    run_startup_scenario,
)
from repro.analysis.online import build_observers
from repro.analysis.verification import (
    audit,
    check_axioms,
    check_partition_heal_run,
)
from repro.analysis.workloads import build_spec, get_workload
from repro.clocks import ConstantRateClock, rho_rate_bounds
from repro.core import PlainMean, agreement_bound
from repro.runner import RunSpec, execute
from repro.sim.recording import MessageRecord


class TestMaintenanceReport:
    def test_clean_run_passes_every_claim(self, medium_params):
        result = run_maintenance_scenario(medium_params, rounds=8,
                                          fault_kind="two_faced", seed=0)
        report = check_maintenance_run(result)
        assert report.all_passed
        assert report.failed() == []
        names = {check.claim for check in report.checks}
        assert names == {"theorem4a_adjustment", "theorem4c_round_spread",
                         "theorem16_agreement", "theorem19_validity"}

    def test_measured_values_are_consistent_with_bounds(self, medium_params):
        result = run_maintenance_scenario(medium_params, rounds=8,
                                          fault_kind="skew_late", seed=1)
        report = check_maintenance_run(result)
        agreement = report.check("theorem16_agreement")
        assert agreement.bound == pytest.approx(agreement_bound(medium_params))
        assert 0 < agreement.measured <= agreement.bound
        spread = report.check("theorem4c_round_spread")
        assert spread.bound == medium_params.beta

    def test_lookup_of_unknown_claim_raises(self, medium_params):
        result = run_maintenance_scenario(medium_params, rounds=5,
                                          fault_kind=None, seed=2)
        report = check_maintenance_run(result)
        with pytest.raises(KeyError):
            report.check("theorem42")

    def test_broken_algorithm_is_flagged(self, medium_params):
        """Replacing the averaging with a plain mean under attack fails the audit.

        The random-noise attackers report round values that are many rounds
        off; without the ``reduce`` step those values reach the average and
        wreck the adjustments, which the checker must flag.
        """
        result = run_maintenance_scenario(medium_params, rounds=8,
                                          fault_kind="random_noise",
                                          averaging=PlainMean(), seed=3)
        report = check_maintenance_run(result)
        assert not report.all_passed
        failed_names = {check.claim for check in report.failed()}
        # The plain mean lets the attackers push adjustments and/or skew past
        # the bounds; at least one of the agreement-related claims must fail.
        assert failed_names & {"theorem16_agreement", "theorem4a_adjustment",
                               "theorem4c_round_spread"}

    def test_format_report_mentions_verdict(self, medium_params):
        result = run_maintenance_scenario(medium_params, rounds=5,
                                          fault_kind=None, seed=4)
        text = format_report(check_maintenance_run(result))
        assert "theorem16_agreement" in text
        assert "all claims hold" in text

    def test_format_report_lists_violations(self, medium_params):
        result = run_maintenance_scenario(medium_params, rounds=8,
                                          fault_kind="random_noise",
                                          averaging=PlainMean(), seed=5)
        text = format_report(check_maintenance_run(result))
        assert "VIOLATED" in text


class TestStartupReport:
    def test_startup_run_satisfies_lemma20_every_round(self, medium_params):
        result = run_startup_scenario(medium_params, rounds=8, initial_spread=1.0,
                                      seed=6)
        report = check_startup_run(result)
        assert report.all_passed
        assert len(report.checks) >= 5
        assert all(check.claim.startswith("lemma20_round_") for check in report.checks)

    def test_bounds_follow_the_recurrence(self, medium_params):
        result = run_startup_scenario(medium_params, rounds=6, initial_spread=0.5,
                                      seed=7)
        report = check_startup_run(result)
        bounds = [check.bound for check in report.checks]
        # The recurrence bound itself decays (roughly halves) round over round
        # while the spreads are far from the fixed point.
        assert bounds[1] < bounds[0]


class TestAudit:
    """audit() judges a result by the evidence it carries."""

    @staticmethod
    def spec(params, **changes):
        return RunSpec.maintenance(params, rounds=5, seed=4, **changes)

    def test_traced_run_gets_the_full_audit(self, medium_params):
        result = execute(self.spec(medium_params))
        assert audit(result).checks == check_maintenance_run(result).checks

    def test_streamed_run_gets_the_trace_audits_rows(self, medium_params):
        observers = ("skew", "validity")
        streamed = execute(self.spec(medium_params, record_trace=False,
                                     observers=observers))
        traced = check_maintenance_run(execute(self.spec(
            medium_params, observers=observers)))
        report = audit(streamed)
        assert [check.claim for check in report.checks] == [
            "theorem16_agreement", "theorem19_validity"]
        for check in report.checks:
            reference = traced.check(check.claim)
            assert (check.bound, check.measured, check.passed) == (
                reference.bound, reference.measured, reference.passed)

    def test_streamed_run_without_auditing_observers_is_refused(
            self, medium_params):
        result = execute(self.spec(medium_params, record_trace=False,
                                   observers=("network",)))
        with pytest.raises(ValueError, match="'skew' and 'validity'"):
            audit(result)

    def test_streamed_run_without_a_spec_is_audited_online(
            self, medium_params):
        # A direct builder call carries no spec; its bounded correction
        # histories still mark it as streamed.
        def observers(system, start_times, end_time, params):
            return build_observers(("skew", "validity"), system, params,
                                   start_times, end_time)

        streamed = run_maintenance_scenario(medium_params, rounds=5, seed=4,
                                            record_trace=False,
                                            observers=observers)
        assert streamed.spec is None and not streamed.trace.events
        report = audit(streamed)
        assert [check.claim for check in report.checks] == [
            "theorem16_agreement", "theorem19_validity"]
        traced = check_maintenance_run(execute(self.spec(medium_params)))
        for check in report.checks:
            reference = traced.check(check.claim)
            assert (check.bound, check.measured, check.passed) == (
                reference.bound, reference.measured, reference.passed)
        bare = run_maintenance_scenario(medium_params, rounds=5, seed=4,
                                        record_trace=False)
        with pytest.raises(ValueError, match="'skew' and 'validity'"):
            audit(bare)

    def test_partition_heal_run_gets_its_own_claims(self):
        result = execute(build_spec(get_workload("partition-heal"),
                                    rounds=10))
        assert audit(result).checks == check_partition_heal_run(result).checks


class TestAxioms:
    """The A1-A3 rows conformance and the real-socket runs share."""

    @staticmethod
    def rows(params, rates=None, faulty=0, delays=()):
        low, high = rho_rate_bounds(params.rho)
        rates = rates if rates is not None else [low, 1.0, high]
        # The clocks' own drift bound is looser than the model's ρ, so a
        # rate outside the model's band can be built.
        clocks = {pid: ConstantRateClock(offset=0.0, rate=rate, rho=1e-2)
                  for pid, rate in enumerate(rates)}
        records = [MessageRecord(sender=0, recipient=1, send_time=0.0,
                                 delay=delay) for delay in delays]
        return {check.claim: check
                for check in check_axioms(params, clocks, faulty, records,
                                          end_time=1.0)}

    def test_clean_evidence_passes_all_three(self, medium_params):
        rows = self.rows(medium_params, faulty=2,
                         delays=[medium_params.delta, None])
        assert list(rows) == ["axiom_a1_rate_bound",
                              "axiom_a2_fault_threshold",
                              "axiom_a3_delay_envelope"]
        assert all(check.passed for check in rows.values())
        assert rows["axiom_a3_delay_envelope"].detail == \
            "2 end-to-end records"

    def test_each_axiom_fails_on_its_own_evidence(self, medium_params):
        params = medium_params
        _, high = rho_rate_bounds(params.rho)
        assert not self.rows(params, rates=[high + 1e-3])[
            "axiom_a1_rate_bound"].passed
        assert not self.rows(params, faulty=3)[
            "axiom_a2_fault_threshold"].passed
        late = params.delta + params.epsilon + 1e-6
        a3 = self.rows(params, delays=[params.delta, late])[
            "axiom_a3_delay_envelope"]
        assert not a3.passed and a3.measured == 1.0
