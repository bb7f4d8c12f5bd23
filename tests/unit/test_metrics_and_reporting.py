"""Unit tests for the analysis metrics, reporting helpers and comparison harness."""

import pytest

from repro.analysis import (
    adjustment_statistics,
    format_paper_vs_measured,
    format_quantity,
    format_series,
    format_table,
    local_time_rate_estimates,
    measured_agreement,
    messages_per_round,
    paper_estimates,
    round_start_spreads,
    run_comparison,
    run_maintenance_scenario,
    run_replicated_comparison,
    sample_grid,
    skew_series,
    steady_state_round_spread,
    validity_report,
)
from repro.core import SyncParameters, agreement_bound, validity_parameters


@pytest.fixture(scope="module")
def scenario(medium_params):
    return run_maintenance_scenario(medium_params, rounds=6, fault_kind="two_faced",
                                    seed=1)


class TestSampleGrid:
    def test_endpoints(self):
        grid = sample_grid(1.0, 2.0, 5)
        assert grid[0] == 1.0 and grid[-1] == 2.0 and len(grid) == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_grid(0.0, 1.0, 1)
        with pytest.raises(ValueError):
            sample_grid(2.0, 1.0, 5)


class TestAgreementMetrics:
    def test_measured_agreement_below_bound(self, scenario, medium_params):
        start = scenario.tmax0 + medium_params.round_length
        value = measured_agreement(scenario.trace, start, scenario.end_time)
        assert 0 < value <= agreement_bound(medium_params)

    def test_skew_series_shape(self, scenario):
        series = skew_series(scenario.trace, scenario.tmax0, scenario.end_time,
                             samples=20)
        assert len(series) == 20
        assert all(skew >= 0 for _, skew in series)

    def test_adjustment_statistics(self, scenario, medium_params):
        stats = adjustment_statistics(scenario.trace)
        assert stats.count == 6 * len(scenario.trace.nonfaulty_ids)
        assert 0 < stats.mean_abs <= stats.max_abs
        assert set(stats.per_process_max) == set(scenario.trace.nonfaulty_ids)

    def test_round_start_spreads_every_round(self, scenario):
        spreads = round_start_spreads(scenario.trace)
        assert set(spreads) == set(range(6))
        assert all(value >= 0 for value in spreads.values())

    def test_steady_state_round_spread(self, scenario, medium_params):
        steady = steady_state_round_spread(scenario.trace, skip_rounds=2)
        assert 0 < steady <= medium_params.beta

    def test_messages_per_round(self, scenario, medium_params):
        per_round = messages_per_round(scenario.trace, scenario.rounds)
        # Each correct process sends n messages per round; attackers add more.
        assert per_round >= (medium_params.n - medium_params.f) * medium_params.n
        assert messages_per_round(scenario.trace, 0) == 0.0


class TestValidityMetrics:
    def test_validity_report_holds(self, scenario, medium_params):
        report = validity_report(scenario.trace, medium_params,
                                 tmin0=scenario.tmin0, tmax0=scenario.tmax0,
                                 start=scenario.tmax0 + 0.01,
                                 end=scenario.end_time, samples=40)
        assert report.holds
        vp = validity_parameters(medium_params)
        assert vp.alpha1 - 1e-3 <= report.min_rate <= report.max_rate <= vp.alpha2 + 1e-3

    def test_rate_estimates(self, scenario):
        rates = local_time_rate_estimates(scenario.trace, scenario.tmax0 + 0.1,
                                          scenario.end_time)
        assert set(rates) == set(scenario.trace.nonfaulty_ids)
        assert all(0.99 < rate < 1.01 for rate in rates.values())

    def test_rate_estimate_validation(self, scenario):
        with pytest.raises(ValueError):
            local_time_rate_estimates(scenario.trace, 5.0, 5.0)


class TestReporting:
    def test_format_quantity(self):
        assert format_quantity(None) == "-"
        assert format_quantity(True) == "yes"
        assert format_quantity(1.23456789, precision=3) == "1.23"
        assert format_quantity("name") == "name"

    def test_format_table_alignment(self):
        table = format_table(["a", "bbb"], [[1, 2.5], ["x", None]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert "-" in lines[1]

    def test_format_paper_vs_measured_ratio(self):
        out = format_paper_vs_measured([("gamma", 2.0, 1.0)])
        assert "0.5" in out

    def test_format_series(self):
        assert format_series("B", [1.0, 0.5]) == "B: [1, 0.5]"


class TestComparison:
    def test_paper_estimates_cover_all_algorithms(self, medium_params):
        estimates = paper_estimates(medium_params)
        assert "welch_lynch" in estimates and "hssd" in estimates
        assert estimates["welch_lynch"]["agreement"] == pytest.approx(
            agreement_bound(medium_params))

    def test_run_comparison_small(self, medium_params):
        rows = run_comparison(medium_params, rounds=4,
                              algorithms=["welch_lynch", "unsynchronized"],
                              seed=1)
        assert [row.algorithm for row in rows] == ["welch_lynch", "unsynchronized"]
        wl, none = rows
        assert wl.messages_per_round > none.messages_per_round
        assert none.max_adjustment == 0.0

    @pytest.mark.parametrize("replicated", [False, True],
                             ids=["single", "replicated"])
    def test_window_starts_settled_rounds_after_real_start(self, replicated):
        # A logical T0 of 5 s must not move the real-time window: tmax0 is a
        # real START time already.
        params = SyncParameters.derive(n=7, f=2, rho=1e-4, delta=0.01,
                                       epsilon=0.002, initial_round_time=5.0)
        if replicated:
            (row,) = run_replicated_comparison(params, seeds=[0, 1], rounds=6,
                                               algorithms=["welch_lynch"])
            agreement = row.agreement.maximum
        else:
            (row,) = run_comparison(params, rounds=6,
                                    algorithms=["welch_lynch"])
            agreement = row.agreement
        assert 0.0 < agreement <= agreement_bound(params)

    def test_unknown_algorithm_rejected(self, medium_params):
        from repro.analysis import run_algorithm_scenario
        with pytest.raises(KeyError):
            run_algorithm_scenario("bogus", medium_params)
