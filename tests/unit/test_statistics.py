"""Unit tests for repro.analysis.statistics (replication and summary stats)."""

import math

import pytest

from repro.analysis import (
    SummaryStats,
    agreement_margin_report,
    bound_margin,
    compare_samples,
    default_parameters,
    measured_agreement,
    run_maintenance_scenario,
    summarize,
)
from repro.core import agreement_bound
from repro.runner import RunSpec, replicate
from repro.telemetry import Telemetry, activated


class TestSummarize:
    def test_single_value(self):
        stats = summarize([3.0])
        assert stats.count == 1
        assert stats.mean == 3.0
        assert stats.std == 0.0
        assert stats.minimum == stats.maximum == stats.median == 3.0
        assert stats.ci95() == (3.0, 3.0)

    def test_known_sample(self):
        stats = summarize([1.0, 2.0, 3.0, 4.0, 5.0])
        assert stats.mean == pytest.approx(3.0)
        assert stats.median == 3.0
        assert stats.minimum == 1.0
        assert stats.maximum == 5.0
        # Sample std of 1..5 is sqrt(2.5).
        assert stats.std == pytest.approx(math.sqrt(2.5))

    def test_even_sample_median_is_midpoint(self):
        stats = summarize([1.0, 2.0, 3.0, 10.0])
        assert stats.median == 2.5

    def test_ci_contains_mean_and_shrinks_with_sample_size(self):
        small = summarize([1.0, 2.0, 3.0])
        large = summarize([1.0, 2.0, 3.0] * 20)
        assert small.ci95_low <= small.mean <= small.ci95_high
        assert large.ci95_high - large.ci95_low < small.ci95_high - small.ci95_low

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_constant_sample_has_zero_std(self):
        stats = summarize([7.0] * 10)
        assert stats.std == 0.0
        assert stats.ci95() == (7.0, 7.0)


class TestBoundMargin:
    def test_far_below_bound(self):
        stats = summarize([0.1, 0.2])
        assert bound_margin(stats, 1.0) == pytest.approx(0.8)

    def test_violation_is_negative(self):
        stats = summarize([1.5])
        assert bound_margin(stats, 1.0) < 0

    def test_bound_must_be_positive(self):
        with pytest.raises(ValueError):
            bound_margin(summarize([1.0]), 0.0)


class TestCompareSamples:
    def test_identical_samples(self):
        report = compare_samples([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert report["difference"] == pytest.approx(0.0)
        assert report["ratio"] == pytest.approx(1.0)
        assert report["cohens_d"] == pytest.approx(0.0)

    def test_shifted_samples(self):
        report = compare_samples([2.0, 3.0, 4.0], [1.0, 2.0, 3.0])
        assert report["difference"] == pytest.approx(1.0)
        assert report["cohens_d"] > 0

    def test_zero_denominator_gives_inf_ratio(self):
        report = compare_samples([1.0], [0.0])
        assert report["ratio"] == float("inf")


class TestAgreementMarginReport:
    def test_stats_are_replicates_at_150_samples(self, medium_params):
        report = agreement_margin_report(medium_params, seeds=range(4),
                                         rounds=6)
        rep = replicate(RunSpec.maintenance(medium_params, rounds=6),
                        range(4), samples=150)
        assert rep.agreement.count == 4
        assert rep.agreement.minimum > 0
        assert report["mean"] == rep.agreement.mean
        assert report["worst"] == rep.agreement.maximum
        assert report["ci95_high"] == rep.agreement.ci95_high
        assert report["worst"] <= agreement_bound(medium_params)

    def test_runs_go_through_the_runner(self):
        """Every seed is a runner spec: counted, manifested, and measured
        exactly as a direct run of the serial loop would be."""
        params = default_parameters(n=7, f=2)
        with activated(Telemetry()) as telemetry:
            report = agreement_margin_report(params, seeds=range(3), rounds=4)
        assert telemetry.registry.value("runner.specs_executed") == 3
        assert len(telemetry.manifests) == 3
        values = []
        for seed in range(3):
            result = run_maintenance_scenario(params, rounds=4,
                                              fault_kind="two_faced",
                                              seed=seed)
            values.append(measured_agreement(
                result.trace, result.tmax0 + params.round_length,
                result.end_time, samples=150))
        stats = summarize(values)
        gamma = agreement_bound(params)
        assert report == {"gamma": gamma, "mean": stats.mean,
                          "worst": stats.maximum,
                          "ci95_high": stats.ci95_high,
                          "margin": bound_margin(stats, gamma)}

    def test_margin_report_fields(self, medium_params):
        report = agreement_margin_report(medium_params, seeds=range(3), rounds=6)
        assert report["gamma"] == agreement_bound(medium_params)
        assert 0 < report["worst"] <= report["gamma"]
        assert 0 < report["margin"] <= 1
        assert report["mean"] <= report["worst"]
