"""Unit tests for repro.analysis.workloads (named workload presets)."""

import pytest

from repro.analysis import (
    Workload,
    build_parameters,
    build_spec,
    get_workload,
    make_delay_model,
    measured_agreement,
    workload_names,
)
from repro.core import agreement_bound
from repro.runner import execute
from repro.sim import (
    AdversarialDelayModel,
    ContentionDelayModel,
    FixedDelayModel,
    TruncatedGaussianDelayModel,
    UniformDelayModel,
)


class TestRegistry:
    def test_names_are_sorted_and_non_empty(self):
        names = workload_names()
        assert names == tuple(sorted(names))
        assert "lan" in names
        assert "quiet" in names

    def test_get_workload_returns_preset(self):
        workload = get_workload("lan")
        assert workload.delta == 0.01
        assert workload.fault_kind == "two_faced"

    def test_unknown_name_is_a_helpful_error(self):
        with pytest.raises(KeyError, match="unknown workload"):
            get_workload("datacenter")

    def test_every_preset_builds_feasible_parameters(self):
        for name in workload_names():
            params = build_parameters(get_workload(name))
            assert params.is_feasible()


class TestDelayModelConstruction:
    @pytest.mark.parametrize("name, expected", [
        ("lan", UniformDelayModel),
        ("wan", TruncatedGaussianDelayModel),
        ("flaky-ethernet", ContentionDelayModel),
        ("adversarial-delay", AdversarialDelayModel),
        ("quiet", FixedDelayModel),
    ])
    def test_delay_model_family(self, name, expected):
        spec = build_spec(get_workload(name))
        model = make_delay_model(spec.delay, spec.params,
                                 **spec.delay_options_dict())
        assert isinstance(model, expected)

    def test_unknown_delay_kind_rejected(self):
        bad = Workload(name="bad", description="", rho=1e-4, delta=0.01,
                       epsilon=0.002, delay_kind="quantum")
        with pytest.raises(ValueError):
            build_spec(bad)


class TestRunWorkload:
    @pytest.mark.parametrize("name", ["lan", "high-drift", "quiet"])
    def test_workloads_synchronize_within_their_own_bound(self, name):
        result = execute(build_spec(get_workload(name), rounds=6, seed=1))
        params = result.params
        start = result.tmax0 + params.round_length
        skew = measured_agreement(result.trace, start, result.end_time, samples=100)
        assert skew <= agreement_bound(params)

    def test_wan_floor_is_larger_than_lan_floor(self):
        lan = execute(build_spec(get_workload("lan"), rounds=6, seed=3))
        wan = execute(build_spec(get_workload("wan"), rounds=6, seed=3))
        skew_of = lambda r: measured_agreement(  # noqa: E731 - tiny local helper
            r.trace, r.tmax0 + r.params.round_length, r.end_time, samples=100)
        # A 10x larger delay uncertainty must show up as worse agreement.
        assert skew_of(wan) > skew_of(lan)

    def test_quiet_workload_has_no_faulty_processes(self):
        result = execute(build_spec(get_workload("quiet"), rounds=4, seed=0))
        assert list(result.trace.faulty_ids) == []
        assert result.trace.stats.dropped == 0
