"""Unit tests for the adversarial delay models and their registration."""

import random

import pytest

from repro.adversary.delays import (
    ADVERSARIAL_DELAY_KINDS,
    PerPairBiasedDelayModel,
    RoundAwareDelayModel,
    SkewMaximizingDelayModel,
    build_adversarial_delay_model,
)
from repro.analysis.experiments import default_parameters, make_delay_model
from repro.analysis.workloads import build_spec, get_workload
from repro.runner import RunSpec

RNG = random.Random(0)


class TestPerPairBiased:
    def test_diagonal_pattern(self):
        model = PerPairBiasedDelayModel(0.01, 0.002)
        assert model.delay(0, 3, 1.0, RNG) == pytest.approx(0.012)
        assert model.delay(3, 0, 1.0, RNG) == pytest.approx(0.008)
        assert model.delay(2, 2, 1.0, RNG) == 0.01

    def test_fraction_scales_the_bias(self):
        half = PerPairBiasedDelayModel(0.01, 0.002, fraction=0.5)
        assert half.delay(0, 1, 0.0, RNG) == pytest.approx(0.011)
        with pytest.raises(ValueError, match="fraction"):
            PerPairBiasedDelayModel(0.01, 0.002, fraction=1.5)


class TestSkewMaximizing:
    def test_only_crossing_messages_are_biased(self):
        model = SkewMaximizingDelayModel(0.01, 0.002, pivot=2)
        assert model.delay(0, 3, 0.0, RNG) == pytest.approx(0.012)  # low→high
        assert model.delay(3, 0, 0.0, RNG) == pytest.approx(0.008)  # high→low
        assert model.delay(0, 1, 0.0, RNG) == 0.01                  # in-block
        assert model.delay(2, 3, 0.0, RNG) == 0.01                  # in-block

    def test_pivot_must_leave_both_blocks_nonempty(self):
        with pytest.raises(ValueError, match="pivot"):
            SkewMaximizingDelayModel(0.01, 0.002, pivot=0)


class TestRoundAware:
    def test_bias_flips_between_rounds(self):
        model = RoundAwareDelayModel(0.01, 0.002, round_length=1.0,
                                     initial_round_time=0.0, period=1)
        # Round 0: diagonal late; round 1: flipped.
        assert model.delay(0, 1, 0.5, RNG) == pytest.approx(0.012)
        assert model.delay(0, 1, 1.5, RNG) == pytest.approx(0.008)
        assert model.delay(0, 1, 2.5, RNG) == pytest.approx(0.012)
        assert model.delay(1, 0, 0.5, RNG) == pytest.approx(0.008)
        assert model.delay(0, 0, 0.5, RNG) == 0.01

    def test_period_stretches_the_flip(self):
        model = RoundAwareDelayModel(0.01, 0.002, round_length=1.0, period=2)
        assert model.delay(0, 1, 0.5, RNG) == model.delay(0, 1, 1.5, RNG)
        assert model.delay(0, 1, 0.5, RNG) != model.delay(0, 1, 2.5, RNG)

    def test_validation(self):
        with pytest.raises(ValueError, match="round_length"):
            RoundAwareDelayModel(0.01, 0.002, round_length=0.0)
        with pytest.raises(ValueError, match="period"):
            RoundAwareDelayModel(0.01, 0.002, round_length=1.0, period=0)


class TestRegistration:
    def test_make_delay_model_builds_every_adversarial_kind(self):
        params = default_parameters(n=7, f=2)
        expected = {"per_pair": PerPairBiasedDelayModel,
                    "skew_max": SkewMaximizingDelayModel,
                    "round_aware": RoundAwareDelayModel}
        assert set(expected) == set(ADVERSARIAL_DELAY_KINDS)
        for kind, cls in expected.items():
            model = make_delay_model(kind, params)
            assert isinstance(model, cls)
            assert model.delta == params.delta
            assert model.epsilon == params.epsilon

    def test_skew_max_pivot_defaults_to_half_the_system(self):
        params = default_parameters(n=7, f=2)
        model = make_delay_model("skew_max", params)
        assert model.pivot == 3

    def test_round_aware_inherits_the_round_grid(self):
        params = default_parameters(n=7, f=2)
        model = make_delay_model("round_aware", params)
        assert model.round_length == params.round_length
        assert model.initial_round_time == params.initial_round_time

    def test_unknown_kind_still_rejected(self):
        params = default_parameters(n=4, f=1)
        with pytest.raises(ValueError, match="unknown"):
            build_adversarial_delay_model("quantum", params)

    def test_runspec_validates_delay_names_eagerly(self):
        params = default_parameters(n=4, f=1)
        with pytest.raises(ValueError, match="unknown delay model"):
            RunSpec.maintenance(params, delay="quantum")
        for kind in ADVERSARIAL_DELAY_KINDS:
            spec = RunSpec.maintenance(params, delay=kind, fault_kind=None)
            assert spec.delay == kind


class TestAdversarialWorkloads:
    @pytest.mark.parametrize("name, expected", [
        ("adversarial-lan", SkewMaximizingDelayModel),
        ("tightness-sweep", PerPairBiasedDelayModel),
    ])
    def test_presets_build_the_adversaries(self, name, expected):
        workload = get_workload(name)
        spec = build_spec(workload)
        model = make_delay_model(spec.delay, spec.params,
                                 **spec.delay_options_dict())
        assert isinstance(model, expected)
        assert workload.fault_kind is None
