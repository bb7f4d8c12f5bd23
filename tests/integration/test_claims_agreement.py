"""Paper claims E1–E3: agreement, validity and the adjustment bound.

* **E1 — Theorem 16.** Nonfaulty local times differ by at most
  γ = β + ε + ρ(7β + 3δ + 7ε) + 8ρ²(β+δ+ε) + 4ρ³(β+δ+ε), under every attacker
  family and delay model; measured agreement grows with ε and does not grow
  with n at fixed f.
* **E2 — Theorem 19.** Every nonfaulty local time stays inside the
  (α₁, α₂, α₃) envelope, and long-run local-time rates stay inside
  [α₁, α₂] = [1 − ρ − ε/λ, 1 + ρ + ε/λ]; with ρ = ε = 0 the rate is exactly 1.
* **E3 — Theorem 4(a) / Lemma 7.** Every adjustment satisfies
  |ADJ| ≤ (1 + ρ)(β + ε) + ρδ, which Section 10 puts at about 5ε when β is
  near its floor.

Each scenario runs once; the parameters and bounds are the paper's workhorse
configuration (``medium_params``: n = 7, f = 2, δ = 10 ms, ε = 2 ms, ρ = 1e-4).
"""

import pytest

from repro.analysis import (
    adjustment_statistics,
    default_parameters,
    local_time_rate_estimates,
    measured_agreement,
    run_maintenance_scenario,
    validity_report,
)
from repro.core import adjustment_bound, agreement_bound, validity_parameters


def _agreement(params, fault_kind, delay="uniform", seed=0, rounds=20):
    result = run_maintenance_scenario(params, rounds=rounds,
                                      fault_kind=fault_kind, delay=delay,
                                      seed=seed)
    start = result.tmax0 + params.round_length
    return measured_agreement(result.trace, start, result.end_time, samples=300)


class TestE1Agreement:
    @pytest.mark.parametrize("fault_kind", ["two_faced", "skew_late",
                                            "random_noise", "silent"])
    def test_agreement_under_byzantine_faults(self, medium_params, fault_kind):
        assert _agreement(medium_params, fault_kind) <= \
            agreement_bound(medium_params)

    def test_agreement_grows_with_epsilon(self):
        rows = []
        for eps in (0.0005, 0.001, 0.002, 0.004):
            params = default_parameters(n=7, f=2, rho=1e-4, delta=0.01,
                                        epsilon=eps)
            rows.append((agreement_bound(params),
                         _agreement(params, "two_faced", seed=3)))
        for gamma, skew in rows:
            assert skew <= gamma
        assert rows[-1][1] >= rows[0][1]

    def test_agreement_independent_of_n_at_fixed_f(self):
        rows = []
        for n in (7, 10, 13, 16):
            params = default_parameters(n=n, f=2, rho=1e-4, delta=0.01,
                                        epsilon=0.002)
            rows.append((agreement_bound(params),
                         _agreement(params, "two_faced", seed=5, rounds=12)))
        for gamma, skew in rows:
            assert skew <= gamma
        # Unlike LM (whose error grows like 2nε'), WL agreement does not grow
        # with n: the largest system is no worse than twice the smallest.
        assert rows[-1][1] <= 2.0 * rows[0][1]

    def test_agreement_under_adversarial_delays(self, medium_params):
        skew = _agreement(medium_params, "two_faced", "adversarial", 11)
        assert skew <= agreement_bound(medium_params)


class TestE2Validity:
    def test_validity_envelope_never_violated(self, medium_params):
        result = run_maintenance_scenario(medium_params, rounds=25,
                                          fault_kind="two_faced", seed=0)
        start = result.tmax0 + medium_params.round_length
        report = validity_report(result.trace, medium_params, result.tmin0,
                                 result.tmax0, start, result.end_time,
                                 samples=200)
        vp = validity_parameters(medium_params)
        assert report.holds
        assert report.min_rate >= vp.alpha1 - 1e-9
        assert report.max_rate <= vp.alpha2 + 1e-9

    def test_longrun_rate_stays_near_one(self, medium_params):
        result = run_maintenance_scenario(medium_params, rounds=25,
                                          fault_kind="two_faced", seed=4)
        start = result.tmax0 + medium_params.round_length
        rates = local_time_rate_estimates(result.trace, start, result.end_time)
        worst = max(abs(rate - 1.0) for rate in rates.values())
        assert worst <= validity_parameters(medium_params).alpha2 - 1.0 + 1e-9

    def test_validity_with_drift_free_clocks(self):
        params = default_parameters(n=7, f=2, rho=0.0, delta=0.01,
                                    epsilon=0.0, round_length=0.5)
        result = run_maintenance_scenario(params, rounds=10, fault_kind="silent",
                                          clock_kind="perfect", delay="fixed",
                                          seed=1)
        start = result.tmax0 + params.round_length
        rates = local_time_rate_estimates(result.trace, start, result.end_time)
        assert max(abs(rate - 1.0) for rate in rates.values()) <= 1e-9


class TestE3Adjustment:
    @pytest.mark.parametrize("fault_kind", ["two_faced", "skew_early",
                                            "random_noise"])
    def test_adjustment_bound_holds(self, medium_params, fault_kind):
        result = run_maintenance_scenario(medium_params, rounds=20,
                                          fault_kind=fault_kind, seed=2)
        assert adjustment_statistics(result.trace).max_abs <= \
            adjustment_bound(medium_params)

    def test_adjustment_scales_with_epsilon(self):
        maxima = []
        for eps in (0.0005, 0.001, 0.002, 0.004):
            params = default_parameters(n=7, f=2, rho=1e-4, delta=0.01,
                                        epsilon=eps, beta_slack=1.05)
            result = run_maintenance_scenario(params, rounds=12,
                                              fault_kind="two_faced", seed=7)
            max_abs = adjustment_statistics(result.trace).max_abs
            assert max_abs <= adjustment_bound(params)
            # Section 10: the adjustment is "about 5ε"; a generous envelope.
            assert max_abs <= 7.0 * eps
            maxima.append(max_abs)
        assert maxima[-1] >= maxima[0]
