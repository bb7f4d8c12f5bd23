"""Paper claims E10–E12: the Section 7 variants and staggered broadcast.

* **E10 — k exchanges per round.** β(k) = 4ε + 2ρP·2^k/(2^k − 1) decreases in
  k with halving increments, and more exchanges never widen the measured
  steady-state spread.
* **E11 — mean averaging.** At fixed f the mean of the surviving values
  converges at rate f/(n − 2f), improving with n, and the mean variant still
  meets Theorem 16 in the full algorithm.
* **E12 — Section 9.3.** Transmitting at T^i + p·σ slashes datagram loss on a
  contention-prone medium, keeps round starts within β + (n−1)σ, and costs
  at most (n−1)σ of agreement on an uncontended medium.
"""

from repro.analysis import (
    default_parameters,
    measured_agreement,
    round_start_spreads,
    run_maintenance_scenario,
    steady_state_round_spread,
)
from repro.core import (
    FaultTolerantMean,
    FaultTolerantMidpoint,
    MultiExchangeProcess,
    agreement_bound,
    choose_stagger_interval,
    effective_beta,
    k_exchange_beta,
    mean_variant_rate,
)
from repro.multiset import run_approximate_agreement
from repro.sim import ContentionDelayModel

# High drift so the ρP term the k-exchange variant attacks is visible.
RHO = 2e-3


class TestE10KExchange:
    def test_k_exchange_formula_shape(self):
        params = default_parameters(n=7, f=2, rho=RHO, delta=0.01, epsilon=0.002)
        betas = [k_exchange_beta(params, k) for k in (1, 2, 3, 4)]
        assert all(later <= earlier for earlier, later in zip(betas, betas[1:]))
        # k = 1 coincides with the basic 4ε + 4ρP formula.
        assert abs(betas[0] - (4 * params.epsilon
                               + 4 * RHO * params.round_length)) < 1e-12

    def test_k_exchange_measured_spread(self):
        params = default_parameters(n=7, f=2, rho=RHO, delta=0.01, epsilon=0.002)
        params = params.with_round_length(
            MultiExchangeProcess(params, 3).minimum_round_length() * 1.1)
        spreads = []
        for k in (1, 2, 3):
            result = run_maintenance_scenario(params, rounds=8, fault_kind=None,
                                              exchanges_per_round=k, seed=6)
            spread = steady_state_round_spread(result.trace, skip_rounds=3)
            assert spread <= k_exchange_beta(params, k) + 1e-9
            spreads.append(spread)
        # k = 3 is no worse than k = 1: the drift term can only shrink.
        assert spreads[-1] <= spreads[0] * 1.25 + 1e-5


class TestE11MeanVariant:
    def test_mean_variant_convergence_rate(self):
        rates = []
        for n in (7, 13, 19):
            initial = [i / (n - 2 - 1) if i < n - 2 else 0.0 for i in range(n)]
            mean = run_approximate_agreement(initial, f=2, rounds=6,
                                             byzantine_ids=[n - 2, n - 1],
                                             use_mean=True)
            measured = max((after / before for before, after in
                            zip(mean.spreads, mean.spreads[1:])
                            if before > 1e-12), default=0.0)
            assert measured <= mean_variant_rate(n, 2) + 1e-9
            rates.append(measured)
        assert rates[-1] <= rates[0]

    def test_mean_variant_in_the_full_algorithm(self):
        params = default_parameters(n=13, f=2, rho=1e-4, delta=0.01,
                                    epsilon=0.002)
        gamma = agreement_bound(params)
        for averaging in (FaultTolerantMidpoint(), FaultTolerantMean()):
            result = run_maintenance_scenario(params, rounds=10,
                                              fault_kind="two_faced",
                                              averaging=averaging, seed=1)
            start = result.tmax0 + 2 * params.round_length
            assert measured_agreement(result.trace, start, result.end_time,
                                      samples=150) <= gamma


def _contention(params):
    return ContentionDelayModel(params.delta, params.epsilon, window=0.004,
                                threshold=2, drop_probability=0.5)


class TestE12StaggeredBroadcast:
    def test_simultaneous_vs_staggered_drop_rate(self, medium_params):
        params = medium_params
        sigma = choose_stagger_interval(params, _contention(params))
        loss = {}
        for name, stagger in (("simultaneous", 0.0), ("staggered", sigma)):
            result = run_maintenance_scenario(params, rounds=10, fault_kind=None,
                                              delay=_contention(params), seed=2,
                                              stagger_interval=stagger)
            loss[name] = result.trace.stats.dropped / result.trace.stats.sent
        assert loss["staggered"] < loss["simultaneous"] / 2.0

    def test_staggered_broadcast_still_synchronizes(self, medium_params):
        params = medium_params
        sigma = choose_stagger_interval(params, _contention(params))
        result = run_maintenance_scenario(params, rounds=10, fault_kind=None,
                                          delay=_contention(params), seed=2,
                                          stagger_interval=sigma)
        spreads = round_start_spreads(result.trace)
        assert spreads[max(spreads)] <= effective_beta(params, sigma)

    def test_staggering_costs_nothing_without_contention(self, medium_params):
        params = medium_params
        sigma = choose_stagger_interval(params, _contention(params))
        gamma = agreement_bound(params)
        skews = []
        for stagger in (0.0, sigma):
            result = run_maintenance_scenario(params, rounds=10,
                                              fault_kind="two_faced", seed=4,
                                              stagger_interval=stagger)
            start = result.tmax0 + 2 * params.round_length
            skews.append(measured_agreement(result.trace, start,
                                            result.end_time))
        assert skews[0] <= gamma
        # Worst case: the staggered algorithm behaves like the original with
        # β enlarged by (n−1)σ.
        assert skews[1] <= gamma + (params.n - 1) * sigma
