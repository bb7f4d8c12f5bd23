"""Paper claims E4–E7: convergence, start-up, reintegration and the β trade-off.

* **E4 — Lemmas 9/10.** ``mid(reduce(·))`` roughly halves the real-time
  spread of round starts each round (error ≈ β/2 + 2ε) down to the
  4ε + 4ρP floor; the DLPSW approximate-agreement substrate converges by a
  factor of at least 2 per round.
* **E5 — Section 9.2 / Lemma 20.** From an arbitrary initial spread the
  start-up algorithm obeys B^{i+1} ≤ B^i/2 + 2ε + 2ρ(11δ + 39ε) and reaches
  its ≈ 4ε fixed point, also with Byzantine processes.
* **E6 — Section 9.1.** A repaired process rejoins within about two rounds;
  one round later it is inside the γ envelope, whatever its clock read, and
  the others never notice.
* **E7 — Sections 5.2 / 7.** The steady-state spread tracks β ≈ 4ε + 4ρP
  across the admissible P window, and round lengths outside that window are
  rejected before any run.
"""

import pytest

from repro.analysis import (
    default_parameters,
    measured_agreement,
    round_start_spreads,
    run_maintenance_scenario,
    run_reintegration_scenario,
    run_startup_scenario,
    startup_spread_series,
    steady_state_round_spread,
)
from repro.core import (
    SyncParameters,
    agreement_bound,
    lemma9_compensation_error,
    startup_limit,
    startup_round_recurrence,
    steady_state_beta,
)
from repro.faults import rejoin_time
from repro.multiset import (
    TwoFacedStrategy,
    midpoint_convergence_rate,
    run_approximate_agreement,
)


def _spread_series(params, rounds, fault_kind, seed):
    result = run_maintenance_scenario(params, rounds=rounds,
                                      fault_kind=fault_kind, seed=seed)
    spreads = round_start_spreads(result.trace)
    return [spreads[i] for i in sorted(spreads)]


class TestE4Convergence:
    def test_round_spread_decays_to_steady_state(self, medium_params):
        series = _spread_series(medium_params, 12, "silent", 0)
        assert series[1] <= lemma9_compensation_error(medium_params) + 1e-9
        assert series[-1] <= steady_state_beta(medium_params) + 1e-9

    def test_early_rounds_halve_the_spread(self, medium_params):
        series = _spread_series(medium_params, 6, "two_faced", 9)
        floor = steady_state_beta(medium_params)
        for before, after in zip(series, series[1:]):
            if before > 4 * floor:
                # Lemma 9: after ≈ before/2 + 2ε (+ drift terms).
                assert after <= before / 2.0 + 2 * medium_params.epsilon + 1e-6

    def test_approximate_agreement_substrate_halves(self):
        # The two-faced strategy (extremes to alternating halves of the
        # recipients) keeps the correct values spread out, so the decay of
        # the diameter is visible round by round.
        outcome = run_approximate_agreement(
            initial_values=[0.0, 0.1, 0.35, 0.6, 0.82, 0.9, 1.0],
            f=2, rounds=8, byzantine_ids=[5, 6], strategy=TwoFacedStrategy(),
        )
        rate = midpoint_convergence_rate()
        for before, after in zip(outcome.spreads, outcome.spreads[1:]):
            assert after <= before * rate + 1e-12


class TestE5Startup:
    @pytest.mark.parametrize("initial_spread", [0.5, 2.0])
    def test_startup_converges_from_arbitrary_spread(self, medium_params,
                                                     initial_spread):
        result = run_startup_scenario(medium_params, rounds=10,
                                      initial_spread=initial_spread, seed=7)
        series = startup_spread_series(result.trace)
        for before, after in zip(series, series[1:]):
            assert after <= startup_round_recurrence(medium_params, before) + 1e-9
        assert series[-1] <= startup_limit(medium_params) + 1e-9

    def test_startup_with_byzantine_processes(self, medium_params):
        result = run_startup_scenario(medium_params, rounds=10,
                                      initial_spread=1.0,
                                      fault_kind="random_noise", seed=3)
        series = startup_spread_series(result.trace)
        assert series[-1] <= startup_limit(medium_params) * 2.0
        assert series[-1] < series[0] / 8.0

    def test_startup_limit_tracks_epsilon(self):
        rows = []
        for eps in (0.001, 0.002, 0.004):
            params = default_parameters(n=7, f=2, rho=1e-4, delta=0.01,
                                        epsilon=eps)
            result = run_startup_scenario(params, rounds=10, initial_spread=1.0,
                                          seed=11)
            rows.append((startup_limit(params),
                         startup_spread_series(result.trace)[-1]))
        for limit, final in rows:
            assert final <= limit + 1e-9
        # A larger ε cannot give much tighter synchronization.
        assert rows[-1][1] >= rows[0][1] * 0.5


def _post_rejoin_skew(result, params):
    """Skew including the repaired process, from one round after its rejoin."""
    when = rejoin_time(result.trace, params.n - 1)
    check_from = when + params.round_length
    check_to = result.end_time - params.round_length
    worst = 0.0
    for index in range(80):
        t = check_from + index * (check_to - check_from) / 79
        times = result.trace.local_times(t, include_faulty=True)
        worst = max(worst, max(times.values()) - min(times.values()))
    return worst, when


class TestE6Reintegration:
    @pytest.mark.parametrize("recover_after_rounds", [3.2, 4.5, 6.8])
    def test_repaired_process_rejoins_within_bound(self, medium_params,
                                                   recover_after_rounds):
        params = medium_params
        result = run_reintegration_scenario(
            params, rounds=12, recover_after_rounds=recover_after_rounds,
            seed=0)
        worst, when = _post_rejoin_skew(result, params)
        group = measured_agreement(result.trace,
                                   result.tmax0 + params.round_length,
                                   result.end_time, samples=150)
        rejoin_delay = when - (params.initial_round_time
                               + recover_after_rounds * params.round_length)
        gamma = agreement_bound(params)
        assert worst <= gamma + 1e-9
        assert group <= gamma + 1e-9
        assert rejoin_delay <= 2 * params.round_length + params.collection_window()

    def test_reintegration_with_wildly_wrong_recovered_clock(self,
                                                             medium_params):
        # A recovered clock 3 s (≈ 7 rounds) off is cancelled by the averaging.
        result = run_reintegration_scenario(medium_params, rounds=12,
                                            recover_after_rounds=4.5, seed=5,
                                            recovered_clock_offset=3.0)
        worst, _ = _post_rejoin_skew(result, medium_params)
        assert worst <= agreement_bound(medium_params) + 1e-9


# A deliberately high drift rate makes the 4ρP term visible next to 4ε
# within a handful of simulated seconds.
def _tradeoff_params(round_length):
    return SyncParameters.derive(n=7, f=2, rho=2e-3, delta=0.01, epsilon=0.002,
                                 round_length=round_length, beta_slack=1.5)


class TestE7BetaTradeoff:
    def test_steady_state_spread_tracks_4eps_plus_4rhoP(self):
        base = _tradeoff_params(None)
        p_min = base.p_lower_bound()
        p_max = base.p_upper_bound()
        measured_values = []
        for P in (p_min * 1.2, p_min * 2.0, p_min * 4.0,
                  min(p_min * 8.0, p_max * 0.9)):
            params = _tradeoff_params(P)
            result = run_maintenance_scenario(params, rounds=14,
                                              fault_kind="silent", seed=1)
            measured = steady_state_round_spread(result.trace, skip_rounds=4)
            paper = steady_state_beta(params)
            # An asymptotic upper estimate, met within one order of magnitude.
            assert measured <= paper + 1e-9
            assert measured >= paper / 20.0
            measured_values.append(measured)
        # A longer round gives a (weakly) larger steady-state spread.
        assert measured_values[-1] >= measured_values[0]

    def test_infeasible_round_lengths_are_rejected(self):
        base = _tradeoff_params(None)
        assert base.is_feasible()
        assert not base.with_round_length(base.p_lower_bound() * 0.5).is_feasible()
        assert not base.with_round_length(base.p_upper_bound() * 2.0).is_feasible()
