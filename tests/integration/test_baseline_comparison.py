"""Integration tests for the Section 10 comparison (experiment E8's shape).

The full E8 table and its n sweep are in ``test_claims_comparison.py``.

The absolute numbers depend on the simulated hardware constants, but the
*shape* of the comparison reported in Section 10 should hold:

* the Welch-Lynch agreement is O(ε), independent of n;
* the [LM] interactive convergence agreement degrades as n grows (≈ 2nε);
* the unsynchronized control is the worst over long runs;
* message counts per round are n² for the fully-connected algorithms.
"""

import pytest

from repro.analysis import (
    default_parameters,
    measured_agreement,
    run_algorithm_scenario,
    run_comparison,
)
from repro.core import agreement_bound


class TestComparisonShape:
    def test_welch_lynch_beats_or_matches_lm_under_byzantine_attack(self, medium_params):
        rows = {row.algorithm: row
                for row in run_comparison(medium_params, rounds=8,
                                          algorithms=["welch_lynch",
                                                      "lamport_melliar_smith"],
                                          fault_kind="two_faced", seed=0)}
        assert rows["welch_lynch"].agreement <= rows["lamport_melliar_smith"].agreement * 1.5

    def test_welch_lynch_agreement_within_bound_in_comparison_harness(self, medium_params):
        rows = run_comparison(medium_params, rounds=8, algorithms=["welch_lynch"],
                              fault_kind="two_faced", seed=1)
        assert rows[0].agreement <= agreement_bound(medium_params)

    def test_all_synchronizers_beat_free_running_over_long_horizon(self):
        # Use higher drift so free-running clocks visibly diverge within the run.
        params = default_parameters(n=7, f=2, rho=2e-3, delta=0.01, epsilon=0.002)
        rounds = 10
        skews = {}
        for algorithm in ("welch_lynch", "lamport_melliar_smith",
                          "mahaney_schneider", "unsynchronized"):
            result = run_algorithm_scenario(algorithm, params, rounds=rounds,
                                            fault_kind="silent", seed=2)
            start = result.tmax0 + 2 * params.round_length
            skews[algorithm] = measured_agreement(result.trace, start,
                                                  result.end_time, samples=100)
        assert skews["welch_lynch"] < skews["unsynchronized"]
        assert skews["lamport_melliar_smith"] < skews["unsynchronized"]
        assert skews["mahaney_schneider"] < skews["unsynchronized"]

    def test_message_complexity_is_n_squared_for_averaging_algorithms(self, medium_params):
        rows = {row.algorithm: row
                for row in run_comparison(medium_params, rounds=6,
                                          algorithms=["welch_lynch",
                                                      "lamport_melliar_smith",
                                                      "unsynchronized"],
                                          fault_kind=None, seed=0)}
        n = medium_params.n
        assert rows["welch_lynch"].messages_per_round == pytest.approx(n * n)
        assert rows["lamport_melliar_smith"].messages_per_round == pytest.approx(n * n)
        assert rows["unsynchronized"].messages_per_round == 0.0

    def test_lm_agreement_degrades_with_n_while_welch_lynch_does_not(self):
        """The headline n-dependence difference of Section 10."""
        def measured(algorithm, n, f):
            params = default_parameters(n=n, f=f, rho=1e-4, delta=0.01,
                                        epsilon=0.002)
            result = run_algorithm_scenario(algorithm, params, rounds=8,
                                            fault_kind="two_faced", seed=3)
            start = result.tmax0 + 2 * params.round_length
            return measured_agreement(result.trace, start, result.end_time,
                                      samples=100)

        wl_small = measured("welch_lynch", 7, 2)
        wl_large = measured("welch_lynch", 13, 2)
        lm_small = measured("lamport_melliar_smith", 7, 2)
        lm_large = measured("lamport_melliar_smith", 13, 2)
        # Welch-Lynch stays flat (within noise); LM's ratio to WL grows with n.
        assert wl_large <= wl_small * 2.0
        assert (lm_large / wl_large) >= (lm_small / wl_small) * 0.9
