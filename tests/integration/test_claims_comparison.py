"""Paper claims E8–E9: the Section 10 comparison and the n ≥ 3f + 1 threshold.

* **E8 — Section 10.** On one shared workload (same clocks, delays and
  attackers) WL meets γ and is competitive with LM and MS; LM's error grows
  with n while WL's stays flat; every synchronizer beats free-running clocks
  over a long drifting horizon; the averaging algorithms send n² messages a
  round.
* **E9 — Assumption A2 / [DHS].** With the averaging configured for f = 2,
  two coordinated two-faced attackers out of 7 are harmless and three push
  the skew past that; resizing to n = 10, f = 3 restores synchronization, and
  n ≤ 3f is rejected up front.
"""

import pytest

from repro.analysis import (
    default_parameters,
    measured_agreement,
    run_algorithm_scenario,
    run_comparison,
)
from repro.clocks import make_clock_ensemble
from repro.core import SyncParameters, WelchLynchProcess, agreement_bound
from repro.faults import TwoFacedClockAttacker
from repro.sim import System, UniformDelayModel

ALGORITHMS = ["welch_lynch", "lamport_melliar_smith", "mahaney_schneider",
              "srikanth_toueg", "hssd", "marzullo", "unsynchronized"]


def _agreement(algorithm, params, rounds, fault_kind, seed):
    result = run_algorithm_scenario(algorithm, params, rounds=rounds,
                                    fault_kind=fault_kind, seed=seed)
    start = result.tmax0 + 2 * params.round_length
    return measured_agreement(result.trace, start, result.end_time,
                              samples=120)


class TestE8Comparison:
    def test_comparison_table_under_byzantine_attack(self, medium_params):
        params = medium_params
        rows = run_comparison(params, rounds=10, algorithms=ALGORITHMS,
                              fault_kind="two_faced", seed=0)
        by_name = {r.algorithm: r for r in rows}
        wl = by_name["welch_lynch"]
        assert wl.agreement <= agreement_bound(params)
        for name in ("lamport_melliar_smith", "mahaney_schneider"):
            assert wl.agreement <= by_name[name].agreement * 1.5
        # Averaging algorithms broadcast every round: n² messages.  The
        # unsynchronized control sends nothing itself; only the f attackers'
        # traffic shows up in its row.
        assert wl.messages_per_round >= params.n * (params.n - 1)
        unsync = by_name["unsynchronized"].messages_per_round
        assert unsync <= 2 * params.f * params.n
        assert unsync < wl.messages_per_round / 2

    def test_lm_degrades_with_n(self):
        wl, lm = [], []
        for n in (7, 10, 13):
            params = default_parameters(n=n, f=2, rho=1e-4, delta=0.01,
                                        epsilon=0.002)
            wl.append(_agreement("welch_lynch", params, 8, "two_faced", 3))
            lm.append(_agreement("lamport_melliar_smith", params, 8,
                                 "two_faced", 3))
        assert wl[-1] <= wl[0] * 2.0
        # LM's disadvantage relative to WL does not shrink with n.
        assert lm[-1] / wl[-1] >= (lm[0] / wl[0]) * 0.9

    def test_everything_beats_free_running(self):
        params = default_parameters(n=7, f=2, rho=2e-3, delta=0.01,
                                    epsilon=0.002)
        skews = {algorithm: _agreement(algorithm, params, 12, "silent", 2)
                 for algorithm in ("welch_lynch", "srikanth_toueg", "hssd",
                                   "marzullo", "unsynchronized")}
        for algorithm, skew in skews.items():
            if algorithm != "unsynchronized":
                assert skew < skews["unsynchronized"]


def _skew_with_attackers(params, attackers, seed=0, rounds=10):
    """Max skew of n processes whose averaging tolerates ``params.f`` faults,
    attacked by ``attackers`` coordinated two-faced adversaries."""
    n = params.n
    correct = [WelchLynchProcess(params, max_rounds=rounds)
               for _ in range(n - attackers)]
    byz = [TwoFacedClockAttacker(params, max_rounds=rounds + 2)
           for _ in range(attackers)]
    clocks = make_clock_ensemble(n, rho=params.rho, beta=params.beta, seed=seed)
    system = System(correct + byz, clocks,
                    delay_model=UniformDelayModel(params.delta, params.epsilon),
                    seed=seed)
    start_times = system.schedule_all_starts_at_logical(params.T0)
    end = params.T0 + rounds * params.round_length + 1.0
    trace = system.run_until(end)
    settle = min(t for pid, t in start_times.items() if pid < n - attackers) \
        + params.round_length
    return trace.max_skew([settle + i * (end - settle) / 120
                           for i in range(121)])


class TestE9FaultThreshold:
    def test_threshold_n7_f2(self):
        params = SyncParameters.derive(n=7, f=2, rho=1e-4, delta=0.01,
                                       epsilon=0.002)
        gamma = agreement_bound(params)
        at_f = _skew_with_attackers(params, 2)
        assert _skew_with_attackers(params, 0) <= gamma
        assert at_f <= gamma
        # More actual faults than the averaging screens out push the skew
        # beyond what held at the threshold.
        assert _skew_with_attackers(params, 3) > at_f

    def test_resizing_the_system_restores_synchronization(self):
        params = SyncParameters.derive(n=10, f=3, rho=1e-4, delta=0.01,
                                       epsilon=0.002)
        assert _skew_with_attackers(params, 3, seed=1) <= agreement_bound(params)

    @pytest.mark.parametrize("n,f", [(3, 1), (6, 2), (9, 3)])
    def test_minimum_system_size_is_enforced(self, n, f):
        with pytest.raises(Exception):
            SyncParameters(n=n, f=f, rho=1e-4, delta=0.01, epsilon=0.002,
                           beta=0.01, round_length=1.0)
