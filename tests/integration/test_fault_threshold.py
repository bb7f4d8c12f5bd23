"""Integration tests around the n >= 3f + 1 resilience threshold (A2 / [DHS]).

With ``f`` actual Byzantine attackers and ``n = 3f + 1`` processes, the
algorithm keeps the clocks synchronized.  With the same attack but the
averaging configured for fewer faults than are present (or too few correct
processes), synchronization degrades — the impossibility result of [DHS] says
no algorithm without authentication can cope once a third or more of the
processes are faulty.  Experiment E9 in ``test_claims_comparison.py`` runs
the full overloaded-averaging table.
"""

import pytest

from repro.analysis import measured_agreement, run_maintenance_scenario
from repro.clocks import make_clock_ensemble
from repro.core import SyncParameters, WelchLynchProcess, agreement_bound
from repro.faults import TwoFacedClockAttacker
from repro.sim import System, UniformDelayModel


def agreement_of(result, params, settle=1):
    start = result.tmax0 + settle * params.round_length
    return measured_agreement(result.trace, start, result.end_time, samples=120)


class TestAtTheThreshold:
    def test_exactly_3f_plus_1_survives_f_attackers(self):
        params = SyncParameters.derive(n=7, f=2, rho=1e-4, delta=0.01, epsilon=0.002)
        result = run_maintenance_scenario(params, rounds=8, fault_kind="two_faced",
                                          fault_count=2, seed=0)
        assert agreement_of(result, params) <= agreement_bound(params)

    def test_fewer_faults_than_f_also_fine(self):
        params = SyncParameters.derive(n=7, f=2, rho=1e-4, delta=0.01, epsilon=0.002)
        result = run_maintenance_scenario(params, rounds=8, fault_kind="two_faced",
                                          fault_count=1, seed=0)
        assert agreement_of(result, params) <= agreement_bound(params)

    def test_parameter_validation_rejects_n_below_threshold(self):
        with pytest.raises(Exception):
            SyncParameters(n=6, f=2, rho=1e-4, delta=0.01, epsilon=0.002,
                           beta=0.01, round_length=1.0)


class TestBeyondTheThreshold:
    def _run_overloaded(self, attackers: int, configured_f: int, seed: int = 0):
        """n = 7 processes whose averaging tolerates ``configured_f`` faults,
        attacked by ``attackers`` coordinated two-faced adversaries."""
        params = SyncParameters.derive(n=7, f=configured_f, rho=1e-4, delta=0.01,
                                       epsilon=0.002)
        correct = [WelchLynchProcess(params, max_rounds=10)
                   for _ in range(7 - attackers)]
        byz = [TwoFacedClockAttacker(params, max_rounds=12) for _ in range(attackers)]
        processes = correct + byz
        clocks = make_clock_ensemble(7, rho=params.rho, beta=params.beta, seed=seed)
        system = System(processes, clocks,
                        delay_model=UniformDelayModel(params.delta, params.epsilon),
                        seed=seed)
        start_times = system.schedule_all_starts_at_logical(params.T0)
        end = params.T0 + 10 * params.round_length + 1.0
        trace = system.run_until(end)
        settle = min(t for pid, t in start_times.items() if pid < 7 - attackers) \
            + params.round_length
        grid = [settle + i * (end - settle) / 100 for i in range(101)]
        return params, trace.max_skew(grid)

    def test_attack_exceeding_configured_f_breaks_agreement(self):
        # 3 two-faced attackers against averaging configured for f=2: the
        # reduce step can no longer screen them all out, and the skew exceeds
        # the bound that held at the threshold.
        params, overloaded_skew = self._run_overloaded(attackers=3, configured_f=2)
        _, nominal_skew = self._run_overloaded(attackers=2, configured_f=2)
        assert nominal_skew <= agreement_bound(params)
        assert overloaded_skew > nominal_skew

    def test_graceful_configuration_with_higher_f_handles_more_attackers(self):
        # The same three attackers are harmless if n and f are sized for them.
        params = SyncParameters.derive(n=10, f=3, rho=1e-4, delta=0.01,
                                       epsilon=0.002)
        result = run_maintenance_scenario(params, rounds=8, fault_kind="two_faced",
                                          fault_count=3, seed=1)
        assert agreement_of(result, params) <= agreement_bound(params)
