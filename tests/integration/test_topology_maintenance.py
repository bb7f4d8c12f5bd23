"""Integration tests: the maintenance algorithm on non-complete topologies.

Covers the acceptance criteria of the topology subsystem:

* a ring run still audits clean against the Theorem 4/16/19 bounds (computed
  from the topology-effective (δ', ε') envelope);
* grid and random_gnp runs complete and audit;
* running with an explicit ``complete`` topology is bit-identical to running
  with no topology at all (the default path is the seed behavior);
* a partition-and-heal run demonstrates divergence while split and
  re-convergence inside the Lemma 20 halving envelope after healing.
"""

import pytest

from repro.analysis import (
    build_spec,
    check_maintenance_run,
    check_partition_heal_run,
    default_parameters,
    divergence_series,
    get_workload,
    per_partition_agreement,
    run_maintenance_scenario,
    run_partition_heal_scenario,
)
from repro.core.bounds import agreement_bound, startup_round_recurrence
from repro.runner import execute
from repro.topology import complete, grid, make_topology, random_gnp, ring


@pytest.fixture(scope="module")
def params():
    return default_parameters(n=7, f=2)


class TestRingMaintenance:
    def test_ring_run_audits_clean_against_theorem4_bounds(self, params):
        """The flagship criterion: a ring maintenance run, audited clean."""
        result = run_maintenance_scenario(params, rounds=8, fault_kind=None,
                                          topology=ring(7), seed=0)
        report = check_maintenance_run(result)
        assert report.all_passed, [c.claim for c in report.failed()]
        # Theorem 4 claims specifically:
        assert report.check("theorem4a_adjustment").passed
        assert report.check("theorem4c_round_spread").passed

    def test_ring_effective_envelope_stretches_with_diameter(self, params):
        result = run_maintenance_scenario(params, rounds=4, fault_kind=None,
                                          topology=ring(7), seed=0)
        # diameter 3: envelope [δ-ε, 3(δ+ε)] centered -> δ' = (0.008+0.036)/2.
        assert result.params.delta == pytest.approx(0.022)
        assert result.params.epsilon == pytest.approx(0.014)
        # Relays actually happened (nodes at distance >= 2 exist on a ring).
        assert result.trace.stats.relayed > 0

    def test_feasible_round_length_is_preserved(self, params):
        """A caller-chosen P that still satisfies the Section 5.2 constraints
        for the stretched envelope is kept; an infeasible one is re-derived."""
        from repro.analysis import effective_parameters
        effective = effective_parameters(params, ring(7))
        assert effective.round_length == params.round_length  # 0.42 is feasible
        tight = default_parameters(n=7, f=2, round_length=0.1)
        stretched = effective_parameters(tight, ring(7))
        assert stretched.round_length != 0.1  # below the effective P_min (~0.29)
        assert stretched.is_feasible()

    def test_ring_survives_byzantine_faults(self, params):
        result = run_maintenance_scenario(params, rounds=8,
                                          fault_kind="two_faced",
                                          topology=ring(7), seed=0)
        report = check_maintenance_run(result)
        assert report.all_passed, [c.claim for c in report.failed()]


class TestOtherTopologies:
    @pytest.mark.parametrize("factory", [grid, lambda n: random_gnp(n, p=0.4)])
    def test_runs_complete_and_audit(self, params, factory):
        result = run_maintenance_scenario(params, rounds=6, fault_kind=None,
                                          topology=factory(7), seed=0)
        report = check_maintenance_run(result)
        assert report.all_passed, [c.claim for c in report.failed()]

    def test_workload_presets_audit(self):
        for name in ("ring-lan", "grid-lan", "sparse-lan"):
            result = execute(build_spec(get_workload(name), rounds=6,
                                        seed=0))
            report = check_maintenance_run(result)
            assert report.all_passed, (name, [c.claim for c in report.failed()])


class TestDefaultPathBitIdentity:
    def test_explicit_complete_topology_matches_no_topology(self, params):
        """complete(n) routes every message directly with one RNG draw per
        message — exactly the no-topology code path, so the traces agree to
        the last bit."""
        plain = run_maintenance_scenario(params, rounds=5, fault_kind="two_faced",
                                         seed=3)
        routed = run_maintenance_scenario(params, rounds=5, fault_kind="two_faced",
                                          topology=complete(7), seed=3)
        times = [plain.tmax0 + 0.1 * k for k in range(40)]
        for t in times:
            assert plain.trace.local_times(t) == routed.trace.local_times(t)
        assert plain.trace.stats.sent == routed.trace.stats.sent
        assert plain.trace.stats.delivered == routed.trace.stats.delivered
        # And the parameters are untouched (no effective re-derivation).
        assert routed.params == params

    def test_default_runs_are_reproducible(self, params):
        a = run_maintenance_scenario(params, rounds=5, seed=11)
        b = run_maintenance_scenario(params, rounds=5, seed=11)
        grid_times = [a.tmax0 + 0.2 * k for k in range(20)]
        assert a.trace.skew_series(grid_times) == b.trace.skew_series(grid_times)


class TestPartitionAndHeal:
    @pytest.fixture(scope="class")
    def result(self):
        return run_partition_heal_scenario(default_parameters(n=7, f=2),
                                           rounds=16, partition_round=4,
                                           heal_round=12, seed=0)

    def test_full_audit_passes(self, result):
        report = check_partition_heal_run(result)
        assert report.all_passed, [c.claim for c in report.failed()]

    def test_divergence_during_partition(self, result):
        """Cross-group divergence while split clearly exceeds healthy levels."""
        P = result.params.round_length
        during = max(d for _, d in divergence_series(
            result.trace, result.groups,
            result.partition_start + P, result.heal_time, samples=60))
        healed = min(d for _, d in divergence_series(
            result.trace, result.groups,
            result.heal_time + 2 * P, result.heal_time + 4 * P, samples=20))
        assert during > 2.0 * healed
        # Each side keeps agreement *internally* the whole time.
        internal = per_partition_agreement(
            result.trace, result.groups,
            result.partition_start + P, result.heal_time, samples=60)
        gamma = agreement_bound(result.params)
        assert all(skew <= gamma for skew in internal.values())

    def test_reconvergence_within_lemma20_envelope(self, result):
        """After healing, round-boundary skews obey the Lemma 20 recurrence
        and agreement is restored to the Theorem 16 bound."""
        P = result.params.round_length
        skews = [result.trace.skew(result.heal_time + k * P) for k in range(5)]
        for before, after in zip(skews, skews[1:]):
            assert after <= startup_round_recurrence(result.params, before) + 1e-9
        assert skews[-1] <= agreement_bound(result.params)

    def test_partition_drops_cross_messages_only(self, result):
        stats = result.trace.stats
        assert stats.unroutable > 0
        assert stats.dropped == stats.unroutable  # uniform delays never drop
        assert stats.delivered + stats.dropped == stats.sent

    def test_partition_heal_workload_preset(self):
        result = execute(build_spec(get_workload("partition-heal"),
                                    rounds=10, seed=0))
        assert result.is_partition_heal
        report = check_partition_heal_run(result)
        assert report.all_passed, [c.claim for c in report.failed()]

    def test_partition_on_clustered_topology(self):
        """Cutting a clustered graph along its bridges partitions for real."""
        from repro.topology import cluster_groups
        groups = cluster_groups(7, 2)
        topology = make_topology("clustered", 7, clusters=2, bridges=2)
        result = run_partition_heal_scenario(
            default_parameters(n=7, f=2), rounds=16, partition_round=4,
            heal_round=12, groups=groups, topology=topology, seed=0)
        assert result.trace.stats.unroutable > 0
        report = check_partition_heal_run(result)
        # Divergence and healing still audit on the sparse graph.
        for check in report.checks:
            if check.claim.startswith("lemma20") or check.claim == "healed_agreement":
                assert check.passed, check
