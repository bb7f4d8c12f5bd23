"""Ablations A1–A4 and agreement across network topologies.

The ablations are not claims of the paper; they check the design knobs it
discusses qualitatively, on the workhorse workload (n = 7, f = 2):

* **A1** — amortized application of adjustments (Section 4.1) keeps local
  time monotone at no cost in agreement;
* **A2** — the ``(1+ρ)(β+δ+ε)`` collection window is load-bearing: shrinking
  it makes correct processes miss each other and degrades agreement;
* **A3** — the ``reduce`` step is what buys Byzantine tolerance: a plain mean
  under out-of-range attackers is wrecked;
* **A4** — agreement is flat up to f actual attackers and collapses past f.

On a sparse graph messages relay hop by hop, so the topology-effective
(δ', ε') envelope stretches with the diameter; γ-agreement must hold against
that envelope on every graph, the complete graph must be the tightest, and
a partitioned system must diverge and then re-converge after healing
(Lemma 20).
"""

import pytest

from repro.analysis import (
    measured_agreement,
    run_maintenance_scenario,
    run_partition_heal_scenario,
    sample_grid,
    sweep_fault_count,
)
from repro.analysis.verification import check_partition_heal_run
from repro.core import (
    AmortizedWelchLynchProcess,
    PlainMean,
    WelchLynchProcess,
    agreement_bound,
)
from repro.topology import make_topology


def _agreement(result, settle_rounds=2, samples=150):
    start = result.tmax0 + settle_rounds * result.params.round_length
    return measured_agreement(result.trace, start, result.end_time,
                              samples=samples)


def _min_step(result):
    """Smallest local-time increment between samples (negative = went back)."""
    grid = sample_grid(result.tmax0, result.end_time, 400)
    worst = float("inf")
    for pid in result.trace.nonfaulty_ids:
        values = [result.trace.local_time(pid, t) for t in grid]
        worst = min(worst, min(b - a for a, b in zip(values, values[1:])))
    return worst


class TestAblations:
    def test_a1_amortized_vs_instantaneous(self, medium_params):
        params = medium_params
        plain = run_maintenance_scenario(params, rounds=10,
                                         fault_kind="two_faced", seed=3)
        amortized = run_maintenance_scenario(
            params, rounds=10, fault_kind="two_faced", seed=3,
            correct_process_factory=lambda p, r: AmortizedWelchLynchProcess(
                p, steps=10, max_rounds=r))
        gamma = agreement_bound(params)
        assert _agreement(plain) <= gamma
        assert _agreement(amortized) <= gamma
        # The amortized variant never steps backwards.
        assert _min_step(amortized) >= -1e-9
        assert _agreement(amortized) <= _agreement(plain) * 1.5 + 1e-4

    def test_a2_collection_window_length(self, medium_params):
        def agreement_with_window(factor):
            def factory(p, r):
                process = WelchLynchProcess(p, max_rounds=r)
                original = process._window_length
                process._window_length = lambda ctx: original(ctx) * factor
                return process

            return _agreement(run_maintenance_scenario(
                medium_params, rounds=10, fault_kind="two_faced", seed=5,
                correct_process_factory=factory))

        paper_window = agreement_with_window(1.0)
        assert paper_window <= agreement_bound(medium_params)
        # A window too short to hear every nonfaulty process costs accuracy.
        assert agreement_with_window(0.3) > paper_window

    def test_a3_reduce_step(self, medium_params):
        tolerant = run_maintenance_scenario(medium_params, rounds=10,
                                            fault_kind="random_noise", seed=7)
        plain = run_maintenance_scenario(medium_params, rounds=10,
                                         fault_kind="random_noise",
                                         averaging=PlainMean(), seed=7)
        assert _agreement(tolerant) <= agreement_bound(medium_params)
        assert _agreement(plain) > 10 * _agreement(tolerant)

    def test_a4_actual_fault_count(self, medium_params):
        sweep = sweep_fault_count([0, 1, 2, 3], n=medium_params.n,
                                  f=medium_params.f, rounds=10, seed=1)
        agreements = sweep.column("agreement")
        for value in agreements[:3]:
            assert value <= agreement_bound(medium_params)
        assert agreements[3] > agreements[2]


TOPOLOGY_SPECS = [
    ("complete", {}),
    ("ring", {}),
    ("random_gnp", {"p": 0.4}),
]


@pytest.fixture(scope="module")
def topology_agreements(medium_params):
    """Agreement and its topology-effective γ per graph, each run once."""
    rows = {}
    for kind, options in TOPOLOGY_SPECS:
        topology = make_topology(kind, medium_params.n, seed=0, **options)
        result = run_maintenance_scenario(medium_params, rounds=12,
                                          fault_kind=None,
                                          topology=topology, seed=0)
        rows[kind] = (_agreement(result, settle_rounds=1, samples=200),
                      agreement_bound(result.params))
    return rows


class TestTopologies:
    @pytest.mark.parametrize("kind", [kind for kind, _ in TOPOLOGY_SPECS])
    def test_agreement_across_topologies(self, topology_agreements, kind):
        agreement, gamma = topology_agreements[kind]
        assert agreement <= gamma

    def test_complete_graph_is_tightest(self, topology_agreements):
        agreements = {kind: row[0] for kind, row in topology_agreements.items()}
        assert agreements["complete"] <= min(agreements["ring"],
                                             agreements["random_gnp"])

    def test_partition_heal_convergence(self, medium_params):
        result = run_partition_heal_scenario(medium_params, rounds=16,
                                             partition_round=4, heal_round=12,
                                             seed=0)
        report = check_partition_heal_run(result)
        assert report.all_passed, [c.claim for c in report.failed()]
