"""Integration tests for parallel batch execution across the stack.

Covers the acceptance bar of the runner refactor: a 2-worker batch over a
multi-point workload is (a) bit-identical to serial execution per spec, for
every layer that now routes through the runner (sweeps, comparison,
replication), (b) really spread over two worker processes when at least two
CPUs are available, and (c) served from the result store on a re-run.
"""

import os

import pytest

from repro.analysis import (
    default_parameters,
    run_comparison,
    sweep_topology,
)
from repro.runner import BatchRunner, RunSpec, available_parallelism, replicate
from repro.runner import batch
from repro.runner.spec import execute
from repro.telemetry import Telemetry, activated

multicore = pytest.mark.skipif(
    available_parallelism() < 2,
    reason="two busy workers need 2+ usable CPUs")


class TestParallelParity:
    """jobs=2 must change wall-clock time only, never a single bit of output."""

    def test_topology_sweep_parity(self):
        kwargs = dict(n=7, rounds=4, seed=1)
        serial = sweep_topology(["complete", "ring", "star", "grid"], **kwargs)
        parallel = sweep_topology(["complete", "ring", "star", "grid"],
                                  runner=BatchRunner(jobs=2), **kwargs)
        assert serial.headers() == parallel.headers()
        assert serial.rows() == parallel.rows()

    def test_comparison_parity(self):
        params = default_parameters(n=7, f=2)
        kwargs = dict(rounds=4, algorithms=["welch_lynch", "srikanth_toueg",
                                            "marzullo", "unsynchronized"],
                      fault_kind="two_faced", seed=0)
        serial = run_comparison(params, **kwargs)
        parallel = run_comparison(params, runner=BatchRunner(jobs=2),
                                  **kwargs)
        assert serial == parallel

    def test_replication_parity(self):
        spec = RunSpec.maintenance(default_parameters(n=7, f=2), rounds=5)
        serial = replicate(spec, seeds=range(4))
        parallel = replicate(spec, seeds=range(4), runner=BatchRunner(jobs=2))
        assert serial.agreement_values == parallel.agreement_values
        assert serial.validity_values == parallel.validity_values
        for a, b in zip(serial.results, parallel.results):
            assert a.trace.events == b.trace.events


class TestParallelWorkhorseBatch:
    def test_serial_and_two_workers_agree_on_the_workhorse_batch(
            self, medium_params):
        specs = [RunSpec.maintenance(medium_params, rounds=40, seed=seed)
                 for seed in range(4)]
        serial = BatchRunner(jobs=1).run(specs)
        parallel = BatchRunner(jobs=2).run(specs)
        for a, b in zip(serial, parallel):
            assert a.trace.events == b.trace.events
            assert a.start_times == b.start_times

    def test_replication_over_four_seeds_stays_valid(self, medium_params):
        spec = RunSpec.maintenance(medium_params, rounds=40)
        rep = replicate(spec, seeds=range(4), runner=BatchRunner(
            jobs=min(2, available_parallelism())))
        assert rep.validity_holds


class TestBatchCache:
    def test_warm_rerun_is_served_from_the_cache(self, medium_params,
                                                 tmp_path):
        # The store is the runner's one cache: a resumed batch executes
        # nothing and returns the stored bits.
        specs = [RunSpec.maintenance(medium_params, rounds=40, seed=seed)
                 for seed in range(4)]
        store = str(tmp_path / "cache.sqlite")
        cold = BatchRunner(store=store).run(specs)
        telemetry = Telemetry()
        with activated(telemetry):
            warm = BatchRunner(store=store, resume=True).run(specs)
        assert telemetry.registry.value("resilient.store.hits") == len(specs)
        assert telemetry.registry.value("runner.specs_executed") == 0
        assert [r.trace.events for r in warm] == \
            [r.trace.events for r in cold]


def _execute_in_worker(spec, engine="auto"):
    """``execute`` that also reports which process ran the spec."""
    return os.getpid(), execute(spec, engine=engine)


class TestPoolExecution:
    @multicore
    def test_two_workers_share_a_four_point_batch(self, monkeypatch):
        # Four specs heavy enough (~120 ms each) that both workers are busy
        # before either could drain the queue alone.  Wall-clock speedup is
        # not asserted here: shipping full traces back costs about as much as
        # the specs parallelise.  The benchmark's sweep_store workload
        # measures pool parallelism (cpu_s against wall_s) instead.
        params = default_parameters(n=13, f=4)
        specs = [RunSpec.maintenance(params, rounds=150, seed=seed)
                 for seed in range(4)]
        serial_results = BatchRunner(jobs=1).run(specs)

        monkeypatch.setattr(batch, "execute", _execute_in_worker)
        arrivals = BatchRunner(jobs=2).run(specs)
        pids = {pid for pid, _ in arrivals}
        parallel_results = [result for _, result in arrivals]

        # Bit-identical per-spec metrics no matter the worker count ...
        for a, b in zip(serial_results, parallel_results):
            assert a.trace.events == b.trace.events
            assert a.start_times == b.start_times
        # ... computed by two pool workers, never in-process.
        assert len(pids) == 2
        assert os.getpid() not in pids
