"""Integration tests for the telemetry layer across the stack.

The acceptance bar of the observability PR:

* **bit-identity** — an instrumented run produces exactly the trace an
  uninstrumented run does (telemetry reads wall clocks, never the RNG);
* **merge equality** — a ``BatchRunner(jobs=2)`` with telemetry reports the
  same counter totals and gauge high-waters as a serial run of the same
  batch;
* **manifests** — every executed spec leaves one JSON line, including
  budget-killed runs, and ``telemetry report`` renders the file;
* **CLI** — ``--telemetry --trace-out --manifest`` produce a loadable Chrome
  trace and a manifest the report subcommand accepts;
* **one way in** — every layer books into the active bundle, and no
  execution API takes a bundle as an argument.
"""

import inspect
import json
import sqlite3

import pytest

from repro.analysis import default_parameters
from repro.analysis.experiments import ScenarioResult
from repro.analysis.workloads import build_spec, get_workload
from repro.cli import main
from repro.runner import BatchRunner, RunSpec, SupervisedPool, execute
from repro.sim import EventBudgetExceeded, System
from repro.sim.roundengine import try_execute
from repro.sim.traceindex import numpy_enabled
from repro.sim.vectorized import execute_batch
from repro.telemetry import Telemetry, activated, read_manifests


def _specs(count=4, rounds=3):
    params = default_parameters(n=7, f=2)
    return [RunSpec.maintenance(params, rounds=rounds, seed=seed,
                                record_trace=True,
                                observers=("network",))
            for seed in range(count)]


def _fingerprint(result):
    trace = result.trace
    return ([(e.real_time, e.process_id, e.name) for e in trace.events],
            (trace.stats.sent, trace.stats.delivered, trace.stats.dropped,
             trace.stats.timers_set, trace.stats.timers_fired))


class TestBitIdentity:
    def test_instrumented_run_identical_to_plain(self):
        spec = _specs(count=1)[0]
        plain = execute(spec)
        with activated(Telemetry()):
            instrumented = execute(spec)
        assert _fingerprint(plain) == _fingerprint(instrumented)

    def test_active_telemetry_changes_nothing(self):
        spec = _specs(count=1)[0]
        plain = execute(spec)
        with activated(Telemetry()):
            ambient = execute(spec)
        assert _fingerprint(plain) == _fingerprint(ambient)


class TestMergeEquality:
    """Serial and jobs=2 batches must report identical metric totals."""

    def test_parallel_totals_equal_serial(self):
        specs = _specs()
        serial_tel = Telemetry()
        with activated(serial_tel):
            BatchRunner(jobs=1).run(specs)
        parallel_tel = Telemetry()
        with activated(parallel_tel):
            BatchRunner(jobs=2).run(specs)

        serial = serial_tel.registry.snapshot()
        parallel = parallel_tel.registry.snapshot()
        assert set(serial) == set(parallel)
        for name, state in serial.items():
            if state["kind"] == "counter":
                assert parallel[name]["value"] == state["value"], name
            elif state["kind"] == "gauge":
                # Gauge *currents* are last-run-vs-max (order-dependent);
                # the high-water mark is the well-defined aggregate.
                assert parallel[name]["high_water"] == \
                    state["high_water"], name
            else:
                assert parallel[name]["count"] == state["count"], name
        # Sanity: the counters actually measured the simulations.
        assert serial["runner.specs_executed"]["value"] == len(specs)
        assert serial["sim.events_dispatched"]["value"] > 0

    def test_manifests_collected_per_spec(self):
        specs = _specs()
        telemetry = Telemetry()
        with activated(telemetry):
            BatchRunner(jobs=2).run(specs)
        assert len(telemetry.manifests) == len(specs)
        hashes = {record["spec_hash"] for record in telemetry.manifests}
        assert len(hashes) == len(specs)
        for record in telemetry.manifests:
            assert record["outcome"] == "ok"
            assert record["events"] > 0
            assert record["network"]["sent"] > 0

    def test_cached_specs_measure_nothing(self):
        specs = _specs(count=2)
        telemetry = Telemetry()
        runner = BatchRunner(jobs=1, store=":memory:", resume=True)
        with activated(telemetry):
            runner.run(specs)
        executed = telemetry.registry.value("runner.specs_executed")
        with activated(telemetry):
            runner.run(specs)  # every spec stored: no new runs, no new metrics
        assert telemetry.registry.value("runner.specs_executed") == executed
        assert len(telemetry.manifests) == len(specs)


class TestBudgetExceeded:
    def test_metrics_snapshot_and_manifest_on_abort(self):
        spec = _specs(count=1)[0].replace(max_events=20)
        telemetry = Telemetry()
        with pytest.raises(EventBudgetExceeded) as excinfo, \
                activated(telemetry):
            execute(spec)
        err = excinfo.value
        assert err.metrics is not None
        assert err.metrics["sim.events_dispatched"]["value"] == err.processed
        (record,) = telemetry.manifests
        assert record["outcome"] == "budget_exceeded"
        assert "budget" in record["error"]
        assert record["metrics"]["runner.budget_exceeded"]["value"] == 1


class TestOneBundle:
    """Every layer books into the active bundle: the one way in."""

    @pytest.mark.parametrize("spec", [
        RunSpec.startup(default_parameters(n=4, f=1), rounds=4),
        RunSpec.reintegration(default_parameters(n=7, f=2), rounds=8),
    ], ids=["startup", "reintegration"])
    def test_every_scenario_books_the_simulator(self, spec):
        telemetry = Telemetry()
        with activated(telemetry):
            execute(spec)
        assert telemetry.registry.value("sim.events_dispatched") > 0
        names = [record.name for record in telemetry.tracer.records]
        assert names.count("sim.run_until") == 1
        (record,) = telemetry.manifests
        assert record["kind"] == spec.kind

    @pytest.mark.skipif(not numpy_enabled(), reason="the kernel needs numpy")
    def test_resumed_supervised_batch_books_into_one_bundle(self, tmp_path):
        params = default_parameters(n=7, f=2)
        traced = [RunSpec.maintenance(params, rounds=3, seed=seed)
                  for seed in range(3)]
        streamed = build_spec(get_workload("lan"), n=7, rounds=4,
                              record_trace=False,
                              observers=("skew", "validity"))
        group = [streamed.with_seed(seed) for seed in range(4)]
        store_path = str(tmp_path / "s.sqlite")
        BatchRunner(store=store_path).run(traced[:2])
        with sqlite3.connect(store_path) as conn:
            conn.execute("UPDATE results SET payload = ? WHERE seed = 0",
                         (sqlite3.Binary(b"torn bytes"),))
        conn.close()
        idle = Telemetry()
        telemetry = Telemetry()
        runner = BatchRunner(jobs=2, store=store_path, resume=True,
                             max_retries=1)
        with activated(telemetry):
            results = runner.run(traced + group)
        assert [r.trace.events for r in results[:3]] == \
            [execute(spec).trace.events for spec in traced]
        registry = telemetry.registry
        assert registry.value("resilient.store.corrupt") == 1
        assert registry.value("resilient.store.hits") == 1
        assert registry.value("resilient.store.misses") == 6
        assert registry.value("runner.vectorized_replicas") == 4
        # The two traced misses ran in the workers; the group on the kernel
        # books no sim.* counter.
        alone = Telemetry()
        with activated(alone):
            for spec in (traced[0], traced[2]):
                execute(spec)
        assert registry.value("sim.events_dispatched") == \
            alone.registry.value("sim.events_dispatched") > 0
        assert idle.registry.snapshot() == {}
        assert idle.manifests == [] and len(idle.tracer) == 0

    @pytest.mark.parametrize("starts_inside", [True, False],
                             ids=["inside-first", "outside-first"])
    def test_pooled_iteration_books_into_the_starting_bundle(
            self, starts_inside):
        """A pooled run_iter reads the bundle once, as its batch starts;
        switching bundles between two next() calls changes nothing."""
        specs = _specs(count=8)
        telemetry = Telemetry()
        results = BatchRunner(jobs=2).run_iter(specs)
        with activated(telemetry if starts_inside else None):
            first = next(results)
        with activated(None if starts_inside else telemetry):
            rest = list(results)
        assert all(isinstance(result, ScenarioResult)
                   for result in [first] + rest)
        assert [_fingerprint(result) for result in [first] + rest] == \
            [_fingerprint(execute(spec)) for spec in specs]
        assert telemetry.registry.value("runner.specs_executed") == \
            (len(specs) if starts_inside else 0)

    @pytest.mark.parametrize("api", [execute, execute_batch, try_execute,
                                     BatchRunner, SupervisedPool, System],
                             ids=lambda api: api.__name__)
    def test_no_execution_api_takes_a_bundle(self, api):
        assert "telemetry" not in inspect.signature(api).parameters


class TestCli:
    def test_startup_manifest_appends_one_line(self, tmp_path, capsys):
        manifest_path = tmp_path / "startup.jsonl"
        status = main(["startup", "-n", "4", "-f", "1", "--rounds", "4",
                       "--telemetry", "--manifest", str(manifest_path)])
        assert status == 0
        assert "sim.events_dispatched" in capsys.readouterr().err
        (record,) = read_manifests(str(manifest_path))
        assert record["outcome"] == "ok"
        assert record["kind"] == "startup"
        assert record["events"] > 0

    def test_run_telemetry_artifacts(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        manifest_path = tmp_path / "manifest.jsonl"
        status = main(["run", "--workload", "lan", "-n", "7", "--rounds", "3",
                       "--telemetry", "--trace-out", str(trace_path),
                       "--manifest", str(manifest_path)])
        assert status == 0
        captured = capsys.readouterr()
        assert "sim.events_dispatched" in captured.err
        # The Chrome trace loads and has the simulator span in it.
        trace = json.loads(trace_path.read_text())
        names = {event["name"] for event in trace["traceEvents"]}
        assert {"cli.run", "execute", "sim.run_until"} <= names
        assert all(event["ph"] == "X" for event in trace["traceEvents"])
        # The manifest line is complete.
        (record,) = read_manifests(str(manifest_path))
        assert record["outcome"] == "ok"
        assert record["kind"] == "maintenance"
        assert record["events"] > 0

    def test_track_memory_fills_manifest(self, tmp_path):
        manifest_path = tmp_path / "manifest.jsonl"
        status = main(["run", "--workload", "lan", "-n", "7", "--rounds", "3",
                       "--manifest", str(manifest_path), "--track-memory"])
        assert status == 0
        (record,) = read_manifests(str(manifest_path))
        assert record["peak_memory_bytes"] > 0

    def test_telemetry_report_renders(self, tmp_path, capsys):
        manifest_path = tmp_path / "manifest.jsonl"
        for seed in ("0", "3"):
            assert main(["run", "--workload", "lan", "-n", "7",
                         "--rounds", "3", "--seed", seed,
                         "--manifest", str(manifest_path)]) == 0
        capsys.readouterr()
        assert main(["telemetry", "report", str(manifest_path)]) == 0
        out = capsys.readouterr().out
        assert "runs: 2" in out
        assert "slowest cells:" in out
        assert "events/s:" in out

    def test_report_rejects_missing_file(self, tmp_path, capsys):
        status = main(["telemetry", "report", str(tmp_path / "absent.jsonl")])
        assert status == 2
        assert "error" in capsys.readouterr().err

    def test_sweep_with_jobs_collects_manifests(self, tmp_path):
        manifest_path = tmp_path / "manifest.jsonl"
        status = main(["sweep", "--axis", "epsilon",
                       "--values", "0.001", "0.002", "--rounds", "3",
                       "--jobs", "2", "--manifest", str(manifest_path)])
        assert status == 0
        records = read_manifests(str(manifest_path))
        assert len(records) == 2
        assert all(record["outcome"] == "ok" for record in records)
