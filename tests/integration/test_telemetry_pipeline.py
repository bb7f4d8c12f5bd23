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
  trace and a manifest the report subcommand accepts.
"""

import json

import pytest

from repro.analysis import default_parameters
from repro.cli import main
from repro.runner import BatchRunner, RunSpec, execute
from repro.sim import EventBudgetExceeded
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
        instrumented = execute(spec, telemetry=Telemetry())
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
        BatchRunner(jobs=1, telemetry=serial_tel).run(specs)
        parallel_tel = Telemetry()
        BatchRunner(jobs=2, telemetry=parallel_tel).run(specs)

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
        BatchRunner(jobs=2, telemetry=telemetry).run(specs)
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
        runner = BatchRunner(jobs=1, telemetry=telemetry, store=":memory:",
                             resume=True)
        runner.run(specs)
        executed = telemetry.registry.value("runner.specs_executed")
        runner.run(specs)  # every spec stored: no new runs, no new metrics
        assert telemetry.registry.value("runner.specs_executed") == executed
        assert len(telemetry.manifests) == len(specs)


class TestBudgetExceeded:
    def test_metrics_snapshot_and_manifest_on_abort(self):
        spec = _specs(count=1)[0].replace(max_events=20)
        telemetry = Telemetry()
        with pytest.raises(EventBudgetExceeded) as excinfo:
            execute(spec, telemetry=telemetry)
        err = excinfo.value
        assert err.metrics is not None
        assert err.metrics["sim.events_dispatched"]["value"] == err.processed
        (record,) = telemetry.manifests
        assert record["outcome"] == "budget_exceeded"
        assert "budget" in record["error"]
        assert record["metrics"]["runner.budget_exceeded"]["value"] == 1


class TestCli:
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
