"""Unit tests for the repro command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.sim.traceindex import numpy_enabled


class TestParser:
    def test_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.command == "run"
        assert args.workload == "lan"
        assert args.n == 7 and args.f == 2
        # rounds defaults to the workload's preset (10 for lan) at runtime.
        assert args.rounds is None
        assert not args.no_trace and args.observe is None
        assert args.checkpoint_every is None and args.horizon is None

    def test_sweep_requires_axis_and_values(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--axis", "epsilon"])
        args = build_parser().parse_args(
            ["sweep", "--axis", "epsilon", "--values", "0.001", "0.002"])
        assert args.values == ["0.001", "0.002"]

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--workload", "mars"])

    def test_bench_is_not_a_subcommand(self, capsys):
        # Speed is measured by bench/run.py, not by the CLI.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["bench"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_runner_flags_on_run_compare_sweep(self):
        for argv in (["run", "--jobs", "2", "--replicate-seeds", "0", "1"],
                     ["compare", "--jobs", "2", "--replicate-seeds", "3"],
                     ["sweep", "--axis", "n", "--values", "7",
                      "--jobs", "4", "--replicate-seeds", "0", "1", "2"]):
            args = build_parser().parse_args(argv)
            assert args.jobs in (2, 4)
            assert all(isinstance(seed, int) for seed in args.replicate_seeds)

    def test_runner_flags_default_off(self):
        args = build_parser().parse_args(["run"])
        assert args.jobs == 1
        assert args.replicate_seeds is None


class TestStreamingRun:
    def test_no_trace_run_audits_online_and_passes(self, capsys):
        code = main(["run", "--no-trace", "--observe", "skew,validity",
                     "--rounds", "5", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "streaming (no trace)" in out
        assert "online agreement" in out and "online validity" in out

    def test_no_trace_requires_auditing_observers(self, capsys):
        code = main(["run", "--no-trace", "--observe", "network",
                     "--rounds", "4"])
        assert code == 2
        assert "skew" in capsys.readouterr().err

    def test_partition_heal_rejects_streaming_flags(self, capsys):
        code = main(["run", "--workload", "partition-heal", "--no-trace",
                     "--rounds", "8"])
        assert code == 2
        assert "streaming" in capsys.readouterr().err

    def test_replicated_streaming_errors_exit_cleanly(self, capsys):
        code = main(["run", "--workload", "partition-heal", "--no-trace",
                     "--replicate-seeds", "1", "2"])
        assert code == 2
        assert "streaming" in capsys.readouterr().err

    def test_checkpointed_run_reports_checkpoints(self, capsys):
        code = main(["run", "--no-trace", "--rounds", "5", "--seed", "1",
                     "--checkpoint-every", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "snapshot/restore round trips" in out


class TestVersionFlag:
    def test_version_prints_package_version(self, capsys):
        from repro import __version__
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out


class TestWorkloadsCommand:
    def test_lists_every_preset(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("lan", "wan", "high-drift", "quiet", "ring-lan",
                     "partition-heal"):
            assert name in out


class TestTopologiesCommand:
    def test_lists_every_generator(self, capsys):
        assert main(["topologies"]) == 0
        out = capsys.readouterr().out
        for name in ("complete", "ring", "star", "grid", "random_gnp",
                     "clustered"):
            assert name in out


class TestRunCommand:
    def test_run_prints_audit_and_succeeds(self, capsys):
        exit_code = main(["run", "--rounds", "5", "--seed", "1"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "theorem16_agreement" in out
        assert "all claims hold" in out
        assert "skew over time" in out

    def test_run_exports_json_and_csv(self, tmp_path, capsys):
        json_path = tmp_path / "run.json"
        csv_path = tmp_path / "skew.csv"
        exit_code = main(["run", "--rounds", "4", "--seed", "2",
                          "--json", str(json_path), "--csv", str(csv_path)])
        capsys.readouterr()
        assert exit_code == 0
        payload = json.loads(json_path.read_text())
        assert payload["params"]["n"] == 7
        assert csv_path.read_text().startswith("real_time,skew")

    def test_run_on_quiet_workload(self, capsys):
        assert main(["run", "--workload", "quiet", "--rounds", "4"]) == 0
        assert "all claims hold" in capsys.readouterr().out

    def test_run_on_ring_topology(self, capsys):
        exit_code = main(["run", "--topology", "ring", "--rounds", "4"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "topology ring" in out
        assert "effective envelope" in out
        assert "all claims hold" in out

    def test_run_rejects_bad_topology_spec(self):
        with pytest.raises(ValueError):
            main(["run", "--topology", "moebius", "--rounds", "4"])

    def test_run_partition_heal_workload(self, capsys):
        exit_code = main(["run", "--workload", "partition-heal",
                          "--rounds", "10"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "partition_divergence" in out
        assert "lemma20_heal_round_0" in out
        assert "cross-group divergence over time" in out
        assert "all claims hold" in out


class TestRunReplicated:
    def test_replicated_run_reports_stats_and_audits(self, capsys):
        exit_code = main(["run", "--rounds", "5",
                          "--replicate-seeds", "0", "1", "2"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "replicated over seeds [0, 1, 2]" in out
        assert out.count("pass") >= 3
        assert "ci95=[" in out
        assert "worst agreement" in out
        assert "holds on every seed" in out

    def test_replicated_partition_heal_summary_matches_audits(self, capsys):
        """The summary must not contradict the partition-aware audits."""
        exit_code = main(["run", "--workload", "partition-heal",
                          "--rounds", "10", "--replicate-seeds", "0", "1"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "VIOLATED" not in out
        assert "partition window" in out
        assert out.count("pass") >= 2

    def test_replicated_run_exports_json_and_csv(self, tmp_path, capsys):
        json_path = tmp_path / "replication.json"
        csv_path = tmp_path / "replication.csv"
        exit_code = main(["run", "--rounds", "4",
                          "--replicate-seeds", "0", "1",
                          "--json", str(json_path), "--csv", str(csv_path)])
        capsys.readouterr()
        assert exit_code == 0
        payload = json.loads(json_path.read_text())
        assert payload["seeds"] == [0, 1]
        assert payload["summary"]["agreement_mean"] > 0
        assert [row["seed"] for row in payload["per_seed"]] == [0, 1]
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "seed,agreement,validity_violation_rate,audit"
        assert len(lines) == 3

    def test_replicated_run_with_jobs_matches_serial(self, capsys):
        assert main(["run", "--rounds", "4", "--replicate-seeds", "0", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(["run", "--rounds", "4", "--replicate-seeds", "0", "1",
                     "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        # Identical numbers; only the reported job count may differ.
        assert (serial.replace("jobs=1", "jobs=2")
                == parallel)


class TestStartupCommand:
    def test_startup_reports_series_and_limit(self, capsys):
        exit_code = main(["startup", "--rounds", "6", "--spread", "0.5"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "measured B^i" in out
        assert "Lemma 20 limit" in out
        assert "all claims hold" in out


class TestCompareCommand:
    def test_compare_subset_of_algorithms(self, capsys, tmp_path):
        json_path = tmp_path / "comparison.json"
        exit_code = main(["compare", "--rounds", "5",
                          "--algorithms", "welch_lynch", "unsynchronized",
                          "--json", str(json_path)])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "welch_lynch" in out
        rows = json.loads(json_path.read_text())
        assert {row["algorithm"] for row in rows} == {"welch_lynch",
                                                      "unsynchronized"}

    def test_compare_replicated_prints_ci_table(self, capsys, tmp_path):
        json_path = tmp_path / "replicated.json"
        exit_code = main(["compare", "--rounds", "4",
                          "--algorithms", "welch_lynch", "unsynchronized",
                          "--replicate-seeds", "0", "1", "--jobs", "2",
                          "--json", str(json_path)])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "agreement mean" in out and "ci95 low" in out
        rows = json.loads(json_path.read_text())
        assert all("agreement_ci95_high" in row for row in rows)


class TestSweepCommand:
    def test_epsilon_sweep_outputs_table_and_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        exit_code = main(["sweep", "--axis", "epsilon",
                          "--values", "0.001", "0.002",
                          "--rounds", "4", "--csv", str(csv_path)])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "epsilon" in out and "agreement" in out
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "epsilon,gamma,agreement"
        assert len(lines) == 3

    def test_fault_count_sweep(self, capsys):
        exit_code = main(["sweep", "--axis", "fault-count", "--values", "0", "2",
                          "--rounds", "4"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "fault_count" in out

    def test_topology_sweep(self, capsys):
        exit_code = main(["sweep", "--axis", "topology",
                          "--values", "complete", "ring", "--rounds", "3"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "topology" in out and "diameter" in out
        assert "ring" in out

    def test_sweep_with_jobs_matches_serial_output(self, capsys):
        argv = ["sweep", "--axis", "epsilon", "--values", "0.001", "0.002",
                "--rounds", "3"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial

    @pytest.mark.parametrize("flags, retries", [
        ([], None),
        (["--retries", "7"], 7),
        (["--retries", "0"], 0),
        (["--spec-timeout", "30"], 2),
    ])
    def test_retries_opts_the_sweep_into_supervision(self, flags, retries):
        from repro.cli import _sweep_runner

        args = build_parser().parse_args(
            ["sweep", "--axis", "n", "--values", "7", "--jobs", "2", *flags])
        runner = _sweep_runner(args)
        if retries is None:
            assert runner is None
        else:
            assert runner.pool.max_retries == retries

    def test_replicated_sweep_adds_ci_columns(self, capsys):
        exit_code = main(["sweep", "--axis", "epsilon", "--values", "0.002",
                          "--rounds", "3", "--replicate-seeds", "0", "1"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "agreement_ci95" in out


class TestCertifyCommand:
    def test_certify_prints_chain_and_verifies(self, capsys, tmp_path):
        json_path = tmp_path / "certificate.json"
        exit_code = main(["certify", "-n", "3", "--rounds", "4",
                          "--json", str(json_path)])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "certificate VERIFIED" in out
        assert "lower_bound_achieved" in out
        assert "shift unit" in out
        payload = json.loads(json_path.read_text())
        assert payload["schema"] == 1
        assert payload["n"] == 3
        assert payload["verified"] is True
        assert len(payload["executions"]) == 3

    def test_certify_streaming_base_run(self, capsys):
        exit_code = main(["certify", "-n", "3", "--rounds", "4",
                          "--no-trace"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "streamed base run" in out
        assert "certificate VERIFIED" in out


class TestConformanceCommand:
    def test_small_matrix_passes(self, capsys, tmp_path):
        json_path = tmp_path / "conformance.json"
        exit_code = main(["conformance", "-n", "4", "-f", "1",
                          "--rounds", "3",
                          "--algorithms", "welch_lynch", "unsynchronized",
                          "--fault-kinds", "none", "silent",
                          "--json", str(json_path)])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "conformance matrix: 4 cells" in out
        assert "axioms A1-A3 hold on every cell" in out
        payload = json.loads(json_path.read_text())
        assert len(payload) == 4
        assert all(entry["passed"] for entry in payload)
        claims = {check["claim"] for check in payload[0]["checks"]}
        assert "axiom_a3_delay_envelope" in claims

    def test_matrix_with_jobs_matches_serial_output(self, capsys):
        argv = ["conformance", "-n", "4", "-f", "1", "--rounds", "3",
                "--algorithms", "welch_lynch", "--fault-kinds", "none"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel.replace("jobs=2", "jobs=1") == serial

    def test_unknown_algorithm_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["conformance", "--algorithms",
                                       "quantum_sync"])


class TestTightnessSweep:
    def test_tightness_axis_brackets_the_achieved_skew(self, capsys):
        exit_code = main(["sweep", "--axis", "tightness",
                          "--values", "3", "5", "--rounds", "4"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "lower_bound" in out and "gamma_over_lower" in out


class TestNetParser:
    def test_net_run_defaults(self):
        args = build_parser().parse_args(["net", "run"])
        assert args.command == "net" and args.action == "run"
        assert args.n == 4 and args.f is None
        assert args.duration == 5.0 and args.rounds is None
        assert args.pings == 5 and args.samples == 200

    def test_net_serve_requires_id_and_hosts(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["net", "serve", "--id", "0"])
        args = build_parser().parse_args(
            ["net", "serve", "--id", "1",
             "--hosts", "127.0.0.1:9001", "127.0.0.1:9002"])
        assert args.id == 1
        assert args.hosts == ["127.0.0.1:9001", "127.0.0.1:9002"]

    def test_net_serve_rejects_malformed_host(self, capsys):
        exit_code = main(["net", "serve", "--id", "0",
                          "--hosts", "localhost", "127.0.0.1:9002"])
        assert exit_code == 2
        assert "HOST:PORT" in capsys.readouterr().err


def _counter(stderr, name):
    """A counter's value from the --telemetry registry table (0 if absent)."""
    for line in stderr.splitlines():
        fields = line.split()
        if fields and fields[0] == name:
            return float(fields[-1])
    return 0.0


needs_numpy = pytest.mark.skipif(not numpy_enabled(),
                                 reason="the engines need numpy")


class TestEngineFlags:
    """run's engine flags are one choice, passed along, never global."""

    @pytest.mark.parametrize("flags,engine", [
        ([], "auto"),
        (["--vectorize"], "batch"),
        (["--round-engine"], "round"),
        (["--no-vectorize"], "serial"),
        (["--no-round-engine"], "serial"),
    ])
    def test_each_flag_maps_to_its_engine(self, flags, engine, monkeypatch):
        import repro.cli as cli

        seen = []
        real = cli.execute

        def spy(spec, telemetry=None, engine="auto"):
            seen.append(engine)
            return real(spec, telemetry=telemetry, engine=engine)

        monkeypatch.setattr(cli, "execute", spy)
        assert build_parser().parse_args(["run", *flags]).engine == engine
        assert main(["run", "--no-trace", "--observe", "skew,validity",
                     "--rounds", "2", *flags]) == 0
        assert seen == [engine]

    def test_engine_flags_are_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["run", "--vectorize",
                                       "--round-engine"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("command", [
        ["compare"], ["sweep", "--axis", "n", "--values", "7"]])
    @pytest.mark.parametrize("flag", [
        ["--vectorize"], ["--no-vectorize"], ["--round-engine"],
        ["--no-round-engine"], ["--max-events", "1"]])
    def test_only_run_accepts_engine_flags(self, command, flag, capsys):
        # compare and sweep specs are ones both engines decline, so the
        # flags would do nothing there: argparse refuses them instead.
        with pytest.raises(SystemExit) as excinfo:
            main(command + flag)
        assert excinfo.value.code == 2

    @needs_numpy
    def test_default_after_no_vectorize_still_batches(self, capsys):
        argv = ["run", "--no-trace", "--observe", "skew,validity",
                "--rounds", "3", "--replicate-seeds", "0", "1", "2",
                "--telemetry"]
        assert main(argv + ["--no-vectorize"]) == 0
        first = capsys.readouterr()
        assert _counter(first.err, "runner.vectorized_replicas") == 0
        assert main(argv) == 0
        second = capsys.readouterr()
        assert _counter(second.err, "runner.vectorized_replicas") == 3
        assert first.out == second.out

    @needs_numpy
    def test_round_engine_flag_runs_the_round_engine(self, capsys):
        argv = ["run", "--workload", "grid-lan", "--no-trace", "--observe",
                "skew,validity", "--rounds", "3", "-n", "9", "--telemetry"]
        main(argv + ["--round-engine"])
        forced = capsys.readouterr()
        assert _counter(forced.err, "roundengine.rounds") == 3
        main(argv)  # auto: n=9 is below the round engine's floor
        auto = capsys.readouterr()
        assert _counter(auto.err, "roundengine.rounds") == 0
        assert forced.out == auto.out


class TestEventBudget:
    """An exhausted --max-events budget ends in one error line, exit 2."""

    STREAMING = ["run", "--no-trace", "--observe", "skew,validity",
                 "--rounds", "3", "--max-events", "1"]

    def _assert_budget_error(self, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: exceeded the budget of 1 events")
        assert "spec maintenance:n=7" in err
        assert "--max-events" in err.splitlines()[-1]

    def test_single_streaming_run(self, capsys):
        self._assert_budget_error(capsys, self.STREAMING)

    def test_replicated_run(self, capsys):
        self._assert_budget_error(
            capsys, self.STREAMING + ["--replicate-seeds", "0", "1"])

    def test_traced_replicas_in_pool_workers(self, capsys):
        # Traced replicas take the per-spec path: the budget trips inside a
        # pool worker and its exception travels back whole.
        self._assert_budget_error(capsys, [
            "run", "--rounds", "3", "--max-events", "1",
            "--replicate-seeds", "0", "1", "--jobs", "2"])

    def test_traced_run_honours_max_events(self, capsys):
        self._assert_budget_error(capsys, ["run", "--rounds", "3",
                                           "--max-events", "1"])
        # a budget the run fits in changes nothing
        assert main(["run", "--rounds", "3"]) == 0
        plain = capsys.readouterr().out
        assert main(["run", "--rounds", "3", "--max-events", "10000000"]) == 0
        assert capsys.readouterr().out == plain
