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
        assert "theorem16_agreement" in out and "theorem19_validity" in out
        assert "theorem4a_adjustment" not in out  # no trace, no Theorem 4
        assert "all claims hold" in out

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


_BAD_TOPOLOGY = "unknown topology 'moebius'; choose from "
_BELOW_A2 = "assumption A2 requires n >= 3f + 1"


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

    @pytest.mark.parametrize("argv, message", [
        (["run", "--rounds", "4", "--topology", "moebius"], _BAD_TOPOLOGY),
        (["run", "--no-trace", "--rounds", "4", "--topology", "moebius"],
         _BAD_TOPOLOGY),
        (["startup", "--rounds", "4", "--topology", "moebius"],
         _BAD_TOPOLOGY),
        (["compare", "--rounds", "4", "--topology", "moebius"],
         _BAD_TOPOLOGY),
        (["sweep", "--axis", "topology", "--rounds", "3", "--values",
          "moebius"], _BAD_TOPOLOGY),
        (["run", "-n", "4", "-f", "2"], _BELOW_A2),
        (["startup", "-n", "4", "-f", "2"], _BELOW_A2),
        (["compare", "-n", "4", "-f", "2"], _BELOW_A2),
        (["sweep", "--axis", "epsilon", "--values", "abc"],
         "--values: could not convert string to float: 'abc'"),
    ], ids=["topology-run", "topology-run-no-trace", "topology-startup",
            "topology-compare", "topology-sweep", "a2-run", "a2-startup",
            "a2-compare", "sweep-values"])
    def test_bad_input_is_a_usage_error(self, argv, message, capsys):
        # Exit 1 is reserved for a violated paper claim.
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert len(err.splitlines()) == 1

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

    def test_error_inside_a_replica_is_not_a_usage_error(self, monkeypatch):
        # A ValueError while a replica runs is a bug: it keeps its
        # traceback, as in a lone run, instead of exit 2.
        from repro.runner import batch

        def broken(spec, engine="auto"):
            raise ValueError("broken run")

        monkeypatch.setattr(batch, "execute", broken)
        with pytest.raises(ValueError, match="broken run"):
            main(["run", "--rounds", "3", "--replicate-seeds", "0", "1"])


_TRACED_CLAIMS = ("theorem4a_adjustment", "theorem4c_round_spread",
                  "theorem16_agreement", "theorem19_validity")
_ONLINE_CLAIMS = ("theorem16_agreement", "theorem19_validity")
_STREAMED = ["--no-trace", "--observe", "skew,validity"]


class TestOneVerdict:
    """Every run mode prints audit()'s claims and exits by them."""

    MODES = {
        "lone-traced": (["run", "--rounds", "4"], _TRACED_CLAIMS),
        "lone-streamed": (["run", "--rounds", "4", *_STREAMED],
                          _ONLINE_CLAIMS),
        "round-engine": (["run", "--rounds", "4", *_STREAMED,
                          "--round-engine"], _ONLINE_CLAIMS),
        "replicated-traced": (["run", "--rounds", "4", "--replicate-seeds",
                               "0", "1"], _TRACED_CLAIMS),
        "replicated-streamed": (["run", "--rounds", "4", *_STREAMED,
                                 "--replicate-seeds", "0", "1"],
                                _ONLINE_CLAIMS),
        "partition-heal": (["run", "--workload", "partition-heal",
                            "--rounds", "10"],
                           ("partition_divergence", "lemma20_heal_round_0",
                            "healed_agreement")),
    }

    @pytest.mark.parametrize("mode", list(MODES))
    def test_exit_status_comes_from_the_audit(self, mode, capsys,
                                              monkeypatch):
        import repro.analysis.verification as verification

        argv, claims = self.MODES[mode]
        assert main(argv) == 0
        out = capsys.readouterr().out
        for claim in claims:
            assert claim in out
        if claims == _ONLINE_CLAIMS:  # no trace, no Theorem 4 rows
            assert "theorem4a_adjustment" not in out
            assert "theorem4c_round_spread" not in out
        assert "VIOLATED" not in out
        # A zero agreement bound breaks Theorem 16 (healed_agreement for
        # the partition-heal run) in every mode, and only the audit sees it.
        monkeypatch.setattr(verification, "agreement_bound",
                            lambda params: 0.0)
        assert main(argv) == 1
        assert "VIOLATED" in capsys.readouterr().out


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
        from repro.cli import _runner

        args = build_parser().parse_args(
            ["sweep", "--axis", "n", "--values", "7", "--jobs", "2", *flags])
        runner = _runner(args)
        assert runner.jobs == 2
        assert runner.max_retries == retries
        assert runner.pool.max_retries == (retries or 0)

    @pytest.mark.parametrize("flags, message", [
        (["--resume"], "--resume requires --store PATH"),
        (["--spec-timeout", "-1"], "spec_timeout must be positive"),
        (["--retries", "-1"], "max_retries must be >= 0"),
    ], ids=["resume-without-store", "negative-spec-timeout",
            "negative-retries"])
    def test_bad_runner_flag_is_a_usage_error(self, capsys, flags, message):
        argv = ["sweep", "--axis", "n", "--values", "7", "--rounds", "3"]
        assert main(argv + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"error: {message}")

    def test_store_line_counts_rows_and_decodes_no_payload(
            self, capsys, tmp_path, monkeypatch):
        from repro.analysis import default_parameters
        from repro.runner import ResultStore, RunSpec

        def decode_all(self):
            raise AssertionError("the closing line decoded the payloads")

        monkeypatch.setattr(ResultStore, "scan_corrupt", decode_all)
        path = str(tmp_path / "sweep.sqlite")
        argv = ["sweep", "--axis", "epsilon", "--values", "0.001", "0.002",
                "--rounds", "2", "--store", path]
        assert main(argv) == 0
        assert capsys.readouterr().err.splitlines()[-1] \
            == f"store {path}: 2 result(s), 0 quarantined"
        with ResultStore(path) as store:  # a spec outside this sweep
            store.quarantine(RunSpec.maintenance(default_parameters(n=4, f=1),
                                                 rounds=1), 3, "boom")
        assert main(argv + ["--resume"]) == 0
        assert capsys.readouterr().err.splitlines()[-1] \
            == f"store {path}: 2 result(s), 1 quarantined"

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

    def test_unknown_fault_kind_is_refused_before_any_cell(self, capsys,
                                                           monkeypatch):
        from repro.runner import batch

        def unreachable(spec, engine="auto"):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(batch, "execute", unreachable)
        status = main(["conformance", "-n", "4", "-f", "1", "--rounds", "2",
                       "--fault-kinds", "twofaced"])
        err = capsys.readouterr().err
        assert status == 2
        assert err.count("error:") == 1 and "Traceback" not in err
        assert "unknown fault kind 'twofaced'" in err

    def test_error_inside_a_cell_is_not_a_usage_error(self, monkeypatch):
        # A ValueError while a cell runs is a bug: it keeps its traceback
        # instead of the exit 2 of a refused input.
        from repro.runner import batch

        def broken(spec, engine="auto"):
            raise ValueError("bug inside a cell")

        monkeypatch.setattr(batch, "execute", broken)
        with pytest.raises(ValueError, match="bug inside a cell"):
            main(["conformance", "-n", "4", "-f", "1", "--rounds", "2",
                  "--algorithms", "welch_lynch", "--fault-kinds", "none"])


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
        (["--round-engine"], "kernel"),
        (["--no-vectorize"], "serial"),
        (["--no-round-engine"], "serial"),
    ])
    def test_each_flag_maps_to_its_engine(self, flags, engine, monkeypatch):
        import repro.cli as cli

        seen = []
        real = cli.execute

        def spy(spec, engine="auto"):
            seen.append(engine)
            return real(spec, engine=engine)

        monkeypatch.setattr(cli, "execute", spy)
        assert build_parser().parse_args(["run", *flags]).engine == engine
        assert main(["run", "--no-trace", "--observe", "skew,validity",
                     "--rounds", "2", *flags]) == 0
        assert seen == [engine]

    def test_engine_flags_are_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["run", "--no-vectorize",
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


class TestBadInput:
    """Bad input ends in one ``error:`` line and exit 2, never a traceback
    and never exit 1, which is kept for a violated paper claim."""

    @pytest.mark.parametrize("argv", [
        ["run", "--samples", "1", "--rounds", "3"],
        ["sweep", "--axis", "n", "--values", "7", "--rounds", "3",
         "--replicate-seeds", "1", "1"],
        ["compare", "--rounds", "3", "--replicate-seeds", "1", "1"],
        ["compare", "--rounds", "0"],
        ["certify", "--rounds", "0"],
        ["startup", "--rounds", "0"],
        ["certify", "-n", "1"],
        ["sweep", "--axis", "fault-count", "--values", "-1", "--rounds", "3"],
        ["sweep", "--axis", "fault-count", "--values", "99", "--rounds", "3"],
        ["run", "--checkpoint-every", "0"],
    ], ids=lambda argv: " ".join(argv))
    def test_exits_2_with_an_error_line(self, argv, capsys):
        try:
            status = main(argv)
        except SystemExit as exit_:  # argparse refused the value
            status = exit_.code
        err = capsys.readouterr().err
        assert status == 2
        assert "error:" in err
        assert "Traceback" not in err


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
