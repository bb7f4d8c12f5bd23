"""Integration tests for crash-safe, resumable sweeps.

The acceptance bar of the resilience layer: a sweep that loses workers to
SIGKILL, quarantines a poison spec and is interrupted midway must — after a
``--resume`` — produce a result set bit-identical to an uninterrupted serial
sweep, with the casualties visible in telemetry counters and the run
manifest.  Chaos schedules make the in-process paths deterministic; the
subprocess tests deliver a real SIGKILL/SIGTERM to a real sweep process.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.analysis import default_parameters
from repro.analysis.sweeps import SweepAxis, run_spec_sweep, sweep_epsilon
from repro.core.config import SyncParameters
from repro.runner import (
    BatchRunner,
    ChaosFault,
    ChaosSchedule,
    ResultStore,
    RunSpec,
    SweepInterrupted,
)
from repro.telemetry import Telemetry, activated

REPO_ROOT = Path(__file__).resolve().parents[2]

EPSILONS = [0.001, 0.002, 0.003, 0.004]

#: the retry budget that makes a BatchRunner supervised.
SUPERVISED = dict(max_retries=2)


def epsilon_sweep(runner=None, **kwargs):
    return sweep_epsilon(EPSILONS, n=4, f=1, rounds=3, runner=runner,
                         **kwargs)


class TestResilientSweepParity:
    def test_resilient_runner_matches_plain_sweep(self):
        plain = epsilon_sweep()
        resilient = epsilon_sweep(runner=BatchRunner(jobs=2, **SUPERVISED))
        assert plain.headers() == resilient.headers()
        assert plain.rows() == resilient.rows()

    def test_quarantined_cell_reports_failed_runs(self):
        # Spec 1 fails every attempt: its cell loses its outputs and gains a
        # failed_runs column; the other cells are untouched.
        chaos = ChaosSchedule.single(1, "raise", attempts=10)
        runner = BatchRunner(jobs=1, chaos=chaos, max_retries=1)
        plain = epsilon_sweep()
        hit = epsilon_sweep(runner=runner)
        assert hit.points[1].outputs == {"failed_runs": 1.0}
        for i in (0, 2, 3):
            assert hit.points[i].outputs["agreement"] == \
                plain.points[i].outputs["agreement"]
        assert "failed_runs" in hit.output_names


class TestKillQuarantineInterruptResume:
    """The ISSUE acceptance scenario, end to end and deterministic."""

    def test_chaos_sweep_resumes_bit_identical(self, tmp_path):
        store_path = str(tmp_path / "sweep.sqlite")
        # Phase 1: the worker executing spec 0 is SIGKILLed once (the retry
        # succeeds), and the sweep is interrupted right before dispatching
        # spec 3 — the chaos stand-in for an operator kill midway.
        chaos = ChaosSchedule(faults=(
            ChaosFault(0, "kill", attempts=1),
            ChaosFault(3, "interrupt", attempts=1),
        ))
        telemetry = Telemetry()
        interrupted = BatchRunner(jobs=1, store=store_path,
                                  chaos=chaos, **SUPERVISED)
        with pytest.raises(SweepInterrupted) as excinfo, \
                activated(telemetry):
            epsilon_sweep(runner=interrupted)
        # Spec 0's retry is parked behind fresh specs, so only 1 and 2
        # completed before the interrupt landed on spec 3.
        assert excinfo.value.completed == 2
        snapshot = telemetry.registry.snapshot()
        assert snapshot["resilient.crashes"]["value"] == 1.0
        assert snapshot["resilient.retries"]["value"] == 1.0
        with ResultStore(store_path) as store:
            assert len(store) == 2  # specs 1-2 survived the interrupt

        # Phase 2: resume, but the first missing spec now raises on every
        # attempt — it quarantines (counter + manifest + durable record)
        # while the sweep still completes, reporting the casualty.
        telemetry = Telemetry()
        poisoned = BatchRunner(
            jobs=1, store=store_path, resume=True, max_retries=1,
            chaos=ChaosSchedule.single(0, "raise", attempts=10))
        with activated(telemetry):
            degraded = epsilon_sweep(runner=poisoned)
        assert degraded.points[0].outputs == {"failed_runs": 1.0}
        snapshot = telemetry.registry.snapshot()
        assert snapshot["resilient.quarantined"]["value"] == 1.0
        assert snapshot["resilient.store.hits"]["value"] == 2.0
        outcomes = [m["outcome"] for m in telemetry.manifests]
        assert outcomes.count("quarantined") == 1
        with ResultStore(store_path) as store:
            assert len(store.quarantined()) == 1

        # Phase 3: resume without chaos (the fault was environmental): the
        # quarantined spec re-runs, the stored specs are served as hits, and
        # the final table is bit-identical to an uninterrupted serial sweep.
        resumed = BatchRunner(jobs=1, store=store_path,
                              resume=True, **SUPERVISED)
        clean = epsilon_sweep()
        recovered = epsilon_sweep(runner=resumed)
        assert recovered.headers() == clean.headers()
        assert recovered.rows() == clean.rows()
        with ResultStore(store_path) as store:
            assert len(store) == len(EPSILONS)
            assert store.quarantined() == []


def processes_mentioning(marker):
    """PIDs whose command line contains ``marker`` (Linux /proc scan)."""
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes()
        except OSError:  # pragma: no cover - process exited mid-scan
            continue
        if marker.encode() in cmdline:
            pids.append(int(entry.name))
    return pids


def wait_for_store(path, minimum, process, timeout=60.0):
    """Poll until the store holds ``minimum`` results.

    A sweep that exits first fails the test: its signal never landed, so
    nothing was tested.
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if process.poll() is not None:
            stderr = process.stderr.read().decode(errors="replace")
            pytest.fail(f"the sweep exited (status {process.returncode}) "
                        f"before its store held {minimum} result(s), so "
                        f"the signal could not land:\n{stderr[-2000:]}")
        if os.path.exists(path):
            try:
                with ResultStore(path, create=False) as store:
                    if len(store) >= minimum:
                        return
            except Exception:
                pass  # store mid-creation; retry
        time.sleep(0.02)
    raise TimeoutError(f"store {path} never reached {minimum} results")


class TestRealSignalsKillResume:
    """Deliver real signals to a real sweep process, then resume."""

    #: sized from a measurement on a 2-core VM: the sweep stores its
    #: second result ~1.1 s after spawn and exits 2.4-2.8 s after that, so
    #: a signal sent on the 20 ms poll lands mid-sweep.
    SWEEP_ARGS = ["sweep", "--axis", "epsilon",
                  "--values", "0.001", "0.002", "0.003", "0.004", "0.005",
                  "--rounds", "800", "--replicate-seeds", "0", "1"]

    def spawn_sweep(self, store, csv):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        return subprocess.Popen(
            [sys.executable, "-m", "repro"] + self.SWEEP_ARGS
            + ["--store", store, "--csv", csv],
            cwd=str(REPO_ROOT), env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)

    def run_sweep(self, store, csv, resume=False):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        args = [sys.executable, "-m", "repro"] + self.SWEEP_ARGS \
            + ["--store", store, "--csv", csv]
        if resume:
            args.append("--resume")
        done = subprocess.run(args, cwd=str(REPO_ROOT), env=env,
                              capture_output=True, text=True, timeout=600)
        assert done.returncode == 0, done.stderr
        return Path(csv).read_text()

    @pytest.fixture(scope="class")
    def clean_csv(self, tmp_path_factory):
        """An uninterrupted run's CSV: the reference every resume matches."""
        tmp = tmp_path_factory.mktemp("clean")
        return self.run_sweep(str(tmp / "clean.sqlite"),
                              str(tmp / "clean.csv"))

    def test_sigkill_midsweep_then_resume_is_bit_identical(self, tmp_path,
                                                           clean_csv):
        store = str(tmp_path / "killed.sqlite")
        process = self.spawn_sweep(store, str(tmp_path / "never.csv"))
        try:
            wait_for_store(store, minimum=2, process=process)
            process.kill()  # the real thing: no handler, no cleanup
            process.wait(timeout=60)
        finally:
            if process.poll() is None:  # pragma: no cover - cleanup
                process.kill()
                process.wait()
        # The killed run left a consistent store with partial results.
        with ResultStore(store, create=False) as partial:
            survivors = len(partial)
        assert survivors >= 2
        # ...and no orphaned workers: a SIGKILLed parent cannot close the
        # pipe (the fork-inherited write end lives in the worker itself), so
        # idle workers poll for reparenting and exit on their own.
        if Path("/proc").exists():
            deadline = time.monotonic() + 15
            while processes_mentioning(store) and time.monotonic() < deadline:
                time.sleep(0.1)
            assert processes_mentioning(store) == [], \
                "SIGKILLed sweep leaked orphan worker processes"
        # Resume completes the sweep; a pristine run is the reference.
        resumed_csv = self.run_sweep(store, str(tmp_path / "resumed.csv"),
                                     resume=True)
        assert resumed_csv == clean_csv

    def test_sigterm_exits_130_and_resumes(self, tmp_path, clean_csv):
        store = str(tmp_path / "terminated.sqlite")
        process = self.spawn_sweep(store, str(tmp_path / "never.csv"))
        try:
            wait_for_store(store, minimum=1, process=process)
            process.send_signal(signal.SIGTERM)
            process.wait(timeout=60)
        finally:
            if process.poll() is None:  # pragma: no cover - cleanup
                process.kill()
                process.wait()
        assert process.returncode == 130  # graceful, resumable exit
        stderr = process.stderr.read().decode()
        assert "rerun with --resume" in stderr
        resumed_csv = self.run_sweep(store, str(tmp_path / "resumed.csv"),
                                     resume=True)
        assert resumed_csv == clean_csv


class TestReplicatedResilientSweep:
    def test_replicated_sweep_with_store_roundtrips(self, tmp_path):
        params = default_parameters(n=4, f=1)

        def build(epsilon):
            derived = SyncParameters.derive(
                n=4, f=1, rho=params.rho, delta=params.delta, epsilon=epsilon)
            return RunSpec.maintenance(derived, rounds=3)

        def measure(result, epsilon):
            return {"end_time": result.end_time}

        axes = [SweepAxis("epsilon", [0.001, 0.002])]
        kwargs = dict(seeds=[0, 1, 2])
        plain = run_spec_sweep(axes, build, measure, **kwargs)
        store_path = str(tmp_path / "rep.sqlite")
        first = run_spec_sweep(
            axes, build, measure,
            runner=BatchRunner(jobs=2, store=store_path, **SUPERVISED),
            **kwargs)
        resumed = run_spec_sweep(
            axes, build, measure,
            runner=BatchRunner(jobs=1, store=store_path,
                               resume=True, **SUPERVISED),
            **kwargs)
        assert first.rows() == plain.rows()
        assert resumed.rows() == plain.rows()
        with ResultStore(store_path) as store:
            assert len(store) == 6  # 2 epsilons x 3 seeds
