"""Unit tests for the supervised pool and the resilient runner.

Every failure here is chaos-injected on a deterministic schedule, so the
supervision paths (crash respawn, timeout reclaim, retry-then-success,
quarantine, interrupt-and-resume, disk-full degradation) are exercised
reproducibly rather than probabilistically.
"""

import os

import pytest

from repro.analysis import default_parameters
from repro.runner import (
    BatchRunner,
    ChaosFault,
    ChaosSchedule,
    QuarantinedResult,
    ResilientRunner,
    ResultStore,
    RunSpec,
    SupervisedPool,
    SweepInterrupted,
)
from repro.telemetry import Telemetry

#: fast supervision knobs shared by every test: near-instant backoff so
#: retry paths do not slow the suite down.
FAST = dict(max_retries=2, backoff_base=0.01, backoff_cap=0.05)


@pytest.fixture(scope="module")
def params():
    return default_parameters(n=4, f=1)


@pytest.fixture(scope="module")
def specs(params):
    return [RunSpec.maintenance(params, rounds=2, seed=seed)
            for seed in range(4)]


@pytest.fixture(scope="module")
def reference(specs):
    return BatchRunner().run(specs)


def assert_identical(results, reference):
    assert len(results) == len(reference)
    for a, b in zip(results, reference):
        assert a.trace.events == b.trace.events


class TestSupervisedParity:
    def test_serial_supervised_matches_plain(self, specs, reference):
        assert_identical(ResilientRunner(jobs=1, **FAST).run(specs),
                         reference)

    def test_pooled_supervised_matches_plain(self, specs, reference):
        assert_identical(ResilientRunner(jobs=2, **FAST).run(specs),
                         reference)

    def test_empty_batch(self):
        assert ResilientRunner(jobs=2, **FAST).run([]) == []

    def test_pool_validation(self):
        with pytest.raises(ValueError, match="max_retries"):
            SupervisedPool(max_retries=-1)
        with pytest.raises(ValueError, match="spec_timeout"):
            SupervisedPool(spec_timeout=0)
        with pytest.raises(ValueError, match="requires a result store"):
            ResilientRunner(resume=True)


class TestRetryPaths:
    def test_injected_error_retries_then_succeeds(self, specs, reference):
        telemetry = Telemetry()
        runner = ResilientRunner(jobs=1, telemetry=telemetry,
                                 chaos=ChaosSchedule.single(1, "raise"),
                                 **FAST)
        assert_identical(runner.run(specs), reference)
        snapshot = telemetry.registry.snapshot()
        assert snapshot["resilient.errors"]["value"] == 1.0
        assert snapshot["resilient.retries"]["value"] == 1.0

    def test_worker_crash_respawns_and_retries(self, specs, reference):
        telemetry = Telemetry()
        runner = ResilientRunner(jobs=2, telemetry=telemetry,
                                 chaos=ChaosSchedule.single(2, "kill"),
                                 **FAST)
        assert_identical(runner.run(specs), reference)
        snapshot = telemetry.registry.snapshot()
        assert snapshot["resilient.crashes"]["value"] == 1.0
        assert snapshot["resilient.retries"]["value"] == 1.0

    def test_hang_reclaimed_by_spec_timeout(self, specs, reference):
        telemetry = Telemetry()
        runner = ResilientRunner(
            jobs=1, telemetry=telemetry, spec_timeout=0.4,
            chaos=ChaosSchedule.single(0, "hang", hang_seconds=30.0),
            **FAST)
        assert_identical(runner.run(specs), reference)
        snapshot = telemetry.registry.snapshot()
        assert snapshot["resilient.timeouts"]["value"] == 1.0

    def test_two_failures_then_success(self, specs, reference):
        telemetry = Telemetry()
        runner = ResilientRunner(
            jobs=1, telemetry=telemetry,
            chaos=ChaosSchedule.single(3, "raise", attempts=2), **FAST)
        assert_identical(runner.run(specs), reference)
        assert telemetry.registry.snapshot()[
            "resilient.retries"]["value"] == 2.0


class TestIdleWorkerDeath:
    def test_dead_idle_worker_is_replaced_at_no_charge(self, monkeypatch):
        # Worker 0 runs specs 0 and 2, then idles while spec 1 hangs on
        # worker 1.  Worker 0 is SIGKILLed while idle; the retry after the
        # timeout goes to its slot, which must be respawned, not crash.
        import multiprocessing
        import signal
        import time

        from repro.runner import batch, execute

        def execute_with_pid(spec, telemetry=None, engine="auto"):
            return os.getpid(), execute(spec, telemetry=telemetry,
                                        engine=engine)

        monkeypatch.setattr(batch, "execute", execute_with_pid)
        specs = [RunSpec.maintenance(default_parameters(n=7, f=2), rounds=3,
                                     seed=seed) for seed in range(3)]
        telemetry = Telemetry()
        arrivals = SupervisedPool(
            jobs=2, max_retries=2, spec_timeout=2.0, telemetry=telemetry,
            chaos=ChaosSchedule.single(1, "hang", hang_seconds=30.0)
        ).run(specs)
        first, (idle_pid, _) = next(arrivals)
        second, (pid, _) = next(arrivals)
        assert (first, second, pid) == (specs[0], specs[2], idle_pid)
        os.kill(idle_pid, signal.SIGKILL)
        while any(child.pid == idle_pid
                  for child in multiprocessing.active_children()):
            time.sleep(0.01)
        last, (pid, result) = next(arrivals)
        assert last == specs[1] and pid != idle_pid
        assert result.trace.events == execute(specs[1]).trace.events
        assert list(arrivals) == []
        snapshot = telemetry.registry.snapshot()
        assert snapshot["resilient.timeouts"]["value"] == 1.0
        assert snapshot["resilient.retries"]["value"] == 1.0
        assert "resilient.crashes" not in snapshot


class TestQuarantine:
    def test_quarantined_after_max_retries(self, specs, reference):
        telemetry = Telemetry()
        runner = ResilientRunner(
            jobs=1, telemetry=telemetry, max_retries=1, backoff_base=0.01,
            chaos=ChaosSchedule.single(1, "raise", attempts=10))
        results = runner.run(specs)
        quarantined = results[1]
        assert isinstance(quarantined, QuarantinedResult)
        assert quarantined.spec == specs[1]
        assert quarantined.attempts == 2  # first try + 1 retry
        assert "ChaosInjectedError" in quarantined.last_error
        assert all(record.kind == "error"
                   for record in quarantined.failures)
        assert "quarantined after 2 attempts" in quarantined.describe()
        # The rest of the batch is unharmed.
        assert_identical([results[0], results[2], results[3]],
                         [reference[0], reference[2], reference[3]])
        snapshot = telemetry.registry.snapshot()
        assert snapshot["resilient.quarantined"]["value"] == 1.0
        # The run manifest records the casualty.
        outcomes = [m["outcome"] for m in telemetry.manifests]
        assert outcomes.count("quarantined") == 1

    def test_quarantine_recorded_in_store(self, tmp_path, specs):
        store_path = str(tmp_path / "store.sqlite")
        runner = ResilientRunner(
            jobs=1, store=store_path, max_retries=0, backoff_base=0.01,
            chaos=ChaosSchedule.single(0, "raise", attempts=10))
        runner.run(specs)
        records = runner.store.quarantined()
        assert len(records) == 1
        assert records[0]["failures"] == 1
        assert "ChaosInjectedError" in records[0]["last_error"]
        assert "ChaosInjectedError" in records[0]["traceback"]
        # Quarantined specs are not served as results on resume.
        assert runner.store.get(specs[0]) is None
        assert len(runner.store) == len(specs) - 1

    def test_resume_reattempts_quarantined_spec(self, tmp_path, specs,
                                                reference):
        store_path = str(tmp_path / "store.sqlite")
        broken = ResilientRunner(
            jobs=1, store=store_path, max_retries=0, backoff_base=0.01,
            chaos=ChaosSchedule.single(0, "raise", attempts=10))
        broken.run(specs)
        healed = ResilientRunner(jobs=1, store=store_path, resume=True,
                                 **FAST)
        assert_identical(healed.run(specs), reference)
        assert healed.store.quarantined() == []  # success cleared the row


class TestStoreIntegration:
    def test_results_committed_as_they_arrive(self, tmp_path, specs,
                                              reference):
        runner = ResilientRunner(jobs=1,
                                 store=str(tmp_path / "s.sqlite"), **FAST)
        runner.run(specs)
        for spec, expected in zip(specs, reference):
            assert runner.store.get(spec).trace.events == \
                expected.trace.events

    def test_resume_serves_hits_bit_identically(self, tmp_path, specs,
                                                reference):
        store_path = str(tmp_path / "s.sqlite")
        ResilientRunner(jobs=1, store=store_path, **FAST).run(specs)
        telemetry = Telemetry()
        resumed = ResilientRunner(jobs=1, store=store_path, resume=True,
                                  cache=False, telemetry=telemetry, **FAST)
        assert_identical(resumed.run(specs), reference)
        snapshot = telemetry.registry.snapshot()
        assert snapshot["resilient.store.hits"]["value"] == float(len(specs))
        assert "resilient.store.writes" not in snapshot  # nothing re-ran

    def test_disk_full_degrades_without_losing_the_result(self, tmp_path,
                                                          specs, reference):
        chaos = ChaosSchedule(store_full_writes={1})
        telemetry = Telemetry()
        runner = ResilientRunner(jobs=1, store=str(tmp_path / "s.sqlite"),
                                 chaos=chaos, telemetry=telemetry, **FAST)
        # The caller still gets every result...
        assert_identical(runner.run(specs), reference)
        # ...only the store is short the failed write.
        assert len(runner.store) == len(specs) - 1
        snapshot = telemetry.registry.snapshot()
        assert snapshot["resilient.store.write_errors"]["value"] == 1.0
        assert snapshot["resilient.store.writes"]["value"] == \
            float(len(specs) - 1)

    def test_store_size_gauge_tracks_growth(self, tmp_path, specs):
        telemetry = Telemetry()
        runner = ResilientRunner(jobs=1, store=str(tmp_path / "s.sqlite"),
                                 telemetry=telemetry, **FAST)
        runner.run(specs)
        gauge = telemetry.registry.snapshot()["resilient.store.size"]
        assert gauge["value"] == float(len(specs))

    def test_accepts_open_store_instance(self, tmp_path, specs, reference):
        store = ResultStore(str(tmp_path / "s.sqlite"))
        runner = ResilientRunner(jobs=1, store=store, **FAST)
        assert_identical(runner.run(specs), reference)
        assert runner.store is store

    def test_accepts_a_pathlike_store(self, tmp_path, specs, reference):
        runner = ResilientRunner(jobs=1, store=tmp_path / "s.sqlite", **FAST)
        assert_identical(runner.run(specs), reference)
        assert len(runner.store) == len(specs)

    @pytest.mark.parametrize("engine", ["serial", "round"])
    def test_store_resumes_under_any_engine(self, tmp_path, engine):
        # The engine is a speed choice beside the spec, not part of its
        # key: a store filled under one engine serves every row to another.
        streaming = [RunSpec.maintenance(default_parameters(n=7, f=2),
                                         rounds=3, fault_kind="crash",
                                         record_trace=False,
                                         observers=("skew", "validity"),
                                         seed=seed)
                     for seed in range(3)]
        store_path = str(tmp_path / "s.sqlite")
        filled = ResilientRunner(jobs=1, store=store_path, engine="auto",
                                 **FAST).run(streaming)
        telemetry = Telemetry()
        resumed = ResilientRunner(jobs=1, store=store_path, resume=True,
                                  cache=False, telemetry=telemetry,
                                  engine=engine, **FAST).run(streaming)
        snapshot = telemetry.registry.snapshot()
        assert snapshot["resilient.store.hits"]["value"] == \
            float(len(streaming))
        assert "resilient.store.misses" not in snapshot
        for a, b in zip(filled, resumed):
            assert a.trace.stats == b.trace.stats
            assert a.start_times == b.start_times
            assert a.online("skew").max_skew == b.online("skew").max_skew
            assert a.online("validity").report() == \
                b.online("validity").report()


class TestInterruptAndResume:
    def test_chaos_interrupt_raises_resumable(self, tmp_path, specs):
        store_path = str(tmp_path / "s.sqlite")
        runner = ResilientRunner(
            jobs=1, store=store_path,
            chaos=ChaosSchedule.single(2, "interrupt"), **FAST)
        with pytest.raises(SweepInterrupted) as excinfo:
            runner.run(specs)
        # Specs dispatched before the interrupt were completed and flushed.
        assert excinfo.value.completed == 2
        assert len(ResultStore(store_path)) == 2

    def test_interrupted_then_resumed_matches_serial(self, tmp_path, specs,
                                                     reference):
        store_path = str(tmp_path / "s.sqlite")
        first = ResilientRunner(
            jobs=1, store=store_path,
            chaos=ChaosSchedule.single(1, "interrupt"), **FAST)
        with pytest.raises(SweepInterrupted):
            first.run(specs)
        telemetry = Telemetry()
        resumed = ResilientRunner(jobs=1, store=store_path, resume=True,
                                  telemetry=telemetry, **FAST)
        assert_identical(resumed.run(specs), reference)
        snapshot = telemetry.registry.snapshot()
        assert snapshot["resilient.store.hits"]["value"] == 1.0
        assert snapshot["resilient.store.misses"]["value"] == \
            float(len(specs) - 1)


class TestNoLeakedChildren:
    def test_supervised_pool_reaps_all_workers(self, specs, reference):
        import multiprocessing

        before = len(multiprocessing.active_children())
        assert_identical(ResilientRunner(jobs=2, **FAST).run(specs),
                         reference)
        assert len(multiprocessing.active_children()) <= before

    def test_killed_worker_pid_is_reaped(self, specs):
        # A crash respawns the worker; the dead pid must be waited on (no
        # zombies) and the replacement must be shut down at the end.
        import multiprocessing

        runner = ResilientRunner(jobs=1,
                                 chaos=ChaosSchedule.single(0, "kill"),
                                 **FAST)
        runner.run(specs)
        assert multiprocessing.active_children() == []
