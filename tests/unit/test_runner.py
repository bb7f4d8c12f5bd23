"""Unit tests for repro.runner (RunSpec, execute, BatchRunner, replicate)."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.analysis import default_parameters
from repro.analysis.experiments import (
    PartitionHealResult,
    ScenarioResult,
    run_maintenance_scenario,
)
from repro.runner import (
    BatchRunner,
    ReplicatedResult,
    RunSpec,
    execute,
    replicate,
)
from repro.runner import batch as batch_module


@pytest.fixture(scope="module")
def params():
    return default_parameters(n=7, f=2)


class TestRunSpecValidation:
    def test_rejects_unknown_kind(self, params):
        with pytest.raises(ValueError, match="unknown scenario kind"):
            RunSpec(kind="mystery", params=params)

    def test_algorithm_kind_requires_name(self, params):
        with pytest.raises(ValueError, match="needs an algorithm"):
            RunSpec(kind="algorithm", params=params)

    def test_algorithm_name_only_for_algorithm_kind(self, params):
        with pytest.raises(ValueError, match="does not take an algorithm"):
            RunSpec(kind="maintenance", params=params, algorithm="marzullo")

    def test_rejects_non_positive_rounds(self, params):
        with pytest.raises(ValueError, match="rounds"):
            RunSpec(kind="maintenance", params=params, rounds=0)

    def test_partition_heal_rejects_fault_kind(self, params):
        with pytest.raises(ValueError, match="fault_kind=None"):
            RunSpec(kind="partition_heal", params=params)

    def test_reintegration_rejects_topology(self, params):
        with pytest.raises(ValueError, match="complete graph"):
            RunSpec(kind="reintegration", params=params, fault_kind=None,
                    topology="ring")

    def test_rejects_unknown_option_keys(self, params):
        with pytest.raises(ValueError, match="not supported by kind"):
            RunSpec.maintenance(params, warp_factor=9)

    def test_rejects_fault_count_without_fault_kind(self, params):
        with pytest.raises(ValueError, match="inject no faults"):
            RunSpec.maintenance(params, fault_kind=None, fault_count=2)
        # Explicit zero faults stays legal either way.
        RunSpec.maintenance(params, fault_kind=None, fault_count=0)

    def test_rejects_delay_model_objects(self, params):
        from repro.sim.network import FixedDelayModel
        with pytest.raises(TypeError, match="declarative"):
            RunSpec(kind="maintenance", params=params,
                    delay=FixedDelayModel(0.01))


class TestRunSpecValueSemantics:
    def test_equal_specs_hash_equal(self, params):
        a = RunSpec.maintenance(params, rounds=5, seed=3,
                                delay_options={"b": 2.0, "a": 1.0})
        b = RunSpec.maintenance(params, rounds=5, seed=3,
                                delay_options={"a": 1.0, "b": 2.0})
        assert a == b
        assert hash(a) == hash(b)

    def test_options_normalize_to_sorted_tuples(self, params):
        spec = RunSpec.maintenance(params, stagger_interval=0.1,
                                   exchanges_per_round=2)
        assert spec.options == (("exchanges_per_round", 2),
                                ("stagger_interval", 0.1))
        assert spec.options_dict() == {"exchanges_per_round": 2,
                                       "stagger_interval": 0.1}

    def test_with_seed_changes_only_the_seed(self, params):
        spec = RunSpec.maintenance(params, rounds=5, seed=0)
        reseeded = spec.with_seed(9)
        assert reseeded.seed == 9
        assert reseeded.replace(seed=0) == spec

    def test_round_trips_through_pickle(self, params):
        spec = RunSpec.partition_heal(params, rounds=12, partition_round=3,
                                      heal_round=7, topology="ring", seed=2)
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_describe_names_the_run(self, params):
        spec = RunSpec.algorithm_run("marzullo", params, topology="ring",
                                     seed=4)
        label = spec.describe()
        assert "algorithm" in label and "marzullo" in label
        assert "ring" in label and "seed=4" in label


class TestExecute:
    def test_maintenance_matches_direct_builder_call(self, params):
        spec = RunSpec.maintenance(params, rounds=5, seed=3)
        via_spec = execute(spec)
        direct = run_maintenance_scenario(params, rounds=5, seed=3)
        assert via_spec.trace.events == direct.trace.events
        assert via_spec.end_time == direct.end_time
        assert via_spec.start_times == direct.start_times

    def test_result_carries_its_spec(self, params):
        spec = RunSpec.maintenance(params, rounds=4, seed=1)
        assert execute(spec).spec == spec

    def test_dispatches_every_kind(self, params):
        specs = [
            RunSpec.maintenance(params, rounds=4),
            RunSpec.algorithm_run("srikanth_toueg", params, rounds=4),
            RunSpec.startup(params, rounds=4),
            RunSpec.reintegration(params, rounds=8),
            RunSpec.partition_heal(params, rounds=12, partition_round=3,
                                   heal_round=7),
        ]
        for spec in specs:
            result = execute(spec)
            assert isinstance(result, ScenarioResult)
            assert result.spec == spec
        assert isinstance(execute(specs[-1]), PartitionHealResult)

    def test_topology_spec_string_is_honored(self, params):
        result = execute(RunSpec.maintenance(params, rounds=4, fault_kind=None,
                                             topology="ring", seed=1))
        # The ring stretches the effective envelope: delta' > delta.
        assert result.params.delta > params.delta
        assert result.trace.stats.relayed > 0


class TestBatchRunner:
    def test_results_in_input_order(self, params):
        specs = [RunSpec.maintenance(params, rounds=3, seed=seed)
                 for seed in (5, 1, 3)]
        results = BatchRunner().run(specs)
        assert [r.spec.seed for r in results] == [5, 1, 3]

    def test_duplicates_computed_once(self, params, monkeypatch):
        calls = []

        def counting_execute(spec, engine="auto"):
            calls.append(spec)
            return execute(spec, engine=engine)

        monkeypatch.setattr(batch_module, "execute", counting_execute)
        spec = RunSpec.maintenance(params, rounds=3, seed=0)
        results = BatchRunner().run([spec, spec.with_seed(1), spec])
        assert len(calls) == 2
        assert results[0] is results[2]

    def test_cache_persists_across_batches(self, params, monkeypatch):
        calls = []

        def counting_execute(spec, engine="auto"):
            calls.append(spec)
            return execute(spec, engine=engine)

        monkeypatch.setattr(batch_module, "execute", counting_execute)
        runner = BatchRunner()
        spec = RunSpec.maintenance(params, rounds=3, seed=0)
        runner.run([spec])
        runner.run([spec])
        assert len(calls) == 1
        assert runner.cache_size == 1
        runner.clear_cache()
        runner.run([spec])
        assert len(calls) == 2

    def test_cache_can_be_disabled(self, params, monkeypatch):
        calls = []

        def counting_execute(spec, engine="auto"):
            calls.append(spec)
            return execute(spec, engine=engine)

        monkeypatch.setattr(batch_module, "execute", counting_execute)
        runner = BatchRunner(cache=False)
        spec = RunSpec.maintenance(params, rounds=3, seed=0)
        runner.run([spec])
        runner.run([spec])
        assert len(calls) == 2
        assert runner.cache_size == 0

    def test_on_result_streams_computed_specs(self, params):
        seen = []
        specs = [RunSpec.maintenance(params, rounds=3, seed=seed)
                 for seed in (0, 1)]
        BatchRunner().run(specs + [specs[0]],
                          on_result=lambda spec, result: seen.append(spec.seed))
        assert seen == [0, 1]  # once per computed spec, first-occurrence order

    def test_rejects_non_specs(self, params):
        with pytest.raises(TypeError, match="RunSpecs"):
            BatchRunner().run([params])

    def test_run_iter_is_lazy_when_serial(self, params, monkeypatch):
        executed = []

        def counting_execute(spec, engine="auto"):
            executed.append(spec.seed)
            return execute(spec, engine=engine)

        monkeypatch.setattr(batch_module, "execute", counting_execute)
        specs = [RunSpec.maintenance(params, rounds=3, seed=seed)
                 for seed in (0, 1, 2)]
        stream = BatchRunner().run_iter(specs)
        assert executed == []          # nothing runs until pulled
        next(stream)
        assert executed == [0]         # only the consumed spec ran
        next(stream)
        assert executed == [0, 1]

    def test_parallel_matches_serial(self, params):
        specs = [RunSpec.maintenance(params, rounds=4, seed=seed)
                 for seed in range(3)]
        serial = BatchRunner(jobs=1).run(specs)
        parallel = BatchRunner(jobs=2, cache=False).run(specs)
        for a, b in zip(serial, parallel):
            assert a.trace.events == b.trace.events
            assert a.start_times == b.start_times

    def test_jobs_below_one_maps_to_cpu_count(self):
        assert BatchRunner(jobs=0).jobs >= 1


class TestReplicate:
    def test_summary_covers_every_seed(self, params):
        spec = RunSpec.maintenance(params, rounds=4)
        rep = replicate(spec, seeds=[0, 1, 2])
        assert isinstance(rep, ReplicatedResult)
        assert rep.seeds == (0, 1, 2)
        assert rep.agreement.count == 3
        assert len(rep.results) == 3
        assert rep.agreement.minimum <= rep.agreement.mean <= rep.agreement.maximum
        assert rep.worst_agreement == rep.agreement.maximum

    def test_agreement_stays_under_gamma(self, params):
        from repro.core import agreement_bound
        spec = RunSpec.maintenance(params, rounds=6)
        rep = replicate(spec, seeds=range(3))
        assert rep.worst_agreement <= agreement_bound(params)
        assert rep.validity_holds

    def test_metrics_dict_is_flat_and_complete(self, params):
        rep = replicate(RunSpec.maintenance(params, rounds=4), seeds=[0, 1])
        metrics = rep.metrics()
        assert metrics["seeds"] == 2.0
        for key in ("agreement_mean", "agreement_min", "agreement_max",
                    "agreement_ci95_low", "agreement_ci95_high",
                    "validity_violation_rate_mean"):
            assert key in metrics

    def test_requires_distinct_seeds(self, params):
        spec = RunSpec.maintenance(params, rounds=3)
        with pytest.raises(ValueError, match="distinct"):
            replicate(spec, seeds=[1, 1])
        with pytest.raises(ValueError, match="at least one"):
            replicate(spec, seeds=[])

    def test_shared_runner_reuses_cached_results(self, params, monkeypatch):
        calls = []

        def counting_execute(spec, engine="auto"):
            calls.append(spec)
            return execute(spec, engine=engine)

        monkeypatch.setattr(batch_module, "execute", counting_execute)
        runner = BatchRunner()
        spec = RunSpec.maintenance(params, rounds=3)
        replicate(spec, seeds=[0, 1], runner=runner)
        replicate(spec, seeds=[0, 1, 2], runner=runner)
        assert len(calls) == 3  # seeds 0 and 1 came from the cache


class TestTolerateFailures:
    def test_poison_spec_becomes_quarantined_slot(self, params, monkeypatch):
        from repro.runner import QuarantinedResult

        def flaky(spec, engine="auto"):
            if spec.seed == 2:
                raise ValueError("poison seed")
            return execute(spec, engine=engine)

        monkeypatch.setattr(batch_module, "execute", flaky)
        specs = [RunSpec.maintenance(params, rounds=3, seed=s)
                 for s in range(4)]
        results = BatchRunner().run(specs, tolerate_failures=True)
        failure = results[2]
        assert isinstance(failure, QuarantinedResult)
        assert failure.spec == specs[2]
        assert [record.kind for record in failure.failures] == ["error"]
        assert failure.last_error == "ValueError: poison seed"
        assert "poison seed" in failure.last_traceback
        assert "quarantined after 1 attempts: ValueError" in \
            failure.describe()
        # Completed siblings are intact.
        for i in (0, 1, 3):
            assert results[i].trace.events == execute(specs[i]).trace.events

    def test_default_still_raises(self, params, monkeypatch):
        def always(spec, engine="auto"):
            raise ValueError("poison")

        monkeypatch.setattr(batch_module, "execute", always)
        spec = RunSpec.maintenance(params, rounds=3)
        with pytest.raises(ValueError, match="poison"):
            BatchRunner().run([spec])

    def test_failures_are_cached_like_results(self, params, monkeypatch):
        calls = []

        def flaky(spec, engine="auto"):
            calls.append(spec)
            raise ValueError("poison")

        monkeypatch.setattr(batch_module, "execute", flaky)
        runner = BatchRunner()
        spec = RunSpec.maintenance(params, rounds=3)
        runner.run([spec], tolerate_failures=True)
        runner.run([spec], tolerate_failures=True)
        assert len(calls) == 1  # the known-bad spec did not re-run

    def test_pool_path_ships_failures_home(self, params):
        from repro.runner import QuarantinedResult
        from repro.sim.events import EventBudgetExceeded

        good = [RunSpec.maintenance(params, rounds=3, seed=s)
                for s in range(3)]
        # A genuinely failing spec that reproduces inside pool workers: an
        # interrupt budget far below what the run needs.
        bad = RunSpec.maintenance(params, rounds=3, seed=9, max_events=3)
        results = BatchRunner(jobs=2).run(good + [bad],
                                          tolerate_failures=True)
        assert isinstance(results[3], QuarantinedResult)
        assert EventBudgetExceeded.__name__ in results[3].last_error
        serial = BatchRunner().run(good)
        for got, expected in zip(results, serial):
            assert got.trace.events == expected.trace.events

    def test_unpicklable_error_arrives_as_text(self, params, monkeypatch):
        from repro.runner import SpecLost

        class Local(Exception):  # a local class cannot be pickled
            pass

        def poison(spec, engine="auto"):
            if spec.seed == 1:
                raise Local("cannot travel")
            return execute(spec, engine=engine)

        monkeypatch.setattr(batch_module, "execute", poison)
        specs = [RunSpec.maintenance(params, rounds=3, seed=s)
                 for s in range(3)]
        with pytest.raises(SpecLost, match="Local: cannot travel") as excinfo:
            BatchRunner(jobs=2).run(specs)
        lost = excinfo.value.quarantined
        assert lost.spec == specs[1]
        assert "cannot travel" in lost.last_traceback


#: patches ``batch.execute`` so that the worker running seed 1 SIGKILLs
#: itself, as the OOM killer would.
_KILL_SEED_1 = """
import os, signal, sys
from repro.analysis import default_parameters
from repro.runner import BatchRunner, RunSpec, SpecLost, batch

original = batch.execute

def execute(spec, telemetry=None, engine="auto"):
    if spec.seed == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return original(spec, telemetry=telemetry, engine=engine)

batch.execute = execute
specs = [RunSpec.maintenance(default_parameters(n=7, f=2), rounds=3, seed=s)
         for s in range(3)]
"""


def _run_child(script: str):
    """Run ``script`` in a fresh interpreter; a hang fails, not wedges."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)


class TestKilledWorker:
    """A worker SIGKILLed mid-spec ends a plain batch; it never hangs it."""

    def test_default_mode_raises_spec_lost(self):
        done = _run_child(_KILL_SEED_1 + """
try:
    BatchRunner(jobs=2).run(specs)
except SpecLost as lost:
    print(lost.quarantined.spec.seed, lost.quarantined.failures[-1].kind)
""")
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["1", "crash"]

    def test_tolerant_mode_quarantines_the_lost_spec(self):
        done = _run_child(_KILL_SEED_1 + """
results = BatchRunner(jobs=2).run(specs, tolerate_failures=True)
lost = results[1]
print(type(lost).__name__, lost.spec.seed, lost.failures[-1].kind)
for index in (0, 2):
    assert results[index].trace.events == original(specs[index]).trace.events
print("siblings identical")
""")
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == ["QuarantinedResult 1 crash",
                                            "siblings identical"]

    def test_cli_ends_with_one_error_line(self):
        done = _run_child(_KILL_SEED_1 + """
from repro.cli import main
sys.exit(main(["run", "--rounds", "3", "--replicate-seeds", "0", "1", "2",
               "--jobs", "2"]))
""")
        assert done.returncode == 2, done.stderr
        assert done.stderr.splitlines()[-1].startswith("error: worker pid ")
        assert "crashed while running" in done.stderr
        assert "Traceback" not in done.stderr


class TestReplicatePartial:
    def test_failing_seed_yields_partial_result(self, params, monkeypatch):
        def flaky(spec, engine="auto"):
            if spec.seed == 2:
                raise ValueError("poison seed")
            return execute(spec, engine=engine)

        monkeypatch.setattr(batch_module, "execute", flaky)
        spec = RunSpec.maintenance(params, rounds=3)
        rep = replicate(spec, seeds=[0, 1, 2, 3], tolerate_failures=True)
        assert rep.seeds == (0, 1, 3)
        assert rep.failed_seeds == (2,)
        assert not rep.complete
        assert len(rep.results) == 3
        assert rep.agreement.count == 3
        failure = rep.failures[0]
        assert failure.seed == 2
        assert failure.error == "ValueError: poison seed"
        assert "seed 2 failed" in failure.describe()
        assert rep.metrics()["seeds"] == 3.0
        assert rep.metrics()["failed_seeds"] == 1.0

    def test_all_seeds_failing_raises_replication_error(self, params,
                                                        monkeypatch):
        from repro.runner import ReplicationError

        def always(spec, engine="auto"):
            raise ValueError("dead")

        monkeypatch.setattr(batch_module, "execute", always)
        spec = RunSpec.maintenance(params, rounds=3)
        with pytest.raises(ReplicationError, match="all 2 seeds failed"):
            replicate(spec, seeds=[0, 1], tolerate_failures=True)
        try:
            replicate(spec, seeds=[0, 1], tolerate_failures=True)
        except ReplicationError as error:
            assert len(error.failures) == 2
            assert error.failures[0].seed == 0

    def test_complete_replication_reports_no_failures(self, params):
        rep = replicate(RunSpec.maintenance(params, rounds=3), seeds=[0, 1])
        assert rep.complete
        assert rep.failures == ()
        assert rep.failed_seeds == ()

    def test_default_replication_still_raises(self, params, monkeypatch):
        def always(spec, engine="auto"):
            raise ValueError("dead")

        monkeypatch.setattr(batch_module, "execute", always)
        spec = RunSpec.maintenance(params, rounds=3)
        with pytest.raises(ValueError, match="dead"):
            replicate(spec, seeds=[0, 1])


class TestInterruptCleanup:
    """A KeyboardInterrupt mid-batch must not leak pool workers."""

    @staticmethod
    def _await_no_children(timeout=10.0):
        import multiprocessing
        import time

        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if not multiprocessing.active_children():
                return True
            time.sleep(0.05)
        return not multiprocessing.active_children()

    def test_keyboard_interrupt_reraises_and_reaps_workers(self, params):
        specs = [RunSpec.maintenance(params, rounds=4, seed=s)
                 for s in range(8)]

        def interrupt_after_first(spec, result):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            BatchRunner(jobs=2).run(specs, on_result=interrupt_after_first)
        assert self._await_no_children()

    def test_abandoned_iterator_reaps_workers(self, params):
        specs = [RunSpec.maintenance(params, rounds=4, seed=s)
                 for s in range(8)]
        iterator = BatchRunner(jobs=2).run_iter(specs)
        next(iterator)  # start the pool, consume one result
        iterator.close()  # generator close must terminate + join the pool
        assert self._await_no_children()
