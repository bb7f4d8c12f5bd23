"""Unit tests for repro.runner (RunSpec, execute, BatchRunner, replicate)."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.analysis import default_parameters
from repro.analysis import experiments
from repro.analysis.experiments import (
    ALGORITHM_FACTORIES,
    FAULT_BEHAVIOURS,
    PartitionHealResult,
    ScenarioResult,
    run_algorithm_scenario,
    run_maintenance_scenario,
    run_partition_heal_scenario,
    run_reintegration_scenario,
    run_startup_scenario,
)
from repro.clocks.drift import CLOCK_KINDS, make_clock_ensemble
from repro.core.averaging import FaultTolerantMean
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

    @pytest.mark.parametrize("count", [-1, 8])
    def test_rejects_fault_count_outside_zero_to_n(self, params, count):
        # -1 made the builder build n+1 processes; n+1 failed only once run.
        with pytest.raises(ValueError, match=r"fault_count must be in \[0, "
                                             r"n=7\]"):
            RunSpec.maintenance(params, fault_count=count)
        RunSpec.maintenance(params, fault_count=params.n)

    def test_rejects_delay_model_objects(self, params):
        from repro.sim.network import FixedDelayModel
        with pytest.raises(TypeError, match="declarative"):
            RunSpec(kind="maintenance", params=params,
                    delay=FixedDelayModel(0.01))

    @pytest.mark.parametrize("build,message,choice", [
        (lambda p: RunSpec.maintenance(p, fault_kind="twofaced"),
         "unknown fault kind 'twofaced'", "two_faced"),
        (lambda p: RunSpec.maintenance(p, clock_kind="drifty"),
         "unknown clock kind 'drifty'", "constant"),
        (lambda p: RunSpec.algorithm_run("nope", p),
         "unknown algorithm 'nope'", "welch_lynch"),
    ], ids=["fault_kind", "clock_kind", "algorithm"])
    def test_rejects_unknown_names_at_construction(self, params, build,
                                                   message, choice):
        # A typo fails here, not as a retried fault inside a worker.
        with pytest.raises(ValueError, match=message) as excinfo:
            build(params)
        assert choice in str(excinfo.value)

    def test_algorithm_run_refuses_scenario_options(self, params):
        with pytest.raises(ValueError, match="not supported by kind "
                                             "'algorithm'"):
            RunSpec.algorithm_run("hssd", params, stagger_interval=0.001)


class TestNameFamilies:
    """Every name a spec accepts is one its builder builds, and a builder
    given any other name lists the same choices."""

    @pytest.mark.parametrize("kind", FAULT_BEHAVIOURS)
    def test_fault_behaviours(self, params, kind):
        result = execute(RunSpec.maintenance(params, rounds=2,
                                             fault_kind=kind))
        assert sorted(result.trace.faulty_ids) == [5, 6]

    @pytest.mark.parametrize("kind", CLOCK_KINDS)
    def test_clock_kinds(self, params, kind):
        execute(RunSpec.maintenance(params, rounds=2, clock_kind=kind))

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHM_FACTORIES))
    def test_algorithms(self, params, algorithm):
        execute(RunSpec.algorithm_run(algorithm, params, rounds=2))

    def test_builders_name_the_choices(self, params):
        with pytest.raises(ValueError, match=", ".join(FAULT_BEHAVIOURS)):
            experiments.make_fault_process("twofaced", params, rounds=2)
        with pytest.raises(ValueError, match=", ".join(CLOCK_KINDS)):
            make_clock_ensemble(params.n, rho=params.rho, beta=params.beta,
                                kind="drifty")
        with pytest.raises(KeyError, match="welch_lynch"):
            run_algorithm_scenario("nope", params)


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


#: (spec, the direct builder call that runs the same scenario), per kind.
DIRECT_CALLS = {
    "maintenance": (
        lambda p: RunSpec.maintenance(p, rounds=5, seed=3),
        lambda p: run_maintenance_scenario(p, rounds=5, seed=3)),
    "algorithm": (
        lambda p: RunSpec.algorithm_run("srikanth_toueg", p, rounds=4,
                                        seed=3),
        lambda p: run_algorithm_scenario("srikanth_toueg", p, rounds=4,
                                         seed=3)),
    "startup": (
        lambda p: RunSpec.startup(p, rounds=4, seed=3),
        lambda p: run_startup_scenario(p, rounds=4, seed=3)),
    "startup-fault-free": (
        lambda p: RunSpec.startup(p, rounds=4, seed=3, fault_kind=None),
        lambda p: run_startup_scenario(p, rounds=4, seed=3, fault_count=0)),
    "reintegration": (
        lambda p: RunSpec.reintegration(p, rounds=8, seed=3),
        lambda p: run_reintegration_scenario(p, rounds=8, seed=3)),
    "partition-heal": (
        lambda p: RunSpec.partition_heal(p, rounds=12, partition_round=3,
                                         heal_round=7, seed=3),
        lambda p: run_partition_heal_scenario(p, rounds=12, partition_round=3,
                                              heal_round=7, seed=3)),
}


class TestExecute:
    @pytest.mark.parametrize("kind", DIRECT_CALLS)
    def test_maintenance_matches_direct_builder_call(self, params, kind):
        # One translation from spec to builder keywords serves every kind.
        make_spec, call = DIRECT_CALLS[kind]
        via_spec = execute(make_spec(params))
        direct = call(params)
        assert via_spec.trace.log == direct.trace.log
        for pid in range(params.n):
            assert via_spec.trace.correction_history(pid).__reduce__() == \
                direct.trace.correction_history(pid).__reduce__()
        assert via_spec.start_times == direct.start_times
        assert via_spec.end_time == direct.end_time
        assert via_spec.trace.stats == direct.trace.stats
        assert type(via_spec) is type(direct)

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

    def test_partition_heal_builds_one_clock_ensemble(self, params,
                                                      monkeypatch):
        # The clocks that pick the default groups are the ones that run.
        built = []
        real = experiments.make_clock_ensemble

        def counting(*args, **kwargs):
            built.append(kwargs.get("seed"))
            return real(*args, **kwargs)

        monkeypatch.setattr(experiments, "make_clock_ensemble", counting)
        execute(RunSpec.partition_heal(params, rounds=12, partition_round=3,
                                       heal_round=7, seed=3))
        assert built == [3]

    def test_topology_spec_string_is_honored(self, params):
        result = execute(RunSpec.maintenance(params, rounds=4, fault_kind=None,
                                             topology="ring", seed=1))
        # The ring stretches the effective envelope: delta' > delta.
        assert result.params.delta > params.delta
        assert result.trace.stats.relayed > 0


class TestFactoryGuard:
    """A process factory builds the correct processes itself, so the knobs
    only the default construction reads are refused, not ignored."""

    @pytest.mark.parametrize("knob", [{"averaging": FaultTolerantMean()},
                                      {"stagger_interval": 0.001},
                                      {"exchanges_per_round": 2}],
                             ids=lambda knob: next(iter(knob)))
    def test_maintenance_refuses_ignored_knobs(self, params, knob):
        with pytest.raises(ValueError, match="correct_process_factory"):
            run_maintenance_scenario(
                params, rounds=2,
                correct_process_factory=ALGORITHM_FACTORIES["welch_lynch"],
                **knob)

    def test_algorithm_builder_refuses_stagger(self, params):
        with pytest.raises(ValueError, match="stagger_interval"):
            run_algorithm_scenario("hssd", params, stagger_interval=0.001)


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
        # The store is the one cache across batches; ":memory:" keeps it in
        # the process.
        calls = []

        def counting_execute(spec, engine="auto"):
            calls.append(spec)
            return execute(spec, engine=engine)

        monkeypatch.setattr(batch_module, "execute", counting_execute)
        runner = BatchRunner(store=":memory:", resume=True)
        spec = RunSpec.maintenance(params, rounds=3, seed=0)
        first, = runner.run([spec])
        second, = runner.run([spec])
        assert len(calls) == 1
        assert len(runner.store) == 1
        assert second.trace.events == first.trace.events

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
        parallel = BatchRunner(jobs=2).run(specs)
        for a, b in zip(serial, parallel):
            assert a.trace.events == b.trace.events
            assert a.start_times == b.start_times

    def test_jobs_below_one_maps_to_cpu_count(self):
        assert BatchRunner(jobs=0).jobs >= 1


class TestEngineName:
    """An unknown engine is refused where the runner is built."""

    @pytest.mark.parametrize("engine", ["round", "batch", "nonsense"])
    @pytest.mark.parametrize("store", [{}, {"store": ":memory:",
                                            "resume": True}],
                             ids=["no-store", "resumed-store"])
    def test_batch_runner_refuses_it(self, engine, store):
        with pytest.raises(ValueError, match="choose from auto, serial, "
                                             "kernel"):
            BatchRunner(engine=engine, **store)

    @pytest.mark.parametrize("engine", ["round", "batch", "nonsense"])
    def test_supervised_pool_refuses_it(self, engine):
        from repro.runner import SupervisedPool

        with pytest.raises(ValueError, match="choose from auto, serial, "
                                             "kernel"):
            SupervisedPool(engine=engine)


def _replicate_seeds(params, seeds):
    replicate(RunSpec.maintenance(params, rounds=3), seeds)


def _sweep_seeds(params, seeds):
    from repro.analysis import SweepAxis, run_spec_sweep

    run_spec_sweep([SweepAxis("rounds", [3])],
                   lambda rounds: RunSpec.maintenance(params, rounds=rounds),
                   lambda result, rounds: {}, seeds=seeds)


def _compare_seeds(params, seeds):
    from repro.analysis import run_replicated_comparison

    run_replicated_comparison(params, seeds, rounds=3)


@pytest.mark.parametrize("entry", [_replicate_seeds, _sweep_seeds,
                                   _compare_seeds],
                         ids=["replicate", "run_spec_sweep",
                              "run_replicated_comparison"])
@pytest.mark.parametrize("seeds, message", [
    ([], "need at least one seed"),
    ([1, 1], r"replication seeds must be distinct, got \[1, 1\]"),
], ids=["empty", "repeated"])
def test_one_seed_list_rule(params, entry, seeds, message):
    with pytest.raises(ValueError, match=message):
        entry(params, seeds)


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

    @pytest.mark.parametrize("grid", [{}, {"samples": 120}],
                             ids=["default", "samples-120"])
    def test_traced_agreement_is_the_value_its_audit_judges(self, grid):
        from repro.analysis.verification import audit
        from repro.analysis.workloads import build_spec, get_workload

        spec = build_spec(get_workload("lan"), n=7, rounds=5)
        rep = replicate(spec, seeds=[0, 1, 2], **grid)
        for result, agreement, rate in zip(rep.results, rep.agreement_values,
                                           rep.validity_values):
            report = audit(result, **grid)
            assert agreement == report.check("theorem16_agreement").measured
            violations = report.check("theorem19_validity").measured
            assert (rate == 0.0) == (violations == 0.0)

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
        runner = BatchRunner(store=":memory:", resume=True)
        spec = RunSpec.maintenance(params, rounds=3)
        replicate(spec, seeds=[0, 1], runner=runner)
        replicate(spec, seeds=[0, 1, 2], runner=runner)
        assert len(calls) == 3  # seeds 0 and 1 came from the store


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
        results = BatchRunner(max_retries=0).run(specs)
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

    def test_pool_path_ships_failures_home(self, params):
        from repro.runner import QuarantinedResult
        from repro.sim.events import EventBudgetExceeded

        good = [RunSpec.maintenance(params, rounds=3, seed=s)
                for s in range(3)]
        # A genuinely failing spec that reproduces inside pool workers: an
        # interrupt budget far below what the run needs.
        bad = RunSpec.maintenance(params, rounds=3, seed=9, max_events=3)
        results = BatchRunner(jobs=2, max_retries=0).run(good + [bad])
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

def execute(spec, engine="auto"):
    if spec.seed == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return original(spec, engine=engine)

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
results = BatchRunner(jobs=2, max_retries=0).run(specs)
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
        rep = replicate(spec, seeds=[0, 1, 2, 3],
                        runner=BatchRunner(max_retries=0))
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
            replicate(spec, seeds=[0, 1], runner=BatchRunner(max_retries=0))
        try:
            replicate(spec, seeds=[0, 1], runner=BatchRunner(max_retries=0))
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

        with pytest.raises(KeyboardInterrupt):
            for _ in BatchRunner(jobs=2).run_iter(specs):
                raise KeyboardInterrupt
        assert self._await_no_children()

    def test_abandoned_iterator_reaps_workers(self, params):
        specs = [RunSpec.maintenance(params, rounds=4, seed=s)
                 for s in range(8)]
        iterator = BatchRunner(jobs=2).run_iter(specs)
        next(iterator)  # start the pool, consume one result
        iterator.close()  # generator close must terminate + join the pool
        assert self._await_no_children()
