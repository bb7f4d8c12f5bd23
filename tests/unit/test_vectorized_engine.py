"""Unit tests for the round kernel's routing and gates.

The bit-identity of the kernel's *output* is the property suite's job
(``tests/property/test_roundengine_parity.py``); here we pin the plumbing:
which specs the one scope function declines and why, how
:func:`engine_for` picks a grouping for every ``engine=`` value, how the
batch runner groups replicas, what telemetry a replica group emits, and the
degenerate single-seed confidence interval of :func:`repro.runner.replicate`.
"""

import math
import os
import subprocess
import sys
import time

import pytest

from repro.analysis.experiments import default_parameters
from repro.analysis.statistics import summarize
from repro.runner import BatchRunner, RunSpec, execute, replicate
from repro.runner.spec import engine_for
from repro.sim import roundengine, traceindex, vectorized
from repro.sim.traceindex import numpy_enabled
from repro.telemetry import Telemetry, activated


def _params(n=7, f=2):
    return default_parameters(n=n, f=f)


def _spec(**overrides):
    options = dict(rounds=3, fault_kind="two_faced", record_trace=False,
                   observers=("skew", "validity"))
    options.update(overrides)
    return RunSpec.maintenance(_params(), **options)


@pytest.fixture
def numpy_off():
    """Switch the numpy backend off for the test, then restore it."""
    previous = traceindex.numpy_enabled()
    traceindex.use_numpy(False)
    yield
    traceindex.use_numpy(previous)


needs_numpy = pytest.mark.skipif(not numpy_enabled(),
                                 reason="the engines need numpy")


class TestDeclineReason:
    def test_streaming_maintenance_is_supported(self):
        expected = None if numpy_enabled() else "numpy is off"
        assert roundengine.decline_reason(_spec()) == expected

    @pytest.mark.parametrize("overrides", [
        {"record_trace": True},          # trace recording is serial-only
        {"delay": "gaussian"},           # unsupported delay family
        {"delay": "adversarial"},
        {"clock_kind": "piecewise"},     # drifting-rate ensembles
        {"clock_kind": "walk"},
        {"fault_kind": "random_noise"},  # per-replica rng divergence
        {"fault_kind": "omission"},
        {"checkpoint_every": 1.0},       # snapshot/restore is serial-only
    ])
    def test_unsupported_features_are_rejected(self, overrides):
        assert roundengine.decline_reason(_spec(**overrides)) is not None

    def test_topology_is_rejected(self):
        spec = _spec(topology="ring")
        assert roundengine.decline_reason(spec, replicas=2) == \
            "a topology in a replica group"

    def test_startup_kind_is_rejected(self):
        spec = RunSpec.startup(_params(), rounds=3)
        assert roundengine.decline_reason(spec) is not None

    def test_numpy_off_is_a_decline_reason(self, numpy_off):
        assert roundengine.decline_reason(_spec()) == "numpy is off"


def _streaming(n, **overrides):
    options = dict(rounds=3, fault_kind=None, record_trace=False,
                   observers=("skew", "validity"))
    options.update(overrides)
    return RunSpec.maintenance(default_parameters(n=n, f=1), **options)


#: (spec label, engine, replicas, expected grouping).  ``batch`` and
#: ``round`` are the two groupings of one kernel, picked by the group, not
#: the engine.  ``both`` runs in either, ``batch_only`` (Byzantine faults)
#: in either too, ``round_only`` (a topology) only alone, ``neither`` (a
#: recorded trace) in none.
ENGINE_TABLE = [
    ("both", "auto", 1, "serial"),
    ("both", "auto", 2, "batch"),
    ("both", "kernel", 1, "round"),
    ("both", "kernel", 3, "batch"),
    ("both", "serial", 1, "serial"),
    ("both", "serial", 3, "serial"),
    ("n511", "auto", 1, "serial"),
    ("n511", "auto", 2, "batch"),
    ("n512", "auto", 1, "round"),
    ("n512", "auto", 2, "round"),
    ("n512", "kernel", 2, "round"),
    ("n512", "serial", 2, "serial"),
    ("batch_only", "auto", 1, "serial"),
    ("batch_only", "auto", 2, "batch"),
    ("batch_only", "kernel", 1, "round"),
    ("batch_only_n512", "auto", 1, "round"),
    ("batch_only_n512", "auto", 2, "round"),
    ("round_only", "auto", 2, "serial"),
    ("round_only", "kernel", 2, "round"),
    ("round_only", "kernel", 1, "round"),
    ("neither", "auto", 2, "serial"),
    ("neither", "kernel", 2, "serial"),
    ("neither", "kernel", 1, "serial"),
    # The rest of label x engine x group size (1, or 2 and more).
    ("n511", "kernel", 1, "round"),
    ("n511", "kernel", 2, "batch"),
    ("n512", "kernel", 1, "round"),
    ("batch_only", "kernel", 2, "batch"),
    ("batch_only_n512", "kernel", 1, "round"),
    ("batch_only_n512", "kernel", 2, "round"),
    ("round_only", "auto", 1, "serial"),
    ("neither", "auto", 1, "serial"),
    ("n511", "serial", 1, "serial"),
    ("n511", "serial", 2, "serial"),
    ("n512", "serial", 1, "serial"),
    ("batch_only", "serial", 1, "serial"),
    ("batch_only", "serial", 2, "serial"),
    ("batch_only_n512", "serial", 1, "serial"),
    ("batch_only_n512", "serial", 2, "serial"),
    ("round_only", "serial", 1, "serial"),
    ("round_only", "serial", 2, "serial"),
    ("neither", "serial", 1, "serial"),
    ("neither", "serial", 2, "serial"),
]


def _table_spec(label):
    return {
        "both": lambda: _streaming(7),
        "n511": lambda: _streaming(511),
        "n512": lambda: _streaming(512),
        "batch_only": lambda: _streaming(7, fault_kind="two_faced"),
        "batch_only_n512": lambda: _streaming(512, fault_kind="two_faced"),
        "round_only": lambda: _streaming(7, topology="ring"),
        "neither": lambda: _streaming(7, record_trace=True),
    }[label]()


class TestEngineFor:
    """The one decision function, as a table; nothing runs."""

    @needs_numpy
    @pytest.mark.parametrize("label,engine,replicas,expected", ENGINE_TABLE)
    def test_table(self, label, engine, replicas, expected):
        assert engine_for(_table_spec(label), engine, replicas) == expected

    @pytest.mark.parametrize("engine", ["auto", "kernel", "serial"])
    def test_numpy_off_always_runs_serially(self, numpy_off, engine):
        assert engine_for(_streaming(512), engine, 4) == "serial"

    def test_unknown_engine_is_rejected(self):
        with pytest.raises(ValueError, match="unknown engine 'gpu'"):
            engine_for(_streaming(7), "gpu")
        with pytest.raises(ValueError, match="unknown engine"):
            execute(_streaming(7), engine="vectorize")

    def test_serial_wins(self):
        assert engine_for(_spec(), "serial", 4) == "serial"

    def test_unsupported_spec_never_vectorizes(self):
        assert engine_for(_spec(record_trace=True), "kernel", 4) == "serial"

    @pytest.mark.parametrize("engine", ["batch", "round"])
    def test_groupings_are_not_engines(self, engine):
        """The grouping follows from the group; it cannot be asked for."""
        with pytest.raises(ValueError, match="choose from auto, serial, "
                                             "kernel"):
            engine_for(_streaming(7), engine, 2)
        with pytest.raises(ValueError, match="unknown engine"):
            execute(_streaming(7), engine=engine)


class TestExecuteBatch:
    def test_empty_batch(self):
        assert vectorized.execute_batch([]) == []

    def test_mixed_specs_are_rejected(self):
        spec = _spec()
        other = _spec(rounds=4)
        with pytest.raises(ValueError, match="identical modulo seed"):
            vectorized.execute_batch([spec.with_seed(0), other.with_seed(1)])

    def test_declined_spec_falls_back_to_serial(self, numpy_off):
        spec = _spec()
        results = vectorized.execute_batch(
            [spec.with_seed(s) for s in range(2)])
        serial = [execute(spec.with_seed(s), engine="serial")
                  for s in range(2)]
        for a, b in zip(serial, results):
            assert a.trace.stats == b.trace.stats
            assert a.online("skew").max_skew == b.online("skew").max_skew

    @needs_numpy
    def test_duplicate_seeds_share_one_replica(self):
        spec = _spec()
        results = vectorized.execute_batch(
            [spec.with_seed(0), spec.with_seed(1), spec.with_seed(0)])
        assert results[0].trace.stats == results[2].trace.stats
        assert results[0].online("skew").max_skew == \
            results[2].online("skew").max_skew

    @needs_numpy
    def test_manifest_walls_count_a_serial_rerun_once(self, monkeypatch):
        """Regression: the kernel replicas' wall share included the serial
        re-runs, which book their own manifests, so one slow re-run was
        counted twice and the manifests summed past the batch's wall."""
        from repro.runner import spec as spec_module

        real_run = roundengine.RoundSystem.run
        real_execute = spec_module._execute

        def run_then_drop_first(self):
            real_run(self)
            self._mark(self._rows == 0, "forced off the path")

        def slow_execute(*args, **kwargs):
            time.sleep(0.3)
            return real_execute(*args, **kwargs)

        monkeypatch.setattr(roundengine.RoundSystem, "run",
                            run_then_drop_first)
        monkeypatch.setattr(spec_module, "_execute", slow_execute)
        spec = _spec()
        telemetry = Telemetry()
        start = time.perf_counter()
        with activated(telemetry):
            vectorized.execute_batch([spec.with_seed(s) for s in range(4)])
        wall = time.perf_counter() - start
        assert telemetry.registry.value("runner.vectorized_fallbacks") == 1
        assert len(telemetry.manifests) == 4
        assert sum(m["wall_seconds"] for m in telemetry.manifests) <= wall


class TestBatchRunnerRouting:
    @needs_numpy
    def test_replicated_group_is_vectorized(self):
        telemetry = Telemetry()
        spec = _spec()
        specs = [spec.with_seed(s) for s in range(4)]
        with activated(telemetry):
            results = BatchRunner().run(specs)
        assert len(results) == 4
        assert telemetry.registry.value("runner.vectorized_batches") == 1
        assert telemetry.registry.value("runner.vectorized_replicas") == 4

    @needs_numpy
    def test_single_spec_stays_serial_unless_asked(self):
        spec = _spec()
        telemetry = Telemetry()
        with activated(telemetry):
            BatchRunner().run([spec])
        assert telemetry.registry.value("runner.vectorized_batches") == 0
        assert telemetry.registry.value("roundengine.rounds") == 0
        # Asked for the kernel, a single spec runs alone, never as a group.
        telemetry = Telemetry()
        with activated(telemetry):
            BatchRunner(engine="kernel").run([spec])
        assert telemetry.registry.value("runner.vectorized_batches") == 0
        assert telemetry.registry.value("roundengine.rounds") == spec.rounds

    def test_serial_engine_group_stays_serial(self):
        spec = _spec()
        telemetry = Telemetry()
        with activated(telemetry):
            results = BatchRunner(engine="serial").run(
                [spec.with_seed(s) for s in range(3)])
        assert len(results) == 3
        assert telemetry.registry.value("runner.vectorized_batches") == 0

    @needs_numpy
    @pytest.mark.parametrize("retries", [None, 2],
                             ids=["plain", "supervised"])
    def test_engine_travels_to_pool_workers(self, retries):
        # The choice rides with each task, so workers honour it without
        # any process-global state.  A topology keeps the two seeds apart
        # (a complete-graph pair would run in lockstep in this process).
        spec = _spec(fault_kind="crash", topology="ring")
        telemetry = Telemetry()
        runner = BatchRunner(jobs=2, engine="kernel", max_retries=retries)
        with activated(telemetry):
            runner.run([spec.with_seed(s) for s in range(2)])
        assert telemetry.registry.value("roundengine.rounds") == \
            2 * spec.rounds


class TestOneEntryPointPerGrouping:
    """A lone spec reaches the kernel only through ``try_execute``, inside
    ``execute``'s telemetry; a replica group only through
    ``execute_batch``."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"try_execute": 0, "execute_batch": 0}
        for module, name in ((roundengine, "try_execute"),
                             (vectorized, "execute_batch")):
            def spy(*args, _real=getattr(module, name), _name=name,
                    **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(module, name, spy)
        return calls

    @needs_numpy
    @pytest.mark.parametrize("entry", ["execute", "BatchRunner"])
    def test_lone_spec_runs_alone(self, calls, entry):
        spec = _spec()
        if entry == "execute":
            execute(spec, engine="kernel")
        else:
            BatchRunner(engine="kernel").run([spec])
        assert calls == {"try_execute": 1, "execute_batch": 0}

    @needs_numpy
    @pytest.mark.parametrize("engine", ["auto", "kernel"])
    def test_complete_graph_group_runs_in_lockstep(self, calls, engine):
        spec = _spec()
        BatchRunner(engine=engine).run([spec.with_seed(s) for s in range(3)])
        assert calls == {"try_execute": 0, "execute_batch": 1}

    @needs_numpy
    def test_topology_group_runs_each_alone(self, calls):
        spec = _spec(fault_kind="crash", topology="ring")
        BatchRunner(engine="kernel").run([spec.with_seed(s) for s in range(2)])
        assert calls == {"try_execute": 2, "execute_batch": 0}

    @needs_numpy
    def test_lone_kernel_run_books_like_any_execute(self):
        spec = _spec()
        telemetry = Telemetry(track_memory=True)
        with activated(telemetry):
            execute(spec, engine="kernel")
        assert telemetry.registry.value("roundengine.rounds") == spec.rounds
        assert not [name for name in telemetry.registry.snapshot()
                    if name.startswith("runner.vectorized_")]
        names = [record.name for record in telemetry.tracer.records]
        assert names.count("execute") == 1
        (record,) = telemetry.manifests
        assert record["peak_memory_bytes"] > 0


class TestSingleSeedReplication:
    def test_summarize_single_value_has_degenerate_ci(self):
        stats = summarize([0.25])
        assert stats.count == 1
        assert stats.ci95_low == stats.ci95_high == stats.mean == 0.25
        assert not math.isnan(stats.ci95_low)

    def test_replicate_single_seed_point_estimate(self):
        rep = replicate(_spec(), [0])
        stats = rep.agreement
        assert stats.count == 1
        assert stats.ci95_low == stats.ci95_high == stats.mean
        assert not math.isnan(stats.ci95_low)
        assert not math.isnan(rep.validity_violation_rate.ci95_high)


class TestNoNumpyEndToEnd:
    def test_cli_replicated_vectorize_without_numpy(self):
        """REPRO_NO_NUMPY=1 end-to-end: --round-engine degrades to serial."""
        root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        env = dict(os.environ,
                   PYTHONPATH=os.path.join(root, "src") + os.pathsep
                   + os.environ.get("PYTHONPATH", ""))
        argv = [sys.executable, "-m", "repro", "run", "--no-trace",
                "--observe", "skew,validity", "--replicate-seeds", "0", "1",
                "--round-engine"]
        with_numpy = subprocess.run(argv, env=env, cwd=root,
                                    capture_output=True, text=True)
        assert with_numpy.returncode == 0, with_numpy.stderr
        env["REPRO_NO_NUMPY"] = "1"
        without_numpy = subprocess.run(argv, env=env, cwd=root,
                                       capture_output=True, text=True)
        assert without_numpy.returncode == 0, without_numpy.stderr
        assert with_numpy.stdout == without_numpy.stdout
