"""Unit tests for the struct-of-arrays batch engine's routing and gates.

The bit-identity of the engine's *output* is the property suite's job
(``tests/property/test_vectorized_parity.py``); here we pin the plumbing:
which specs the engine claims, how the kill switches compose, how the batch
runner groups replicas, what telemetry a vectorized batch emits, and the
degenerate single-seed confidence interval of :func:`repro.runner.replicate`.
"""

import math
import os
import subprocess
import sys

import pytest

from repro.analysis.experiments import default_parameters
from repro.analysis.statistics import summarize
from repro.runner import BatchRunner, RunSpec, execute, replicate
from repro.sim import vectorized
from repro.sim.traceindex import numpy_enabled
from repro.telemetry import Telemetry


def _params(n=7, f=2):
    return default_parameters(n=n, f=f)


def _spec(**overrides):
    options = dict(rounds=3, fault_kind="two_faced", record_trace=False,
                   observers=("skew", "validity"))
    options.update(overrides)
    return RunSpec.maintenance(_params(), **options)


@pytest.fixture
def engine_enabled():
    """Make sure the module toggle is on for the test, then restore it."""
    previous = vectorized._vectorize_disabled
    vectorized.use_vectorized(True)
    yield
    vectorized._vectorize_disabled = previous


class TestSupportsSpec:
    def test_streaming_maintenance_is_supported(self):
        assert vectorized.supports_spec(_spec())

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
        assert not vectorized.supports_spec(_spec(**overrides))

    def test_topology_is_rejected(self):
        spec = _spec(topology="ring")
        assert not vectorized.supports_spec(spec)

    def test_startup_kind_is_rejected(self):
        spec = RunSpec.startup(_params(), rounds=3)
        assert not vectorized.supports_spec(spec)


class TestShouldVectorize:
    def test_spec_opt_out_wins(self, engine_enabled):
        import dataclasses
        spec = dataclasses.replace(_spec(), vectorize=False)
        assert not vectorized.should_vectorize(spec)

    def test_global_toggle(self):
        # Restore the module flag itself: vectorized_available() also reads
        # numpy, so restoring from it would leave the engine disabled.
        previous = vectorized._vectorize_disabled
        try:
            vectorized.use_vectorized(False)
            assert not vectorized.vectorized_available()
            assert not vectorized.should_vectorize(_spec())
            vectorized.use_vectorized(True)
            if not numpy_enabled():
                pytest.skip("the enabled half needs numpy")
            assert vectorized.should_vectorize(_spec())
        finally:
            vectorized._vectorize_disabled = previous

    def test_unsupported_spec_never_vectorizes(self, engine_enabled):
        assert not vectorized.should_vectorize(_spec(record_trace=True))


class TestExecuteBatch:
    def test_empty_batch(self):
        assert vectorized.execute_batch([]) == []

    def test_mixed_specs_are_rejected(self):
        spec = _spec()
        other = _spec(rounds=4)
        with pytest.raises(ValueError, match="identical modulo seed"):
            vectorized.execute_batch([spec.with_seed(0), other.with_seed(1)])

    def test_disabled_engine_falls_back_to_serial(self):
        spec = _spec()
        previous = vectorized.vectorized_available()
        try:
            vectorized.use_vectorized(False)
            results = vectorized.execute_batch(
                [spec.with_seed(s) for s in range(2)])
        finally:
            vectorized.use_vectorized(previous)
        serial = [execute(spec.with_seed(s)) for s in range(2)]
        for a, b in zip(serial, results):
            assert a.trace.stats == b.trace.stats
            assert a.online("skew").max_skew == b.online("skew").max_skew

    def test_duplicate_seeds_share_one_replica(self, engine_enabled):
        if not vectorized.vectorized_available():
            pytest.skip("numpy not installed")
        spec = _spec()
        results = vectorized.execute_batch(
            [spec.with_seed(0), spec.with_seed(1), spec.with_seed(0)])
        assert results[0].trace.stats == results[2].trace.stats
        assert results[0].online("skew").max_skew == \
            results[2].online("skew").max_skew


class TestBatchRunnerRouting:
    def test_replicated_group_is_vectorized(self, engine_enabled):
        if not vectorized.vectorized_available():
            pytest.skip("numpy not installed")
        telemetry = Telemetry()
        spec = _spec()
        specs = [spec.with_seed(s) for s in range(4)]
        results = BatchRunner(telemetry=telemetry).run(specs)
        assert len(results) == 4
        assert telemetry.registry.value("runner.vectorized_batches") == 1
        assert telemetry.registry.value("runner.vectorized_replicas") == 4

    def test_single_spec_stays_serial_unless_forced(self, engine_enabled):
        if not vectorized.vectorized_available():
            pytest.skip("numpy not installed")
        import dataclasses
        spec = _spec()
        telemetry = Telemetry()
        BatchRunner(telemetry=telemetry).run([spec])
        assert telemetry.registry.value("runner.vectorized_batches") == 0
        forced = dataclasses.replace(spec, vectorize=True)
        telemetry = Telemetry()
        BatchRunner(telemetry=telemetry).run([forced])
        assert telemetry.registry.value("runner.vectorized_batches") == 1
        assert telemetry.registry.value("runner.vectorized_replicas") == 1

    def test_opted_out_group_stays_serial(self, engine_enabled):
        import dataclasses
        spec = dataclasses.replace(_spec(), vectorize=False)
        telemetry = Telemetry()
        results = BatchRunner(telemetry=telemetry).run(
            [spec.with_seed(s) for s in range(3)])
        assert len(results) == 3
        assert telemetry.registry.value("runner.vectorized_batches") == 0


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
        """REPRO_NO_NUMPY=1 end-to-end: --vectorize degrades to serial."""
        root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        env = dict(os.environ,
                   PYTHONPATH=os.path.join(root, "src") + os.pathsep
                   + os.environ.get("PYTHONPATH", ""))
        argv = [sys.executable, "-m", "repro", "run", "--no-trace",
                "--observe", "skew,validity", "--replicate-seeds", "0", "1",
                "--vectorize"]
        with_numpy = subprocess.run(argv, env=env, cwd=root,
                                    capture_output=True, text=True)
        assert with_numpy.returncode == 0, with_numpy.stderr
        env["REPRO_NO_NUMPY"] = "1"
        without_numpy = subprocess.run(argv, env=env, cwd=root,
                                       capture_output=True, text=True)
        assert without_numpy.returncode == 0, without_numpy.stderr
        assert with_numpy.stdout == without_numpy.stdout
