"""Hypothesis guards for the streaming pipeline's bit-identical guarantees.

Two families of properties:

* **online == batch** — for random scenario configurations (system size,
  fault mix, drift model, delay family, seed) and random sample grids, the
  streaming observers must return exactly the floats the batch metrics
  compute from the recorded trace — on both the numpy and the pure-python
  TraceIndex backends;
* **checkpoint invariance** — splitting a random run at a random period must
  leave the trace, the corrections, and the online metrics bit-identical.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import run_maintenance_scenario
from repro.analysis.metrics import (
    measured_agreement,
    sample_grid,
    skew_series,
    validity_report,
)
from repro.analysis.online import OnlineSkew, OnlineValidity, build_observers
from repro.analysis.verification import check_maintenance_run, check_online_run
from repro.core.config import SyncParameters
from repro.sim import traceindex

SLOW = settings(max_examples=12, deadline=None,
                suppress_health_check=[HealthCheck.too_slow,
                                       HealthCheck.function_scoped_fixture])


@pytest.fixture(params=["numpy", "python"])
def backend(request):
    """Run each property on both the numpy and the pure-python backend."""
    if request.param == "numpy" and not traceindex.numpy_available():
        pytest.skip("numpy not installed")
    previous = traceindex.numpy_enabled()
    traceindex.use_numpy(request.param == "numpy")
    yield request.param
    traceindex.use_numpy(previous)


@st.composite
def scenario_configs(draw):
    """A small but varied maintenance-scenario configuration."""
    f = draw(st.integers(min_value=0, max_value=2))
    tolerated = max(1, f)  # the parameter set must tolerate at least one
    n = draw(st.integers(min_value=3 * tolerated + 1,
                         max_value=3 * tolerated + 2))
    params = SyncParameters.derive(n=n, f=tolerated, rho=1e-4, delta=0.01,
                                   epsilon=0.002)
    return {
        "params": params,
        "fault_kind": draw(st.sampled_from(
            [None, "silent", "two_faced", "random_noise"])) if f else None,
        "fault_count": f if f else None,
        "clock_kind": draw(st.sampled_from(
            ["perfect", "constant", "piecewise", "sinusoidal", "walk"])),
        "delay": draw(st.sampled_from(["uniform", "fixed", "gaussian",
                                       "adversarial"])),
        "seed": draw(st.integers(min_value=0, max_value=2 ** 16)),
        "rounds": draw(st.integers(min_value=2, max_value=4)),
    }


def _run(config, observers):
    return run_maintenance_scenario(
        config["params"], rounds=config["rounds"],
        fault_kind=config["fault_kind"], fault_count=config["fault_count"],
        clock_kind=config["clock_kind"], delay=config["delay"],
        seed=config["seed"], observers=observers)


class TestOnlineEqualsBatch:
    @SLOW
    @given(config=scenario_configs(),
           samples=st.integers(min_value=5, max_value=120))
    def test_skew_envelope_and_series(self, backend, config, samples):
        captured = {}

        def factory(system, starts, end, params):
            faulty = set(system.faulty_ids())
            times = [t for pid, t in starts.items() if pid not in faulty]
            start = (max(times) if times else 0.0) + params.round_length
            grid = sample_grid(start, end, max(2, samples))
            captured["grid"] = grid
            captured["window"] = (start, end)
            return [OnlineSkew(grid, keep_series=True)]

        result = _run(config, factory)
        observer = result.observers["skew"]
        assert observer.max_skew == result.trace.max_skew(captured["grid"])
        assert observer.series() == result.trace.skew_series(captured["grid"])

    @SLOW
    @given(config=scenario_configs())
    def test_validity_report(self, backend, config):
        def factory(system, starts, end, params):
            return build_observers(("validity",), system, params, starts,
                                   end)

        result = _run(config, factory)
        start = result.tmax0 + result.params.round_length
        batch = validity_report(result.trace, result.params, result.tmin0,
                                result.tmax0, start, result.end_time,
                                samples=100)
        assert result.observers["validity"].report() == batch

    @SLOW
    @given(config=scenario_configs())
    def test_full_audit_window_agreement(self, backend, config):
        def factory(system, starts, end, params):
            return build_observers(("skew", "validity"), system, params,
                                   starts, end)

        result = _run(config, factory)
        start = result.tmax0 + result.params.round_length
        assert result.observers["skew"].max_skew == measured_agreement(
            result.trace, start, result.end_time, samples=200)
        # The online rows a streamed run's audit() returns are the trace
        # audit's Theorem 16/19 rows: same bound, same value, same verdict.
        online = check_online_run(result)
        traced = check_maintenance_run(result)
        assert [check.claim for check in online.checks] == [
            "theorem16_agreement", "theorem19_validity"]
        for row in online.checks:
            reference = traced.check(row.claim)
            assert (row.bound, row.measured, row.passed) == (
                reference.bound, reference.measured, reference.passed)


class TestCheckpointInvariance:
    @SLOW
    @given(config=scenario_configs(),
           period=st.floats(min_value=0.05, max_value=2.0,
                            allow_nan=False))
    def test_checkpointed_run_identical(self, config, period):
        plain = _run(config, None)
        split = run_maintenance_scenario(
            config["params"], rounds=config["rounds"],
            fault_kind=config["fault_kind"],
            fault_count=config["fault_count"],
            clock_kind=config["clock_kind"], delay=config["delay"],
            seed=config["seed"], checkpoint_every=period)
        assert [(e.real_time, e.process_id, e.name)
                for e in plain.trace.events] == \
            [(e.real_time, e.process_id, e.name)
             for e in split.trace.events]
        for pid in range(config["params"].n):
            assert (tuple(plain.trace.correction_history(pid).corrections)
                    == tuple(split.trace.correction_history(pid).corrections))
        assert plain.trace.stats.sent == split.trace.stats.sent
