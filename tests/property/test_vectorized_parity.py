"""Hypothesis parity suite: the vectorized batch engine vs the serial loop.

The struct-of-arrays engine (:mod:`repro.sim.vectorized`) promises *bit
identity* with the serial event loop — not statistical agreement.  For random
vectorizable configurations (system size, fault mix, clock/delay family,
seeds) these properties compare every observable surface of the results:

* message statistics and per-process send counts;
* start times, end time, faulty sets;
* the full per-process correction histories (times, corrections, events);
* the online skew and validity observers, down to their internal sample
  points and capture tables.

The suite runs on both TraceIndex backends (the ``REPRO_NO_NUMPY`` toggle):
under the pure-python backend the engine declines every spec ("numpy is
off") and ``execute_batch`` must degrade to the serial loop, so parity is
trivially exact there too — the property then guards the fallback wiring.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import default_parameters
from repro.runner.spec import RunSpec, execute
from repro.sim import traceindex
from repro.sim.vectorized import (
    VECTOR_FAULT_KINDS,
    decline_reason,
    execute_batch,
)

SLOW = settings(max_examples=10, deadline=None,
                suppress_health_check=[HealthCheck.too_slow,
                                       HealthCheck.function_scoped_fixture])


@pytest.fixture(params=["numpy", "python"])
def backend(request):
    """Run each property on both TraceIndex backends."""
    if request.param == "numpy" and not traceindex.numpy_available():
        pytest.skip("numpy not installed")
    previous = traceindex.numpy_enabled()
    traceindex.use_numpy(request.param == "numpy")
    yield request.param
    traceindex.use_numpy(previous)


@st.composite
def vector_specs(draw):
    """A random spec the engine claims to support, plus a seed batch."""
    f = draw(st.integers(min_value=0, max_value=2))
    tolerated = max(1, f)
    n = draw(st.integers(min_value=3 * tolerated + 1,
                         max_value=3 * tolerated + 2))
    params = default_parameters(n=n, f=tolerated)
    fault_kind = draw(st.sampled_from(sorted(VECTOR_FAULT_KINDS))) if f \
        else None
    spec = RunSpec.maintenance(
        params,
        rounds=draw(st.integers(min_value=1, max_value=4)),
        fault_kind=fault_kind,
        fault_count=f if f else None,
        clock_kind=draw(st.sampled_from(["constant", "perfect"])),
        delay=draw(st.sampled_from(["uniform", "fixed"])),
        record_trace=False,
        observers=draw(st.sampled_from(
            [("skew", "validity"), ("skew",), ()])),
    )
    base = draw(st.integers(min_value=0, max_value=2 ** 16))
    seeds = list(range(base, base + draw(st.integers(min_value=2,
                                                     max_value=5))))
    return spec, seeds


def _history_key(history):
    return (tuple(history.times), tuple(history.corrections),
            tuple((e.real_time, e.adjustment, e.new_correction, e.round_index)
                  for e in history.events))


def _assert_identical(spec, serial, vectorized):
    for a, b in zip(serial, vectorized):
        sa, sb = a.trace.stats, b.trace.stats
        assert (sa.sent, sa.delivered, sa.dropped, sa.timers_set,
                sa.timers_fired) == (sb.sent, sb.delivered, sb.dropped,
                                     sb.timers_set, sb.timers_fired)
        assert dict(sa.per_process_sent) == dict(sb.per_process_sent)
        assert a.start_times == b.start_times
        assert a.end_time == b.end_time
        assert a.trace.faulty_ids == b.trace.faulty_ids
        for pid in range(spec.params.n):
            assert _history_key(a.trace.correction_history(pid)) == \
                _history_key(b.trace.correction_history(pid))
        skew_a, skew_b = a.online("skew"), b.online("skew")
        assert (skew_a is None) == (skew_b is None)
        if skew_a is not None:
            assert skew_a.max_skew == skew_b.max_skew
            assert skew_a.samples == skew_b.samples
            assert skew_a._points == skew_b._points
        val_a, val_b = a.online("validity"), b.online("validity")
        assert (val_a is None) == (val_b is None)
        if val_a is not None:
            assert val_a.violations == val_b.violations
            assert val_a.samples == val_b.samples
            ra, rb = val_a.report(), val_b.report()
            assert (ra.min_rate, ra.max_rate, ra.samples, ra.violations) == \
                (rb.min_rate, rb.max_rate, rb.samples, rb.violations)
            assert val_a._captures == val_b._captures


class TestVectorizedParity:
    @SLOW
    @given(case=vector_specs())
    def test_batch_is_bit_identical_to_serial(self, backend, case):
        """execute_batch == [execute(s) for s] on every observable surface."""
        spec, seeds = case
        assert decline_reason(spec) == (None if backend == "numpy"
                                        else "numpy is off")
        serial = [execute(spec.with_seed(s), engine="serial") for s in seeds]
        vectorized = execute_batch([spec.with_seed(s) for s in seeds])
        _assert_identical(spec, serial, vectorized)

    @SLOW
    @given(case=vector_specs())
    def test_engine_availability_tracks_backend(self, backend, case):
        """The engine is live exactly when the numpy backend is active."""
        spec, _ = case
        assert (decline_reason(spec) is None) == (backend == "numpy")

    def test_larger_batch_smoke(self, backend):
        """One deterministic n=13, S=16 case beyond hypothesis' sizes."""
        params = default_parameters(n=13, f=4)
        spec = RunSpec.maintenance(params, rounds=5, fault_kind="two_faced",
                                   record_trace=False,
                                   observers=("skew", "validity"))
        seeds = list(range(16))
        serial = [execute(spec.with_seed(s), engine="serial") for s in seeds]
        vectorized = execute_batch([spec.with_seed(s) for s in seeds])
        _assert_identical(spec, serial, vectorized)
