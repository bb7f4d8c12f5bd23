"""Hypothesis guards for the fast path's bit-identical guarantee.

The indexed/vectorized reconstruction (``repro.sim.traceindex`` and the
grid queries of ``repro.analysis.metrics``) must return exactly the floats
the seed implementation (frozen in ``tests/slowpath.py``) returns, for every
history shape, drift model, and grid — and the tuple-based event queue must
preserve execution property 4 (TIMER messages deliver after non-TIMER
messages at the same real time) with deterministic FIFO tie-breaking.  The
serial loop's batched delay draws and its one-sort midpoint must equal the
per-message ``rng.uniform`` calls and the ``Multiset`` pipeline they replace.
"""

import math
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.metrics import (
    measured_agreement,
    per_partition_agreement,
    sample_grid,
    validity_report,
)
from repro.clocks import (
    ConstantRateClock,
    CorrectionHistory,
    PerfectClock,
    PiecewiseLinearClock,
    rho_rate_bounds,
)
from repro.core import SyncParameters
from repro.multiset.operations import Multiset, fault_tolerant_midpoint
from repro.sim import EventQueue, ExecutionTrace, Message, MessageKind, MessageStats
from repro.sim import UniformDelayModel
from repro.sim import traceindex

import slowpath

RHO = 1e-4
PARAMS = SyncParameters.derive(n=4, f=1, rho=RHO, delta=0.01, epsilon=0.002)


@pytest.fixture(params=["numpy", "python"])
def backend(request):
    """Run each property on both the numpy and the pure-python backend."""
    if request.param == "numpy" and not traceindex.numpy_available():
        pytest.skip("numpy not installed")
    previous = traceindex.numpy_enabled()
    traceindex.use_numpy(request.param == "numpy")
    yield request.param
    traceindex.use_numpy(previous)


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False,
                   allow_infinity=False)
small = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False,
                  allow_infinity=False)


@st.composite
def histories(draw):
    history = CorrectionHistory(draw(small))
    times = sorted(draw(st.lists(st.floats(min_value=0.0, max_value=100.0,
                                           allow_nan=False), max_size=8)))
    for index, t in enumerate(times):
        history.apply(t, draw(small), index)
    return history


@st.composite
def clocks(draw):
    kind = draw(st.sampled_from(["perfect", "constant", "piecewise"]))
    if kind == "perfect":
        return PerfectClock(offset=draw(small))
    lo, hi = rho_rate_bounds(RHO)
    if kind == "constant":
        return ConstantRateClock(offset=draw(small),
                                 rate=draw(st.floats(min_value=lo, max_value=hi)),
                                 rho=RHO)
    count = draw(st.integers(min_value=1, max_value=3))
    breakpoints = sorted(draw(st.sets(
        st.floats(min_value=1.0, max_value=90.0, allow_nan=False),
        min_size=count, max_size=count)))
    rates = [draw(st.floats(min_value=lo, max_value=hi))
             for _ in range(count + 1)]
    return PiecewiseLinearClock(offset=draw(small), rates=rates,
                                breakpoints=breakpoints, rho=RHO)


@st.composite
def traces(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    clock_map = {pid: draw(clocks()) for pid in range(n)}
    history_map = {pid: draw(histories()) for pid in range(n)}
    faulty = draw(st.sets(st.integers(min_value=0, max_value=n - 1), max_size=n))
    return ExecutionTrace(clocks=clock_map, histories=history_map,
                          faulty_ids=faulty, events=[], stats=MessageStats(),
                          end_time=100.0)


grids = st.lists(st.floats(min_value=-10.0, max_value=110.0, allow_nan=False),
                 max_size=30)


@st.composite
def windows(draw):
    """(start, end, samples) for the sampled-grid metrics."""
    start = draw(st.floats(min_value=-10.0, max_value=100.0, allow_nan=False))
    span = draw(st.floats(min_value=0.5, max_value=60.0, allow_nan=False))
    return start, start + span, draw(st.integers(min_value=2, max_value=40))


# ---------------------------------------------------------------------------
# Fast path == seed path
# ---------------------------------------------------------------------------

@given(history=histories(), queries=grids)
def test_correction_at_matches_seed(history, queries):
    for t in queries:
        assert history.correction_at(t) == slowpath.seed_correction_at(history, t)


def test_dense_correction_lookups_match_seed_on_a_long_history():
    history = CorrectionHistory(0.0)
    for index in range(256):
        history.apply(0.25 * (index + 1), ((index % 7) - 3) * 1e-4, index)
    grid = sample_grid(0.0, 70.0, 2000)
    assert ([history.correction_at(t) for t in grid]
            == [slowpath.seed_correction_at(history, t) for t in grid])


@given(trace=traces(), grid=grids)
@settings(max_examples=60,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_local_times_match_seed(backend, trace, grid):
    for t in grid:
        assert trace.local_times(t) == slowpath.seed_local_times(trace, t)
        assert (trace.local_times(t, include_faulty=True)
                == slowpath.seed_local_times(trace, t, include_faulty=True))


@given(trace=traces(), grid=grids)
@settings(max_examples=60,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_skew_series_matches_seed_on_sorted_grid(backend, trace, grid):
    grid = sorted(grid)
    assert trace.skew_series(grid) == slowpath.seed_skew_series(trace, grid)
    assert trace.max_skew(grid) == slowpath.seed_max_skew(trace, grid)


@given(trace=traces(), grid=grids)
@settings(max_examples=60,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_skew_series_matches_seed_on_unsorted_grid(backend, trace, grid):
    # Unsorted grids take the per-point bisect branch; same floats required.
    assert trace.skew_series(grid) == slowpath.seed_skew_series(trace, grid)
    assert trace.max_skew(grid) == slowpath.seed_max_skew(trace, grid)


@given(trace=traces(), grid=grids)
@settings(max_examples=40,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_index_survives_history_growth(backend, trace, grid):
    """Appending a correction after index build must invalidate it."""
    grid = sorted(grid)
    trace.max_skew(grid)  # force the index to exist
    trace.correction_history(0).apply(200.0, 0.25, 99)
    assert trace.skew_series(grid) == slowpath.seed_skew_series(trace, grid)
    assert trace.local_times(250.0) == slowpath.seed_local_times(trace, 250.0)


@given(trace=traces(), window=windows())
@settings(max_examples=60,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_measured_agreement_matches_seed(backend, trace, window):
    start, end, samples = window
    assert (measured_agreement(trace, start, end, samples=samples)
            == slowpath.seed_measured_agreement(trace, start, end,
                                                samples=samples))


@given(trace=traces(), window=windows(),
       tmin0=st.floats(min_value=0.0, max_value=1.0),
       start_spread=st.floats(min_value=0.0, max_value=0.5))
@settings(max_examples=60,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_validity_report_matches_seed(backend, trace, window, tmin0,
                                      start_spread):
    start, end, samples = window
    tmax0 = tmin0 + start_spread
    assert (validity_report(trace, PARAMS, tmin0, tmax0, start, end,
                            samples=samples)
            == slowpath.seed_validity_report(trace, PARAMS, tmin0, tmax0,
                                             start, end, samples=samples))


@given(trace=traces(), window=windows(), cut=st.integers(min_value=0, max_value=5))
@settings(max_examples=60,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_per_partition_agreement_matches_seed(backend, trace, window, cut):
    start, end, samples = window
    pids = sorted(set(trace.nonfaulty_ids) | set(trace.faulty_ids))
    groups = [pids[:cut], pids[cut:]]
    assert (per_partition_agreement(trace, groups, start, end, samples=samples)
            == slowpath.seed_per_partition_agreement(trace, groups, start, end,
                                                     samples=samples))


# ---------------------------------------------------------------------------
# Event-queue ordering (execution property 4)
# ---------------------------------------------------------------------------

message_specs = st.lists(
    st.tuples(st.sampled_from(list(MessageKind)),
              st.integers(min_value=0, max_value=3)),
    max_size=40)


@given(specs=message_specs, raw=st.booleans())
def test_event_queue_tuple_ordering_preserves_property4(specs, raw):
    """Pop order == stable sort by (delivery time, TIMER-last), regardless of
    whether events enter as Message objects or raw field tuples."""
    queue = EventQueue()
    for index, (kind, slot) in enumerate(specs):
        if raw:
            queue.push_fields(kind, 0, 0, index, 0.0, float(slot))
        else:
            queue.push(Message(kind=kind, sender=0, recipient=0, payload=index,
                               send_time=0.0, delivery_time=float(slot)))
    expected = [index for index, (kind, slot) in sorted(
        enumerate(specs),
        key=lambda item: (item[1][1], item[1][0] is MessageKind.TIMER, item[0]))]
    popped = [queue.pop().payload for _ in specs]
    assert popped == expected
    assert queue.delivered_count == len(specs)


# ---------------------------------------------------------------------------
# Batched delay draws and the one-sort midpoint
# ---------------------------------------------------------------------------

@st.composite
def envelopes(draw):
    delta = draw(st.floats(min_value=1e-6, max_value=10.0))
    epsilon = draw(st.floats(min_value=0.0, max_value=delta,
                             exclude_max=True))
    return delta, epsilon


@given(envelope=envelopes(), seed=st.integers(min_value=0, max_value=2**32),
       count=st.integers(min_value=0, max_value=60),
       send_time=st.floats(min_value=0.0, max_value=1e6))
def test_uniform_draws_equal_repeated_uniform_calls(envelope, seed, count,
                                                    send_time):
    """One ``draws`` call is bit for bit ``count`` ``rng.uniform`` calls,
    and leaves the generator in the same state."""
    delta, epsilon = envelope
    model = UniformDelayModel(delta, epsilon)
    batched_rng, reference_rng = random.Random(seed), random.Random(seed)
    batched = model.draws(3, range(count), send_time, batched_rng)
    reference = [reference_rng.uniform(delta - epsilon, delta + epsilon)
                 for _ in range(count)]
    assert [value.hex() for value in batched] == \
        [value.hex() for value in reference]
    assert batched_rng.getstate() == reference_rng.getstate()


def _outcome(function, *args):
    """``('ok', bits)`` or ``('error', type, message)`` of one call."""
    try:
        value = function(*args)
    except Exception as err:  # compared, not swallowed
        return ("error", type(err), str(err))
    return ("ok", "nan" if math.isnan(value) else value.hex())


clock_values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=True, width=64),
    st.just(float("nan")),
    st.integers(min_value=-10**6, max_value=10**6))


@given(values=st.lists(clock_values, max_size=12),
       f=st.integers(min_value=-2, max_value=6))
def test_fault_tolerant_midpoint_matches_multiset(values, f):
    """Same value, or the same error (NaN, |U| < 2f+1, f < 0), as the
    paper-shaped ``Multiset(values).reduce(f).mid()``."""
    assert _outcome(fault_tolerant_midpoint, values, f) == \
        _outcome(lambda v, k: Multiset(v).reduce(k).mid(), values, f)
