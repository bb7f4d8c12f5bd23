"""Hypothesis guards for the shifting transform (the lower-bound argument).

The properties the paper's proof rests on, checked mechanically over
synthetic executions on *both* TraceIndex backends (numpy vectorized and the
pure-python fallback — the same toggle ``REPRO_NO_NUMPY`` flips):

* a shifted execution is admissible iff the shifts respect the ε-envelope
  (every retimed delay stays in ``[δ−ε, δ+ε]``);
* logical clocks transform by *exactly* the shift:
  ``L'_p(t + s_p) == L_p(t)`` bit for bit, corrections included;
* ``shift ∘ unshift`` is the identity on traces — not approximately, but
  structurally: the composed transform returns the identical base trace
  object;
* the shifted trace keeps the batch/per-sample bit-identity contract of the
  reconstruction index.

All times and shifts are drawn as dyadic rationals (multiples of 2⁻¹⁰ in a
narrow range), so every addition and subtraction in both the transform and
the property is exact in IEEE-754 and the equalities below are legitimately
``==``, not almost-equal.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.adversary.shifting import (
    check_shift_admissible,
    indistinguishability_report,
    shift_execution,
    shift_history,
)
from repro.clocks import ConstantRateClock, CorrectionHistory, rho_rate_bounds
from repro.sim import ExecutionTrace, MessageStats
from repro.sim import traceindex
from repro.sim.recording import MessageRecord
from repro.sim.trace import TraceEvent

import slowpath

RHO = 1e-4

#: dyadic rationals: multiples of 2^-10 — sums/differences in these ranges
#: are exact in binary floating point.
SCALE = 1024.0
dyadic_small = st.integers(min_value=-1024, max_value=1024).map(
    lambda k: k / SCALE)                                    # [-1, 1]
dyadic_time = st.integers(min_value=0, max_value=64 * 1024).map(
    lambda k: k / SCALE)                                    # [0, 64]
dyadic_shift = st.integers(min_value=-2048, max_value=2048).map(
    lambda k: k / SCALE)                                    # [-2, 2]


@pytest.fixture(params=["numpy", "python"])
def backend(request):
    """Run each property on both backends (the REPRO_NO_NUMPY toggle)."""
    if request.param == "numpy" and not traceindex.numpy_available():
        pytest.skip("numpy not installed")
    previous = traceindex.numpy_enabled()
    traceindex.use_numpy(request.param == "numpy")
    yield request.param
    traceindex.use_numpy(previous)


@st.composite
def traces(draw):
    """Synthetic executions with dyadic breakpoint/event times."""
    n = draw(st.integers(min_value=2, max_value=5))
    lo, hi = rho_rate_bounds(RHO)
    clocks = {}
    histories = {}
    events = []
    for pid in range(n):
        clocks[pid] = ConstantRateClock(
            offset=draw(dyadic_small),
            rate=draw(st.floats(min_value=lo, max_value=hi)), rho=RHO)
        history = CorrectionHistory(draw(dyadic_small))
        times = sorted(draw(st.lists(dyadic_time, max_size=5, unique=True)))
        for index, t in enumerate(times):
            history.apply(t, draw(dyadic_small), index)
        histories[pid] = history
        for t in draw(st.lists(dyadic_time, max_size=3)):
            events.append(TraceEvent(real_time=t, process_id=pid,
                                     name="tick", data={"pid": pid}))
    events.sort(key=lambda event: event.real_time)
    return ExecutionTrace(clocks=clocks, histories=histories, faulty_ids=(),
                          events=events, stats=MessageStats(), end_time=64.0)


def shifts_for(trace, draw_fn):
    return {pid: draw_fn() for pid in trace.nonfaulty_ids}


# ---------------------------------------------------------------------------
# shift ∘ unshift is the identity on traces
# ---------------------------------------------------------------------------

@given(trace=traces(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_shift_unshift_is_the_identity(trace, data):
    vector = {pid: data.draw(dyadic_shift, label=f"s{pid}")
              for pid in trace.nonfaulty_ids}
    shifted = shift_execution(trace, vector)
    back = shift_execution(shifted, {pid: -s for pid, s in vector.items()})
    assert back.trace is trace          # structural identity, no fp residue
    assert back.is_identity
    assert shifted.unshift().trace is trace


@given(trace=traces())
@settings(max_examples=20, deadline=None)
def test_zero_shift_is_the_identity(trace):
    identity = shift_execution(trace, {pid: 0.0
                                       for pid in trace.nonfaulty_ids})
    assert identity.trace is trace
    assert identity.is_identity and identity.spread == 0.0


# ---------------------------------------------------------------------------
# logical clocks transform by exactly the shift
# ---------------------------------------------------------------------------

@given(trace=traces(), data=st.data())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_local_times_transform_by_exactly_the_shift(backend, trace, data):
    vector = {pid: data.draw(dyadic_shift, label=f"s{pid}")
              for pid in trace.nonfaulty_ids}
    shifted = shift_execution(trace, vector).trace
    queries = data.draw(st.lists(dyadic_time, min_size=1, max_size=10),
                        label="queries")
    for pid in trace.nonfaulty_ids:
        offset = vector[pid]
        for t in queries:
            assert shifted.local_time(pid, t + offset) \
                == trace.local_time(pid, t)


@given(initial=dyadic_small, bound=st.integers(min_value=2, max_value=5),
       shift=dyadic_shift, data=st.data())
@settings(max_examples=40, deadline=None)
def test_trimmed_history_shifts_with_its_horizon(initial, bound, shift, data):
    """A bounded history that trimmed keeps its horizon CORR when shifted:
    ``CORR'(t + s) == CORR(t)`` at every retained breakpoint and before."""
    adjustments = data.draw(st.lists(dyadic_small, min_size=bound + 1,
                                     max_size=12), label="adjustments")
    history = CorrectionHistory(initial, max_entries=bound)
    for index, adjustment in enumerate(adjustments):
        history.apply(1.0 + index, adjustment, index)
    shifted = shift_history(history, shift)
    retained = list(history.times[1:])
    for t in [retained[0] - 1.0] + retained:
        assert shifted.correction_at(t + shift) == history.correction_at(t)
    assert list(shifted.corrections) == list(history.corrections)
    assert shifted.adjustments == history.adjustments
    assert [e.round_index for e in shifted.events] \
        == [e.round_index for e in history.events]
    assert (shifted.initial_correction, shifted.max_entries) \
        == (initial, bound)


@given(trace=traces(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_corrections_and_events_move_in_lockstep(trace, data):
    vector = {pid: data.draw(dyadic_shift, label=f"s{pid}")
              for pid in trace.nonfaulty_ids}
    shifted_exec = shift_execution(trace, vector)
    shifted = shifted_exec.trace
    for pid in trace.nonfaulty_ids:
        # Adjustment *values* are untouched — only their times move.
        assert shifted.adjustments(pid) == trace.adjustments(pid)
        base_times = [t for t in trace.correction_history(pid).times
                      if t != float("-inf")]
        new_times = [t for t in shifted.correction_history(pid).times
                     if t != float("-inf")]
        assert new_times == [t + vector[pid] for t in base_times]
    report = indistinguishability_report(shifted_exec)
    assert report.indistinguishable
    # Probe times at breakpoints are dyadic (exact); the evenly spaced ones
    # are not, so allow the last-ulp wobble of (t + s) − s there.
    assert report.max_clock_deviation < 1e-12


# ---------------------------------------------------------------------------
# admissibility iff the shifts respect the ε-envelope
# ---------------------------------------------------------------------------

@given(n=st.integers(min_value=2, max_value=6),
       epsilon=st.sampled_from([0.125, 0.25, 0.5]),
       data=st.data())
@settings(max_examples=80, deadline=None)
def test_admissible_iff_shifts_respect_the_envelope(n, epsilon, data):
    delta = 1.0
    records = [MessageRecord(sender=p, recipient=q, send_time=0.5,
                             delay=delta)
               for p in range(n) for q in range(n) if p != q]
    vector = {pid: data.draw(dyadic_small, label=f"s{pid}")
              for pid in range(n)}
    audit = check_shift_admissible(records, vector, delta, epsilon,
                                   tolerance=0.0)
    # With every base delay exactly δ, messages run both ways between every
    # pair, so admissibility is exactly "no two shifts differ by more than ε".
    spread = max(vector.values()) - min(vector.values())
    assert audit.admissible == (spread <= epsilon)
    assert audit.messages_checked == n * (n - 1)
    if audit.admissible:
        assert audit.violations == 0 and audit.examples == ()
    else:
        assert audit.violations > 0 and audit.examples


def test_truncated_sequence_shift_vector_is_rejected():
    """A sequence that misses a recorded process must not zero-fill."""
    records = [MessageRecord(sender=0, recipient=2, send_time=0.0,
                             delay=0.01)]
    with pytest.raises(ValueError, match="one entry per process"):
        check_shift_admissible(records, [0.0, 0.003], 0.01, 0.002)


@given(n=st.integers(min_value=2, max_value=5), data=st.data())
@settings(max_examples=30, deadline=None)
def test_dropped_messages_are_unconstrained(n, data):
    records = [MessageRecord(sender=p, recipient=q, send_time=0.0, delay=None)
               for p in range(n) for q in range(n) if p != q]
    vector = {pid: data.draw(dyadic_shift, label=f"s{pid}")
              for pid in range(n)}
    audit = check_shift_admissible(records, vector, 1.0, 0.125)
    assert audit.admissible and audit.messages_checked == 0


# ---------------------------------------------------------------------------
# the shifted trace keeps the fast-path bit-identity contract
# ---------------------------------------------------------------------------

@given(trace=traces(), data=st.data())
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_shifted_trace_matches_seed_reconstruction(backend, trace, data):
    vector = {pid: data.draw(dyadic_shift, label=f"s{pid}")
              for pid in trace.nonfaulty_ids}
    shifted = shift_execution(trace, vector).trace
    grid = sorted(data.draw(st.lists(dyadic_time, max_size=20),
                            label="grid"))
    assert shifted.skew_series(grid) == slowpath.seed_skew_series(shifted,
                                                                  grid)
    for t in grid[:5]:
        assert shifted.local_times(t) == slowpath.seed_local_times(shifted, t)
