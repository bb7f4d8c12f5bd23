"""Property-based determinism guards for the repro.runner execution layer.

The batch runner's core guarantee is that ``execute`` is a *pure function* of
the spec: the same :class:`~repro.runner.spec.RunSpec` yields bit-identical
traces no matter when or in which process it runs.  These tests generate specs
across the scenario/fault/delay/topology space and check

* re-executing a spec reproduces the exact trace event sequence and metrics;
* a 2-worker :class:`~repro.runner.batch.BatchRunner` matches serial
  execution bit for bit on a sampled batch of specs.
"""

from hypothesis import given, settings, strategies as st

from repro.analysis import default_parameters
from repro.analysis.metrics import measured_agreement
from repro.runner import BatchRunner, RunSpec, execute

PARAMS = default_parameters(n=7, f=2)

spec_strategy = st.builds(
    RunSpec.maintenance,
    params=st.just(PARAMS),
    rounds=st.integers(min_value=2, max_value=6),
    fault_kind=st.sampled_from([None, "silent", "two_faced", "skew_early",
                                "random_noise"]),
    clock_kind=st.sampled_from(["perfect", "constant"]),
    delay=st.sampled_from(["uniform", "fixed", "gaussian"]),
    topology=st.sampled_from([None, "ring", "star"]),
    seed=st.integers(min_value=0, max_value=2 ** 16),
)


def _fingerprint(result):
    """Everything that must be reproduced exactly: events and metrics."""
    agreement = measured_agreement(result.trace, result.tmax0, result.end_time,
                                   samples=50)
    adjustments = tuple(tuple(result.trace.adjustments(pid))
                        for pid in result.trace.nonfaulty_ids)
    return (result.trace.events, result.start_times, result.end_time,
            result.trace.stats.sent, result.trace.stats.delivered,
            agreement, adjustments)


class TestExecuteIsPure:
    @settings(max_examples=20, deadline=None)
    @given(spec_strategy)
    def test_re_execution_is_bit_identical(self, spec):
        assert _fingerprint(execute(spec)) == _fingerprint(execute(spec))


class TestParallelMatchesSerial:
    @settings(max_examples=4, deadline=None)
    @given(st.lists(spec_strategy, min_size=2, max_size=4, unique=True))
    def test_two_worker_batch_matches_serial(self, specs):
        serial = [execute(spec) for spec in specs]
        parallel = BatchRunner(jobs=2).run(specs)
        for spec, a, b in zip(specs, serial, parallel):
            assert b.spec == spec
            assert _fingerprint(a) == _fingerprint(b)
