"""Property-based tests for the simulator substrate.

The execution semantics of Section 2.3 must hold for *every* run, whatever
the delays, seeds and parameters; hypothesis drives the simulator across a
range of them and checks:

* determinism — the same seed reproduces exactly the same local times (the
  property every experiment in the repository relies on);
* the event-queue ordering rule (property 4: timers after ordinary messages
  at the same delivery time, FIFO otherwise);
* assumption A3 — every delivered message's delay stays inside the
  [δ−ε, δ+ε] envelope for the in-spec delay models, on real runs;
* the agreement bound itself on randomly drawn (seed, fault mix) workloads —
  a randomized miniature of the paper-claim tests.
"""

from hypothesis import given, settings, strategies as st

from repro.analysis import measured_agreement, run_maintenance_scenario
from repro.core import SyncParameters, agreement_bound
from repro.sim import (
    EventQueue,
    Message,
    MessageKind,
    RecordingDelayModel,
    UniformDelayModel,
    envelope_violations,
)

PARAMS = SyncParameters.derive(n=7, f=2, rho=1e-4, delta=0.01, epsilon=0.002)


class TestEventQueueProperties:
    @given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=100.0,
                                        allow_nan=False),
                              st.booleans()),
                    min_size=1, max_size=60))
    def test_pops_are_time_ordered_with_timers_last(self, entries):
        queue = EventQueue()
        for delivery_time, is_timer in entries:
            kind = MessageKind.TIMER if is_timer else MessageKind.ORDINARY
            queue.push(Message(kind=kind, sender=0, recipient=0, payload=None,
                               send_time=0.0, delivery_time=delivery_time))
        popped = []
        while queue:
            popped.append(queue.pop())
        times = [message.delivery_time for message in popped]
        assert times == sorted(times)
        # Property 4: at any given delivery time, no ordinary message follows a
        # timer.
        for first, second in zip(popped, popped[1:]):
            if first.delivery_time == second.delivery_time:
                assert not (first.is_timer() and not second.is_timer())

    @given(st.lists(st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
                    min_size=1, max_size=40))
    def test_same_time_ordinary_messages_stay_fifo(self, times):
        queue = EventQueue()
        for index, _ in enumerate(times):
            queue.push(Message(kind=MessageKind.ORDINARY, sender=index, recipient=0,
                               payload=index, send_time=0.0, delivery_time=1.0))
        payloads = [queue.pop().payload for _ in range(len(times))]
        assert payloads == sorted(payloads)


class TestRunProperties:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_runs_are_deterministic_given_the_seed(self, seed):
        first = run_maintenance_scenario(PARAMS, rounds=4, fault_kind="two_faced",
                                         seed=seed)
        second = run_maintenance_scenario(PARAMS, rounds=4, fault_kind="two_faced",
                                          seed=seed)
        probe_times = [first.tmax0 + i * 0.3 for i in range(6)]
        for t in probe_times:
            assert first.trace.local_times(t) == second.trace.local_times(t)
        assert first.trace.stats.sent == second.trace.stats.sent

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_every_delivered_delay_respects_assumption_a3(self, seed):
        recording = RecordingDelayModel(UniformDelayModel(PARAMS.delta,
                                                          PARAMS.epsilon))
        run_maintenance_scenario(PARAMS, rounds=3, fault_kind="two_faced",
                                 delay=recording, seed=seed)
        assert envelope_violations(recording.records, PARAMS.delta,
                                   PARAMS.epsilon) == []

    @settings(max_examples=8, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000),
           st.sampled_from(["silent", "two_faced", "skew_early", "skew_late",
                            "random_noise", "omission"]),
           st.sampled_from(["uniform", "fixed", "gaussian", "adversarial"]))
    def test_agreement_bound_holds_on_random_workloads(self, seed, fault_kind,
                                                       delay):
        result = run_maintenance_scenario(PARAMS, rounds=5, fault_kind=fault_kind,
                                          delay=delay, seed=seed)
        start = result.tmax0 + PARAMS.round_length
        skew = measured_agreement(result.trace, start, result.end_time, samples=60)
        assert skew <= agreement_bound(PARAMS)
