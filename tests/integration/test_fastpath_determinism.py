"""The fast path is bit-identical to the seed execution and metrics path.

Two guarantees are pinned here:

1. **Simulator**: the batched sends (one ``DelayModel.draws`` call and one
   ``EventQueue.push_send`` per send) and the lean ``System.run_until`` loop consume the
   RNG in exactly the seed order and produce identical executions.
   ``SeedPathSystem`` reconstructs the original shape — one
   ``DelayModel.delay`` call and one Message object through ``push``/``pop``
   per copy at every send entry point, per-call ``_dispatch``, deep-copied
   snapshot traces — and a seeded scenario run on both must agree on every
   adjustment, every local time, every message counter and the final buffer.
   The scenarios cover the fault wrappers, send observers, topology relays,
   a snapshot/restore split and a mid-run ``replace_process``.

2. **Metrics**: the indexed/vectorized reconstruction equals the frozen seed
   implementations (``tests/slowpath.py``) on the traces the real
   algorithms produce, faults and drops included.
"""

import pytest

from repro.adversary.delays import build_adversarial_delay_model
from repro.analysis import default_parameters, run_maintenance_scenario
from repro.analysis.experiments import make_fault_process
from repro.analysis.metrics import measured_agreement, sample_grid
from repro.clocks import make_clock_ensemble
from repro.core.maintenance import WelchLynchProcess
from repro.faults.byzantine import TwoFacedClockAttacker
from repro.faults.recovery import schedule_recovery
from repro.sim import ExecutionTrace, Message, System, UniformDelayModel
from repro.sim.events import MessageKind
from repro.sim.network import (
    ContentionDelayModel,
    FixedDelayModel,
    TruncatedGaussianDelayModel,
)
from repro.sim.recording import NetworkRecorder
from repro.topology.generators import ring

import slowpath


class SeedPathSystem(System):
    """A System whose run loop and sends are the seed implementation."""

    def run_until(self, end_time, max_events=2_000_000):
        processed = 0
        while self._queue:
            next_time = self._queue.peek_time()
            if next_time is None or next_time > end_time:
                break
            message = self._queue.pop()
            self._current_time = message.delivery_time
            self._dispatch(message)
            processed += 1
            if processed > max_events:
                raise RuntimeError("divergent")
        self._current_time = max(self._current_time, end_time)
        return self.trace()

    def trace(self):
        # The seed's deep-copied snapshot (copy=True) rather than the shared view.
        return ExecutionTrace(
            clocks=self._clocks,
            histories=self._histories,
            faulty_ids=self.faulty_ids(),
            events=super().trace().events,
            stats=self._stats,
            end_time=self._current_time,
            copy=True,
        )

    # Seed shape at every send entry point: one post_message call stack per
    # recipient, each drawing through DelayModel.delay.
    def broadcast_from(self, sender, payload):
        for recipient in range(self.n):
            self.post_message(sender, recipient, payload)

    def send_divergent(self, sender, payloads):
        for recipient, payload in payloads.items():
            self.post_message(sender, recipient, payload)

    def post_message(self, sender, recipient, payload):
        # Wrap in a Message and push it (exercises push()/pop()).
        if recipient not in self._processes:
            raise KeyError(f"unknown recipient {recipient}")
        self._stats.record_send(sender)
        now = self._current_time
        if self._router is None or sender == recipient:
            delay = self._delay_model.delay(sender, recipient, now, self._rng)
            delivery_time = None if delay is None else now + delay
        else:
            delivery_time = self._relay_delivery_time(sender, recipient)
        for sink in self._send_sinks:
            sink(sender, recipient, now, delivery_time)
        if delivery_time is None:
            self._stats.dropped += 1
            return
        self._queue.push(Message(kind=MessageKind.ORDINARY, sender=sender,
                                 recipient=recipient, payload=payload,
                                 send_time=now, delivery_time=delivery_time))


def _build(system_cls, params, rounds, delay_model, seed, fault=None,
           **system_options):
    """Correct processes, one optional fault process, and f−1 or f attackers."""
    correct = params.n - params.f
    processes = [WelchLynchProcess(params, max_rounds=rounds)
                 for _ in range(correct)]
    if fault is not None:
        processes.append(make_fault_process(fault, params, rounds, seed=seed))
    processes += [TwoFacedClockAttacker(params, max_rounds=rounds + 2)
                  for _ in range(params.n - len(processes))]
    clocks = make_clock_ensemble(params.n, rho=params.rho, beta=params.beta,
                                 seed=seed, kind="constant")
    system = system_cls(processes, clocks, delay_model=delay_model, seed=seed,
                        **system_options)
    system.schedule_all_starts_at_logical(params.initial_round_time)
    return system


def _assert_same_run(old, new, old_trace, new_trace, params, end):
    # Identical adjustments (RNG consumption and event ordering unchanged).
    for pid in range(params.n):
        assert new_trace.adjustments(pid) == old_trace.adjustments(pid)
        assert (new_trace.correction_history(pid).events
                == old_trace.correction_history(pid).events)

    # Identical local times over a dense grid.
    grid = sample_grid(0.0, end, 257)
    for pid in range(params.n):
        for t in grid[::16]:
            assert new_trace.local_time(pid, t) == old_trace.local_time(pid, t)
    assert new_trace.skew_series(grid) == old_trace.skew_series(grid)

    # Identical message statistics (Counter == dict compares by content).
    old_stats, new_stats = old_trace.stats, new_trace.stats
    assert new_stats.as_dict() == old_stats.as_dict()
    assert dict(new_stats.per_process_sent) == dict(old_stats.per_process_sent)

    # Identical event logs.
    assert [(e.real_time, e.process_id, e.name, e.data)
            for e in new_trace.events] == \
           [(e.real_time, e.process_id, e.name, e.data)
            for e in old_trace.events]

    # Identical interrupt counts and the same undelivered buffer, entry for
    # entry (so the same heap pushes in the same order).
    assert new.events_dispatched == old.events_dispatched
    assert new._queue.delivered_count == old._queue.delivered_count
    assert new._queue._heap == old._queue._heap
    assert new._queue._count == old._queue._count


@pytest.mark.parametrize("delay_factory", [
    lambda p: UniformDelayModel(p.delta, p.epsilon),
    # Drops + queue-state-dependent delays: stresses RNG consumption order.
    lambda p: ContentionDelayModel(p.delta, p.epsilon, window=0.004,
                                   threshold=2, drop_probability=0.3),
    lambda p: FixedDelayModel(p.delta),
    lambda p: TruncatedGaussianDelayModel(p.delta, p.epsilon),
    # Reads each send's time: a batched draw must pass the send time along.
    lambda p: build_adversarial_delay_model("round_aware", p),
], ids=["uniform", "contention-with-drops", "fixed", "gaussian",
        "round-aware"])
def test_fast_loop_matches_seed_loop(delay_factory):
    params = default_parameters(n=7, f=2)
    rounds = 6
    end = params.initial_round_time + (rounds + 1) * params.round_length

    old = _build(SeedPathSystem, params, rounds, delay_factory(params), seed=11)
    new = _build(System, params, rounds, delay_factory(params), seed=11)
    old_trace = old.run_until(end)
    new_trace = new.run_until(end)
    _assert_same_run(old, new, old_trace, new_trace, params, end)


def _run_split(system, params, mid, end, at_mid):
    system.run_until(mid)
    at_mid(system, params, mid)
    return system.run_until(end)


def _snapshot_restore(system, params, mid):
    if not isinstance(system, SeedPathSystem):
        system.restore(system.snapshot())


def _replace_mid_run(system, params, mid):
    # The last correct process restarts as a reintegrating one.
    schedule_recovery(system, params.n - params.f - 1,
                      mid + params.round_length / 3.0, params)


def _nothing(system, params, mid):
    pass


@pytest.mark.parametrize("fault, options, at_mid", [
    ("crash", dict, _nothing),
    # InterceptedContext filters every send of the wrapped process.
    ("omission", dict, _nothing),
    # A send observer takes the per-recipient path.
    (None, lambda: {"observers": [NetworkRecorder()]}, _nothing),
    (None, lambda: {"topology": ring(7)}, _nothing),
    (None, dict, _snapshot_restore),
    (None, dict, _replace_mid_run),
], ids=["crash", "omission", "send-observer", "topology", "snapshot-restore",
        "replace-process"])
def test_fast_loop_matches_seed_loop_in_scenario(fault, options, at_mid):
    params = default_parameters(n=7, f=2)
    rounds = 6
    mid = params.initial_round_time + 3.5 * params.round_length
    end = params.initial_round_time + (rounds + 1) * params.round_length
    old, new = (_build(system_cls, params, rounds,
                       UniformDelayModel(params.delta, params.epsilon),
                       seed=11, fault=fault, **options())
                for system_cls in (SeedPathSystem, System))
    old_trace = _run_split(old, params, mid, end, at_mid)
    new_trace = _run_split(new, params, mid, end, at_mid)
    _assert_same_run(old, new, old_trace, new_trace, params, end)
    old_records, new_records = ([o.records for o in system.observers
                                 if isinstance(o, NetworkRecorder)]
                                for system in (old, new))
    assert new_records == old_records


def test_fast_metrics_match_seed_on_real_trace():
    params = default_parameters(n=7, f=2)
    system = _build(System, params, 6,
                    UniformDelayModel(params.delta, params.epsilon), seed=4)
    end = params.initial_round_time + 7 * params.round_length
    trace = system.run_until(end)
    grid = sample_grid(params.initial_round_time, end, 211)
    assert trace.skew_series(grid) == slowpath.seed_skew_series(trace, grid)
    assert trace.max_skew(grid) == slowpath.seed_max_skew(trace, grid)
    for t in grid[::10]:
        assert trace.local_times(t) == slowpath.seed_local_times(trace, t)


@pytest.mark.parametrize("n", [10, 50, 200])
def test_measured_agreement_matches_seed_at_scale(n):
    result = run_maintenance_scenario(default_parameters(n=n, f=2), rounds=8,
                                      fault_kind="silent", seed=1)
    start = result.tmax0 + result.params.round_length
    assert (measured_agreement(result.trace, start, result.end_time,
                               samples=200)
            == slowpath.seed_measured_agreement(result.trace, start,
                                                result.end_time, samples=200))


def test_shared_view_trace_tracks_continued_run():
    """run_until -> trace is a shared view; driving the system further is
    reflected, and the lazily indexed queries stay correct."""
    params = default_parameters(n=5, f=1)
    system = _build(System, params, 8,
                    UniformDelayModel(params.delta, params.epsilon), seed=2)
    mid = params.initial_round_time + 2 * params.round_length
    end = params.initial_round_time + 6 * params.round_length
    trace = system.run_until(mid)
    events_before = len(trace.events)
    adjustments_before = len(trace.adjustments(0))
    trace.max_skew(sample_grid(0.0, mid, 50))  # build the index early
    system.run_until(end)
    assert len(trace.events) > events_before
    assert len(trace.adjustments(0)) > adjustments_before
    # Index must refresh for the grown histories.
    grid = sample_grid(0.0, end, 101)
    assert trace.skew_series(grid) == slowpath.seed_skew_series(trace, grid)
    assert trace.events_named("broadcast")  # name index refreshes too
