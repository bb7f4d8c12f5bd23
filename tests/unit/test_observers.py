"""Unit tests for the streaming observer pipeline (repro.sim.observers).

The pipeline's contract has three pillars:

* **bit-identity** — attaching observers (or detaching the default trace
  recorder) must not change the run: same RNG consumption, same corrections,
  same statistics;
* **exactly-once, in-order notification** — every dispatched interrupt, every
  correction, every end-to-end send is reported once, in real-time order;
* **bounded memory** — with ``record_trace=False`` nothing grows with the
  horizon except what observers choose to keep.
"""

import pickle

import pytest

from repro.analysis.experiments import (
    default_parameters,
    make_fault_process,
    run_maintenance_scenario,
)
from repro.clocks import PerfectClock
from repro.clocks.drift import make_clock_ensemble
from repro.core.maintenance import WelchLynchProcess
from repro.sim import (
    EventBudgetExceeded,
    FixedDelayModel,
    Observer,
    ObserverError,
    Process,
    System,
    TraceEvent,
    TraceRecorder,
    UniformDelayModel,
)


class Chatter(Process):
    """Broadcasts at start, acks one message, arms one timer."""

    def on_start(self, ctx):
        ctx.broadcast("hello")
        ctx.set_timer_physical(ctx.physical_time() + 0.5, "tick")
        ctx.log("started")

    def on_message(self, ctx, sender, payload):
        if payload == "hello" and sender != ctx.process_id:
            ctx.send(sender, "ack")

    def on_timer(self, ctx, payload=None):
        ctx.adjust_correction(0.001, round_index=0)
        ctx.log("ticked", payload=payload)


class CountingObserver(Observer):
    """Overrides every hook and counts invocations."""

    name = "counting"

    def __init__(self):
        self.dispatches = []
        self.sends = []
        self.logs = []
        self.corrections = []
        self.advances = []
        self.finalized = 0

    def on_dispatch(self, kind, sender, recipient, payload, send_time, time):
        self.dispatches.append((time, kind, sender, recipient))

    def on_send(self, sender, recipient, send_time, delivery_time):
        self.sends.append((send_time, sender, recipient, delivery_time))

    def on_log(self, pid, real_time, name, data):
        self.logs.append(TraceEvent(real_time, pid, name, data))

    def on_correction(self, pid, real_time, adjustment, new_correction,
                      round_index):
        self.corrections.append((real_time, pid, adjustment, new_correction))

    def on_advance(self, time):
        self.advances.append(time)

    def on_finalize(self):
        self.finalized += 1


class CorrectionOnly(Observer):
    name = "corrections"

    def __init__(self):
        self.seen = []

    def on_correction(self, pid, real_time, adjustment, new_correction,
                      round_index):
        self.seen.append((real_time, pid))


def _small_system(observers=None, record_trace=True, n=3, seed=7):
    processes = [Chatter() for _ in range(n)]
    clocks = [PerfectClock(offset=0.0) for _ in range(n)]
    system = System(processes, clocks,
                    delay_model=UniformDelayModel(0.01, 0.002), seed=seed,
                    observers=observers, record_trace=record_trace)
    for pid in range(n):
        system.schedule_start(pid, 0.0)
    return system


class TestSubscription:
    def test_base_observer_subscribes_to_nothing(self):
        observer = Observer()
        assert not any(observer.subscribed(hook) for hook in
                       ("on_dispatch", "on_send", "on_log", "on_correction",
                        "on_advance"))

    def test_overriding_subscribes(self):
        observer = CorrectionOnly()
        assert observer.subscribed("on_correction")
        assert not observer.subscribed("on_dispatch")

    def test_trace_recorder_is_default_observer(self):
        system = _small_system()
        assert any(isinstance(obs, TraceRecorder)
                   for obs in system.observers)
        assert system.record_trace

    def test_no_trace_drops_the_recorder(self):
        system = _small_system(record_trace=False)
        assert not any(isinstance(obs, TraceRecorder)
                       for obs in system.observers)
        assert not system.record_trace


class TestNotifications:
    def test_every_hook_fires(self):
        observer = CountingObserver()
        system = _small_system(observers=[observer])
        trace = system.run_until(2.0)
        system.finalize_observers()
        stats = trace.stats
        # Dispatches = STARTs + deliveries + timer firings.
        assert len(observer.dispatches) == \
            3 + stats.delivered + stats.timers_fired
        assert len(observer.sends) == stats.sent
        assert len(observer.logs) == len(trace.events)
        # One correction per process (in on_timer).
        assert len(observer.corrections) == 3
        assert observer.advances == [2.0]
        assert observer.finalized == 1

    def test_notifications_arrive_in_time_order(self):
        observer = CountingObserver()
        system = _small_system(observers=[observer])
        system.run_until(2.0)
        times = [entry[0] for entry in observer.dispatches]
        assert times == sorted(times)
        correction_times = [entry[0] for entry in observer.corrections]
        assert correction_times == sorted(correction_times)

    def test_log_events_identical_to_trace(self):
        observer = CountingObserver()
        system = _small_system(observers=[observer])
        trace = system.run_until(2.0)
        assert observer.logs == list(trace.events)

    def test_dropped_sends_report_none(self):
        class DropAll(FixedDelayModel):
            def delay(self, sender, recipient, send_time, rng):
                return None

        observer = CountingObserver()
        processes = [Chatter() for _ in range(2)]
        clocks = [PerfectClock(offset=0.0) for _ in range(2)]
        system = System(processes, clocks, delay_model=DropAll(0.01), seed=1,
                        observers=[observer])
        for pid in range(2):
            system.schedule_start(pid, 0.0)
        trace = system.run_until(1.0)
        assert trace.stats.dropped == trace.stats.sent > 0
        assert all(entry[3] is None for entry in observer.sends)

    def test_add_observer_mid_life(self):
        system = _small_system()
        observer = system.add_observer(CorrectionOnly())
        system.run_until(2.0)
        assert len(observer.seen) == 3

    def test_set_initial_correction_notifies(self):
        observer = CorrectionOnly()
        system = _small_system(observers=[observer])
        system.set_initial_correction(0, 0.25)
        assert observer.seen and observer.seen[0][1] == 0
        assert system.correction_history(0).initial_correction == 0.25


class TestBitIdentity:
    """Observers must be pure taps: no RNG draws, no behavioural change."""

    def _trace_fingerprint(self, trace, n):
        return (
            [(e.real_time, e.process_id, e.name,
              tuple(sorted(e.data.items()))) for e in trace.events],
            {pid: tuple(trace.correction_history(pid).corrections)
             for pid in range(n)},
            (trace.stats.sent, trace.stats.delivered, trace.stats.dropped,
             trace.stats.timers_set, trace.stats.timers_fired),
        )

    def test_attached_observer_changes_nothing(self, medium_params):
        plain = run_maintenance_scenario(medium_params, rounds=4, seed=9)
        observed = run_maintenance_scenario(
            medium_params, rounds=4, seed=9,
            observers=[CountingObserver()])
        n = medium_params.n
        assert self._trace_fingerprint(plain.trace, n) == \
            self._trace_fingerprint(observed.trace, n)

    def test_network_observer_changes_nothing(self, medium_params):
        # The send-sink path reroutes broadcast_from through post_message;
        # RNG draws and counters must still be byte-identical.
        plain = run_maintenance_scenario(medium_params, rounds=4, seed=9)
        observed = run_maintenance_scenario(
            medium_params, rounds=4, seed=9,
            observers=lambda system, starts, end, params: [
                CountingObserver()])
        n = medium_params.n
        assert self._trace_fingerprint(plain.trace, n) == \
            self._trace_fingerprint(observed.trace, n)

    def test_no_trace_same_corrections(self, medium_params):
        recorded = run_maintenance_scenario(medium_params, rounds=4, seed=9)
        streamed = run_maintenance_scenario(medium_params, rounds=4, seed=9,
                                            record_trace=False)
        for pid in range(medium_params.n):
            assert (streamed.trace.correction_history(pid).current()
                    == recorded.trace.correction_history(pid).current())
        assert streamed.trace.stats.sent == recorded.trace.stats.sent
        assert len(streamed.trace.events) == 0


class TestBoundedMemory:
    def test_histories_bounded_without_trace(self, medium_params):
        result = run_maintenance_scenario(medium_params, rounds=8, seed=2,
                                          record_trace=False)
        for pid in range(medium_params.n):
            history = result.trace.correction_history(pid)
            assert history.bounded
            assert len(history.times) <= 8

    def test_histories_unbounded_with_trace(self, medium_params):
        result = run_maintenance_scenario(medium_params, rounds=8, seed=2)
        nonfaulty = result.trace.nonfaulty_ids
        assert any(len(result.trace.correction_history(pid).times) > 8
                   for pid in nonfaulty)


def _exploding_observer(hook):
    """An observer whose ``hook`` method raises; counts how often it fired.

    Built as a real subclass with the hook as a method (the pipeline
    dispatches bound methods, which is also how it attributes failures).
    """

    def boom(self, *_args, **_kwargs):
        self.fired += 1
        raise ValueError("observer bug")

    cls = type("ExplodesObserver", (Observer,),
               {"name": "exploding", hook: boom,
                "__init__": lambda self: setattr(self, "fired", 0)})
    return cls()


class TestObserverFailure:
    """A raising observer surfaces a clear error and leaves the System sane."""

    @pytest.mark.parametrize("hook", ["on_dispatch", "on_send", "on_log",
                                      "on_correction", "on_advance"])
    def test_failure_names_hook_and_observer(self, hook):
        bad = _exploding_observer(hook)
        system = _small_system(observers=[bad])
        with pytest.raises(ObserverError) as excinfo:
            system.run_until(2.0)
        err = excinfo.value
        assert err.hook == hook
        assert err.observer is bad
        assert hook in str(err) and "ExplodesObserver" in str(err)
        assert isinstance(err.__cause__, ValueError)

    def test_finalize_failure_names_hook(self):
        bad = _exploding_observer("on_finalize")
        system = _small_system(observers=[bad])
        system.run_until(2.0)
        with pytest.raises(ObserverError) as excinfo:
            system.finalize_observers()
        assert excinfo.value.hook == "on_finalize"
        assert excinfo.value.observer is bad

    def test_dispatch_failure_keeps_counters_consistent(self):
        # The interrupt being reported was fully processed before the tap
        # blew up, so the dispatch counter must include it.
        good = CountingObserver()
        bad = _exploding_observer("on_dispatch")
        system = _small_system(observers=[good, bad])
        with pytest.raises(ObserverError):
            system.run_until(2.0)
        assert bad.fired == 1
        assert system.events_dispatched == len(good.dispatches)

    def test_remove_observer_recovers_the_run(self):
        bad = _exploding_observer("on_correction")
        system = _small_system(observers=[bad])
        with pytest.raises(ObserverError):
            system.run_until(2.0)
        system.remove_observer(bad)
        trace = system.run_until(2.0)  # resumes from where it stopped
        assert trace.stats.timers_fired == 3
        history = system.correction_history(0)
        assert history.current() != 0.0

    def test_failed_run_matches_clean_prefix(self):
        # Everything dispatched before the failure is identical to a clean
        # run: the observer pipeline never half-applies an interrupt.
        clean_system = _small_system()
        clean = clean_system.run_until(2.0)
        bad = _exploding_observer("on_advance")  # fires only at segment end
        system = _small_system(observers=[bad])
        with pytest.raises(ObserverError):
            system.run_until(2.0)
        assert system.events_dispatched == clean_system.events_dispatched
        assert (system.trace().stats.sent, system.trace().stats.delivered) \
            == (clean.stats.sent, clean.stats.delivered)

    def test_remove_recorder_stops_recording(self):
        system = _small_system()
        recorder = next(obs for obs in system.observers
                        if isinstance(obs, TraceRecorder))
        system.remove_observer(recorder)
        assert not system.record_trace
        trace = system.run_until(2.0)
        assert len(trace.events) == 0
        assert trace.stats.sent > 0  # counters still tally
        # Removed after a segment: a new trace shows that segment's events
        # and none of the later ones.
        system = _small_system()
        first = list(system.run_until(0.25).events)
        assert [e.name for e in first] == ["started"] * 3
        system.remove_observer(next(obs for obs in system.observers
                                    if isinstance(obs, TraceRecorder)))
        assert system.run_until(2.0).stats.timers_fired == 3  # "ticked"
        assert list(system.trace().events) == first

    def test_restore_keeps_a_removed_recorders_events(self):
        # A snapshot carries the event log itself, not only the recorder.
        system = _small_system()
        first = list(system.run_until(0.25).events)
        system.remove_observer(next(obs for obs in system.observers
                                    if isinstance(obs, TraceRecorder)))
        system.restore(system.snapshot())
        assert list(system.trace().events) == first


class TestEventBudget:
    def test_budget_exceeded_carries_counts(self):
        system = _small_system()
        with pytest.raises(EventBudgetExceeded) as excinfo:
            system.run_until(2.0, max_events=4)
        err = excinfo.value
        assert err.processed == 5
        assert err.max_events == 4
        assert err.end_time == 2.0
        assert "budget" in str(err)

    def test_budget_is_a_runtime_error(self):
        system = _small_system()
        with pytest.raises(RuntimeError):
            system.run_until(2.0, max_events=1)

    def test_budget_pickles_with_attributes(self):
        err = EventBudgetExceeded(processed=11, max_events=10,
                                  current_time=1.5, end_time=3.0, pending=4)
        clone = pickle.loads(pickle.dumps(err))
        assert clone.processed == 11 and clone.max_events == 10
        assert clone.pending == 4 and clone.current_time == 1.5

    def test_budget_metrics_survive_pickling(self):
        snapshot = {"sim.events_dispatched": {"kind": "counter", "value": 11}}
        err = EventBudgetExceeded(processed=11, max_events=10,
                                  current_time=1.5, end_time=3.0, pending=4,
                                  metrics=snapshot)
        clone = pickle.loads(pickle.dumps(err))
        assert clone.metrics == snapshot

    def test_budget_carries_metrics_snapshot_when_instrumented(self):
        from repro.telemetry import Telemetry, activated

        telemetry = Telemetry()
        processes = [Chatter() for _ in range(3)]
        clocks = [PerfectClock(offset=0.0) for _ in range(3)]
        with activated(telemetry):
            system = System(processes, clocks,
                            delay_model=UniformDelayModel(0.01, 0.002),
                            seed=7)
        for pid in range(3):
            system.schedule_start(pid, 0.0)
        with pytest.raises(EventBudgetExceeded) as excinfo:
            system.run_until(2.0, max_events=4)
        metrics = excinfo.value.metrics
        assert metrics is not None
        assert metrics["sim.events_dispatched"]["value"] == 5


class TestSnapshotUnit:
    def test_snapshot_restore_roundtrip_is_identical(self, medium_params):
        params = medium_params
        rounds = 4

        def build():
            processes = [WelchLynchProcess(params, max_rounds=rounds)
                         for _ in range(params.n - 1)]
            processes.append(make_fault_process("two_faced", params, rounds))
            clocks = make_clock_ensemble(params.n, rho=params.rho,
                                         beta=params.beta, seed=5,
                                         kind="constant")
            system = System(processes, clocks,
                            delay_model=UniformDelayModel(params.delta,
                                                          params.epsilon),
                            seed=5)
            system.schedule_all_starts_at_logical(params.initial_round_time)
            return system

        end = params.initial_round_time + rounds * params.round_length + 0.5
        unsplit = build().run_until(end)

        split_system = build()
        split_system.run_until(end * 0.41)
        snapshot = pickle.loads(pickle.dumps(split_system.snapshot()))
        split = split_system.restore(snapshot).run_until(end)

        assert [e.real_time for e in unsplit.events] == \
            [e.real_time for e in split.events]
        for pid in range(params.n):
            assert (tuple(unsplit.correction_history(pid).corrections)
                    == tuple(split.correction_history(pid).corrections))
        assert unsplit.stats.sent == split.stats.sent

    def test_restore_twice_from_one_snapshot(self):
        system = _small_system()
        system.run_until(0.4)
        snapshot = system.snapshot()
        first = system.restore(snapshot).run_until(2.0)
        first_times = [e.real_time for e in first.events]
        second = system.restore(snapshot).run_until(2.0)
        assert [e.real_time for e in second.events] == first_times

    def test_snapshot_records_position(self):
        system = _small_system()
        system.run_until(0.4)
        snapshot = system.snapshot()
        assert snapshot.time == 0.4
        assert snapshot.events_dispatched == system.events_dispatched
        assert len(snapshot) > 0
