"""Unit tests for the System runner and the ProcessContext capabilities."""

import pytest

from repro.clocks import ConstantRateClock, PerfectClock
from repro.sim import FixedDelayModel, Process, System, UniformDelayModel


class Recorder(Process):
    """Test process that records every interrupt it receives."""

    def __init__(self):
        self.started = []
        self.messages = []
        self.timers = []

    def on_start(self, ctx):
        self.started.append(ctx.now)

    def on_message(self, ctx, sender, payload):
        self.messages.append((ctx.now, sender, payload))

    def on_timer(self, ctx, payload=None):
        self.timers.append((ctx.now, payload))


class Echoer(Process):
    """Broadcasts a greeting at start and acknowledges every message."""

    def on_start(self, ctx):
        ctx.broadcast(("hello", ctx.process_id))

    def on_message(self, ctx, sender, payload):
        if payload[0] == "hello" and sender != ctx.process_id:
            ctx.send(sender, ("ack", ctx.process_id))


def make_system(processes, delta=0.01, seed=0, clocks=None):
    n = len(processes)
    clocks = clocks or [PerfectClock() for _ in range(n)]
    return System(processes, clocks, delay_model=FixedDelayModel(delta), seed=seed)


class TestConstruction:
    def test_mismatched_clocks_rejected(self):
        with pytest.raises(ValueError):
            System([Recorder()], [PerfectClock(), PerfectClock()])

    def test_empty_system_rejected(self):
        with pytest.raises(ValueError):
            System([], [])

    def test_initial_corrections_length_checked(self):
        with pytest.raises(ValueError):
            System([Recorder()], [PerfectClock()], initial_corrections=[0.0, 0.0])


class TestStartAndTimers:
    def test_start_delivery(self):
        procs = [Recorder(), Recorder()]
        system = make_system(procs)
        system.schedule_start(0, 1.0)
        system.schedule_start(1, 2.0)
        system.run_until(5.0)
        assert procs[0].started == [1.0]
        assert procs[1].started == [2.0]

    def test_start_at_logical_time_uses_clock_inverse(self):
        procs = [Recorder()]
        clock = ConstantRateClock(offset=5.0, rate=1.0, rho=1e-6)
        system = System(procs, [clock], delay_model=FixedDelayModel(0.01))
        real = system.schedule_start_at_logical(0, 8.0)
        assert real == pytest.approx(3.0)
        system.run_until(10.0)
        assert procs[0].started == [pytest.approx(3.0)]

    def test_start_at_logical_respects_initial_correction(self):
        procs = [Recorder()]
        system = System(procs, [PerfectClock()], delay_model=FixedDelayModel(0.01),
                        initial_corrections=[2.0])
        real = system.schedule_start_at_logical(0, 10.0)
        assert real == pytest.approx(8.0)

    def test_timer_in_past_not_scheduled(self):
        class TimerAtStart(Process):
            def __init__(self):
                self.result = None
                self.fired = False

            def on_start(self, ctx):
                self.result = ctx.set_timer(ctx.local_time() - 1.0)

            def on_timer(self, ctx, payload=None):
                self.fired = True

        proc = TimerAtStart()
        system = make_system([proc])
        system.schedule_start(0, 1.0)
        system.run_until(10.0)
        assert proc.result is False
        assert proc.fired is False

    def test_timer_fires_at_physical_time(self):
        class OneTimer(Process):
            def __init__(self):
                self.fired_at = None

            def on_start(self, ctx):
                ctx.set_timer_physical(4.0, payload="wake")

            def on_timer(self, ctx, payload=None):
                self.fired_at = (ctx.now, payload)

        proc = OneTimer()
        system = make_system([proc])
        system.schedule_start(0, 1.0)
        system.run_until(10.0)
        assert proc.fired_at == (pytest.approx(4.0), "wake")


class TestMessaging:
    def test_broadcast_reaches_everyone_including_self(self):
        procs = [Echoer(), Recorder(), Recorder()]
        system = make_system(procs)
        system.schedule_start(0, 0.0)
        system.run_until(1.0)
        # Both recorders got the hello; the echoer also got its own hello.
        assert len(procs[1].messages) == 1
        assert len(procs[2].messages) == 1
        trace = system.trace()
        assert trace.stats.sent == 3

    def test_messages_take_the_modelled_delay(self):
        procs = [Echoer(), Recorder()]
        system = make_system(procs, delta=0.25)
        system.schedule_start(0, 1.0)
        system.run_until(5.0)
        arrival_time, sender, payload = procs[1].messages[0]
        assert arrival_time == pytest.approx(1.25)
        assert sender == 0 and payload == ("hello", 0)

    def test_unknown_recipient_rejected(self):
        class BadSender(Process):
            def on_start(self, ctx):
                ctx.send(99, "boom")

        system = make_system([BadSender()])
        system.schedule_start(0, 0.0)
        with pytest.raises(KeyError):
            system.run_until(1.0)

    def test_send_divergent(self):
        class TwoFaced(Process):
            def on_start(self, ctx):
                ctx.send_divergent({1: "left", 2: "right"})

        procs = [TwoFaced(), Recorder(), Recorder()]
        system = make_system(procs)
        system.schedule_start(0, 0.0)
        system.run_until(1.0)
        assert procs[1].messages[0][2] == "left"
        assert procs[2].messages[0][2] == "right"

    @pytest.mark.parametrize("observed", [False, True],
                             ids=["batched", "per-recipient"])
    def test_non_positive_delay_rejected(self, observed):
        from repro.sim.recording import NetworkRecorder

        class ZeroToLast(FixedDelayModel):
            def delay(self, sender, recipient, send_time, rng):
                return 0.0 if recipient == 2 else self.delta

        system = System([Echoer(), Recorder(), Recorder()],
                        [PerfectClock() for _ in range(3)],
                        delay_model=ZeroToLast(0.01),
                        observers=[NetworkRecorder()] if observed else ())
        system.schedule_start(0, 0.0)
        with pytest.raises(ValueError, match="non-positive delay 0.0"):
            system.run_until(1.0)
        # The copies ahead of the bad one were queued, in order, and both
        # paths count the copies up to and including the bad one as sent.
        assert sorted(m.recipient for m in system._queue.pending()) == [0, 1]
        stats = system.trace().stats
        assert stats.sent == 3
        assert stats.per_process_sent == {0: 3}
        assert stats.dropped == 0


class TestCorrectionTracking:
    def test_adjust_correction_is_recorded(self):
        class Adjuster(Process):
            def on_start(self, ctx):
                ctx.adjust_correction(0.5, round_index=0)

        system = make_system([Adjuster()])
        system.schedule_start(0, 2.0)
        trace = system.run_until(3.0)
        assert trace.adjustments(0) == [0.5]
        assert trace.local_time(0, 2.5) == pytest.approx(3.0)

    def test_set_initial_correction_before_adjustments(self):
        class Idle(Process):
            pass

        system = make_system([Idle()])
        system.set_initial_correction(0, 1.5)
        trace = system.run_until(1.0)
        assert trace.local_time(0, 1.0) == pytest.approx(2.5)

    def test_set_initial_correction_after_adjustment_rejected(self):
        class Adjuster(Process):
            def on_start(self, ctx):
                ctx.adjust_correction(0.5)

        system = make_system([Adjuster()])
        system.schedule_start(0, 0.0)
        system.run_until(1.0)
        with pytest.raises(RuntimeError):
            system.set_initial_correction(0, 1.0)


class TestRunControl:
    def test_run_until_is_incremental(self):
        procs = [Recorder()]
        system = make_system(procs)
        system.schedule_start(0, 5.0)
        system.run_until(1.0)
        assert procs[0].started == []
        system.run_until(10.0)
        assert procs[0].started == [5.0]

    def test_crashed_processes_receive_nothing(self):
        procs = [Echoer(), Recorder()]
        system = make_system(procs)
        system.mark_crashed(1)
        system.schedule_start(0, 0.0)
        system.run_until(1.0)
        assert procs[1].messages == []
        assert 1 in system.faulty_ids()

    def test_unmark_crashed_resumes_delivery(self):
        procs = [Echoer(), Recorder()]
        system = make_system(procs)
        system.mark_crashed(1)
        system.unmark_crashed(1)
        system.schedule_start(0, 0.0)
        system.run_until(1.0)
        assert len(procs[1].messages) == 1

    def test_max_events_guard(self):
        class PingPong(Process):
            def on_start(self, ctx):
                ctx.send(ctx.process_id, "again")

            def on_message(self, ctx, sender, payload):
                ctx.send(ctx.process_id, "again")

        system = make_system([PingPong()])
        system.schedule_start(0, 0.0)
        with pytest.raises(RuntimeError):
            system.run_until(1e9, max_events=100)

    def test_deterministic_given_seed(self):
        def run(seed):
            procs = [Echoer(), Echoer(), Echoer()]
            system = System(procs, [PerfectClock() for _ in range(3)],
                            delay_model=UniformDelayModel(0.01, 0.002), seed=seed)
            for pid in range(3):
                system.schedule_start(pid, 0.0)
            trace = system.run_until(1.0)
            return [(e.real_time, e.process_id, e.name) for e in trace.events]

        assert run(7) == run(7)

    def test_replace_process(self):
        procs = [Echoer(), Recorder()]
        system = make_system(procs)
        replacement = Recorder()
        system.replace_process(0, replacement)
        system.schedule_start(0, 0.5)
        system.run_until(1.0)
        assert replacement.started == [0.5]

    def test_raising_handler_books_every_popped_interrupt(self):
        # Three processes broadcast at t=0 over a fixed delay, so the pops
        # are the three STARTs, then p0's three copies, then p1's copy to
        # p0: p0's second message, whose handler raises.  All seven popped
        # interrupts count, once, and the telemetry flush still happens.
        from repro.telemetry import Telemetry, activated

        class FailsOnSecondMessage(Process):
            def __init__(self, fail):
                self.fail = fail
                self.received = 0

            def on_start(self, ctx):
                ctx.broadcast("hello")

            def on_message(self, ctx, sender, payload):
                self.received += 1
                if self.fail and self.received == 2:
                    raise RuntimeError("handler bug")

        telemetry = Telemetry()
        procs = [FailsOnSecondMessage(pid == 0) for pid in range(3)]
        with activated(telemetry):
            system = System(procs, [PerfectClock() for _ in range(3)],
                            delay_model=FixedDelayModel(0.01), seed=0)
        for pid in range(3):
            system.schedule_start(pid, 0.0)
        with pytest.raises(RuntimeError, match="handler bug"):
            system.run_until(1.0)
        stats = system.trace().stats
        assert stats.delivered == 4
        assert system.events_dispatched == 7
        assert system._queue.delivered_count == 7
        registry = telemetry.registry
        assert registry.value("sim.events_dispatched") == 7
        assert registry.value("sim.messages_delivered") == 4
        # The run resumes after the failure and the totals stay in step.
        procs[0].fail = False
        system.run_until(1.0)
        assert system.events_dispatched == system._queue.delivered_count == 12
        assert system.trace().stats.delivered == 9
        assert registry.value("sim.events_dispatched") == 12
