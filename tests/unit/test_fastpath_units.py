"""Unit tests for the fast-path surfaces: raw event-queue API, Counter-backed
message stats and trace index invalidation."""

import pytest

from repro.clocks import ConstantRateClock, CorrectionHistory, PerfectClock
from repro.sim import (
    EventQueue,
    ExecutionTrace,
    Message,
    MessageKind,
    MessageStats,
)
from repro.sim.traceindex import TraceIndex


class TestEventQueueRawAPI:
    def test_push_fields_pop_fields_round_trip(self):
        queue = EventQueue()
        queue.push_fields(MessageKind.ORDINARY, 1, 2, "hi", 0.5, 1.5)
        entry = queue.pop_fields()
        assert entry[0] == 1.5          # delivery time
        assert entry[1] == 0            # timer_last
        assert entry[3] is MessageKind.ORDINARY
        assert entry[4:] == (1, 2, "hi", 0.5)
        assert queue.delivered_count == 1

    def test_raw_and_object_apis_interoperate(self):
        queue = EventQueue()
        queue.push_fields(MessageKind.TIMER, 0, 0, "t", 0.0, 2.0)
        queue.push(Message(kind=MessageKind.ORDINARY, sender=1, recipient=0,
                           payload="m", send_time=0.0, delivery_time=2.0))
        # Property 4: the ordinary message wins the tie despite later insert.
        first = queue.pop()
        assert first.payload == "m" and first.kind is MessageKind.ORDINARY
        assert queue.pop_fields()[6] == "t"

    def test_pending_reconstructs_messages(self):
        queue = EventQueue()
        queue.push_fields(MessageKind.START, 3, 3, None, 1.0, 1.0)
        (pending,) = queue.pending()
        assert isinstance(pending, Message)
        assert pending.is_start() and pending.sender == 3
        assert pending.delay == 0.0

    def test_cycling_a_preloaded_buffer_delivers_everything(self):
        queue = EventQueue()
        for index in range(5000):
            kind = MessageKind.TIMER if index % 3 == 0 else MessageKind.ORDINARY
            queue.push_fields(kind, 0, index % 7, index, 0.0, float(index % 97))
        while queue:
            queue.pop_fields()
        assert queue.delivered_count == 5000

    def test_message_is_slotted_and_frozen(self):
        msg = Message(kind=MessageKind.ORDINARY, sender=0, recipient=1,
                      payload=None, send_time=0.0, delivery_time=1.0)
        assert not hasattr(msg, "__dict__")
        with pytest.raises(AttributeError):
            msg.delivery_time = 2.0


class TestMessageStats:
    def test_record_send_counts(self):
        stats = MessageStats()
        for sender in (0, 1, 0, 2, 0):
            stats.record_send(sender)
        assert stats.sent == 5
        assert dict(stats.per_process_sent) == {0: 3, 1: 1, 2: 1}

    def test_plain_dict_construction_still_counts(self):
        stats = MessageStats(per_process_sent={4: 2})
        stats.record_send(4)
        stats.record_send(9)
        assert stats.per_process_sent[4] == 3
        assert stats.per_process_sent[9] == 1


class TestTraceIndex:
    def _trace(self):
        clocks = {0: PerfectClock(), 1: ConstantRateClock(offset=0.1, rate=1.0)}
        histories = {0: CorrectionHistory(0.0), 1: CorrectionHistory(0.0)}
        return ExecutionTrace(clocks=clocks, histories=histories, faulty_ids=(),
                              events=[], stats=MessageStats(), end_time=10.0)

    def test_stale_after_history_growth(self):
        trace = self._trace()
        index = trace.index()
        assert not index.stale()
        trace.correction_history(0).apply(5.0, 0.25, 0)
        assert index.stale()
        # trace.index() hands back a rebuilt, correct index.
        assert trace.index().local_time(0, 6.0) == 6.25

    def test_single_point_matches_row_evaluation(self):
        trace = self._trace()
        trace.correction_history(1).apply(2.0, -0.1, 0)
        index = trace.index()
        grid = [0.0, 1.0, 2.0, 3.0]
        rows = index.local_times_rows([0, 1], grid)
        for row, pid in zip(rows, [0, 1]):
            assert row == [index.local_time(pid, t) for t in grid]

    def test_correction_index_properties(self):
        history = CorrectionHistory(0.5)
        history.apply(1.0, 0.25, 0)
        assert list(history.times) == [float("-inf"), 1.0]
        assert list(history.corrections) == [0.5, 0.75]
        assert history.current() == 0.75
        assert history.correction_at(0.0) == 0.5
        assert history.correction_at(1.0) == 0.75
