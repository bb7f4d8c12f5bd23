"""Events and the global message buffer ordering (Section 2.2-2.3).

The model has a single kind of event, ``receive(m, p)``.  Messages live in a
global buffer together with their scheduled real delivery times.  Two special
message kinds exist:

* ``START`` — the initial wake-up, exactly one per process;
* ``TIMER`` — delivered when the process' physical clock reaches a designated
  value (the process schedules it for itself).

Execution property 4 requires that TIMER messages delivered to a process at
real time ``t`` be ordered *after* any non-TIMER messages delivered to the same
process at the same real time ("messages that arrive at the same time as a
timer is due to go off get in just under the wire").  The event queue encodes
that tie-breaking rule, followed by a deterministic sequence number so that
runs are reproducible.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum
from typing import Any, Iterable, List, Optional, Tuple

__all__ = ["MessageKind", "Message", "EventQueue", "EventBudgetExceeded"]


class EventBudgetExceeded(RuntimeError):
    """``run_until`` hit its ``max_events`` budget before reaching the horizon.

    Subclasses :class:`RuntimeError` for backward compatibility, but carries
    the counts so callers (and the runner layer) can report exactly how far
    the run got instead of guessing from a message string:

    * ``processed`` — interrupts dispatched by the offending ``run_until``;
    * ``max_events`` — the budget that was exceeded;
    * ``current_time`` / ``end_time`` — how far real time got vs the target;
    * ``pending`` — messages still in the buffer when the budget tripped;
    * ``spec`` — the :class:`~repro.runner.spec.RunSpec` being executed, when
      the run came through :func:`repro.runner.execute` (else ``None``);
    * ``metrics`` — the telemetry metrics snapshot taken at abort time, when
      a :class:`~repro.telemetry.Telemetry` was active as the system was
      built (else ``None``) — so a budget-killed sweep cell stays diagnosable
      post-mortem without re-running it.
    """

    def __init__(self, processed: int, max_events: int, current_time: float,
                 end_time: float, pending: int = 0, spec: Any = None,
                 metrics: Any = None):
        self.processed = int(processed)
        self.max_events = int(max_events)
        self.current_time = float(current_time)
        self.end_time = float(end_time)
        self.pending = int(pending)
        self.spec = spec
        self.metrics = metrics
        super().__init__(str(self))

    def __str__(self) -> str:
        origin = f" (spec {self.spec.describe()})" if self.spec is not None else ""
        return (f"exceeded the budget of {self.max_events} events after "
                f"processing {self.processed}, at t={self.current_time} of "
                f"end_time={self.end_time} with {self.pending} messages still "
                f"pending{origin}; the configuration is probably divergent")

    def __reduce__(self):
        # Exceptions travel back from multiprocessing pool workers by pickle;
        # reconstruct from the counts so the attributes survive the trip.
        return (type(self), (self.processed, self.max_events,
                             self.current_time, self.end_time, self.pending,
                             self.spec, self.metrics))


class MessageKind(Enum):
    """The three interrupt sources of the interrupt-driven process model."""

    START = "start"
    TIMER = "timer"
    ORDINARY = "ordinary"


@dataclass(frozen=True, slots=True)
class Message:
    """A message in the global buffer.

    ``payload`` is arbitrary algorithm data (for the clock algorithm it is the
    round value ``T^i`` or a READY marker).  ``send_time`` and
    ``delivery_time`` are real times; ``delivery_time > send_time`` except for
    START messages injected by the environment at system construction.

    The simulator's hot path never allocates these: :class:`System` moves raw
    field tuples through the :class:`EventQueue` (see :meth:`EventQueue.
    push_fields`).  ``Message`` remains the value type of the public API
    (``pop``, ``pending``) and of anything that stores messages.
    """

    kind: MessageKind
    sender: int
    recipient: int
    payload: Any
    send_time: float
    delivery_time: float

    @property
    def delay(self) -> float:
        """The message delay ``t' - t``."""
        return self.delivery_time - self.send_time

    def is_timer(self) -> bool:
        return self.kind is MessageKind.TIMER

    def is_start(self) -> bool:
        return self.kind is MessageKind.START


#: a heap entry: (delivery_time, timer_last, seq, kind, sender, recipient,
#: payload, send_time).  The first three fields are the ordering key
#: (execution property 4 + deterministic FIFO); seq is unique, so comparison
#: never reaches the non-comparable payload.
EventEntry = Tuple[float, int, int, MessageKind, int, int, Any, float]


class EventQueue:
    """Priority queue of pending deliveries with the paper's tie-breaking rule.

    Ordering key: ``(delivery_time, timer_last, insertion_sequence)`` where
    ``timer_last`` is 0 for ordinary/START messages and 1 for TIMER messages,
    implementing execution property 4.

    The heap holds raw field tuples (:data:`EventEntry`) rather than wrapped
    :class:`Message` objects, so the simulator never pays a per-event
    allocation: :meth:`push_fields` / :meth:`pop_fields` move bare tuples,
    while :meth:`push` / :meth:`pop` keep the message-object API for callers
    that want it.  Both pairs interoperate on the same buffer.  The
    simulator's hot paths batch both ends: :meth:`push_send` queues all
    copies of one send in one call, and the delivery loop pops the heap
    directly and books its pops once per segment (:meth:`record_pops`).
    """

    __slots__ = ("_heap", "_count", "_delivered")

    def __init__(self) -> None:
        self._heap: List[EventEntry] = []
        self._count = 0
        self._delivered = 0

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    @property
    def delivered_count(self) -> int:
        """Number of messages popped so far (for trace statistics)."""
        return self._delivered

    def push_fields(self, kind: MessageKind, sender: int, recipient: int,
                    payload: Any, send_time: float,
                    delivery_time: float) -> None:
        """Place a message in the buffer without allocating a Message."""
        count = self._count
        self._count = count + 1
        heapq.heappush(
            self._heap,
            (delivery_time, 1 if kind is MessageKind.TIMER else 0, count,
             kind, sender, recipient, payload, send_time),
        )

    def push_send(self, sender: int, recipients: Iterable[int],
                  payloads: Iterable[Any], delays: Iterable[Optional[float]],
                  send_time: float) -> int:
        """Place one send's ordinary copies in the buffer, in recipient order.

        ``delays`` holds one delay per recipient, or ``None`` for a copy the
        network drops (nothing is queued for it).  The entries and sequence
        numbers are those of one :meth:`push_fields` per queued copy.
        Returns the number of copies dropped.  A non-positive delay raises
        ``ValueError``, with the copies ahead of it queued.
        """
        heap = self._heap
        push = heapq.heappush
        seq = self._count
        dropped = 0
        ordinary = MessageKind.ORDINARY
        try:
            for recipient, payload, delay in zip(recipients, payloads, delays):
                if delay is None:
                    dropped += 1
                    continue
                if delay <= 0:
                    raise ValueError(
                        f"delay model produced a non-positive delay {delay}")
                # Ordinary messages sort before timers (timer_last = 0).
                push(heap, (send_time + delay, 0, seq, ordinary, sender,
                            recipient, payload, send_time))
                seq += 1
        finally:
            self._count = seq
        return dropped

    def push(self, message: Message) -> None:
        """Place a message in the buffer."""
        self.push_fields(message.kind, message.sender, message.recipient,
                         message.payload, message.send_time,
                         message.delivery_time)

    def pop_fields(self) -> EventEntry:
        """Remove and return the next delivery as a raw field tuple."""
        if not self._heap:
            raise IndexError("pop from an empty event queue")
        self._delivered += 1
        return heapq.heappop(self._heap)

    def record_pops(self, count: int) -> None:
        """Book ``count`` entries a caller popped off the heap directly."""
        self._delivered += count

    def pop(self) -> Message:
        """Remove and return the next message to be delivered."""
        entry = self.pop_fields()
        return Message(kind=entry[3], sender=entry[4], recipient=entry[5],
                       payload=entry[6], send_time=entry[7],
                       delivery_time=entry[0])

    def peek_time(self) -> Optional[float]:
        """Delivery time of the next message, or None when the buffer is empty."""
        if not self._heap:
            return None
        return self._heap[0][0]

    def pending(self) -> List[Message]:
        """Snapshot of undelivered messages (unordered); used by tests/traces."""
        return [Message(kind=entry[3], sender=entry[4], recipient=entry[5],
                        payload=entry[6], send_time=entry[7],
                        delivery_time=entry[0])
                for entry in self._heap]
