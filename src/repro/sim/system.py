"""The system: processes + physical clocks + global message buffer (Section 2).

:class:`System` wires together a set of :class:`~repro.sim.process.Process`
automata, one ρ-bounded physical clock per process, a
:class:`~repro.sim.network.DelayModel`, and the global
:class:`~repro.sim.events.EventQueue`.  It implements the execution semantics
of Section 2.3:

* the buffer initially contains exactly one START message per process (the
  caller chooses their delivery times, typically ``c^0_p(T0)`` per assumption
  A4 — see :meth:`schedule_start_at_logical`);
* an action ``receive(m, p)`` occurs at the message's delivery time; only
  ``p``'s state and the buffer change;
* TIMER messages set for a physical-clock value not in the future are simply
  not scheduled;
* TIMER deliveries at a given real time are ordered after ordinary deliveries
  at the same time (handled by the event queue).

With a :class:`~repro.topology.base.Topology` the network layer relays
messages between non-adjacent processes along shortest routes (fresh per-hop
delay draws, per-link extra delay and drop probability, and an optional
:class:`~repro.topology.schedule.LinkSchedule` of link faults).  Without one
— the default — message delivery is exactly the paper's complete graph and
the code path (including RNG consumption) is byte-for-byte the seed behavior.

Runs are deterministic given the seed.
"""

from __future__ import annotations

import pickle
import random
from heapq import heappop
from itertools import repeat
from typing import Any, Dict, Iterable, List, Optional, Sequence, TYPE_CHECKING

from ..clocks.base import Clock
from ..clocks.logical import CorrectionHistory
from .events import EventBudgetExceeded, EventQueue, Message, MessageKind
from .network import DelayModel, UniformDelayModel
from .observers import HOOK_NAMES, Observer, ObserverError, TraceRecorder
from .process import Process, ProcessContext
from .trace import EventLog, ExecutionTrace, MessageStats, _trace_from_columns

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from ..topology.base import Topology
    from ..topology.schedule import LinkSchedule

__all__ = ["System", "SystemSnapshot"]


#: correction breakpoints kept per process when ``record_trace=False`` (the
#: current value plus a small tail for in-flight queries; O(1) per process).
_BOUNDED_HISTORY_ENTRIES = 8


class SystemSnapshot:
    """A frozen, picklable image of a :class:`System` mid-run.

    Produced by :meth:`System.snapshot`; consumed by :meth:`System.restore`.
    The state is stored as pickled bytes, so a snapshot is cheap to ship to
    another process (or to disk) and every ``restore`` gets a *fresh* copy —
    restoring twice from the same snapshot yields two independent,
    bit-identical continuations.
    """

    __slots__ = ("data", "time", "events_dispatched")

    def __init__(self, data: bytes, time: float, events_dispatched: int):
        self.data = data
        self.time = time
        self.events_dispatched = events_dispatched

    def __len__(self) -> int:
        return len(self.data)


class System:
    """A complete simulated distributed system."""

    def __init__(
        self,
        processes: Sequence[Process],
        clocks: Sequence[Clock],
        delay_model: Optional[DelayModel] = None,
        seed: int = 0,
        initial_corrections: Optional[Sequence[float]] = None,
        topology: Optional["Topology"] = None,
        link_schedule: Optional["LinkSchedule"] = None,
        observers: Optional[Sequence[Observer]] = None,
        record_trace: bool = True,
    ):
        if len(processes) != len(clocks):
            raise ValueError(
                f"need one clock per process; got {len(processes)} processes "
                f"and {len(clocks)} clocks"
            )
        if not processes:
            raise ValueError("a system needs at least one process")
        self._processes: Dict[int, Process] = dict(enumerate(processes))
        self._clocks: Dict[int, Clock] = dict(enumerate(clocks))
        self._delay_model = delay_model or UniformDelayModel(delta=0.01, epsilon=0.002)
        self._rng = random.Random(seed)
        self._process_rngs: Dict[int, random.Random] = {
            pid: random.Random((seed * 1_000_003 + pid) & 0xFFFFFFFF)
            for pid in self._processes
        }
        corrections = list(initial_corrections or [0.0] * len(processes))
        if len(corrections) != len(processes):
            raise ValueError("initial_corrections must have one entry per process")
        self._history_bound = None if record_trace else _BOUNDED_HISTORY_ENTRIES
        self._histories: Dict[int, CorrectionHistory] = {
            pid: CorrectionHistory(corrections[pid],
                                   max_entries=self._history_bound)
            for pid in self._processes
        }
        self._queue = EventQueue()
        self._contexts: Dict[int, ProcessContext] = {
            pid: ProcessContext(self, pid) for pid in self._processes
        }
        self._current_time = 0.0
        self._started = False
        self._stats = MessageStats()
        self._crashed: set = set()
        self._faulty_cache: Optional[List[int]] = None
        self._events_dispatched = 0
        # The telemetry bundle active at construction (imported lazily, as
        # the kernel entry points do).  None keeps every path bit-identical
        # and unmetered; deliberately NOT a snapshot field, so
        # checkpoint/restore never captures wall-clock state.
        from ..telemetry import get_active
        self._telemetry = get_active()
        # Last-published totals per metric, so segment flushes emit deltas.
        self._telemetry_cursor: Dict[str, float] = {}
        # Full-trace recording is the default observer; dropping it (plus the
        # bounded histories above) is what makes long horizons O(n) memory.
        self._observers: List[Observer] = []
        self._recorder: Optional[TraceRecorder] = None
        if record_trace:
            self._recorder = TraceRecorder()
            self._observers.append(self._recorder)
        self._log = (self._recorder.log if self._recorder is not None
                     else EventLog([], [], [], []))
        for observer in (observers or ()):
            self._observers.append(observer)
        self._rebuild_sinks()
        for observer in self._observers:
            observer.on_attach(self)
        if topology is None and link_schedule is not None:
            # A link schedule over the implicit complete graph (e.g. a plain
            # partition-and-heal) still needs routing to honor it.
            from ..topology.generators import complete
            topology = complete(len(processes))
        if topology is not None and topology.n != len(processes):
            raise ValueError(
                f"topology has {topology.n} nodes but the system has "
                f"{len(processes)} processes"
            )
        self._topology = topology
        self._link_schedule = link_schedule
        if topology is None:
            self._router = None
        else:
            from ..topology.routing import Router
            self._router = Router(topology, link_schedule)

    # ------------------------------------------------------------------ accessors
    @property
    def n(self) -> int:
        return len(self._processes)

    @property
    def current_time(self) -> float:
        """Real time of the event currently being processed."""
        return self._current_time

    @property
    def delay_model(self) -> DelayModel:
        return self._delay_model

    @property
    def topology(self) -> Optional["Topology"]:
        """The network graph, or ``None`` for the implicit complete graph."""
        return self._topology

    @property
    def link_schedule(self) -> Optional["LinkSchedule"]:
        """The time-varying link faults, if any."""
        return self._link_schedule

    @property
    def processes(self) -> Dict[int, Process]:
        return dict(self._processes)

    def clock_of(self, pid: int) -> Clock:
        return self._clocks[pid]

    def correction_history(self, pid: int) -> CorrectionHistory:
        return self._histories[pid]

    def process_rng(self, pid: int) -> random.Random:
        return self._process_rngs[pid]

    def faulty_ids(self) -> List[int]:
        """Processes marked faulty (by their implementation or by crashing).

        Cached until the fault set can change (a crash, an un-crash, or a
        process replacement); ``is_faulty`` is a per-implementation constant,
        so those are the only invalidation points.
        """
        if self._faulty_cache is None:
            marked = {pid for pid, proc in self._processes.items()
                      if proc.is_faulty}
            self._faulty_cache = sorted(marked | self._crashed)
        return list(self._faulty_cache)

    # ------------------------------------------------------------------ observers
    @property
    def observers(self) -> List[Observer]:
        """The attached observers (the default TraceRecorder included)."""
        return list(self._observers)

    @property
    def record_trace(self) -> bool:
        """Whether full-trace recording (the default observer) is active."""
        return self._recorder is not None

    @property
    def events_dispatched(self) -> int:
        """Total interrupts dispatched over the system's lifetime."""
        return self._events_dispatched

    @property
    def telemetry(self):
        """The telemetry bundle active at construction, or ``None``."""
        return self._telemetry

    def add_observer(self, observer: Observer) -> Observer:
        """Attach a streaming observer; returns it for chaining."""
        self._observers.append(observer)
        self._rebuild_sinks()
        observer.on_attach(self)
        return observer

    def remove_observer(self, observer: Observer) -> Observer:
        """Detach an observer (e.g. one that raised); returns it.

        Past notifications it recorded are untouched.  Removing the default
        :class:`TraceRecorder` stops event recording from here on; the events
        recorded so far stay visible to every trace, later ones included.
        """
        self._observers.remove(observer)
        if observer is self._recorder:
            self._recorder = None
        self._rebuild_sinks()
        return observer

    def finalize_observers(self) -> None:
        """Tell every observer the run is over (no more notifications).

        Call after the final :meth:`run_until` — the scenario builders do —
        so grid-based observers can flush trailing sample points.  Safe to
        call more than once.
        """
        for observer in self._observers:
            try:
                observer.on_finalize()
            except Exception as err:
                raise ObserverError("on_finalize", observer) from err

    def _rebuild_sinks(self) -> None:
        """Recompute the per-hook dispatch lists from the observer list.

        Only hooks an observer actually overrides are dispatched, so the
        simulator's hot paths pay nothing for hooks nobody subscribed to.
        """
        sinks: Dict[str, List] = {hook: [] for hook in HOOK_NAMES}
        for observer in self._observers:
            for hook in HOOK_NAMES:
                if observer.subscribed(hook):
                    sinks[hook].append(getattr(observer, hook))
        self._dispatch_sinks = sinks["on_dispatch"]
        self._send_sinks = sinks["on_send"]
        self._log_sinks = sinks["on_log"]
        self._correction_sinks = sinks["on_correction"]
        self._advance_sinks = sinks["on_advance"]

    # ------------------------------------------------------------------ setup
    def set_initial_correction(self, pid: int, value: float) -> None:
        """Replace the initial CORR value of a process (before any adjustment)."""
        if self._histories[pid].adjustments:
            raise RuntimeError(
                "initial correction can only be set before any adjustment is applied"
            )
        self._histories[pid] = CorrectionHistory(value,
                                                 max_entries=self._history_bound)
        try:
            for sink in self._correction_sinks:
                sink(pid, float("-inf"), 0.0, float(value), -1)
        except Exception as err:
            raise ObserverError("on_correction", sink.__self__) from err

    def apply_correction(self, pid: int, adjustment: float,
                         round_index: int = -1) -> float:
        """``CORR_pid += adjustment`` at the current time; notify observers.

        The single entry point through which every correction flows (processes
        reach it via :meth:`ProcessContext.adjust_correction`), so streaming
        observers see each CORR update exactly once, in real-time order.
        """
        new_corr = self._histories[pid].apply(self._current_time, adjustment,
                                              round_index)
        try:
            for sink in self._correction_sinks:
                sink(pid, self._current_time, adjustment, new_corr,
                     round_index)
        except Exception as err:
            raise ObserverError("on_correction", sink.__self__) from err
        return new_corr

    def schedule_start(self, pid: int, real_time: float) -> None:
        """Place the START message for ``pid`` in the buffer at ``real_time``."""
        self._queue.push_fields(MessageKind.START, pid, pid, None,
                                real_time, real_time)

    def schedule_start_at_logical(self, pid: int, logical_time: float) -> float:
        """Schedule START for when ``pid``'s initial logical clock reaches ``logical_time``.

        Implements assumption A4: the START arrives at ``c^0_p(T0)``.  Returns
        the real delivery time.
        """
        corr = self._histories[pid].initial_correction
        real_time = self._clocks[pid].real_time_at(logical_time - corr)
        self.schedule_start(pid, real_time)
        return real_time

    def schedule_all_starts_at_logical(self, logical_time: float) -> Dict[int, float]:
        """Schedule START messages for every process at the same logical time."""
        return {pid: self.schedule_start_at_logical(pid, logical_time)
                for pid in self._processes}

    def mark_crashed(self, pid: int) -> None:
        """Stop delivering interrupts to ``pid`` and count it as faulty."""
        self._crashed.add(pid)
        self._faulty_cache = None

    def unmark_crashed(self, pid: int) -> None:
        """Resume delivering interrupts to ``pid`` (used for reintegration)."""
        self._crashed.discard(pid)
        self._faulty_cache = None

    def replace_process(self, pid: int, process: Process) -> None:
        """Swap in a new automaton for ``pid`` (used for repair/reintegration)."""
        self._processes[pid] = process
        self._faulty_cache = None

    # ------------------------------------------------------------------ messaging
    def post_message(self, sender: int, recipient: int, payload: Any) -> None:
        """Send an ordinary message; the delay model decides delay or drop.

        With a topology the message is relayed hop by hop along the current
        shortest route (see :meth:`_relay_delivery_time`); without one it is
        delivered directly, exactly as in the paper's complete-graph model.
        """
        if recipient not in self._processes:
            raise KeyError(f"unknown recipient {recipient}")
        self._send(sender, (recipient,), (payload,))

    def broadcast_from(self, sender: int, payload: Any) -> None:
        """Send ``payload`` to every process, including the sender."""
        self._send(sender, range(len(self._processes)), repeat(payload))

    def send_divergent(self, sender: int, payloads: Dict[int, Any]) -> None:
        """Send ``payloads[r]`` to each recipient ``r``, in the dict's order.

        The Byzantine capability of sending different messages to different
        processes; one send, so one delay-model call for all its copies.
        """
        recipients = list(payloads)
        for recipient in recipients:
            if recipient not in self._processes:
                raise KeyError(f"unknown recipient {recipient}")
        self._send(sender, recipients, payloads.values())

    def _send(self, sender: int, recipients: Sequence[int],
              payloads: Iterable[Any]) -> None:
        """Post one ordinary message per recipient, in recipient order.

        Every send goes through here.  On the complete graph the copies take
        one :meth:`DelayModel.draws` call and one :meth:`EventQueue.push_send`
        call, and the counters are booked once: the same queue entries and
        counters as one :meth:`post_message` per recipient.  A non-positive
        delay raises ``ValueError`` with the copies ahead of it queued, and
        counts it and those copies as sent, as the per-recipient path does;
        only the RNG differs then, as the whole send was drawn first.
        Topology relays and send observers take the per-recipient path
        (:meth:`_post_routed`).
        """
        if self._router is not None or self._send_sinks:
            for recipient, payload in zip(recipients, payloads):
                self._post_routed(sender, recipient, payload)
            return
        now = self._current_time
        delays = self._delay_model.draws(sender, recipients, now, self._rng)
        stats = self._stats
        try:
            dropped = self._queue.push_send(sender, recipients, payloads,
                                            delays, now)
        except ValueError:
            sent = next(i for i, delay in enumerate(delays)
                        if delay is not None and delay <= 0) + 1
            stats.record_send(sender, sent)
            stats.dropped += delays[:sent].count(None)
            raise
        if delays:
            stats.record_send(sender, len(delays))
            stats.dropped += dropped

    def _post_routed(self, sender: int, recipient: int, payload: Any) -> None:
        """One message on the per-recipient path (topology or send observers)."""
        self._stats.record_send(sender)
        if self._router is None or sender == recipient:
            delivery_time = self._direct_delivery_time(sender, recipient)
        else:
            delivery_time = self._relay_delivery_time(sender, recipient)
        if delivery_time is None:
            self._stats.dropped += 1
            try:
                for sink in self._send_sinks:
                    sink(sender, recipient, self._current_time, None)
            except Exception as err:
                raise ObserverError("on_send", sink.__self__) from err
            return
        try:
            for sink in self._send_sinks:
                sink(sender, recipient, self._current_time, delivery_time)
        except Exception as err:
            raise ObserverError("on_send", sink.__self__) from err
        self._queue.push_fields(MessageKind.ORDINARY, sender, recipient,
                                payload, self._current_time, delivery_time)

    def _direct_delivery_time(self, sender: int, recipient: int) -> Optional[float]:
        """One delay-model draw, as in the complete-graph model."""
        delay, = self._delay_model.draws(sender, (recipient,),
                                         self._current_time, self._rng)
        if delay is None:
            return None
        if delay <= 0:
            raise ValueError(f"delay model produced a non-positive delay {delay}")
        return self._current_time + delay

    def _relay_delivery_time(self, sender: int, recipient: int) -> Optional[float]:
        """Accumulate per-hop delays along the current shortest route.

        Each hop draws a fresh delay from the delay model (at the time the
        message reaches that hop) plus the link's extra delay; the hop is lost
        if the delay model drops it, the link's drop probability fires, or the
        link schedule has taken the link down by the time the message arrives
        there.  Returns ``None`` when the message is lost or unroutable.
        """
        route = self._router.route(sender, recipient, self._current_time)
        if route is None:
            self._stats.unroutable += 1
            return None
        topology = self._topology
        time = self._current_time
        for hop_sender, hop_recipient in zip(route, route[1:]):
            if (self._link_schedule is not None
                    and not self._link_schedule.link_up(hop_sender, hop_recipient, time)):
                return None  # the link went down while the message was in flight
            delay = self._delay_model.delay(hop_sender, hop_recipient, time, self._rng)
            if delay is None:
                return None
            if delay <= 0:
                raise ValueError(f"delay model produced a non-positive delay {delay}")
            drop_probability = topology.drop_probability(hop_sender, hop_recipient)
            if drop_probability > 0.0 and self._rng.random() < drop_probability:
                return None
            time += delay + topology.extra_delay(hop_sender, hop_recipient)
        if len(route) > 2:
            self._stats.relayed += 1
        return time

    def post_timer(self, pid: int, physical_time: float, payload: Any = None) -> bool:
        """Arm a TIMER for when ``pid``'s physical clock reaches ``physical_time``.

        Per Section 2.2, if the corresponding real time is not strictly in the
        future, no message is placed in the buffer; returns False in that case.
        """
        real_time = self._clocks[pid].real_time_at(physical_time)
        if real_time <= self._current_time:
            return False
        self._stats.timers_set += 1
        self._queue.push_fields(MessageKind.TIMER, pid, pid, payload,
                                self._current_time, real_time)
        return True

    def log_event(self, pid: int, name: str, data: Dict[str, Any]) -> None:
        """Hand an algorithm-level event's fields to the log observers (the
        default :class:`TraceRecorder` appends them to the shared log's
        columns; no event object is built, and ``data`` is not copied)."""
        sinks = self._log_sinks
        if not sinks:
            return
        try:
            for sink in sinks:
                sink(pid, self._current_time, name, data)
        except Exception as err:
            raise ObserverError("on_log", sink.__self__) from err

    # ------------------------------------------------------------------ execution
    def run_until(self, end_time: float, max_events: int = 2_000_000) -> ExecutionTrace:
        """Deliver every message with delivery time <= ``end_time``.

        Returns an :class:`ExecutionTrace` (a shared view — see
        :meth:`trace`); the system can be run further by calling
        :meth:`run_until` again with a later end time.  Raises
        :class:`~repro.sim.events.EventBudgetExceeded` (with the counts) when
        more than ``max_events`` interrupts fire before the horizon.

        With a telemetry bundle active at construction (see
        :func:`repro.telemetry.activated`) the segment is wrapped in a
        ``sim.run_until`` span and the run counters (events, messages,
        timers, queue depth, correction-history size) are flushed into the
        metrics registry *at segment boundaries only* — never per event —
        so the hot loop is identical either way and a budget abort carries
        the metrics snapshot (``err.metrics``).
        """
        telemetry = self._telemetry
        if telemetry is None:
            return self._run_segment(end_time, max_events)
        with telemetry.span("sim.run_until", end_time=end_time):
            try:
                trace = self._run_segment(end_time, max_events)
            except BaseException as err:
                # Whatever ends the segment, its counts reach the registry.
                self._flush_telemetry()
                if isinstance(err, EventBudgetExceeded):
                    err.metrics = telemetry.registry.snapshot()
                raise
        self._flush_telemetry()
        return trace

    def _run_segment(self, end_time: float, max_events: int) -> ExecutionTrace:
        """One uninstrumented delivery segment (the simulator's hot loop).

        Entries are popped straight off the heap as raw field tuples (no
        per-event Message allocation) and dispatched inline with hoisted
        lookups.  The per-event counts (interrupts, deliveries, timers) live
        in locals and are booked exactly once when the segment ends, on
        every exit: the horizon, the budget, an observer error, or a handler
        that raised (its interrupt was popped, so it counts).  Dispatch
        observers, when attached, see each popped interrupt after its
        handler ran; on return every advance observer is told the buffer is
        drained up to ``end_time``.
        """
        processed = delivered = timers_fired = 0
        queue = self._queue
        heap = queue._heap
        processes = self._processes
        contexts = self._contexts
        crashed = self._crashed
        dispatch_sinks = self._dispatch_sinks
        ordinary = MessageKind.ORDINARY
        timer = MessageKind.TIMER
        try:
            while heap:
                if heap[0][0] > end_time:
                    break
                # (time, timer_last, seq, kind, sender, recipient, payload,
                # send_time)
                entry = heappop(heap)
                processed += 1
                self._current_time = entry[0]
                pid = entry[5]
                if pid not in crashed:
                    # A crashed process receives nothing; otherwise deliver.
                    kind = entry[3]
                    if kind is ordinary:
                        delivered += 1
                        processes[pid].on_message(contexts[pid], entry[4],
                                                  entry[6])
                    elif kind is timer:
                        timers_fired += 1
                        processes[pid].on_timer(contexts[pid], entry[6])
                    else:
                        processes[pid].on_start(contexts[pid])
                if dispatch_sinks:
                    try:
                        for sink in dispatch_sinks:
                            sink(entry[3], entry[4], entry[5], entry[6],
                                 entry[7], entry[0])
                    except Exception as err:
                        # The interrupt being reported was already fully
                        # processed (and counted), so the system stays
                        # consistent; only the broken tap is surfaced.
                        if isinstance(err, ObserverError):
                            raise
                        raise ObserverError("on_dispatch",
                                            sink.__self__) from err
                if processed > max_events:
                    raise EventBudgetExceeded(
                        processed=processed, max_events=max_events,
                        current_time=self._current_time, end_time=end_time,
                        pending=len(heap))
        finally:
            self._events_dispatched += processed
            queue.record_pops(processed)
            stats = self._stats
            stats.delivered += delivered
            stats.timers_fired += timers_fired
        self._current_time = max(self._current_time, end_time)
        try:
            for sink in self._advance_sinks:
                sink(self._current_time)
        except Exception as err:
            raise ObserverError("on_advance", sink.__self__) from err
        return self.trace()

    #: (metric name, MessageStats attribute) pairs flushed each segment.
    _STATS_METRICS = (
        ("sim.messages_sent", "sent"),
        ("sim.messages_delivered", "delivered"),
        ("sim.messages_dropped", "dropped"),
        ("sim.messages_relayed", "relayed"),
        ("sim.messages_unroutable", "unroutable"),
        ("sim.timers_set", "timers_set"),
        ("sim.timers_fired", "timers_fired"),
    )

    def _flush_telemetry(self) -> None:
        """Publish the run's counters into the attached metrics registry.

        Called at ``run_until`` segment boundaries (including the budget
        abort path), never per event.  Counters carry *deltas* since the last
        flush — tracked against ``sim.*`` totals already published — so
        repeated segments, checkpoint splits, and multiple systems sharing
        one registry all add up correctly.
        """
        registry = self._telemetry.registry
        registry.counter("sim.run_segments").inc()
        stats = self._stats
        cursor = self._telemetry_cursor
        for metric_name, attr in self._STATS_METRICS:
            value = getattr(stats, attr)
            last = cursor.get(metric_name, 0)
            if value > last:
                registry.counter(metric_name).inc(value - last)
            cursor[metric_name] = value
        dispatched = self._events_dispatched
        last = cursor.get("sim.events_dispatched", 0)
        if dispatched > last:
            registry.counter("sim.events_dispatched").inc(dispatched - last)
        cursor["sim.events_dispatched"] = dispatched
        registry.gauge("sim.event_queue_depth").set(len(self._queue))
        registry.gauge("sim.correction_history_entries").set(
            sum(len(history.times) for history in self._histories.values()))
        registry.gauge("sim.sim_time").set(self._current_time)
        for key, value in self._delay_model.stats().items():
            # Model-internal stats mix cumulative and instantaneous values;
            # a high-water gauge represents both faithfully.
            registry.gauge(f"sim.delay_model.{key}").set(value)

    def _dispatch(self, message: Message) -> None:
        """Deliver one message object (kept for tests and manual stepping)."""
        pid = message.recipient
        self._events_dispatched += 1
        if pid not in self._crashed:
            # A crashed process receives nothing; the message is simply lost to it.
            process = self._processes[pid]
            ctx = self._contexts[pid]
            if message.kind is MessageKind.START:
                process.on_start(ctx)
            elif message.kind is MessageKind.TIMER:
                self._stats.timers_fired += 1
                process.on_timer(ctx, message.payload)
            else:
                self._stats.delivered += 1
                process.on_message(ctx, message.sender, message.payload)
        for sink in self._dispatch_sinks:
            sink(message.kind, message.sender, message.recipient,
                 message.payload, message.send_time, message.delivery_time)

    def trace(self) -> ExecutionTrace:
        """View of the run so far.

        The returned trace *shares* the system's clocks, correction
        histories, event log, and statistics rather than copying them (the
        copy made every ``run_until`` O(run length)); it keeps reflecting the
        run if the system is driven further.  The faulty set is snapshotted
        at call time.
        """
        return _trace_from_columns(self._clocks, self._histories,
                                   self.faulty_ids(), *self._log, self._stats,
                                   self._current_time)

    # ------------------------------------------------------------------ checkpointing
    #: mutable per-run attributes captured by a snapshot; everything else on
    #: the instance is either derived (contexts, router, sinks) or immutable
    #: configuration shared by reference.
    _SNAPSHOT_FIELDS = (
        "_processes", "_clocks", "_delay_model", "_rng", "_process_rngs",
        "_history_bound", "_histories", "_queue", "_current_time",
        "_started", "_stats", "_crashed", "_faulty_cache",
        "_events_dispatched", "_observers", "_recorder", "_log", "_topology",
        "_link_schedule",
    )

    def snapshot(self) -> SystemSnapshot:
        """Freeze the complete mid-run state into a picklable snapshot.

        Captures the event buffer, every RNG state, the correction histories,
        the process automata (their algorithm state included), the message
        statistics, and the attached observers — everything
        :meth:`run_until` reads or writes — in one pickle, so aliasing
        between them (e.g. an observer holding the shared event list) is
        preserved exactly.  Requires processes, payloads, the delay model and
        the observers to be picklable, which every implementation in this
        package is.
        """
        state = {name: getattr(self, name) for name in self._SNAPSHOT_FIELDS}
        return SystemSnapshot(
            data=pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL),
            time=self._current_time,
            events_dispatched=self._events_dispatched,
        )

    def restore(self, snapshot: SystemSnapshot) -> "System":
        """Reset this system to a snapshot's state; returns ``self``.

        The snapshot's pickled state is materialized fresh, so restoring the
        same snapshot repeatedly (or in another process) always yields the
        same continuation: a run split at an arbitrary snapshot point
        produces a trace bit-identical to an unsplit run.  Derived structures
        (process contexts, the relay router, observer dispatch lists) are
        rebuilt against the restored objects; traces handed out before the
        restore keep viewing the old state.
        """
        state = pickle.loads(snapshot.data)
        for name in self._SNAPSHOT_FIELDS:
            setattr(self, name, state[name])
        self._contexts = {pid: ProcessContext(self, pid)
                          for pid in self._processes}
        if self._topology is None:
            self._router = None
        else:
            from ..topology.routing import Router
            self._router = Router(self._topology, self._link_schedule)
        self._rebuild_sinks()
        return self
