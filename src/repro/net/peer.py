"""One clock-synchronization peer over real TCP sockets.

:class:`NetPeer` hosts the Section 4.2 maintenance algorithm, the
simulator's own :class:`~repro.core.maintenance.WelchLynchProcess`, on an
asyncio event loop with real sockets and real ``time.monotonic()`` time.
Like the simulator's ``System`` it answers the process's
:class:`~repro.sim.process.ProcessContext` calls, and each interrupt is one
step at one axis time:

* the *physical clock* is a real :class:`~repro.clocks.drift.ConstantRateClock`
  over the monotonic axis — drift is injected by the seeded (offset, rate)
  pair (``Ph_p(t) = offset_p + rate_p · t``); ``local_time`` adds CORR;
* ``set_timer(X)`` is a ``loop.call_later`` step at the real time
  ``t = (X − CORR − offset)/rate`` at which the logical clock reads X;
* ``broadcast`` writes one length-prefixed JSON frame (:mod:`repro.net.wire`)
  to every peer **including itself** — the paper's model delivers a process
  its own broadcast with a real network delay, and so does a loopback TCP
  connection to one's own server;
* ``receive(m) from q`` is a step in the reader task of the q→p connection,
  stamped at frame arrival;
* ``adjust_correction`` hands each correction to the observers, as
  ``System.apply_correction`` does.

A connection names its sender once: its first frame must be a hello from a
configured pid.  A frame the codec or :func:`_check_body` rejects closes its
connection and is recorded in :attr:`NetPeer.rejected` (and counted as
``net.rejected`` when telemetry is active) instead of killing the reader.

The same class serves two deployments.  *Shared-axis* mode (``net run``):
every peer is a task on one event loop, all stamps are on one monotonic
axis, so one-way delays are measured exactly and the observers receive
every correction in nondecreasing real-time order (the invariant the PR-4
online observers need for exactness).  *Process* mode (``net serve``): each
peer is its own OS process with its own monotonic epoch, one-way delays are
unmeasurable and the measurement phase falls back to RTT/2; coordination
frames (envelope/params/probe/shutdown) flow through a control queue drained
by the serve-mode protocol in :mod:`repro.net.cluster`.
"""

from __future__ import annotations

import asyncio
import math
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..clocks.base import rho_rate_bounds
from ..clocks.drift import ConstantRateClock
from ..core.config import SyncParameters
from ..core.maintenance import WelchLynchProcess
from ..core.messages import RoundMessage
from ..sim.events import Message, MessageKind
from ..sim.recording import MessageRecord
from .measure import MeasuredEnvelope
from .wire import (WireError, decode_message, encode_message, pack_frame,
                   read_frame)

__all__ = ["Axis", "PeerConfig", "NetPeer", "make_net_clock"]

#: how long connect() retries a refused peer address (seconds) — peers of a
#: multi-process cluster start at slightly different times.
CONNECT_TIMEOUT = 15.0

#: interval between measurement ping volleys (seconds).
PING_INTERVAL = 0.01

#: the longest rejection reason a peer keeps: a frame body can be ~1 MB.
REASON_CHARS = 200

#: the fields the reader task reads from a frame, by frame type.
_FIELDS = {"ping": (("seq", int), ("t", float)),
           "pong": (("seq", int), ("t", float)),
           "msg": (("msg", dict),),
           "probe": (("t0", float),)}


class Axis:
    """A shared real-time axis: seconds since a chosen monotonic epoch.

    All peer timestamps (send times, arrival stamps, observer corrections)
    are expressed on this axis, so a single-process cluster gets one global
    ordering for free.  A multi-process peer re-bases its axis when the sync
    parameters arrive, aligning axis zero with the agreed go time.
    """

    __slots__ = ("epoch",)

    def __init__(self, epoch: Optional[float] = None):
        self.epoch = time.monotonic() if epoch is None else float(epoch)

    def now(self) -> float:
        return time.monotonic() - self.epoch

    def rebase(self, new_zero_in: float) -> None:
        """Move axis zero to ``new_zero_in`` seconds from now."""
        self.epoch = time.monotonic() + float(new_zero_in)


@dataclass
class PeerConfig:
    """Everything one peer needs to join a cluster."""

    pid: int
    n: int
    seed: int = 0
    rho: float = 1e-5
    pings: int = 5
    jitter_margin: float = 0.025
    #: one monotonic axis across all peers (single-process cluster)?
    shared_axis: bool = True
    #: pid -> (host, port); filled after servers bind (ports may be
    #: OS-assigned in single-process mode).
    peers: Dict[int, Tuple[str, int]] = field(default_factory=dict)


def make_net_clock(seed: int, pid: int, params: SyncParameters,
                   reference_time: float = 0.0) -> ConstantRateClock:
    """The deterministic seeded drift clock for peer ``pid``.

    Reading at ``reference_time`` (the go time) lands in
    ``T0 ± β/4`` — half the A4 budget, leaving the other half for start-up
    scheduling jitter — with a rate drawn from the ρ band.  Deterministic in
    (seed, pid, params), so every process of a cluster derives the same
    ensemble independently.
    """
    rng = random.Random((int(seed) * 1_000_003 + int(pid)) & 0xFFFFFFFF)
    lo, hi = rho_rate_bounds(params.rho)
    target = rng.uniform(-params.beta / 4.0, params.beta / 4.0)
    rate = rng.uniform(lo, hi)
    offset = (params.initial_round_time + target) - rate * reference_time
    return ConstantRateClock(offset=offset, rate=rate, rho=params.rho)


def _check_body(body: Dict[str, Any]) -> None:
    """Raise :class:`WireError` unless every field the reader task reads
    from ``body`` has its type: a stamp must be a finite float, and a bool
    is not an int."""
    kind = body.get("type")
    fields = _FIELDS.get(kind, ()) if isinstance(kind, str) else ()
    for key, expected in fields:
        value = body.get(key)
        if type(value) is not expected \
                or (expected is float and not math.isfinite(value)):
            raise WireError(f"{kind} frame needs a {expected.__name__} "
                            f"{key!r}, got {value!r}")


class NetPeer:
    """One participant: a TCP server, a full outgoing mesh, and the
    context of the :class:`WelchLynchProcess` it hosts."""

    def __init__(self, config: PeerConfig, axis: Optional[Axis] = None):
        self.config = config
        self.pid = config.pid
        #: the identity a hosted process reads from its context.
        self.process_id = config.pid
        self.n = config.n
        self.process_ids = range(config.n)
        self.axis = axis if axis is not None else Axis()
        self.envelope = MeasuredEnvelope(jitter_margin=config.jitter_margin)
        #: control frames (envelope/params/probe_reply/done/shutdown) for the
        #: serve-mode protocol; unused in single-process clusters.
        self.control: "asyncio.Queue[Tuple[int, Dict[str, Any]]]" = \
            asyncio.Queue()
        #: sync-phase one-way delay evidence (shared-axis mode only).
        self.sync_records: List[MessageRecord] = []
        self.frames_sent = 0
        self.frames_received = 0
        #: why each rejected connection was closed (cut to REASON_CHARS).
        self.rejected: List[str] = []
        # -- the hosted process (armed by run_sync) --
        self.process: Optional[WelchLynchProcess] = None
        self.clock: Optional[ConstantRateClock] = None
        self.corr = 0.0
        self._observers: Tuple[Any, ...] = ()
        #: resolved by the last correction, or failed by a raising step.
        self._done: Optional[asyncio.Future] = None
        self._now = 0.0  # axis time of the step in progress
        # -- transport --
        self._server: Optional[asyncio.AbstractServer] = None
        self._writers: Dict[int, asyncio.StreamWriter] = {}
        self._reader_tasks: List[asyncio.Task] = []
        self._hello = asyncio.Event()
        self._hellos_seen: set = set()
        self._sample_event = asyncio.Event()
        self._closed = False

    # -- transport lifecycle -------------------------------------------------
    async def start_server(self, host: str = "127.0.0.1",
                           port: int = 0) -> Tuple[str, int]:
        """Bind the listening socket; returns the actual (host, port)."""
        self._server = await asyncio.start_server(self._accept, host, port)
        sock = self._server.sockets[0]
        bound = sock.getsockname()
        return bound[0], bound[1]

    async def connect(self) -> None:
        """Open one outgoing stream to every peer (self included) and say
        hello; then wait until every peer has said hello to *us*."""
        for q in sorted(self.config.peers):
            host, port = self.config.peers[q]
            self._writers[q] = await self._dial(host, port)
            self._post(q, {"type": "hello", "sender": self.pid})
        await asyncio.wait_for(self._hello.wait(), CONNECT_TIMEOUT)

    async def _dial(self, host: str, port: int) -> asyncio.StreamWriter:
        deadline = time.monotonic() + CONNECT_TIMEOUT
        while True:
            try:
                _, writer = await asyncio.open_connection(host, port)
                return writer
            except OSError:
                if time.monotonic() >= deadline:
                    raise
                await asyncio.sleep(0.05)

    async def _accept(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._reader_tasks.append(task)
        try:
            hello = await read_frame(reader)
            if hello is None:
                return
            sender = hello.get("sender")
            if hello.get("type") != "hello" or type(sender) is not int \
                    or sender not in self.config.peers:
                raise WireError(f"first frame {hello!r} is not a hello "
                                f"from a configured peer")
            self._hellos_seen.add(sender)
            if len(self._hellos_seen) >= self.config.n:
                self._hello.set()
            while True:
                body = await read_frame(reader)
                if body is None:
                    return
                self.frames_received += 1
                _check_body(body)
                self._dispatch(sender, body)
        except WireError as error:
            self._reject(str(error))
        except (asyncio.CancelledError, ConnectionError):
            pass
        finally:
            writer.close()

    def _reject(self, reason: str) -> None:
        from ..telemetry import get_active

        self.rejected.append(reason[:REASON_CHARS])
        telemetry = get_active()
        if telemetry is not None:
            telemetry.registry.counter("net.rejected").inc()

    def _post(self, q: int, body: Dict[str, Any]) -> None:
        """Fire-and-forget one frame to peer ``q``.

        Frames are ~200 bytes against a 64 KiB+ kernel buffer, so skipping
        ``drain()`` cannot meaningfully build up; a closed transport just
        drops the frame (the peer is gone — its absence is the signal).
        """
        writer = self._writers.get(q)
        if writer is None or writer.is_closing():
            return
        writer.write(pack_frame(body))
        self.frames_sent += 1

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for task in self._reader_tasks:
            task.cancel()
        for writer in self._writers.values():
            writer.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    # -- frame dispatch ------------------------------------------------------
    def _dispatch(self, sender: int, body: Dict[str, Any]) -> None:
        kind = body.get("type")
        arrival = self.axis.now()
        if kind == "ping":
            self._post(sender, {"type": "pong", "seq": body["seq"],
                                "t": body["t"]})
            if self.config.shared_axis:
                # Sender's stamp is on our axis: exact one-way delay.
                self._record_sample(sender, self.pid, float(body["t"]),
                                    arrival - float(body["t"]))
        elif kind == "pong":
            if not self.config.shared_axis:
                # No shared clock across processes: estimate one way as
                # RTT/2, both stamps on our own monotonic clock.
                rtt = time.monotonic() - float(body["t"])
                self._record_sample(self.pid, sender, float(body["t"]),
                                    rtt / 2.0)
        elif kind == "msg":
            message = decode_message(body["msg"], delivery_time=arrival)
            self._on_message(sender, message, arrival)
        elif kind == "probe":
            local = self.local_time(arrival) if self.clock is not None \
                else None
            self._post(sender, {"type": "probe_reply", "pid": self.pid,
                                "t0": body["t0"], "local": local})
        else:
            # envelope / params / probe_reply / done / shutdown — the
            # serve-mode coordination protocol; the orchestrator drains these.
            self.control.put_nowait((sender, body))

    def _record_sample(self, sender: int, recipient: int, send_time: float,
                       delay: float) -> None:
        if delay < 0:
            # A clock stepped or the axis is not shared after all; dropping
            # the sample is safer than poisoning the envelope.
            return
        self.envelope.add(sender, recipient, send_time, delay)
        self._sample_event.set()

    def _on_message(self, sender: int, message: Message,
                    arrival: float) -> None:
        if not (self._armed and isinstance(message.payload, RoundMessage)):
            return
        self._step(arrival, self.process.on_message, sender, message.payload)
        if self.config.shared_axis:
            self.sync_records.append(MessageRecord(
                sender=sender, recipient=self.pid,
                send_time=message.send_time,
                delay=arrival - message.send_time))

    # -- measurement phase ---------------------------------------------------
    async def measure(self, timeout: float = 10.0) -> None:
        """Ping every peer ``config.pings`` times; wait for the samples.

        Shared axis: the *receiving* side of each ping records an exact
        one-way delay, so this peer's recorder fills with its n inbound
        ping streams.  Process mode: the *sending* side records RTT/2 on
        each pong.  Either way the expected count is ``pings · n``.

        Volleys are staggered per pid: if every peer pinged on the same
        beat, the loop would be busy for every sample and the observed
        *minimum* delay would never approach the idle-loop floor that
        sync-phase deliveries actually achieve.
        """
        await asyncio.sleep(
            PING_INTERVAL * self.pid / max(1, self.config.n))
        for seq in range(self.config.pings):
            stamp = self.axis.now() if self.config.shared_axis \
                else time.monotonic()
            for q in sorted(self.config.peers):
                self._post(q, {"type": "ping", "seq": seq, "t": stamp})
            await asyncio.sleep(PING_INTERVAL)
        expected = self.config.pings * self.config.n
        deadline = time.monotonic() + timeout
        while len(self.envelope) < expected:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            self._sample_event.clear()
            try:
                await asyncio.wait_for(self._sample_event.wait(), remaining)
            except asyncio.TimeoutError:
                break
        if len(self.envelope) < self.config.n:
            raise RuntimeError(
                f"peer {self.pid}: only {len(self.envelope)} delay samples "
                f"after {timeout}s; the mesh is not delivering")

    # -- the hosted process --------------------------------------------------
    async def run_sync(self, params: SyncParameters,
                       clock: ConstantRateClock, rounds: int,
                       observers: Sequence[Any] = ()) -> None:
        """Host one :class:`WelchLynchProcess` until it applies its
        ``rounds``-th correction; an error a step raised is raised here.

        The caller has already aligned axis zero (single process: clocks are
        referenced at the go time; multi-process: the axis was rebased when
        the params frame arrived).  START comes when the logical clock reads
        ``T⁰``, as ``System.schedule_all_starts_at_logical`` places it.
        """
        self.clock = clock
        self.corr = 0.0
        self.process = WelchLynchProcess(params, max_rounds=rounds)
        self._observers = tuple(observers)
        self._done = asyncio.get_running_loop().create_future()
        self._at_local(params.initial_round_time, self.process.on_start)
        await self._done

    @property
    def _armed(self) -> bool:
        return self._done is not None and not self._done.done()

    def _at_local(self, logical_time: float,
                  handler: Callable[..., None]) -> None:
        """A ``handler`` step when the logical clock reads ``logical_time``;
        a time already past fires on the next loop turn."""
        target = self.clock.real_time_at(logical_time - self.corr)
        asyncio.get_running_loop().call_later(
            target - self.axis.now(),
            lambda: self._step(self.axis.now(), handler))

    def _step(self, now: float, handler: Callable[..., None],
              *args: Any) -> None:
        """One interrupt of the hosted process, at axis time ``now``.  An
        error fails ``run_sync``'s future: raised out of a loop callback it
        would only be logged, and ``run_sync`` would wait forever."""
        if not self._armed:
            return
        self._now = now
        try:
            handler(self, *args)
        except Exception as error:
            self._done.set_exception(error)
            return
        if self.process.round_index == self.process.max_rounds:
            self._done.set_result(None)

    # -- the ProcessContext calls WelchLynchProcess makes --------------------
    def local_time(self, axis_time: Optional[float] = None) -> float:
        """``L_p(t) = Ph_p(t) + CORR_p`` at axis time ``t`` (by default the
        current step's)."""
        t = self._now if axis_time is None else axis_time
        return self.clock.read(t) + self.corr

    def broadcast(self, payload: Any) -> None:
        """``broadcast(m)``: one frame to every peer, this one included."""
        body = {"type": "msg", "msg": encode_message(Message(
            kind=MessageKind.ORDINARY, sender=self.pid, recipient=-1,
            payload=payload, send_time=self._now, delivery_time=self._now))}
        for q in sorted(self.config.peers):
            self._post(q, body)

    def set_timer(self, logical_time: float) -> bool:
        """``set-timer(T)``; never missed, as a past ``T`` fires at once."""
        self._at_local(logical_time, self.process.on_timer)
        return True

    def adjust_correction(self, adjustment: float,
                          round_index: int = -1) -> float:
        """``CORR := CORR + ADJ``, handed to every observer as
        :meth:`~repro.sim.system.System.apply_correction` does."""
        self.corr += adjustment
        for observer in self._observers:
            observer.on_correction(self.pid, self._now, adjustment,
                                   self.corr, round_index)
        return self.corr

    def log(self, event: str, **data: Any) -> None:
        """Sockets keep no trace."""
