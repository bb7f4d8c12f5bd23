"""The streaming observer pipeline: watch a run instead of storing it.

Historically the simulator recorded everything — every algorithm-level event
into a list, every correction into an unbounded history — and the analysis
layer replayed the finished :class:`~repro.sim.trace.ExecutionTrace`.  That
"record everything, analyze later" design caps horizon length: a million-event
run has to fit in memory before the first metric can be computed.

This module decouples *observation* from *storage*.  A :class:`System` owns a
list of :class:`Observer` instances and emits a small set of notifications as
the run progresses:

``on_attach(system)``
    the observer joined the system (resolve clocks, initial corrections here —
    observers must **not** keep a reference to the system itself, so that
    snapshots stay self-contained);
``on_dispatch(kind, sender, recipient, payload, send_time, time)``
    one interrupt left the buffer (fired after the handler ran, also for
    interrupts suppressed because the recipient crashed);
``on_send(sender, recipient, send_time, delivery_time)``
    the network accepted one *end-to-end* message; ``delivery_time`` is
    ``None`` when it was lost (delay-model drop, link drop, link down, or no
    route) — each logical message is reported exactly once, no matter how
    many relay hops it takes;
``on_log(pid, real_time, name, data)``
    a process logged an algorithm-level event (no object is built for it);
``on_correction(pid, real_time, adjustment, new_correction, round_index)``
    a process updated its CORR variable;
``on_advance(time)``
    real time advanced to ``time`` with the buffer drained up to it (end of a
    ``run_until`` segment) — no notification at an earlier real time can
    follow, so streaming consumers may finalize everything up to ``time``.

Only the hooks a subclass actually overrides are dispatched (the system keeps
per-hook sink lists), so attaching an observer that only cares about
corrections costs nothing on the message path.

Full-trace recording is just the default observer: :class:`TraceRecorder`
appends log events to the columns the system's :class:`ExecutionTrace` views.
Construct a :class:`System` with ``record_trace=False`` to drop it (and bound
the correction histories), at which point the run needs O(n) memory plus
whatever the attached observers keep — see :mod:`repro.analysis.online` for
O(n) streaming metrics.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, TYPE_CHECKING

from .trace import EventLog

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from .system import System
    from .events import MessageKind

__all__ = ["Observer", "ObserverError", "TraceRecorder", "HOOK_NAMES"]

#: every overridable notification hook, in dispatch-list order.
HOOK_NAMES = ("on_dispatch", "on_send", "on_log", "on_correction", "on_advance")


class ObserverError(RuntimeError):
    """An observer hook raised mid-run.

    Observers are pure taps — a broken one must not masquerade as a simulator
    bug, so the system wraps every hook dispatch and re-raises failures as
    this type, naming the hook and the offending observer (``err.hook``,
    ``err.observer``).  The original exception rides along as
    ``__cause__``.  The system's own state (event counts, message statistics,
    the recorded trace so far) stays consistent: the interrupt that was being
    reported had already been fully processed when the hook fired.
    """

    def __init__(self, hook: str, observer: Any, message: Optional[str] = None):
        self.hook = hook
        self.observer = observer
        label = getattr(observer, "name", None) or type(observer).__name__
        super().__init__(
            message or f"observer {label!r} ({type(observer).__name__}) "
                       f"raised in {hook}")


class Observer:
    """Base class for streaming observers; override only the hooks you need."""

    #: key under which scenario results expose this observer (override).
    name: str = "observer"

    def on_attach(self, system: "System") -> None:
        """The observer was attached; resolve per-process state here.

        Implementations must copy what they need (clocks, current corrections,
        the nonfaulty id set) rather than storing ``system``: snapshots pickle
        observers, and a system reference would drag the whole simulator in.
        """

    def on_dispatch(self, kind: "MessageKind", sender: int, recipient: int,
                    payload: Any, send_time: float, time: float) -> None:
        """One interrupt was delivered (or suppressed by a crash) at ``time``."""

    def on_send(self, sender: int, recipient: int, send_time: float,
                delivery_time: Optional[float]) -> None:
        """The network accepted one end-to-end message (``None`` = lost)."""

    def on_log(self, pid: int, real_time: float, name: str, data: Dict) -> None:
        """A process logged an algorithm-level event."""

    def on_correction(self, pid: int, real_time: float, adjustment: float,
                      new_correction: float, round_index: int) -> None:
        """A process updated CORR (``round_index`` -1 for initial values)."""

    def on_advance(self, time: float) -> None:
        """Real time advanced to ``time``; nothing earlier can arrive anymore."""

    def on_finalize(self) -> None:
        """The run is over: no further notification of any kind will follow.

        Invoked by :meth:`System.finalize_observers` (the scenario builders
        call it after the last ``run_until`` segment).  Lets grid-based
        consumers flush sample points that float rounding placed an ulp past
        the final ``on_advance`` time.
        """

    def subscribed(self, hook: str) -> bool:
        """Whether this observer overrides ``hook`` (drives sink dispatch)."""
        return getattr(type(self), hook) is not getattr(Observer, hook)


class TraceRecorder(Observer):
    """The default observer: full-trace recording of algorithm-level events.

    Owns the :class:`~repro.sim.trace.EventLog` the system's
    :meth:`~repro.sim.system.System.trace` shares with every
    :class:`~repro.sim.trace.ExecutionTrace` view — one removable observer.
    """

    name = "trace"

    def __init__(self) -> None:
        self.log = EventLog([], [], [], [])

    def on_log(self, pid: int, real_time: float, name: str, data: Dict) -> None:
        self.log.append(real_time, pid, name, data)
