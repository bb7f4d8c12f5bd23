"""Interrupt-driven process automata and their interface to the system.

A process in the model (Section 2.1) is an automaton: at each step it receives
a message (ordinary, START or TIMER), consults its current state and its
physical clock, and then changes state, sends messages, and sets timers.
Processing is instantaneous.

Algorithms subclass :class:`Process` and implement the three interrupt
handlers.  All interaction with the world goes through the
:class:`ProcessContext` handed to every handler, which exposes exactly the
capabilities the model grants a process:

* read the physical clock (``physical_time``) and the local time
  (``local_time`` = physical + CORR),
* manipulate the correction variable (``set_initial_correction``,
  ``adjust_correction``) — recorded centrally so the analysis can reconstruct
  every logical clock,
* ``send`` / ``broadcast`` messages,
* ``set_timer`` for a future *logical* time (per the paper's ``set-timer(T)``
  subroutine, which arms the timer for when the physical clock reaches
  ``T - CORR``), or ``set_timer_physical`` for a raw physical-clock time.

Faulty processes are simply other :class:`Process` implementations (or
wrappers from :mod:`repro.faults`); the model places no restrictions on what
they do at a step.
"""

from __future__ import annotations

import random
from typing import Any, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from .system import System

__all__ = ["Process", "ProcessContext"]


class Process:
    """Base class for all automata run by the simulator."""

    #: set by fault wrappers / faulty implementations; excluded from metrics.
    is_faulty: bool = False

    def on_start(self, ctx: "ProcessContext") -> None:
        """Handle the START interrupt (initial system wake-up)."""

    def on_timer(self, ctx: "ProcessContext", payload: Any = None) -> None:
        """Handle a TIMER interrupt previously set by this process."""

    def on_message(self, ctx: "ProcessContext", sender: int, payload: Any) -> None:
        """Handle an ordinary message from ``sender``."""

    def label(self) -> str:
        """Human-readable name used in traces."""
        return type(self).__name__


class ProcessContext:
    """The capabilities available to a process while handling one interrupt."""

    __slots__ = ("_system", "_pid", "_clock")

    def __init__(self, system: "System", process_id: int):
        self._system = system
        self._pid = process_id
        # The physical clock of a process never changes after system
        # construction (unlike its automaton or correction history), so the
        # context resolves it once.
        self._clock = system.clock_of(process_id)

    # -- identity ------------------------------------------------------------
    @property
    def process_id(self) -> int:
        """This process' identifier (0 .. n-1)."""
        return self._pid

    @property
    def n(self) -> int:
        """Total number of processes in the system."""
        return self._system.n

    @property
    def process_ids(self):
        """All process identifiers."""
        return range(self._system.n)

    @property
    def rng(self) -> random.Random:
        """Per-process deterministic random source (for faulty behaviour)."""
        return self._system.process_rng(self._pid)

    # -- clocks ---------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current *real* time.

        Real time is not observable by the algorithm in the model; it is
        exposed only so fault strategies and instrumentation can use it.
        Correct algorithm implementations must not read it.
        """
        return self._system.current_time

    def physical_time(self) -> float:
        """Current reading of this process' physical clock, ``Ph_p(t)``."""
        return self._clock.read(self._system.current_time)

    @property
    def correction(self) -> float:
        """Current value of the CORR variable."""
        return self._system.correction_history(self._pid).current()

    def local_time(self) -> float:
        """``local-time()`` of the pseudo-code: physical clock + CORR."""
        # physical_time() + correction, inlined: every ARR write reads it.
        system = self._system
        return (self._clock.read(system._current_time)
                + system._histories[self._pid]._corrections[-1])

    # -- correction variable ---------------------------------------------------
    def set_initial_correction(self, value: float) -> None:
        """Overwrite the initial CORR value (before the algorithm starts)."""
        self._system.set_initial_correction(self._pid, value)

    def adjust_correction(self, adjustment: float, round_index: int = -1) -> float:
        """``CORR := CORR + adjustment``; returns the new CORR value.

        Routed through the system so streaming observers see every CORR
        update (same arithmetic and history bookkeeping as before).
        """
        return self._system.apply_correction(self._pid, adjustment, round_index)

    # -- communication ----------------------------------------------------------
    def send(self, recipient: int, payload: Any) -> None:
        """Send an ordinary message to ``recipient`` (may be self)."""
        self._system.post_message(self._pid, recipient, payload)

    def broadcast(self, payload: Any) -> None:
        """``broadcast(m)``: send ``payload`` to every process, including self."""
        self._system.broadcast_from(self._pid, payload)

    def send_divergent(self, payloads: dict) -> None:
        """Send different payloads to different recipients (Byzantine capability)."""
        self._system.send_divergent(self._pid, payloads)

    # -- timers ------------------------------------------------------------------
    def set_timer(self, logical_time: float, payload: Any = None) -> bool:
        """``set-timer(T)``: arm a timer for when the logical clock reaches ``T``.

        Per the paper this is equivalent to a timer for physical-clock value
        ``T - CORR`` with the *current* CORR.  Returns True when the timer was
        actually scheduled (i.e. the target is still in the future).
        """
        return self.set_timer_physical(logical_time - self.correction, payload)

    def set_timer_physical(self, physical_time: float, payload: Any = None) -> bool:
        """Arm a timer for when the physical clock reaches ``physical_time``."""
        return self._system.post_timer(self._pid, physical_time, payload)

    # -- instrumentation -----------------------------------------------------------
    def log(self, event: str, **data: Any) -> None:
        """Record an algorithm-level event in the execution trace."""
        # The kwargs dict is freshly built per call, so the trace takes
        # ownership of it.
        self._system.log_event(self._pid, event, data)
