"""Shifting transforms: the executable form of the paper's lower-bound argument.

The paper's second headline result — no algorithm can synchronize clocks to
better than ``ε(1 − 1/n)`` — is proved by *shifting*: given an admissible
execution, retime every action of process ``p`` by a per-process real-time
offset ``s_p``.  Three facts carry the whole proof, and this module makes each
of them executable:

1. **Local views are unchanged.**  A shifted process does at real time
   ``t + s_p`` exactly what it did at ``t``; since processes observe only
   their own clocks and incoming messages, no process can distinguish the
   shifted execution from the original
   (:func:`indistinguishability_report` checks this mechanically).
2. **Message delays retime by the shift difference.**  A message from ``p``
   to ``q`` with delay ``d`` has delay ``d + (s_q − s_p)`` in the shifted
   execution.  The shifted execution is *admissible* (assumption A3 still
   holds) iff every retimed delay stays inside ``[δ−ε, δ+ε]``
   (:func:`check_shift_admissible`).
3. **Logical clocks transform by exactly the shift.**  The shifted local time
   satisfies ``L'_p(t + s_p) = L_p(t)``: corrections are applied at shifted
   real times with unchanged values, and the shifted physical clock reads at
   ``t`` what the base clock read at ``t − s_p``.

:func:`shift_execution` applies a shift vector to an
:class:`~repro.sim.trace.ExecutionTrace`, producing a fully queryable shifted
trace (clocks, correction histories, and event log all retimed; message
statistics shared).  Composing a shift with its negation collapses
structurally — ``shift ∘ unshift`` returns the *identical* base trace object,
so the transform group acts exactly, with no floating-point residue.

:mod:`repro.adversary.certifier` builds the paper's chain of shifted
executions on top of these primitives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple, Union

from ..clocks.base import Clock
from ..clocks.logical import CorrectionHistory
from ..sim.recording import MessageRecord
from ..sim.trace import ExecutionTrace, TraceEvent, _trace_from_columns

__all__ = [
    "ShiftedClock",
    "shift_clock",
    "shift_history",
    "normalize_shifts",
    "ShiftedExecution",
    "shift_execution",
    "ShiftAdmissibility",
    "check_shift_admissible",
    "IndistinguishabilityReport",
    "indistinguishability_report",
]

#: a shift vector: per-process offsets, by pid (missing pids shift by 0).
ShiftVector = Union[Mapping[int, float], Sequence[float]]


class ShiftedClock(Clock):
    """The physical clock of a process whose execution was shifted by ``shift``.

    At real time ``t`` the shifted process is at the point of its execution
    the base process reached at ``t − shift``, so the clock shows exactly what
    the base clock showed there: ``read(t) = base.read(t − shift)``.  The
    inverse moves the other way.

    The wrapper deliberately exposes *no* linear fast form even over an
    affine base clock: ``offset + rate·(t − s)`` and ``(offset − rate·s) +
    rate·t`` round differently, and the bit-identity contract between the
    batch reconstruction index and per-sample evaluation only survives if
    every path funnels through the same ``read``.
    """

    def __init__(self, base: Clock, shift: float):
        self.base = base
        self.shift = float(shift)
        self.rho = base.rho

    def read(self, real_time: float) -> float:
        return self.base.read(real_time - self.shift)

    def real_time_at(self, clock_time: float) -> float:
        return self.base.real_time_at(clock_time) + self.shift

    def rate_at(self, real_time: float, dt: float = 1e-6) -> float:
        return self.base.rate_at(real_time - self.shift, dt)

    def __repr__(self) -> str:
        return f"ShiftedClock({self.base!r}, shift={self.shift!r})"


def shift_clock(clock: Clock, shift: float) -> Clock:
    """``clock`` retimed by ``shift``; composes and collapses exactly.

    Shifting an already-shifted clock adds the offsets; a net offset of
    exactly 0.0 returns the base clock object itself, which is what makes
    ``shift ∘ unshift`` the identity with no floating-point residue.
    """
    shift = float(shift)
    if isinstance(clock, ShiftedClock):
        net = clock.shift + shift
        return clock.base if net == 0.0 else ShiftedClock(clock.base, net)
    if shift == 0.0:
        return clock
    return ShiftedClock(clock, shift)


def shift_history(history: CorrectionHistory, shift: float) -> CorrectionHistory:
    """The correction history with every breakpoint retimed by ``shift``.

    CORR values (the trim horizon too) are untouched — a shifted process
    applies the *same* corrections, just ``shift`` later in real time (the
    "logical clocks transform by exactly the shift" half of the argument).
    """
    shift = float(shift)
    return history if shift == 0.0 else history.shifted(shift)


def normalize_shifts(shifts: ShiftVector, pids: Sequence[int]) -> Dict[int, float]:
    """A complete pid → offset map over ``pids`` (missing entries shift by 0)."""
    if isinstance(shifts, Mapping):
        unknown = sorted(set(shifts) - set(pids))
        if unknown:
            raise ValueError(f"shift vector names unknown processes {unknown}")
        return {pid: float(shifts.get(pid, 0.0)) for pid in pids}
    values = [float(v) for v in shifts]
    if len(values) != len(pids):
        raise ValueError(f"shift vector has {len(values)} entries for "
                         f"{len(pids)} processes")
    return dict(zip(pids, values))


@dataclass(frozen=True)
class ShiftedExecution:
    """A base execution, a shift vector, and the resulting shifted trace.

    ``trace`` is a fully queryable :class:`ExecutionTrace` (local times, skew
    series, events) of the shifted execution; when every net shift is exactly
    zero it *is* the base trace object.
    """

    base: ExecutionTrace
    shifts: Dict[int, float]
    trace: ExecutionTrace

    @property
    def is_identity(self) -> bool:
        """True when every process shifts by exactly zero."""
        return all(value == 0.0 for value in self.shifts.values())

    @property
    def spread(self) -> float:
        """``max(s) − min(s)``: how far apart the shifts pull the processes."""
        values = list(self.shifts.values())
        return max(values) - min(values) if values else 0.0

    def unshift(self) -> "ShiftedExecution":
        """The inverse transform; its ``trace`` is the base trace itself."""
        return shift_execution(self, {pid: -value
                                      for pid, value in self.shifts.items()})


def _trace_pids(trace: ExecutionTrace) -> List[int]:
    """Every process id of a trace, faulty ones included, sorted."""
    return sorted(set(trace.nonfaulty_ids) | set(trace.faulty_ids))


def shift_execution(base: Union[ExecutionTrace, ShiftedExecution],
                    shifts: ShiftVector) -> ShiftedExecution:
    """Retime an execution by a per-process real-time shift vector.

    Accepts either a plain trace or a previous :class:`ShiftedExecution`; in
    the latter case the shifts *compose* against the original base, so
    ``shift_execution(shift_execution(t, s), -s).trace is t`` — the identity
    holds structurally, not merely up to rounding.

    The shifted trace shares the base message statistics and fault set; its
    event log is the base log with each event retimed by its process's shift
    and re-sorted into real-time order (stable, so simultaneous events keep
    their base order).
    """
    if isinstance(base, ShiftedExecution):
        pids = _trace_pids(base.base)
        extra = normalize_shifts(shifts, pids)
        net = {pid: base.shifts.get(pid, 0.0) + extra[pid] for pid in pids}
        return shift_execution(base.base, net)
    trace = base
    pids = _trace_pids(trace)
    vector = normalize_shifts(shifts, pids)
    if all(value == 0.0 for value in vector.values()):
        return ShiftedExecution(base=trace, shifts=vector, trace=trace)
    clocks = {pid: shift_clock(trace.view(pid).physical_clock, vector[pid])
              for pid in pids}
    histories = {pid: shift_history(trace.correction_history(pid), vector[pid])
                 for pid in pids}
    log = trace.log
    log = log._replace(real_times=[time + vector[pid] for time, pid
                                   in zip(log.real_times, log.process_ids)])
    order = sorted(range(len(log.real_times)), key=log.real_times.__getitem__)
    end_time = trace.end_time + max(0.0, max(vector.values()))
    shifted = _trace_from_columns(
        clocks, histories, trace.faulty_ids,
        *([column[i] for i in order] for column in log), trace.stats, end_time)
    return ShiftedExecution(base=trace, shifts=vector, trace=shifted)


# ---------------------------------------------------------------------------
# Admissibility: does A3 still hold after the shift?
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShiftAdmissibility:
    """The A3 audit of one shifted execution's retimed message delays."""

    admissible: bool
    messages_checked: int
    #: extrema of the retimed delays (the envelope midpoint when no message
    #: was delivered, so the trivial case still reads as in-envelope).
    min_delay: float
    max_delay: float
    violations: int
    #: up to five offending (sender, recipient, retimed delay) triples.
    examples: Tuple[Tuple[int, int, float], ...] = ()


def check_shift_admissible(records: Sequence[MessageRecord],
                           shifts: ShiftVector,
                           delta: float, epsilon: float,
                           tolerance: float = 1e-9) -> ShiftAdmissibility:
    """Audit assumption A3 for the shifted execution.

    Every delivered message ``p → q`` with base delay ``d`` has retimed delay
    ``d + (s_q − s_p)`` (sent ``s_p`` later, received ``s_q`` later); the
    shifted execution is admissible iff every retimed delay lies in
    ``[δ−ε, δ+ε]``.  Dropped messages are unconstrained — a lost message is
    lost in every shifted execution.  ``records`` come from a
    :class:`~repro.sim.recording.NetworkRecorder` attached to the base run.
    """
    pids = set()
    for record in records:
        pids.add(record.sender)
        pids.add(record.recipient)
    if isinstance(shifts, Mapping):
        # Mapping semantics match normalize_shifts: missing pids shift by 0.
        vector = {pid: float(shifts.get(pid, 0.0)) for pid in pids}
    else:
        vector = {pid: float(value) for pid, value in enumerate(shifts)}
        uncovered = sorted(pids - set(vector))
        if uncovered:
            # A truncated sequence would silently treat the missing
            # processes as unshifted and could certify an inadmissible
            # family as admissible — fail loudly instead.
            raise ValueError(f"sequence shift vector has {len(vector)} "
                             f"entries but the records involve processes "
                             f"{uncovered}; pass one entry per process or "
                             f"use a mapping")
    low = delta - epsilon
    high = delta + epsilon
    checked = 0
    minimum = float("inf")
    maximum = float("-inf")
    violations = 0
    examples: List[Tuple[int, int, float]] = []
    for record in records:
        if record.dropped:
            continue
        retimed = record.delay + (vector.get(record.recipient, 0.0)
                                  - vector.get(record.sender, 0.0))
        checked += 1
        if retimed < minimum:
            minimum = retimed
        if retimed > maximum:
            maximum = retimed
        if not (low - tolerance <= retimed <= high + tolerance):
            violations += 1
            if len(examples) < 5:
                examples.append((record.sender, record.recipient, retimed))
    if checked == 0:
        minimum = maximum = delta
    return ShiftAdmissibility(admissible=violations == 0,
                              messages_checked=checked,
                              min_delay=minimum, max_delay=maximum,
                              violations=violations,
                              examples=tuple(examples))


# ---------------------------------------------------------------------------
# Indistinguishability: local views survive the shift unchanged.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IndistinguishabilityReport:
    """Mechanical check that a shift preserved every process's local view."""

    events_match: bool
    clocks_match: bool
    events_checked: int
    samples: int
    max_clock_deviation: float

    @property
    def indistinguishable(self) -> bool:
        return self.events_match and self.clocks_match


def indistinguishability_report(shifted: ShiftedExecution,
                                samples_per_process: int = 8,
                                tolerance: float = 1e-9
                                ) -> IndistinguishabilityReport:
    """Verify that the shifted execution is the base execution, retimed.

    Two checks, per process ``p`` with shift ``s_p``:

    * **events** — the shifted log restricted to ``p`` is the base log
      restricted to ``p`` with every timestamp moved by exactly ``s_p`` and
      names/data unchanged (what ``p`` logged, in the order it logged it);
    * **clocks** — ``L'_p(t + s_p) = L_p(t)`` on a sample of real times
      spanning the run, including every correction breakpoint (where the
      piecewise local-time function could disagree if the corrections had
      not moved in lockstep with the clock).
    """
    base = shifted.base
    trace = shifted.trace
    vector = shifted.shifts
    pids = sorted(vector)
    events_match = True
    events_checked = 0
    by_pid: Tuple[Dict[int, List[TraceEvent]], ...] = ({}, {})
    for grouped, source in zip(by_pid, (base, trace)):  # one read per log
        for event in source.events:
            grouped.setdefault(event.process_id, []).append(event)
    for pid in pids:
        offset = vector[pid]
        base_events = by_pid[0].get(pid, [])
        shifted_events = by_pid[1].get(pid, [])
        if len(base_events) != len(shifted_events):
            events_match = False
            continue
        for before, after in zip(base_events, shifted_events):
            events_checked += 1
            if (after.real_time != before.real_time + offset
                    or after.name != before.name
                    or after.data != before.data):
                events_match = False
    clocks_match = True
    samples = 0
    max_deviation = 0.0
    span = max(base.end_time, 1.0)
    for pid in pids:
        offset = vector[pid]
        probe_times = [base.end_time * index / max(1, samples_per_process - 1)
                       for index in range(samples_per_process)]
        probe_times += [t for t in base.correction_history(pid).times
                        if t != float("-inf")]
        for t in probe_times:
            samples += 1
            deviation = abs(trace.local_time(pid, t + offset)
                            - base.local_time(pid, t))
            if deviation > max_deviation:
                max_deviation = deviation
            if deviation > tolerance * span:
                clocks_match = False
    return IndistinguishabilityReport(events_match=events_match,
                                      clocks_match=clocks_match,
                                      events_checked=events_checked,
                                      samples=samples,
                                      max_clock_deviation=max_deviation)
