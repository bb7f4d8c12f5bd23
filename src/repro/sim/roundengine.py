"""One round kernel: the maintenance algorithm over ``(S, n)`` arrays.

Every round of the Welch–Lynch maintenance algorithm is the same three
steps: each nonfaulty process broadcasts at logical time Tⁱ, collects
arrivals for the window (1+ρ)(β+δ+ε), and sets CORR += (Tⁱ + δ) −
mid(reduce(ARR)).  Rounds are globally synchronized by the sync interval P,
so :class:`RoundSystem` runs them as a handful of array kernels per round,
over arrays with a leading replica axis — S seeds of one spec in lockstep.
Two groupings share every line of it, each with one entry point:

* a **replica group** (:func:`repro.sim.vectorized.execute_batch`): S ≥ 2
  seeds of one spec on the complete graph, Byzantine attackers included;
* a **lone run** (:func:`try_execute`): S = 1, on the complete graph or on
  any connected topology, whose CSR adjacency and multi-source BFS come
  from :class:`~repro.topology.index.TopologyIndex`.  Its cost is bound by
  the delay draws, one per hop: about n²·(mean hop count) a round, i.e.
  n² on the complete graph and ~3.9·n² on the hierarchy (~4·10^8 draws a
  round at n = 10^4, ~4·10^10 at n = 10^5).

Per round and replica, the send events — live broadcasts plus the attacker
slots that are due — form one ledger sorted by real send time, and their
delay draws replay a mirrored Mersenne-Twister stream in exactly the serial
global send order.  The ledger goes through in chunks of at most
:data:`_CHUNK_CELLS` draws, summed over the replicas, each one ``(S, chunk,
n)`` arrival block built with one dense add per hop level, so the working
set stays a few ~8 MB arrays whatever S, n and the diameter.  The midpoint
``(sorted[f] + sorted[n-1-f]) / 2`` needs only each receiver's f+1 smallest
and f+1 largest values: correct senders reduce to their f+1 earliest and
latest arrivals (a clock value never decreases with the arrival time), and
the ≤ f fault senders keep dense ``(S, fc, n)`` ARR columns under the serial
overwrite rules.  Memory per round is O(S·n·f) beyond the chunk.

**Bit-identity contract.**  The serial loop stays the reference and the
kernel reproduces it float for float:

* every arithmetic expression keeps the serial operation order
  (``(T - CORR - offset) / rate`` for timer targets,
  ``(offset + rate*t) + CORR`` for local times,
  ``(sorted[f] + sorted[n-1-f]) / 2`` for the midpoint,
  ``(T + δ) - avg`` for the adjustment);
* delay draws come from per-replica ``numpy.random.RandomState`` streams
  seeded by transplanting ``random.Random(seed)``'s Mersenne-Twister state,
  so ``random_sample(k)`` replays exactly the ``k`` ``rng.random()`` calls of
  the serial ledger (:meth:`repro.sim.network.DelayModel.draws`, one call
  per send);
* the clock ensembles are not mirrored at all: the kernel calls
  :func:`~repro.clocks.drift.make_clock_ensemble` per replica and reads the
  offsets/rates off the real clock objects (which the results then share).

The kernel handles the *clean path*, where every value a correct sender
delivers lands inside the window it is read in — the regime the
Lundelius–Lynch window derivation guarantees.  A replica that leaves it — a
tied send time, a missed round, a late or stale arrival, a tied ARR write,
the event budget — is flagged in ``bad`` with its ``reason`` and re-runs
through the serial loop, which also runs every spec :func:`decline_reason`
names a reason for.  Which grouping runs follows from the group's size
and n (:func:`repro.runner.spec.engine_for`), never from the spec.  The
hypothesis parity suite (``tests/property/test_roundengine_parity.py``)
enforces the contract for both groupings on both TraceIndex backends.
"""

from __future__ import annotations

import heapq
import random
from collections import Counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..clocks.drift import make_clock_ensemble
from ..clocks.logical import CorrectionHistory
from .system import _BOUNDED_HISTORY_ENTRIES
from .trace import ExecutionTrace, MessageStats
from .traceindex import numpy_enabled

try:  # pragma: no cover - exercised via the parity suite on both backends
    import numpy as _np
except ImportError:  # pragma: no cover - numpy genuinely absent
    _np = None

__all__ = [
    "decline_reason",
    "try_execute",
    "RoundSystem",
    "FAULT_KINDS",
    "AUTO_MIN_N",
    "DEFAULT_EVENT_BUDGET",
]

#: fault behaviours whose event skeletons the kernel reproduces.
#: ``random_noise`` (per-process rng) and ``omission`` (per-message coin
#: flips) diverge per replica and always take the serial path.
FAULT_KINDS = frozenset(
    {"silent", "crash", "two_faced", "skew_early", "skew_late"})

#: the Byzantine kinds: python attacker schedules on the complete graph.
_BYZANTINE = frozenset({"two_faced", "skew_early", "skew_late"})

#: the simulator's default interrupt budget (``max_events`` of ``_run``);
#: replicas that would exceed their budget re-run serially, so the serial
#: path raises :class:`~repro.sim.events.EventBudgetExceeded` exactly.
DEFAULT_EVENT_BUDGET = 2_000_000

#: below this n the serial loop (or a replica group) wins; at or above it a
#: lone spec runs on the kernel by default, and so does each member of a
#: group, alone.  ``engine="kernel"`` lifts the floor for lone specs.
AUTO_MIN_N = 512

#: dense fault cells (fault senders × receivers) a spec may need; above
#: this the fault columns would dominate memory, so the spec runs serially.
_MAX_FAULT_CELLS = 1 << 22

#: chunk sizing: at most ~1M delay draws (8 MB as float64) per kernel,
#: summed over the replicas; a rank counts at least n cells per replica,
#: so the ``(S, chunk, n)`` blocks stay as small.  One sender whose
#: broadcast draws more forms a chunk of its own.
_CHUNK_CELLS = 1 << 20

#: receiver rows per observer-grid kernel, divided among the replicas, so
#: the (replicas × rows × grid) CORR-lookup and local-time blocks stay
#: bounded.
_OBS_CHUNK_ROWS = 4096


def decline_reason(spec: Any, replicas: int = 1) -> Optional[str]:
    """Why the kernel declines ``spec`` in a group of ``replicas`` seeds.

    None when it accepts it.  The scope: numpy on, a streaming maintenance
    run with uniform/fixed delays, constant/perfect clocks, no scenario
    options or checkpoints, only the skew/validity observers, a fault kind
    from :data:`FAULT_KINDS` and at most :data:`_MAX_FAULT_CELLS` fault
    cells.  The complete graph runs at any group size; an explicit topology
    only alone (seeded generators such as ``random_gnp`` build a different
    graph for each seed) and only with silent or crash faults.
    :class:`RoundSystem` still checks the *built* topology (connectivity,
    extra delays, drops).
    """
    if spec.topology is not None:
        if replicas > 1:
            return "a topology in a replica group"
        if spec.fault_kind in _BYZANTINE:
            return "Byzantine faults on an explicit topology"
    if _np is None or not numpy_enabled():
        return "numpy is off"
    if spec.kind != "maintenance":
        return f"kind {spec.kind!r} is not maintenance"
    if spec.record_trace:
        return "the spec records a trace"
    if spec.delay not in ("uniform", "fixed") or spec.delay_options:
        return f"delay model {spec.delay!r} is not plain uniform/fixed"
    if spec.clock_kind not in ("constant", "perfect"):
        return f"clock kind {spec.clock_kind!r}"
    if spec.options or spec.checkpoint_every is not None:
        return "scenario options or checkpoints"
    if not set(spec.observers) <= {"skew", "validity"}:
        return f"observers {spec.observers}"
    if spec.fault_kind is not None and spec.fault_kind not in FAULT_KINDS:
        return f"fault kind {spec.fault_kind!r}"
    n, fc = spec.params.n, _fault_count(spec)
    if n < 2:
        return "fewer than 2 processes"
    if not 0 <= fc < n:
        return f"fault count {fc} of n={n}"
    if fc * n > _MAX_FAULT_CELLS:
        return f"{fc} fault columns of n={n}"
    return None


def _fault_count(spec: Any) -> int:
    if spec.fault_kind is None:
        return 0
    if spec.fault_count is not None:
        return int(spec.fault_count)
    return int(spec.params.f)


def _mirror_rng(seed: int) -> "Any":
    """A numpy RandomState replaying ``random.Random(seed)``'s draw stream.

    Both generators are Mersenne-Twister; transplanting the 625-word state
    makes ``random_sample(k)`` bit-identical to ``k`` successive
    ``rng.random()`` calls on the serial system RNG.
    """
    state = random.Random(seed).getstate()
    keys, pos = state[1][:-1], state[1][-1]
    mirrored = _np.random.RandomState()
    mirrored.set_state(("MT19937", _np.array(keys, dtype=_np.uint32), pos))
    return mirrored


class _AttackerSchedule:
    """Deterministic send/timer schedule of one Byzantine attacker.

    Attackers never adjust CORR, so their entire event timeline is a pure
    function of their clock and the public parameters — computed here in
    plain Python with the serial arithmetic, then merged into the lockstep
    rounds purely for delay-draw ordering.  ``slots`` is chronological *per
    attacker*; global ordering happens in the round ledgers.
    """

    __slots__ = ("slots", "timers_set", "timers_fired", "dispatched")

    def __init__(self) -> None:
        self.slots: List[Tuple[float, Tuple[int, ...]]] = []
        self.timers_set = 0
        self.timers_fired = 0
        self.dispatched = 0


def _attacker_schedule(kind: str, params: Any, rounds: int, n: int,
                       offset: float, rate: float, start_real: float,
                       end_time: float) -> _AttackerSchedule:
    """Replay one attacker's serial control flow (wake loop + late timers)."""
    sched = _AttackerSchedule()
    if start_real > end_time:
        return sched
    max_rounds = rounds + 2
    if kind == "two_faced":
        lead = params.beta
        evens = tuple(q for q in range(n) if q % 2 == 0)
        odds = tuple(q for q in range(n) if q % 2 == 1)
    else:
        direction = -1 if kind == "skew_early" else +1
        magnitude = params.beta + params.epsilon
        everyone = tuple(range(n))

    def wake_real(index: int) -> float:
        if kind == "two_faced":
            logical = params.round_time(index) - lead
        else:
            logical = params.round_time(index) + direction * magnitude
        physical = logical - 0.0  # set_timer: logical − CORR, CORR = 0
        return (physical - offset) / rate

    heap: List[Tuple[float, int, int]] = []  # (real, tag, round); tag 0=wake

    def attack(now: float, index: int) -> None:
        if kind == "two_faced":
            sched.slots.append((now, evens))
            local = (offset + rate * now) + 0.0  # local_time() with CORR = 0
            target = local + 2 * lead
            physical = target - 0.0
            late_real = (physical - offset) / rate
            if late_real > now:
                sched.timers_set += 1
                heapq.heappush(heap, (late_real, 1, index))
        else:
            sched.slots.append((now, everyone))

    def arm(now: float, index: int) -> None:
        # _arm_round_timer: slots already in the past attack immediately.
        while index < max_rounds:
            wake = wake_real(index)
            if wake > now:
                sched.timers_set += 1
                heapq.heappush(heap, (wake, 0, index))
                return
            attack(now, index)
            index += 1

    arm(start_real, 0)
    while heap:
        when, tag, index = heapq.heappop(heap)
        if when > end_time:
            continue  # armed but never fires within the run
        sched.timers_fired += 1
        sched.dispatched += 1
        if tag == 0:
            attack(when, index)
            arm(when, index + 1)
        else:
            sched.slots.append((when, odds))
    return sched


def _chunks(weight: Any) -> Any:
    """Split a ledger's ranks into runs of at most :data:`_CHUNK_CELLS`.

    ``weight`` is each rank's cost summed over the replicas; yields
    ``(k0, k1)`` rank ranges, a rank that costs more forming one alone.
    """
    np = _np
    ends = np.cumsum(weight)
    k0 = done = 0
    while k0 < len(weight):
        k1 = max(k0 + 1, int(np.searchsorted(
            ends, done + _CHUNK_CELLS, side="right")))
        yield k0, k1
        k0, done = k1, int(ends[k1 - 1])


def _topology_reason(topology: Optional[Any]) -> Optional[str]:
    """Why the kernel cannot relay over a built topology, or None."""
    if topology is None:
        return None
    if topology.has_extra_delays or topology.has_lossy_links:
        return "extra link delays or drops"
    from ..topology.index import topology_index
    if not topology_index(topology).connected:
        return "disconnected topology"
    return None


class RoundSystem:
    """S seeds of one maintenance spec, run round by round over (S, n) arrays.

    ``topology`` is the built object, None for the complete graph; only a
    lone run (S = 1) takes one.  The set-up reads the clock ensembles of the
    serial constructor (the draws and the objects both, so there is nothing
    to mirror), the run's end, START times, the crash schedule, the delay
    bounds and the attacker schedules.  ``params`` are the run's effective
    constants; the delay bounds come from ``spec.params``, because the
    serial path builds its delay model before any topology correction.
    After :meth:`run`, ``bad`` flags the replicas that left the clean path
    and ``reason`` says why; :meth:`results` synthesizes the rest.
    """

    def __init__(self, spec: Any, seeds: Sequence[int],
                 topology: Optional[Any] = None):
        if _np is None:  # pragma: no cover - callers gate on decline_reason
            raise RuntimeError("numpy is required for array execution")
        np = _np
        from ..analysis.experiments import (effective_parameters,
                                            maintenance_end_time)
        self.spec = spec
        self.params = params = effective_parameters(spec.params, topology)
        self.S = S = len(seeds)
        self.n = n = params.n
        self.rounds = R = spec.rounds
        self.fault_count = fc = _fault_count(spec)
        self.n_correct = nc = n - fc
        self.fault_kind = spec.fault_kind if fc else None
        self.bad = np.zeros(S, dtype=bool)
        self.reason: List[Optional[str]] = [None] * S
        self._rows = np.arange(S)

        # Graph view: no index on the complete graph, whose broadcasts draw
        # once per receiver; a complete Topology object shares that path.
        self.index = None
        self.edge_count = n * (n - 1) // 2
        reason = _topology_reason(topology)
        if reason is not None:
            self._mark(~self.bad, reason)
        elif topology is not None:
            from ..topology.index import topology_index
            self.index = topology_index(topology)      # memoized
            self.edge_count = self.index.edge_count
        self.complete = self.index is None or self.index.is_complete
        # Draws one broadcast consumes, per sender: chunks are sized by them.
        self.draw_totals = (np.full(n, n, dtype=np.int64) if self.complete
                            else self.index.draw_totals)

        self.clocks = [make_clock_ensemble(n, rho=params.rho, beta=params.beta,
                                           seed=seed, kind=spec.clock_kind)
                       for seed in seeds]
        self.off = np.array([[c.offset for c in ensemble]
                             for ensemble in self.clocks]).reshape(S, n)
        if spec.clock_kind == "perfect":
            self.rt = np.ones((S, n))
        else:
            self.rt = np.array([[c.rate for c in ensemble]
                                for ensemble in self.clocks]).reshape(S, n)

        # End of run: the serial formula from experiments._run.
        end = maintenance_end_time(params, R)
        if spec.horizon is not None:
            end = max(end, float(spec.horizon))
        self.end_time = end
        self.budget = (spec.max_events if spec.max_events is not None
                       else DEFAULT_EVENT_BUDGET)

        # START delivery: real_time_at(T0 − CORR) with CORR = 0.
        t0 = params.initial_round_time
        self.start_t = ((t0 - 0.0) - self.off) / self.rt

        # Crash faults run the correct algorithm until a fixed real time.
        correct = np.arange(n) < nc
        if self.fault_kind == "crash":
            crash_time = (params.initial_round_time
                          + (R / 2.0) * params.round_length)
            self.crash_t = np.where(correct, np.inf, crash_time)
            self.is_upd = np.ones(n, dtype=bool)
        else:
            self.crash_t = np.full(n, np.inf)
            self.is_upd = correct

        # Delay model constants (bounds exactly as UniformDelayModel.delay).
        base = spec.params
        self.uniform = spec.delay == "uniform"
        self.delay_lo = base.delta - base.epsilon
        self.delay_span = ((base.delta + base.epsilon)
                           - (base.delta - base.epsilon))
        self.delay_fixed = base.delta
        if (self.delay_lo if self.uniform else self.delay_fixed) <= 0:
            self._mark(~self.bad, "non-positive delay")
        self.rngs = ([_mirror_rng(seed) for seed in seeds] if self.uniform
                     else None)
        self.prev_block_max = np.full(S, -np.inf)

        # CORR, and its trajectories for histories and observers.
        self.corr = np.zeros((S, n))
        self.last_u = np.full((S, n), -np.inf)
        self.u_hist = np.full((S, n, R), np.inf)
        self.adj_hist = np.zeros((S, n, R))
        self.corr_hist = np.zeros((S, n, R + 1))
        self.did_update = np.zeros((S, n, R), dtype=bool)

        # Fault-sender ARR columns [replica, fault sender, receiver]: the
        # value in force, its arrival time, and arrivals past the window
        # waiting for the next round.
        shape = (S, fc, n)
        self.fa_val, self.fa_t = np.zeros(shape), np.full(shape, -np.inf)
        self.fa_has = np.zeros(shape, dtype=bool)
        self.pend_t, self.pend_phys = np.zeros(shape), np.zeros(shape)
        self.pend_has = np.zeros(shape, dtype=bool)

        # MessageStats counters; STARTs are one dispatched event each.
        self.sent = np.zeros(S, dtype=np.int64)
        self.delivered = np.zeros(S, dtype=np.int64)
        self.relayed = np.zeros(S, dtype=np.int64)
        self.timers_set = np.zeros(S, dtype=np.int64)
        self.timers_fired = np.zeros(S, dtype=np.int64)
        self.dispatched = (self.start_t <= self.end_time).sum(axis=1)
        self.pps = np.zeros((S, n), dtype=np.int64)

        # Byzantine attackers: per attacker, its (S, K) chronological slot
        # times (inf padded), their recipient-set ids, the (sets, n)
        # recipient table and a per-replica cursor of the slots sent.
        self.slots: List[Tuple[int, Any, Any, Any, Any]] = []
        if self.fault_kind in _BYZANTINE:
            for pid in range(nc, n):
                schedules = [_attacker_schedule(
                    self.fault_kind, params, R, n, float(self.off[s, pid]),
                    float(self.rt[s, pid]), float(self.start_t[s, pid]),
                    end) for s in range(S)]
                K = max(max(len(sc.slots) for sc in schedules), 1)
                slot_t = np.full((S, K), np.inf)
                slot_g = np.zeros((S, K), dtype=np.int64)
                groups: Dict[Tuple[int, ...], int] = {}
                for s, sc in enumerate(schedules):
                    self.timers_set[s] += sc.timers_set
                    self.timers_fired[s] += sc.timers_fired
                    self.dispatched[s] += sc.dispatched
                    for k, (when, targets) in enumerate(sc.slots):
                        slot_t[s, k] = when
                        slot_g[s, k] = groups.setdefault(targets, len(groups))
                table = np.zeros((max(len(groups), 1), n), dtype=bool)
                for targets, g in groups.items():
                    table[g, list(targets)] = True
                self.slots.append((pid, slot_t, slot_g, table,
                                   np.zeros(S, dtype=np.int64)))

    # -- bookkeeping ---------------------------------------------------------
    def _mark(self, hit: Any, reason: str, rows: Optional[Any] = None) -> None:
        """Take replicas off the clean path, keeping each one's first reason.

        ``hit`` is per replica, or per row with ``rows`` naming each row's
        replica; trailing axes reduce with any.
        """
        np = _np
        if hit.ndim > 1:
            hit = hit.any(axis=tuple(range(1, hit.ndim)))
        if rows is not None:
            replicas, hit = rows[hit], np.zeros(self.S, dtype=bool)
            hit[replicas] = True
        for s in np.flatnonzero(hit & ~self.bad).tolist():
            self.reason[s] = reason
        self.bad |= hit

    def _count_timers(self, fired: Any) -> None:
        count = fired.sum(axis=1)
        self.timers_fired += count
        self.dispatched += count

    # -- the round ---------------------------------------------------------
    def run(self) -> None:
        """Advance every replica through all rounds plus the attacker tail.

        Stops once every replica has left the clean path, so a lone run
        ends at its first off-path round.
        """
        np = _np
        S, n, params = self.S, self.n, self.params
        window = params.collection_window()
        T = params.initial_round_time
        armed_b = np.broadcast_to(self.is_upd, (S, n)).copy()
        for r in range(self.rounds):
            if self.bad.all():
                return
            # Broadcast phase: the round-r timer (START for round 0) fires.
            b = ((T - self.corr) - self.off) / self.rt
            fire_b = armed_b & (b <= self.end_time)
            if r > 0:
                self._count_timers(fire_b)
            act_b = fire_b & (b < self.crash_t)

            # Collection-window timer: T + (1+ρ)(β+δ+ε), on the same CORR.
            window_end = T + (window + (n - 1) * 0.0)
            u = ((window_end - self.corr) - self.off) / self.rt
            armed_w = act_b & (u > b)
            self._mark(act_b & ~armed_w, "collection window not in the future")
            armed_w &= ~self.bad[:, None]
            self.timers_set += armed_w.sum(axis=1)
            fire_w = armed_w & (u <= self.end_time)
            act_u = fire_w & (u < self.crash_t)
            # The extremes need every correct value of the round.
            self._mark(act_u.any(axis=1)
                       & ~act_b[:, :self.n_correct].all(axis=1),
                       "correct sender missing from round")

            # Arrivals stashed in earlier rounds resolve against this
            # round's windows, before any new sends land.
            self._apply_pending(u, armed_w)
            # Attacker slots sent before the round's last update fires join
            # this round: they deliver against its windows, and their draws
            # precede the next round's broadcasts in the serial ledger.
            boundary = np.maximum(np.where(act_b, b, -np.inf).max(axis=1),
                                  np.where(armed_w, u, -np.inf).max(axis=1))
            ledger = self._ledger(b, act_b, boundary)
            if self.bad.all():
                return
            low, high = self._deliver(ledger, (u, armed_w, act_u))

            # Update phase: mid(reduce(ARR)), ADJ = (T + δ) − AV.
            self._count_timers(fire_w)
            act_u &= ~self.bad[:, None]
            if act_u.any():
                self._update(r, T, u, act_u, low, high)
            self.corr_hist[:, :, r + 1] = self.corr

            # Next round's broadcast timer, on the new logical clock.
            T_next = T + params.round_length
            if r + 1 < self.rounds:
                b_next = ((T_next - self.corr) - self.off) / self.rt
                armed_b = act_u & (b_next > u)
                self._mark(act_u & ~armed_b,
                           "missed round (P below the Section 5.2 bound)")
                armed_b &= ~self.bad[:, None]
                self.timers_set += armed_b.sum(axis=1)
            T = T_next
            self._mark(self.dispatched > self.budget, "event budget exceeded")

        # Attacker tail: slots after the last correct broadcast still consume
        # draws and deliver messages (nobody updates from them anymore).
        if self.slots:
            self._deliver(self._ledger(None, None, np.full(S, np.inf)), None)
        self._mark(self.dispatched > self.budget, "event budget exceeded")

    def _ledger(self, b: Any, act_b: Any, boundary: Any) -> Optional[Tuple]:
        """The round's send events in each replica's send order, counted.

        Events are one column per live broadcast sender, then one per
        attacker slot due by ``boundary`` (per replica).  Returns ``(order,
        times, who, draws, masks, B)``: the per-replica order of the events,
        their sorted send times (inf where absent), each event column's
        sender, the sorted per-replica draw counts, the slots' ``(S, slots,
        n)`` recipient masks and the broadcast column count — or None
        without events.  Ties and cross-round inversions would reorder the
        serial draw ledger, so they take the replica off the path.
        """
        np = _np
        S, n, rows = self.S, self.n, self._rows
        if b is None:
            senders, times = np.zeros(0, dtype=np.int64), [np.zeros((S, 0))]
        else:
            live = act_b & ~self.bad[:, None]
            senders = np.flatnonzero(live.any(axis=0))
            times = [np.where(live[:, senders], b[:, senders], np.inf)]
        who, masks = [senders], []
        for pid, slot_t, slot_g, table, cursor in self.slots:
            # Slots are chronological and inf-padded: count the real ones.
            due = ((slot_t <= boundary[:, None])
                   & (slot_t < np.inf)).sum(axis=1)
            for j in range(int((due - cursor).max())):
                active = (cursor + j < due) & ~self.bad
                k = np.minimum(cursor + j, slot_t.shape[1] - 1)
                times.append(
                    np.where(active, slot_t[rows, k], np.inf)[:, None])
                masks.append(table[slot_g[rows, k]] & active[:, None])
                who.append(np.array([pid]))
            np.maximum(cursor, due, out=cursor)
        times = np.concatenate(times, axis=1)
        who, B = np.concatenate(who), len(senders)
        if not times.shape[1]:
            return None

        exists = np.isfinite(times)
        masks = np.stack(masks, axis=1) if masks else None
        sends = np.where(exists[:, :B], n, 0)
        draws = np.where(exists[:, :B], self.draw_totals[senders], 0)
        if masks is not None:
            counts = masks.sum(axis=2)
            sends, draws = (np.concatenate([x, counts], axis=1)
                            for x in (sends, draws))
        self.sent += sends.sum(axis=1)
        self.pps[:, senders] += sends[:, :B]
        for e in range(B, len(who)):
            self.pps[:, who[e]] += sends[:, e]

        order = np.argsort(times, axis=1, kind="stable")
        times = np.take_along_axis(times, order, axis=1)
        finite = np.isfinite(times)
        self._mark((times[:, 1:] == times[:, :-1]) & finite[:, 1:],
                   "tied send times")
        self._mark(finite[:, 0] & (times[:, 0] <= self.prev_block_max),
                   "send-order inversion across rounds")
        self.prev_block_max = np.where(
            finite[:, 0], np.where(finite, times, -np.inf).max(axis=1),
            self.prev_block_max)
        return (order, times, who, np.take_along_axis(draws, order, axis=1),
                masks, B)

    def _deliver(self, ledger: Optional[Tuple],
                 window: Optional[Tuple]) -> Tuple[Any, Any]:
        """Draw, deliver and count one ledger, chunk by chunk.

        ``window`` is ``(u, armed_w, act_u)``, or None for the attacker
        tail, where nobody updates.  Returns the ``(S, ≤f+1, n)`` buffers of
        the smallest and largest clock values each receiver collected from
        correct senders (None when no one updates); arrivals from fault
        senders go to the dense fault columns.
        """
        np = _np
        low = high = None
        if ledger is None:
            return low, high
        order, times, who, draws, masks, B = ledger
        correct_cols = int(np.searchsorted(who[:B], self.n_correct))
        need = window is not None and window[2].any()
        ranks = int(np.isfinite(times).sum(axis=1).max())
        weight = np.maximum(draws[:, :ranks], self.n).sum(axis=0)
        for k0, k1 in _chunks(weight):
            ev, t = order[:, k0:k1], times[:, k0:k1]
            exists = np.isfinite(t)
            AT, live, dist = self._arrivals(ev, t, exists, who, masks, B,
                                            draws[:, k0:k1].sum(axis=1))
            arrived = AT <= self.end_time
            if live is not None:
                arrived &= live
            count = arrived.sum(axis=(1, 2))
            self.delivered += count
            self.dispatched += count
            if dist is not None:
                self.relayed += int((dist >= 2).sum())
            if window is None:
                continue
            correct = exists & (ev < correct_cols)
            fault = exists & ~correct
            if fault.any():
                self._fault_arrivals(AT, fault, ev, who, live, window)
            if need and correct.any():
                low, high = self._extremes(AT, correct, window, low, high)
        return low, high

    def _arrivals(self, ev: Any, t: Any, exists: Any, who: Any,
                  masks: Optional[Any], B: int, draws: Any) -> Tuple:
        """One chunk's ``(S, C, n)`` arrival times, live cells and hops.

        Message ``(s, r)`` relays over ``dist(s, r)`` hops (the loopback
        copy over one) and accumulates ``time += delay`` hop by hop, as the
        serial loop does.  Uniform delays are one contiguous slice of each
        replica's draw ledger — event-major, then receiver, then hop — so a
        one-hop chunk adds its draws to the live cells in order, and hop
        level ``h`` of a relayed chunk gathers every message's ``h``-th draw
        and adds it densely; cells already past their last hop add ``+0.0``,
        which leaves them bit-for-bit unchanged (an arrival time is never
        ``-0.0``).  ``live`` is None when every cell is a message (it is
        False for slot non-recipients and absent events), ``dist`` None on
        the complete graph.
        """
        np = _np
        S, C = ev.shape
        n = self.n
        live = dist = None
        if not self.complete:       # a lone run: present broadcasts only
            pids = who[ev[0]]
            dist = self.index.dist_rows(pids)
            dist[np.arange(C), pids] = 1        # the loopback copy draws once
        elif not (exists.all() and (ev < B).all()):
            live = np.repeat((exists & (ev < B))[:, :, None], n, axis=2)
            if masks is not None:
                slot = exists & (ev >= B)
                live[slot] = masks[np.nonzero(slot)[0], ev[slot] - B]
        AT = np.repeat(t[:, :, None], n, axis=2)
        if self.uniform:
            # Splitting random_sample per chunk is exact (same MT state
            # walk).  lo + span·x is formed in place: IEEE * and + commute,
            # so the bits are the serial draw's.
            parts = [rng.random_sample(k)
                     for rng, k in zip(self.rngs, draws.tolist())]
            delays = parts[0] if S == 1 else np.concatenate(parts)
            delays *= self.delay_span
            delays += self.delay_lo
        if dist is None:            # one hop each
            if not self.uniform:
                AT += self.delay_fixed
            elif live is None:
                AT += delays.reshape(S, C, n)
            else:
                AT[live] += delays
            return AT, live, None

        step = np.full((C, n), self.delay_fixed)
        if self.uniform:
            # Each message's first draw: its row's base plus the draws of
            # the receivers before it.
            hop = np.cumsum(dist, axis=1,
                            dtype=np.int32 if draws[0] < 2 ** 31 else np.int64)
            hop -= dist
            counts = self.draw_totals[pids]
            hop += (np.cumsum(counts) - counts).astype(hop.dtype)[:, None]
        for h in range(int(dist.max())):
            if self.uniform:
                # delays[h:][hop] is each message's h-th draw; a cell past
                # its last hop reads some other draw (clipped at the end)
                # and is zeroed just below.
                np.take(delays[h:], hop, out=step, mode="clip")
            if h:
                np.copyto(step, 0.0, where=dist <= h)
            AT[0] += step
        return AT, None, dist

    def _extremes(self, AT: Any, correct: Any, window: Tuple, low: Any,
                  high: Any) -> Tuple[Any, Any]:
        """Merge one chunk's correct-sender values into the running buffers.

        Per receiver, the chunk's f+1 earliest and latest arrivals from
        correct senders: a clock value ``(off + rt·t) + corr`` never
        decreases with ``t`` (rt > 0, correctly rounded ops), so their
        values are the chunk's f+1 extreme values.  Absent rows sort as
        ±inf placeholders, which a buffer only keeps while it holds fewer
        real values.
        """
        np = _np
        u, _, act_u = window
        width = min(self.params.f + 1, self.n_correct)
        dense = correct.all()
        if dense:
            ranked = AT
        else:
            ranked = np.where(correct[:, :, None], AT, np.inf)
        ranked.sort(axis=1)
        C = ranked.shape[1]
        w = min(width, C)
        lows = ranked[:, :w]
        if dense:
            highs = ranked[:, C - w:]
        else:
            # A replica's correct rows sort first: its last w of them.
            top = correct.sum(axis=1)[:, None] - w + np.arange(w)
            highs = np.take_along_axis(
                ranked, np.maximum(top, 0)[:, :, None], axis=1)
            highs[top < 0] = -np.inf
        # Clean path: every value an updater reads landed inside the window
        # it is read in.  Anything else means the serial loop reads a stale
        # cell or a pending stash — run it serially.
        self._mark(act_u & ((lows[:, 0] <= self.last_u) | (highs[:, -1] > u)),
                   "arrival outside the collection window")
        off, rt, corr = self.off[:, None], self.rt[:, None], self.corr[:, None]
        lows, highs = (off + rt * lows) + corr, (off + rt * highs) + corr
        if low is not None:
            lows = np.concatenate([low, lows], axis=1)
            highs = np.concatenate([high, highs], axis=1)
            if lows.shape[1] > width:
                lows = np.partition(lows, width - 1, axis=1)[:, :width]
                highs = np.partition(highs, highs.shape[1] - width,
                                     axis=1)[:, -width:]
        return lows, highs

    def _fault_arrivals(self, AT: Any, fault: Any, ev: Any, who: Any,
                        live: Optional[Any], window: Tuple) -> None:
        """Fault-sender arrivals into the dense ARR columns, in send order.

        The serial overwrite rules: the later arrival wins and an equal one
        is off-path; an arrival past the receiver's window waits in the
        pending stash for its next round; one before its previous update is
        off-path.  A column takes its rows one layer at a time, so no two
        rows of a layer write the same cells.
        """
        np = _np
        u, armed_w, _ = window
        s, c = np.nonzero(fault)            # per replica, in send order
        col = who[ev[s, c]] - self.n_correct
        at = AT[s, c]
        recv = ((at <= self.end_time) & self.is_upd & armed_w[s]
                & (at < self.crash_t))
        if live is not None:
            recv &= live[s, c]
        # Layer: how many earlier rows of the chunk share the row's column.
        key = s * self.fault_count + col
        by_key = np.argsort(key, kind="stable")
        sorted_key = key[by_key]
        first = np.searchsorted(sorted_key, sorted_key, side="left")
        layer = np.empty_like(first)
        layer[by_key] = np.arange(len(key)) - first
        for depth in range(int(layer.max()) + 1):
            sel = layer == depth
            s_, col_, at_, recv_ = s[sel], col[sel], at[sel], recv[sel]
            self._mark(recv_ & (at_ <= self.last_u[s_]),
                       "arrival before previous update", s_)
            recv_ &= ~self.bad[s_][:, None]
            phys = self.off[s_] + self.rt[s_] * at_
            imm = recv_ & (at_ <= u[s_])
            if imm.any():
                self._write(s_, col_, imm, at_, phys + self.corr[s_])
            late = recv_ & (at_ > u[s_])
            if late.any():
                # Both stashed arrivals would apply under the same
                # correction, so comparing arrival times is exact.
                has, old = self.pend_has[s_, col_], self.pend_t[s_, col_]
                self._mark(late & has & (at_ == old), "tied ARR arrivals", s_)
                keep = late & (~has | (at_ > old))
                self.pend_t[s_, col_] = np.where(keep, at_, old)
                self.pend_phys[s_, col_] = np.where(
                    keep, phys, self.pend_phys[s_, col_])
                self.pend_has[s_, col_] = has | late

    def _write(self, s: Any, col: Any, mask: Any, at: Any,
               value: Any) -> None:
        """ARR writes to distinct ``(replica, column)`` rows.

        Every serial delivery overwrites ``ARR[sender]``, so the value read
        at the update is the one with the *latest* arrival time.  Equal
        arrival times would make the winner depend on queue sequence numbers
        the kernel does not track — those replicas go serial.
        """
        np = _np
        old = self.fa_t[s, col]
        self._mark(mask & (at == old), "tied ARR arrivals", s)
        newer = mask & (at > old)
        self.fa_val[s, col] = np.where(newer, value, self.fa_val[s, col])
        self.fa_t[s, col] = np.where(newer, at, old)
        self.fa_has[s, col] |= mask

    def _apply_pending(self, u: Any, armed_w: Any) -> None:
        """Fold stashed arrivals that land in this round's windows into ARR."""
        np = _np
        if not self.fault_count or not self.pend_has.any():
            return
        s, col = np.nonzero(self.pend_has.any(axis=2))
        has, at = self.pend_has[s, col], self.pend_t[s, col]
        live = armed_w[s] & ~self.bad[s][:, None]
        apply = has & live & (at <= u[s])
        if apply.any():
            self._write(s, col, apply, at,
                        self.pend_phys[s, col] + self.corr[s])
        self.pend_has[s, col] = has & live & ~apply

    def _update(self, r: int, T: float, u: Any, act_u: Any, low: Any,
                high: Any) -> None:
        """mid(reduce(ARR)) for the updaters, ADJ = (T + δ) − AV.

        The f-th smallest and f-th largest of all n values live in the
        correct-sender extremes ∪ the fault columns by construction; an
        unset fault column reads the process's own clock.
        """
        np = _np
        f = self.params.f
        if self.fault_count:
            own = (self.off + self.rt * u) + self.corr
            faults = np.where(self.fa_has, self.fa_val, own[:, None, :])
            low = np.concatenate([low, faults], axis=1)
            high = np.concatenate([high, faults], axis=1)
        m = high.shape[1]
        with np.errstate(invalid="ignore"):     # replicas already off-path
            average = (np.partition(low, f, axis=1)[:, f]
                       + np.partition(high, m - 1 - f, axis=1)[:, m - 1 - f]
                       ) / 2.0
        adjustment = (T + self.params.delta) - average
        self.u_hist[:, :, r] = np.where(act_u, u, self.u_hist[:, :, r])
        self.adj_hist[:, :, r] = np.where(act_u, adjustment, 0.0)
        self.corr = np.where(act_u, self.corr + adjustment, self.corr)
        self.did_update[:, :, r] = act_u
        self.last_u = np.where(act_u, u, self.last_u)

    # -- the result tail ---------------------------------------------------
    def results(self, specs: Sequence[Any],
                skip: Optional[Sequence[bool]] = None) -> List[Any]:
        """Serial-shaped ScenarioResults from the final arrays.

        ``specs`` are the replicas, in seed order.  Replicas flagged in
        ``skip`` (they re-run serially) get ``None``: their rows are
        skipped, never copied out of the arrays.
        """
        from ..analysis.experiments import ScenarioResult
        arrays = {name: _np.asarray(getattr(self, name)) for name in (
            "off", "rt", "start_t", "corr", "u_hist", "corr_hist", "pps",
            "sent", "delivered", "relayed", "timers_set", "timers_fired")}
        keep = [True] * len(specs) if skip is None else [not b for b in skip]
        clocks = [dict(enumerate(ensemble)) if kept else None
                  for ensemble, kept in zip(self.clocks, keep)]
        corrs = [dict(enumerate(corr)) if kept else None
                 for corr, kept in zip(arrays["corr"].tolist(), keep)]
        observers = self._observers(arrays, clocks, corrs)
        horizons, tails, bounds = self._history_tails()
        # Python natives once for the whole batch — per-element numpy
        # indexing in the per-replica loop below is the single biggest cost
        # at large S.
        rows = {name: arrays[name].tolist() for name in (
            "start_t", "pps", "sent", "delivered", "relayed", "timers_set",
            "timers_fired")}
        n = self.n
        faulty = list(range(self.n_correct, n))
        results: List[Any] = []
        for s, spec in enumerate(specs):
            if not keep[s]:
                results.append(None)
                continue
            histories = {}
            for pid in range(n):
                row = s * n + pid
                a, b = bounds[row], bounds[row + 1]
                histories[pid] = CorrectionHistory.from_breakpoints(
                    horizons[row], *(tail[a:b] for tail in tails),
                    max_entries=_BOUNDED_HISTORY_ENTRIES)
            stats = MessageStats(
                sent=rows["sent"][s], delivered=rows["delivered"][s],
                relayed=rows["relayed"][s], timers_set=rows["timers_set"][s],
                timers_fired=rows["timers_fired"][s],
                per_process_sent=Counter({pid: count for pid, count
                                          in enumerate(rows["pps"][s])
                                          if count}))
            trace = ExecutionTrace(clocks=clocks[s], histories=histories,
                                   faulty_ids=faulty, events=[], stats=stats,
                                   end_time=self.end_time, copy=False)
            result = ScenarioResult(
                params=self.params, trace=trace,
                start_times=dict(enumerate(rows["start_t"][s])),
                rounds=spec.rounds, end_time=self.end_time,
                observers=observers[s], checkpoints=0)
            result.spec = spec
            results.append(result)
        return results

    def _history_tails(self) -> Tuple[List[float], List[List[Any]],
                                      List[int]]:
        """The breakpoints each process's bounded history retains.

        The serial history keeps its last ``_BOUNDED_HISTORY_ENTRIES − 1``
        updates, and its −inf sentinel holds the CORR in force before the
        first of them: ``corr_hist`` at that round (0.0, the initial value,
        for a process that never updated).  ``corr_hist`` holds the serial
        running sums, added in the serial order, so CORR values are read
        off it, never re-added.  Returns, per ``(replica, process)`` row in
        row-major order, that horizon CORR; the retained updates of all
        rows as flat ``[times, adjustments, corrections, rounds]`` lists;
        and the bounds of each row's slice of them.
        """
        np = _np
        updated = self.did_update
        seen = np.cumsum(updated, axis=2)
        tail = updated & (seen > seen[:, :, -1:]
                          - (_BOUNDED_HISTORY_ENTRIES - 1))
        s, p, r = np.nonzero(tail)
        first = tail.argmax(axis=2)[:, :, None]
        horizons = np.take_along_axis(self.corr_hist, first, axis=2)
        bounds = np.zeros(tail.shape[0] * tail.shape[1] + 1, dtype=np.int64)
        np.cumsum(tail.sum(axis=2), out=bounds[1:])
        tails = (self.u_hist[s, p, r], self.adj_hist[s, p, r],
                 self.corr_hist[s, p, r + 1], r)
        return (horizons.ravel().tolist(), [x.tolist() for x in tails],
                bounds.tolist())

    def _observers(self, arrays: Dict[str, Any], clocks: List[Any],
                   corrs: List[Any]) -> List[Dict[str, object]]:
        """Finalized online observers per replica, as the serial run ends.

        Every per-grid-point computation of the serial observers — sample
        grids, CORR lookup, local times, spreads, envelope checks, captures
        — is an elementwise float expression, so evaluating it over ``(S,
        rows, grid)`` blocks gives the same bits as one python loop per
        replica and process.  The CORR in force at a grid time is indexed by
        the count of updates at or before it, which one ``searchsorted`` per
        replica and a ``bincount`` give in O(rows·(rounds + grid)).
        Receiver rows go in chunks, so the (replicas × rows × grid) blocks
        stay bounded at any n and S.
        ``clocks``/``corrs`` hold each replica's pid maps, or None for
        replicas to skip.
        """
        np = _np
        from ..analysis.online import OnlineSkew, OnlineValidity
        from ..core.bounds import validity_parameters
        spec, params, end = self.spec, self.params, self.end_time
        observers: List[Dict[str, object]] = [{} for _ in clocks]
        if not spec.observers:
            return observers
        S, nc = len(clocks), self.n_correct
        samples = spec.samples if spec.samples is not None else 200
        # audit_window: extrema of the non-faulty START times.
        starts_nf = arrays["start_t"][:, :nc]
        tmin0 = starts_nf.min(axis=1)
        tmax0 = starts_nf.max(axis=1)
        start = tmax0 + params.round_length
        u = arrays["u_hist"][:, :nc]
        csteps = arrays["corr_hist"][:, :nc]
        off = arrays["off"][:, :nc]
        rt = arrays["rt"][:, :nc]
        chunk = max(1, _OBS_CHUNK_ROWS // S)
        pids = list(range(nc))
        starts, tmins, tmaxs = start.tolist(), tmin0.tolist(), tmax0.tolist()
        for name in spec.observers:
            # sample_grid(start, end, count):
            # start + i*(end − start)/(count − 1).
            count = samples if name == "skew" else max(50, samples // 2)
            step = (end - start) / (count - 1)
            grid = start[:, None] + np.arange(count)[None, :] * step[:, None]
            if name == "skew":
                lmax = np.full((S, count), -np.inf)
                lmin = np.full((S, count), np.inf)
            else:
                vp = validity_parameters(params)
                low = (vp.alpha1 * (grid - tmax0[:, None]) - vp.alpha3) - 1e-9
                high = (vp.alpha2 * (grid - tmin0[:, None]) + vp.alpha3) + 1e-9
                violations = np.zeros(S, dtype=np.int64)
            # Each update's first grid index g with u <= grid[g]: the grid
            # is non-decreasing, so u <= grid[g'] exactly for g' >= g.  An
            # update at inf (none) lands past the grid.
            first = np.stack([np.searchsorted(grid[s], u[s], side="left")
                              for s in range(S)])
            for r0 in range(0, nc, chunk):
                r1 = min(r0 + chunk, nc)
                rows = r1 - r0
                # CORR in force at each grid time: the count of updates at
                # or before it indexes the per-round CORR steps.  Each row
                # bins its updates by first grid index; the running sum of
                # the bins is that count.
                keys = first[:, r0:r1] + (count + 1) * np.arange(
                    S * rows).reshape(S, rows, 1)
                bins = np.bincount(keys.ravel(),
                                   minlength=S * rows * (count + 1))
                idx = bins.reshape(S, rows, count + 1)[:, :, :count].cumsum(
                    axis=2)
                corr_g = np.take_along_axis(csteps[:, r0:r1], idx, axis=2)
                L = ((off[:, r0:r1, None]
                      + rt[:, r0:r1, None] * grid[:, None, :]) + corr_g)
                if name == "skew":
                    lmax = np.maximum(lmax, L.max(axis=1))
                    lmin = np.minimum(lmin, L.min(axis=1))
                else:
                    elapsed = L - params.initial_round_time
                    ok = ((low[:, None, :] <= elapsed)
                          & (elapsed <= high[:, None, :]))
                    violations += (~ok).sum(axis=(1, 2))
            grids = grid.tolist()
            if name == "skew":
                peaks = ((lmax - lmin).max(axis=1) if nc >= 2
                         else np.zeros(S)).tolist()
            else:
                captures = []
                for tcol in (start, np.full(S, end)):
                    idx_t = (u <= tcol[:, None, None]).sum(axis=2)
                    corr_t = np.take_along_axis(csteps, idx_t[:, :, None],
                                                axis=2)[:, :, 0]
                    captures.append(
                        ((off + rt * tcol[:, None]) + corr_t).tolist())
                counts = violations.tolist()
            for s, clock_map in enumerate(clocks):
                if clock_map is None:
                    continue
                if name == "skew":
                    top = peaks[s]
                    obs = OnlineSkew.from_batch(
                        grid=grids[s], pids=pids, clocks=clock_map,
                        corr=corrs[s], max_skew=top if top > 0.0 else 0.0,
                        samples=count)
                else:
                    obs = OnlineValidity.from_batch(
                        params=params, tmin0=tmins[s], tmax0=tmaxs[s],
                        grid=grids[s], start=starts[s], end=end, pids=pids,
                        clocks=clock_map, corr=corrs[s],
                        violations=counts[s], samples=nc * count,
                        captures={t: dict(zip(pids, cap[s])) for t, cap
                                  in zip((starts[s], end), captures)})
                observers[s][obs.name] = obs
        return observers


def try_execute(spec: Any, topology: Optional[Any]) -> Optional[Any]:
    """Run one spec on the kernel (S = 1), or return None to go serial.

    The kernel's one entry point for a lone spec, inside ``execute``'s span.
    ``topology`` is the already-built object (None for the complete-graph
    default).  Returns None — counting ``roundengine.fallbacks`` — when the
    built topology is out of scope (disconnected, extra delays, drops) or
    the run leaves the clean path.  Unexpected errors from the index build
    or the kernel are absorbed as well (counted also as
    ``roundengine.errors``), so the caller always gets the serial reference
    path instead of a crash.  On success the result carries the serial bit
    pattern and ``roundengine.rounds`` / ``roundengine.edges`` telemetry,
    booked into the active bundle (:func:`repro.telemetry.get_active`).
    """
    result, error = None, False
    try:
        engine = RoundSystem(spec, [spec.seed], topology)
        engine.run()
        if not engine.bad[0]:
            result, = engine.results([spec])
    except Exception:
        error = True
    from ..telemetry import get_active
    telemetry = get_active()
    if telemetry is not None:
        registry = telemetry.registry
        if result is None:
            registry.counter("roundengine.fallbacks").inc()
            if error:
                registry.counter("roundengine.errors").inc()
        else:
            registry.counter("roundengine.rounds").inc(engine.rounds)
            registry.gauge("roundengine.edges").set(engine.edge_count)
    return result
