"""Struct-of-arrays batch execution of replicated maintenance runs.

:func:`execute_batch` advances a batch of S replicas — the *same*
:class:`~repro.runner.spec.RunSpec` under S different seeds — in lockstep,
holding per-process clock state (offsets, drift rates), correction amounts,
timer deadlines and pending-message arrival times as ``(S, n)``-shaped numpy
arrays.  Because Welch–Lynch rounds are globally synchronized by the sync
interval ``P``, every replica walks the *same event skeleton*: per round, each
live process broadcasts once, collects arrivals for one window, and applies
one fault-tolerant-midpoint correction.  The per-event Python dispatch of
:class:`~repro.sim.system.System` therefore collapses into a handful of array
operations per round: a broadcast → arrival-time matrix, boolean fault masks,
and a per-row sort for ``mid(reduce(ARR))``.

**Bit-identity contract.**  The serial loop stays the reference; this module
reproduces it float for float:

* every arithmetic expression keeps the serial operation order
  (``(T - CORR - offset) / rate`` for timer targets,
  ``(offset + rate*t) + CORR`` for local times,
  ``(sorted[f] + sorted[n-1-f]) / 2`` for the midpoint,
  ``(T + δ) - avg`` for the adjustment);
* delay draws come from per-replica ``numpy.random.RandomState`` streams
  seeded by transplanting ``random.Random(seed)``'s Mersenne-Twister state,
  so ``random_sample(k)`` replays exactly the ``k`` ``rng.random()`` calls
  the serial :class:`~repro.sim.system.System` would make — in the same
  global send order, which the engine reconstructs by sorting each round's
  send events by real time (see :func:`repro.sim.system.draw_broadcast_delays`
  for the serial ledger being mirrored);
* the clock ensembles are not mirrored at all: the engine calls
  :func:`~repro.clocks.drift.make_clock_ensemble` per replica and reads the
  offsets/rates off the real clock objects (which the synthesized results
  then share).

Whenever a replica strays off the common skeleton — a tied send time, a
missed round, a pending-arrival conflict, an event past the horizon — that
replica transparently falls back to the serial
:func:`~repro.runner.spec.execute`, which also defines the behaviour for
every spec :func:`decline_reason` names a reason for.  Which engine runs is
decided by :func:`repro.runner.spec.engine_for`, never by the spec.  The
hypothesis parity suite (``tests/property/test_vectorized_parity.py``)
enforces the contract on both TraceIndex backends.

The set-up and the result tail — observer reconstruction over ``(S, rows,
grid)`` blocks and ScenarioResult synthesis — live in one base class shared
with the large-n round engine (:mod:`repro.sim.roundengine`), which runs as
a batch of one.
"""

from __future__ import annotations

import heapq
import random
from collections import Counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..clocks.drift import make_clock_ensemble
from ..clocks.logical import CorrectionHistory
from .trace import ExecutionTrace, MessageStats
from .traceindex import numpy_enabled

try:  # pragma: no cover - exercised via the parity suite on both backends
    import numpy as _np
except ImportError:  # pragma: no cover - numpy genuinely absent
    _np = None

__all__ = [
    "scope_reason",
    "decline_reason",
    "execute_batch",
    "VECTOR_FAULT_KINDS",
    "DEFAULT_EVENT_BUDGET",
]

#: fault behaviours whose event skeletons the lockstep kernel reproduces.
#: ``random_noise`` (per-process rng) and ``omission`` (per-message coin
#: flips) diverge per replica and always take the serial path.
VECTOR_FAULT_KINDS = frozenset(
    {"silent", "crash", "two_faced", "skew_early", "skew_late"})

#: the simulator's default interrupt budget (``max_events`` of ``_run``);
#: replicas that would exceed it fall back so the serial path can raise
#: :class:`~repro.sim.events.EventBudgetExceeded` exactly as before.
DEFAULT_EVENT_BUDGET = 2_000_000


def scope_reason(spec: Any, fault_kinds: frozenset) -> Optional[str]:
    """Why ``spec`` is outside what both numpy engines reproduce, or None.

    The common scope: numpy on, a streaming maintenance run with
    uniform/fixed delays, constant/perfect clocks, no scenario options or
    checkpoints, only the skew/validity observers, and a fault kind from
    ``fault_kinds``.  Each engine's :func:`decline_reason` adds its own
    limits on top.
    """
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
    if spec.fault_kind is not None and spec.fault_kind not in fault_kinds:
        return f"fault kind {spec.fault_kind!r}"
    if spec.params.n < 2:
        return "fewer than 2 processes"
    if not 0 <= _fault_count(spec) < spec.params.n:
        return f"fault count {_fault_count(spec)} of n={spec.params.n}"
    return None


def decline_reason(spec: Any) -> Optional[str]:
    """Why the batch engine declines ``spec`` (None when it accepts it).

    On top of :func:`scope_reason`: the complete graph only, and the
    default event budget.
    """
    if spec.topology is not None:
        return "the spec names a topology"
    if spec.max_events is not None:
        return "the spec sets max_events"
    return scope_reason(spec, VECTOR_FAULT_KINDS)


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
    attacker*; global ordering happens in the round blocks.
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


#: receiver rows per observer-grid kernel, divided among the replicas, so
#: the (replicas × rows × rounds × grid) lookup tensor stays bounded.
_OBS_CHUNK_ROWS = 4096


class _EngineState:
    """What both numpy engines start from and end with: the shared set-up,
    over ``lead + (n,)`` arrays, and the result tail (:meth:`results`).

    Clock ensembles from the serial constructor (the draws and the objects
    both, so there is nothing to mirror), the run's end, START times, the
    crash schedule, the delay bounds, CORR and its per-round trajectories.
    The batch engine passes its S seeds with ``lead=(S,)``; the round engine
    one seed with ``lead=()``.  ``params`` are the run's effective constants;
    the delay bounds come from ``spec.params``, because the serial path
    builds its delay model before any topology correction.
    """

    def __init__(self, spec: Any, params: Any, seeds: Sequence[int],
                 lead: Tuple[int, ...]):
        if _np is None:  # pragma: no cover - callers gate on decline_reason
            raise RuntimeError("numpy is required for array execution")
        np = _np
        from ..analysis.experiments import maintenance_end_time
        self.spec = spec
        self.params = params
        self.n = n = params.n
        self.rounds = R = spec.rounds
        self.fault_count = fc = _fault_count(spec)
        self.n_correct = n - fc
        self.fault_kind = spec.fault_kind if fc else None
        self.lead = lead
        shape = lead + (n,)

        self.clocks = [make_clock_ensemble(n, rho=params.rho, beta=params.beta,
                                           seed=seed, kind=spec.clock_kind)
                       for seed in seeds]
        self.off = np.array([[c.offset for c in ensemble]
                             for ensemble in self.clocks]).reshape(shape)
        if spec.clock_kind == "perfect":
            self.rt = np.ones(shape)
        else:
            self.rt = np.array([[c.rate for c in ensemble]
                                for ensemble in self.clocks]).reshape(shape)

        # End of run: the serial formula from experiments._run.
        end = maintenance_end_time(params, R)
        if spec.horizon is not None:
            end = max(end, float(spec.horizon))
        self.end_time = end

        # START delivery: real_time_at(T0 − CORR) with CORR = 0.
        t0 = params.initial_round_time
        self.start_t = ((t0 - 0.0) - self.off) / self.rt

        # Crash faults run the correct algorithm until a fixed real time.
        correct = np.arange(n) < self.n_correct
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

        # CORR, and its trajectories for histories and observers.
        self.corr = np.zeros(shape)
        self.last_u = np.full(shape, -np.inf)
        self.u_hist = np.full(shape + (R,), np.inf)
        self.adj_hist = np.zeros(shape + (R,))
        self.corr_hist = np.zeros(shape + (R + 1,))
        self.did_update = np.zeros(shape + (R,), dtype=bool)

    # -- the result tail ---------------------------------------------------
    def results(self, specs: Sequence[Any],
                skip: Optional[Sequence[bool]] = None) -> List[Any]:
        """Serial-shaped ScenarioResults from the final arrays.

        ``specs`` are the replicas, in seed order; the round engine's arrays
        have no replica axis and go through as a batch of one.  Replicas
        flagged in ``skip`` (fell back to the serial loop) get ``None``:
        their rows are skipped, never copied out of the planes.
        """
        from ..analysis.experiments import ScenarioResult
        arrays = {name: _np.asarray(getattr(self, name)) for name in (
            "off", "rt", "start_t", "corr", "u_hist", "adj_hist",
            "corr_hist", "did_update", "pps", "sent", "delivered", "relayed",
            "timers_set", "timers_fired")}
        if not self.lead:
            arrays = {name: value[None] for name, value in arrays.items()}
        keep = [True] * len(specs) if skip is None else [not b for b in skip]
        clocks = [dict(enumerate(ensemble)) if kept else None
                  for ensemble, kept in zip(self.clocks, keep)]
        corrs = [dict(enumerate(corr)) if kept else None
                 for corr, kept in zip(arrays["corr"].tolist(), keep)]
        observers = self._observers(arrays, clocks, corrs)
        # Python natives once for the whole batch — per-element numpy
        # indexing in the per-replica loop below is the single biggest cost
        # at large S — built after the observer kernels, so the lists and
        # the kernels' temporaries never coexist.
        rows = {name: value.tolist() for name, value in arrays.items()
                if name not in ("off", "rt", "corr", "corr_hist")}
        faulty = list(range(self.n_correct, self.n))
        results: List[Any] = []
        for s, spec in enumerate(specs):
            if not keep[s]:
                results.append(None)
                continue
            histories = {
                pid: CorrectionHistory.from_rounds(times, adjustments,
                                                   updated, max_entries=8)
                for pid, (times, adjustments, updated) in enumerate(zip(
                    rows["u_hist"][s], rows["adj_hist"][s],
                    rows["did_update"][s]))}
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

    def _observers(self, arrays: Dict[str, Any], clocks: List[Any],
                   corrs: List[Any]) -> List[Dict[str, object]]:
        """Finalized online observers per replica, as the serial run ends.

        Every per-grid-point computation of the serial observers — sample
        grids, CORR lookup, local times, spreads, envelope checks, captures
        — is an elementwise float expression, so evaluating it over ``(S,
        rows, grid)`` blocks gives the same bits as one python loop per
        replica and process.  Receiver rows go in chunks, so the (replicas ×
        rows × rounds × grid) lookup tensor stays bounded at any n and S.
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
            for r0 in range(0, nc, chunk):
                r1 = min(r0 + chunk, nc)
                # CORR in force at each grid time: the last update at or
                # before it.
                idx = (u[:, r0:r1, :, None]
                       <= grid[:, None, None, :]).sum(axis=2)
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


class VectorSystem(_EngineState):
    """Lockstep executor for S replicas of one vectorizable maintenance spec.

    Builds the per-replica clock ensembles and RNG mirrors, then advances all
    replicas round by round over shared ``(S, n)`` arrays.  After :meth:`run`
    the replicas that left the common skeleton are flagged in ``bad`` (they
    re-run serially); :meth:`results` synthesizes the rest.
    """

    def __init__(self, spec: Any, seeds: Sequence[int]):
        np = _np
        self.seeds = [int(seed) for seed in seeds]
        self.S = S = len(self.seeds)
        super().__init__(spec, spec.params, self.seeds, (S,))
        params, n = self.params, self.n
        self.bad = np.zeros(S, dtype=bool)
        self.bad_reason: Dict[int, str] = {}

        # Byzantine schedules (python, per replica × attacker).
        self.schedules: Dict[int, List[_AttackerSchedule]] = {}
        if self.fault_kind in ("two_faced", "skew_early", "skew_late"):
            for pid in range(self.n_correct, n):
                self.schedules[pid] = [
                    _attacker_schedule(self.fault_kind, params, self.rounds,
                                       n, float(self.off[s, pid]),
                                       float(self.rt[s, pid]),
                                       float(self.start_t[s, pid]),
                                       self.end_time)
                    for s in range(S)]

        self.rngs = [_mirror_rng(seed) for seed in self.seeds] \
            if self.uniform else None

        # Mutable lockstep state.
        self.arr_val = np.zeros((S, n, n))   # [replica, receiver, sender]
        self.arr_has = np.zeros((S, n, n), dtype=bool)
        self.arr_t = np.full((S, n, n), -np.inf)  # arrival time of the value
        self.pend_t = np.zeros((S, n, n))
        self.pend_phys = np.zeros((S, n, n))
        self.pend_has = np.zeros((S, n, n), dtype=bool)
        self.prev_block_max = np.full(S, -np.inf)

        # Per-replica MessageStats counters (complete graph: nothing relays).
        self.sent = np.zeros(S, dtype=np.int64)
        self.delivered = np.zeros(S, dtype=np.int64)
        self.relayed = np.zeros(S, dtype=np.int64)
        self.timers_set = np.zeros(S, dtype=np.int64)
        self.timers_fired = np.zeros(S, dtype=np.int64)
        self.dispatched = np.zeros(S, dtype=np.int64)
        self.pps = np.zeros((S, n), dtype=np.int64)

        # Slot consumption state for the attacker schedules, flattened into
        # arrays: per attacker, a (S, K) chronological send-time matrix (inf
        # padded), a parallel recipient-group id matrix, and the group table.
        self.slot_cursor = {pid: np.zeros(S, dtype=np.int64)
                            for pid in self.schedules}
        self.slot_data: Dict[int, Tuple[Any, Any, List[Tuple[int, ...]]]] = {}
        for pid, schedules in self.schedules.items():
            K = max(max((len(sc.slots) for sc in schedules), default=0), 1)
            slot_t = np.full((S, K), np.inf)
            slot_g = np.zeros((S, K), dtype=np.int64)
            groups: List[Tuple[int, ...]] = []
            gidx: Dict[Tuple[int, ...], int] = {}
            for s, sc in enumerate(schedules):
                for k, (when, targets) in enumerate(sc.slots):
                    g = gidx.get(targets)
                    if g is None:
                        g = gidx[targets] = len(groups)
                        groups.append(targets)
                    slot_t[s, k] = when
                    slot_g[s, k] = g
            self.slot_data[pid] = (slot_t, slot_g, groups)
        self._rows = np.arange(S)

    # -- bookkeeping ---------------------------------------------------------
    def _mark_bad(self, mask: Any, reason: str) -> None:
        np = _np
        fresh = mask & ~self.bad
        if np.any(fresh):
            self.bad |= mask
            for s in np.nonzero(fresh)[0]:
                self.bad_reason[int(s)] = reason

    # -- round machinery -----------------------------------------------------
    def _pending_slots(self, boundary: Any) -> List[Dict[str, Any]]:
        """Attacker slots due in this block (send time ≤ per-replica boundary).

        Slot sequences need not align across replicas (a two-faced attacker's
        late send can land before or after its next wake depending on the
        clock draws), so each pass takes every replica's *next* due slot and
        groups the takes by recipient set — one event per distinct set.  Per
        replica the slots stay in serial send order; global draw order is
        restored by the per-replica time sort in :meth:`_assign_draws`.
        """
        np = _np
        events: List[Dict[str, Any]] = []
        rows = self._rows
        for pid, (slot_t, slot_g, groups) in self.slot_data.items():
            cursor = self.slot_cursor[pid]
            # Slots are chronological per replica, so the number due is a
            # simple count against the per-replica boundary.
            due = (slot_t <= boundary[:, None]).sum(axis=1)
            new = int((due - cursor).max()) if self.S else 0
            if new <= 0:
                continue
            K = slot_t.shape[1]
            for j in range(new):
                k = cursor + j
                active = (k < due) & ~self.bad
                if not active.any():
                    continue
                kc = np.minimum(k, K - 1)
                times = slot_t[rows, kc]
                gids = slot_g[rows, kc]
                for g in np.unique(gids[active]):
                    mask = active & (gids == g)
                    events.append({"sender": pid,
                                   "time": np.where(mask, times, np.inf),
                                   "exists": mask,
                                   "recips": groups[int(g)]})
            self.slot_cursor[pid] = np.maximum(cursor, due)
        return events

    def _assign_draws(self, btimes: Any, bexists: Any,
                      slot_events: List[Dict[str, Any]]) -> Tuple[Any, List[Any]]:
        """Sort each replica's send events by time; draw and place delays.

        ``btimes``/``bexists`` are the ``(S, B)`` send times and liveness of
        the round's broadcast events (one per sender column); ``slot_events``
        are the attacker slots.  Returns ``(DEL_b, slot_DEL)`` — a
        ``(S, B, n)`` broadcast delay tensor and one ``(S, c)`` delay matrix
        per slot event, NaN where the message does not exist — with the
        uniform draws consumed in global send-time order, mirroring the
        serial queue exactly.
        """
        np = _np
        S, n = self.S, self.n
        B = btimes.shape[1]
        E = B + len(slot_events)
        if E == 0:
            return np.full((S, 0, n), np.nan), []
        if slot_events:
            times = np.concatenate(
                [btimes] + [ev["time"][:, None] for ev in slot_events], axis=1)
            exists = np.concatenate(
                [bexists] + [ev["exists"][:, None] for ev in slot_events],
                axis=1)
        else:
            times, exists = btimes, bexists
        counts = np.array([n] * B + [len(ev["recips"])
                                     for ev in slot_events])

        # Per-replica chronological order over the existing events (absent
        # events sort to the end as +inf and contribute zero draws).
        masked = np.where(exists, times, np.inf)
        order = np.argsort(masked, axis=1, kind="stable")
        sorted_t = np.take_along_axis(masked, order, axis=1)
        if E > 1:
            tie = ((sorted_t[:, 1:] == sorted_t[:, :-1])
                   & np.isfinite(sorted_t[:, 1:])).any(axis=1)
            if tie.any():
                self._mark_bad(tie, "tied send times")
        any_ex = exists.any(axis=1)
        inverted = any_ex & (sorted_t[:, 0] <= self.prev_block_max)
        if inverted.any():
            self._mark_bad(inverted, "send-order inversion across rounds")
        self.prev_block_max = np.where(
            any_ex, np.where(exists, times, -np.inf).max(axis=1),
            self.prev_block_max)

        # Draw-stream positions: event at sort-rank k starts at the exclusive
        # cumsum of the ordered recipient counts; scatter back to event axis.
        counts_ord = np.where(np.isfinite(sorted_t), counts[order], 0)
        cum = np.cumsum(counts_ord, axis=1)
        starts = cum - counts_ord
        pos = np.empty_like(starts)
        np.put_along_axis(pos, order, starts, axis=1)
        tot = cum[:, -1]
        lo, span = self.delay_lo, self.delay_span

        if self.uniform:
            maxtot = int(tot.max())
            flat = np.zeros((S, max(maxtot, 1)))
            for s in range(S):
                k = int(tot[s])
                if k:
                    flat[s, :k] = self.rngs[s].random_sample(k)
            limit = flat.shape[1] - 1
            if B:
                idx = np.minimum(pos[:, :B, None] + np.arange(n), limit)
                draws = np.take_along_axis(flat[:, None, :], idx, axis=2)
                DEL_b = np.where(bexists[:, :, None], lo + span * draws,
                                 np.nan)
            else:
                DEL_b = np.full((S, 0, n), np.nan)
            slot_DEL = []
            for i, ev in enumerate(slot_events):
                c = len(ev["recips"])
                idx = np.minimum(pos[:, B + i, None] + np.arange(c), limit)
                draws = np.take_along_axis(flat, idx, axis=1)
                slot_DEL.append(np.where(ev["exists"][:, None],
                                         lo + span * draws, np.nan))
        else:
            delta = self.params.delta
            DEL_b = np.where(np.broadcast_to(bexists[:, :, None], (S, B, n)),
                             delta, np.nan)
            slot_DEL = [
                np.where(np.broadcast_to(ev["exists"][:, None],
                                         (S, len(ev["recips"]))),
                         delta, np.nan)
                for ev in slot_events]

        if (self.uniform and lo <= 0) or (not self.uniform
                                          and self.params.delta <= 0):
            npos = (DEL_b <= 0).any(axis=(1, 2))
            for DEL_e in slot_DEL:
                npos |= (DEL_e <= 0).any(axis=1)
            if npos.any():
                self._mark_bad(npos, "non-positive delay")
        return DEL_b, slot_DEL

    def _write_cells(self, cells: Any, mask: Any, at: Any,
                     value: Any) -> None:
        """Write ARR cells, later arrival winning (``discard_stale=False``).

        Serial semantics: every delivery overwrites ``ARR[sender]``, so the
        value read at the update is the one with the *latest* arrival time.
        Equal arrival times would make the winner depend on queue sequence
        numbers the lockstep engine does not track — those replicas bail.
        ``cells`` selects the (receiver, sender) slice being written: ``None``
        for the full planes (pending application), otherwise a trailing-axes
        index (a sender column, or a (recipients, sender) fancy pair).
        """
        np = _np
        if cells is None:
            arr_t = self.arr_t
        else:
            arr_t = self.arr_t[(slice(None),) + cells]
        tie = mask & (at == arr_t)
        if np.any(tie):
            # A bad replica's arrays are junk from here on — it re-runs
            # serially and nothing synthesized reads them, so no masking.
            axes = tuple(range(1, tie.ndim))
            self._mark_bad(np.any(tie, axis=axes), "tied ARR arrivals")
        newer = mask & (at > arr_t)
        if cells is None:
            self.arr_val = np.where(newer, value, self.arr_val)
            self.arr_t = np.where(newer, at, self.arr_t)
            self.arr_has |= mask
        else:
            sel = (slice(None),) + cells
            self.arr_val[sel] = np.where(newer, value, self.arr_val[sel])
            self.arr_t[sel] = np.where(newer, at, arr_t)
            self.arr_has[sel] |= mask

    def _stash_pending(self, cells: Tuple, late: Any, at: Any,
                       phys: Any) -> None:
        """Stash post-window arrivals for a later round, later arrival wins.

        A slot may already hold an undelivered message from the same sender —
        both would apply under the same correction, so comparing arrival
        times is exact; equal times bail like ARR ties.
        """
        np = _np
        sel = (slice(None),) + cells
        col = self.pend_has[sel]
        pt = self.pend_t[sel]
        tie = late & col & (at == pt)
        if np.any(tie):
            axes = tuple(range(1, tie.ndim))
            self._mark_bad(np.any(tie, axis=axes), "tied ARR arrivals")
        keep = late & (~col | (at > pt))
        self.pend_t[sel] = np.where(keep, at, pt)
        self.pend_phys[sel] = np.where(keep, phys, self.pend_phys[sel])
        self.pend_has[sel] = col | late

    def _deliver_broadcasts(self, bsenders: Any, btimes: Any, DEL_b: Any,
                            u: Any, armed_w: Any) -> None:
        """Count and apply the round's broadcasts as one (S, B, n) tensor op.

        Each broadcast sender writes a distinct ARR column, so the whole
        round's broadcast deliveries commute — one fused pass replaces the
        per-event loop.  Axis order: ``DEL_b``/``AT`` are (replica, sender,
        receiver); ARR planes are (replica, receiver, sender), hence the
        transposes.
        """
        np = _np
        if not bsenders.size:
            return
        AT = btimes[:, :, None] + DEL_b                 # now + delay
        live = ~np.isnan(DEL_b)
        arrived = live & (AT <= self.end_time)
        acnt = arrived.sum(axis=(1, 2))
        self.delivered += acnt
        self.dispatched += acnt
        per_sender = live.sum(axis=2)
        self.sent += per_sender.sum(axis=1)
        self.pps[:, bsenders] += per_sender
        # ARR writes: only updaters that still have an update coming can
        # ever read these cells again.
        ATr = AT.transpose(0, 2, 1)                     # (S, recv, sender)
        recv = (arrived.transpose(0, 2, 1) & self.is_upd[None, :, None]
                & armed_w[:, :, None] & (ATr < self.crash_t[None, :, None]))
        if not np.any(recv):
            return
        stale = recv & (ATr <= self.last_u[:, :, None])
        if np.any(stale):
            self._mark_bad(np.any(stale, axis=(1, 2)),
                           "arrival before previous update")
            recv &= ~self.bad[:, None, None]
        imm = recv & (ATr <= u[:, :, None])
        late = recv & (ATr > u[:, :, None])
        cells = (slice(None), bsenders)
        if np.any(imm):
            value = ((self.off[:, :, None] + self.rt[:, :, None] * ATr)
                     + self.corr[:, :, None])
            self._write_cells(cells, imm, ATr, value)
        if np.any(late):
            phys = self.off[:, :, None] + self.rt[:, :, None] * ATr
            self._stash_pending(cells, late, ATr, phys)

    def _deliver_slot(self, ev: Dict[str, Any], DEL_e: Any,
                      u: Any, armed_w: Any, write: bool) -> None:
        """Count and apply one attacker slot event ((S, c) recipient slice)."""
        np = _np
        sender = ev["sender"]
        recips = np.asarray(ev["recips"])
        at = ev["time"][:, None] + DEL_e
        live = ~np.isnan(DEL_e)
        arrived = live & (at <= self.end_time)
        acnt = arrived.sum(axis=1)
        self.delivered += acnt
        self.dispatched += acnt
        lcnt = live.sum(axis=1)
        self.sent += lcnt
        self.pps[:, sender] += lcnt
        if not write:
            return
        recv = (arrived & self.is_upd[recips][None, :] & armed_w[:, recips]
                & (at < self.crash_t[recips][None, :]))
        if not np.any(recv):
            return
        stale = recv & (at <= self.last_u[:, recips])
        if np.any(stale):
            self._mark_bad(np.any(stale, axis=1),
                           "arrival before previous update")
            recv &= ~self.bad[:, None]
        imm = recv & (at <= u[:, recips])
        late = recv & (at > u[:, recips])
        cells = (recips, sender)
        if np.any(imm):
            value = ((self.off[:, recips] + self.rt[:, recips] * at)
                     + self.corr[:, recips])
            self._write_cells(cells, imm, at, value)
        if np.any(late):
            phys = self.off[:, recips] + self.rt[:, recips] * at
            self._stash_pending(cells, late, at, phys)

    def _apply_pending(self, u: Any, armed_w: Any) -> None:
        """Fold stashed arrivals (beyond the stash round's window) into ARR."""
        np = _np
        has = self.pend_has
        if not np.any(has):
            return
        live = armed_w[:, :, None] & ~self.bad[:, None, None]
        apply = has & live & (self.pend_t <= u[:, :, None])
        drop = has & ~live
        if np.any(apply):
            value = self.pend_phys + self.corr[:, :, None]
            self._write_cells(None, apply, self.pend_t, value)
        self.pend_has &= ~(apply | drop)

    def run(self) -> None:
        """Advance every replica through all rounds plus the attacker tail."""
        np = _np
        S, n = self.S, self.n
        params = self.params
        window = params.collection_window()
        delta = params.delta
        P = params.round_length

        # STARTs: one dispatched event per process whose START is in range.
        self.dispatched += (self.start_t <= self.end_time).sum(axis=1)
        # Attacker timers (armed/fired counts come from the schedules).
        for pid, schedules in self.schedules.items():
            self.timers_set += np.array([sc.timers_set for sc in schedules])
            self.timers_fired += np.array([sc.timers_fired
                                           for sc in schedules])
            self.dispatched += np.array([sc.dispatched for sc in schedules])

        T = params.initial_round_time
        armed_b = np.broadcast_to(self.is_upd, (S, n)).copy()
        for r in range(self.rounds):
            # Broadcast phase: the round-r timer (START for round 0) fires.
            b = ((T - self.corr) - self.off) / self.rt
            fire_b = armed_b & (b <= self.end_time)
            if r > 0:
                self.timers_fired += fire_b.sum(axis=1)
                self.dispatched += fire_b.sum(axis=1)
            act_b = fire_b & (b < self.crash_t[None, :])

            # Collection-window timer: T + (1+ρ)(β+δ+ε), on the same CORR.
            window_end = T + (window + (n - 1) * 0.0)
            u = ((window_end - self.corr) - self.off) / self.rt
            armed_w = act_b & (u > b)
            self._mark_bad(np.any(act_b & ~armed_w, axis=1),
                           "collection window not in the future")
            armed_w &= ~self.bad[:, None]
            self.timers_set += armed_w.sum(axis=1)

            # Pending arrivals stashed in earlier rounds resolve against this
            # round's window, before any new sends land.
            self._apply_pending(u, armed_w)

            # This round's send events: live broadcasts plus any attacker
            # slots sent before the round's last update fires — those must
            # deliver against *this* round's windows, and their draws precede
            # the next round's broadcasts in the serial ledger either way.
            max_b = np.where(np.any(act_b, axis=1),
                             np.where(act_b, b, -np.inf).max(axis=1), -np.inf)
            max_u = np.where(np.any(armed_w, axis=1),
                             np.where(armed_w, u, -np.inf).max(axis=1),
                             -np.inf)
            bsenders = np.nonzero(act_b.any(axis=0))[0]
            slot_events = self._pending_slots(np.maximum(max_b, max_u))
            DEL_b, slot_DEL = self._assign_draws(
                b[:, bsenders], act_b[:, bsenders] & ~self.bad[:, None],
                slot_events)
            self._deliver_broadcasts(bsenders, b[:, bsenders], DEL_b,
                                     u, armed_w)
            for ev, DEL_e in zip(slot_events, slot_DEL):
                self._deliver_slot(ev, DEL_e, u, armed_w, write=True)

            # Update phase: mid(reduce(ARR)), ADJ = (T + δ) − AV.
            fire_w = armed_w & (u <= self.end_time)
            self.timers_fired += fire_w.sum(axis=1)
            self.dispatched += fire_w.sum(axis=1)
            act_u = fire_w & (u < self.crash_t[None, :]) & ~self.bad[:, None]
            if np.any(act_u):
                fallback = (self.off + self.rt * u) + self.corr
                values = np.where(self.arr_has, self.arr_val,
                                  fallback[:, :, None])
                ordered = np.sort(values, axis=2)
                average = (ordered[:, :, params.f]
                           + ordered[:, :, n - 1 - params.f]) / 2.0
                adjustment = (T + delta) - average
                new_corr = self.corr + adjustment
                self.u_hist[:, :, r] = np.where(act_u, u, self.u_hist[:, :, r])
                self.adj_hist[:, :, r] = np.where(act_u, adjustment, 0.0)
                self.corr = np.where(act_u, new_corr, self.corr)
                self.did_update[:, :, r] = act_u
                self.last_u = np.where(act_u, u, self.last_u)
            self.corr_hist[:, :, r + 1] = self.corr

            # Next round's broadcast timer, on the new logical clock.
            T_next = T + P
            if r + 1 < self.rounds:
                b_next = ((T_next - self.corr) - self.off) / self.rt
                armed_b = act_u & (b_next > u)
                self._mark_bad(np.any(act_u & ~armed_b, axis=1),
                               "missed round (P below the Section 5.2 bound)")
                armed_b &= ~self.bad[:, None]
                self.timers_set += armed_b.sum(axis=1)
            else:
                armed_b = np.zeros((S, n), dtype=bool)
            T = T_next

        # Attacker tail: slots after the last correct broadcast still consume
        # draws and deliver messages (nobody updates from them anymore).
        tail = self._pending_slots(np.full(S, np.inf))
        _, slot_DEL = self._assign_draws(np.zeros((S, 0)),
                                         np.zeros((S, 0), dtype=bool), tail)
        for ev, DEL_e in zip(tail, slot_DEL):
            self._deliver_slot(ev, DEL_e, u=None, armed_w=None, write=False)

        self._mark_bad(self.dispatched > DEFAULT_EVENT_BUDGET,
                       "event budget exceeded")


def execute_batch(specs: Sequence[Any],
                  telemetry: Optional[Any] = None) -> List[Any]:
    """Execute S replicas of one spec (identical modulo seed) in lockstep.

    Returns results aligned with ``specs``.  Replicas whose event skeleton
    diverges from the lockstep assumptions — and every replica, when
    :func:`decline_reason` names a reason — transparently fall back to the
    serial :func:`~repro.runner.spec.execute`, so the output is always the
    serial output.
    """
    from ..runner.spec import execute
    from time import perf_counter

    specs = list(specs)
    if not specs:
        return []
    base = specs[0]
    for spec in specs[1:]:
        if spec.with_seed(base.seed) != base:
            raise ValueError("execute_batch needs specs identical modulo "
                             "seed; got a differing spec")
    if telemetry is None:
        from ..telemetry import get_active
        telemetry = get_active()
    if decline_reason(base) is not None:
        return [execute(spec, telemetry=telemetry, engine="serial")
                for spec in specs]

    # Deduplicate (BatchRunner already does; direct callers may not).
    unique: List[Any] = []
    index: Dict[Any, int] = {}
    for spec in specs:
        if spec not in index:
            index[spec] = len(unique)
            unique.append(spec)

    start = perf_counter()
    vs = VectorSystem(base, [spec.seed for spec in unique])
    vs.run()
    synthesized = (vs.results(unique, skip=vs.bad) if not vs.bad.all()
                   else [None] * len(unique))
    results: Dict[Any, Any] = {}
    vector_specs = []
    for spec, result in zip(unique, synthesized):
        if result is None:
            results[spec] = execute(spec, telemetry=telemetry,
                                    engine="serial")
        else:
            results[spec] = result
            vector_specs.append(spec)
    wall = perf_counter() - start

    if telemetry is not None and vector_specs:
        from ..telemetry import build_manifest
        registry = telemetry.registry
        registry.counter("runner.specs_executed").inc(len(vector_specs))
        registry.counter("runner.vectorized_batches").inc()
        registry.counter("runner.vectorized_replicas").inc(len(vector_specs))
        registry.counter("runner.vectorized_fallbacks").inc(
            len(unique) - len(vector_specs))
        registry.gauge("runner.vector_batch_size").set(len(unique))
        share = wall / len(vector_specs)
        for spec in vector_specs:
            registry.histogram("runner.spec_wall_seconds").observe(share)
            telemetry.emit_manifest(build_manifest(spec, results[spec],
                                                   wall_seconds=share))
    return [results[spec] for spec in specs]
