"""Single-replica, large-n round engine: intra-replica vectorized rounds.

:mod:`repro.sim.vectorized` (PR 7) batches S replicas of one *small*-n spec;
this module is the symmetric perf axis: **one** replica whose n is large
enough (thousands to ~10^5) that executing each of the O(n·edges)-per-round
messages as an individual heap event dominates wall clock.  Because every
nonfaulty Welch–Lynch process broadcasts once per round, collects arrivals
for one window and applies one fault-tolerant-midpoint correction, a whole
round collapses into flat-array kernels over ``(chunk, n)`` blocks:

* per round, the active senders are sorted by real send time and their delay
  draws replayed from one mirrored Mersenne-Twister stream in exactly the
  serial global send order, with per-*hop* draw positions so multi-hop
  relays accumulate ``time += delay`` in the serial order — one dense
  gather-and-add per hop level;
* the senders go through in chunks bounded by *draws*, not by
  sender×receiver pairs (:data:`_CHUNK_CELLS`, ~1M draws), so the working
  set stays a few ``(chunk, n)`` arrays of ~8 MB whatever n and the
  diameter (a 3-round n=2000 hierarchy run peaks at ~85 MB RSS in all);
* arrivals merge into running bottom-(f+1)/top-(f+1) buffers per receiver
  — the midpoint ``(sorted[f] + sorted[n-1-f]) / 2`` only needs the f+1
  extreme values from the correct senders plus the (dense, small) fault
  columns, so per-round memory is O(n·f) instead of O(n²); a clock value
  never decreases with the arrival time, so only each chunk's f+1
  earliest and latest arrivals per receiver become values;
* sparse topologies go through :class:`~repro.topology.index.TopologyIndex`
  (CSR adjacency, chunked multi-source BFS), so per-round work is
  O(edges)-proportional and leaf-heavy graphs at n≈5·10^4 stay tractable
  under streaming (``record_trace=False``) with the online observers.

**Bit-identity contract.**  Same as the batch engine: the serial loop is the
reference and this module reproduces it float for float — every arithmetic
expression keeps the serial operation order, and the delay draws replay the
serial RNG ledger.  The engine only handles executions on the *clean path*,
where every arrival a process will read lands inside the collection window
it is read in (``last_update < arrival ≤ window_end``) — which is exactly
the regime the Lundelius–Lynch window derivation guarantees for nonfaulty
executions.  Anything else — tied send times, late or stale arrivals, a
missed round, a non-positive delay, the event budget — raises an internal
fallback and the caller transparently re-runs the spec through the serial
:func:`~repro.analysis.experiments.run_maintenance_scenario`.

Which engine runs is decided by :func:`repro.runner.spec.engine_for` (at or
above :data:`AUTO_MIN_N` by default, at any n when asked for); the engine
shares its set-up and its result tail with the batch engine, as a batch of
one (``repro.sim.vectorized._EngineState``).
"""

from __future__ import annotations

from typing import Any, Optional

from .vectorized import (DEFAULT_EVENT_BUDGET, _EngineState, _fault_count,
                         _mirror_rng, scope_reason)

try:  # pragma: no cover - exercised via the parity suite on both backends
    import numpy as _np
except ImportError:  # pragma: no cover - numpy genuinely absent
    _np = None

__all__ = [
    "decline_reason",
    "try_execute",
    "ROUND_FAULT_KINDS",
    "AUTO_MIN_N",
]

#: fault behaviours with clean-path round skeletons.  The Byzantine kinds
#: need per-attacker python schedules (cheap at PR 7's n≤~100, not at 10^4)
#: and always take the serial path here.
ROUND_FAULT_KINDS = frozenset({"silent", "crash"})

#: below this n the per-event serial loop (or the batch engine, when
#: replicating) wins; the engine only engages by default at or above it.
#: Asking for it by name (``engine="round"``) lifts the floor.
AUTO_MIN_N = 512

#: dense per-receiver fault columns; above this many cells the crash/silent
#: bookkeeping would dominate memory, so the spec runs serially.
_MAX_FAULT_CELLS = 1 << 22

#: chunk sizing: at most ~1M delay draws (8 MB as float64) per kernel, and
#: so at most ~1M (sender, receiver) cells, since every message draws at
#: least once; a sender whose one broadcast draws more forms a chunk of its
#: own.  Fixed delays draw nothing but keep the same cell bound.
_CHUNK_CELLS = 1 << 20


def decline_reason(spec: Any) -> Optional[str]:
    """Why the round engine declines ``spec`` (None when it accepts it).

    The numpy engines' common :func:`~repro.sim.vectorized.scope_reason`
    with the silent/crash fault kinds.  Unlike the batch engine, sparse
    topologies and explicit ``max_events`` budgets are in scope;
    :func:`try_execute` still checks the *built* topology (connectivity,
    extra delays, drops).
    """
    return scope_reason(spec, ROUND_FAULT_KINDS)


class _Fallback(Exception):
    """Internal: this execution left the clean path; run it serially."""


class RoundSystem(_EngineState):
    """Round-at-a-time executor for one large-n maintenance spec.

    Holds per-process clock state, corrections, timer deadlines and the
    per-round extreme-value buffers as ``(n,)``-shaped arrays; broadcasts are
    processed in sender chunks of at most :data:`_CHUNK_CELLS` delay draws,
    one ``(chunk, n)`` arrival matrix each.  The caller supplies the *base*
    spec params (for the delay model, which the serial path builds before
    topology correction) and the already-built topology; effective
    parameters are derived here exactly as
    :func:`~repro.analysis.experiments.run_maintenance_scenario` does.
    """

    def __init__(self, spec: Any, topology: Optional[Any]):
        np = _np
        from ..analysis.experiments import effective_parameters
        super().__init__(spec, effective_parameters(spec.params, topology),
                         [spec.seed], ())
        n, fc = self.n, self.fault_count
        self.topology = topology

        # Graph view: ``None`` index means the complete-graph fast path
        # (topology omitted entirely); a complete Topology object routes
        # every pair over the one-hop route, which draws and accumulates
        # identically, so it shares the dist≡1 kernels.
        if topology is None:
            self.index = None
            self.complete = True
            self.edge_count = n * (n - 1) // 2
        else:
            from ..topology.index import topology_index
            self.index = topology_index(topology)
            self.complete = self.index.is_complete
            self.edge_count = self.index.edge_count

        self.delay_fixed = spec.params.delta
        self.rng = _mirror_rng(spec.seed) if self.uniform else None
        self.prev_block_max = -np.inf

        # Dense fault columns: [receiver, fault_index] value-in-force and its
        # arrival time (later arrival wins, like the serial overwrite).
        if self.fault_kind == "crash":
            self.fa_val = np.zeros((n, fc))
            self.fa_t = np.full((n, fc), -np.inf)
            self.fa_has = np.zeros((n, fc), dtype=bool)

        # MessageStats counters (python ints: they reach 10^9 at n≈2·10^4).
        self.sent = 0
        self.delivered = 0
        self.relayed = 0
        self.timers_set = 0
        self.timers_fired = 0
        self.dispatched = 0
        self.pps = np.zeros(n, dtype=np.int64)
        self.budget = (spec.max_events if spec.max_events is not None
                       else DEFAULT_EVENT_BUDGET)
        # Draws one broadcast consumes, per sender: chunks are sized by them.
        self.draw_totals = (np.full(n, n, dtype=np.int64) if self.index is None
                            else self.index.draw_totals)

    def _chunks(self, ssort: Any) -> Any:
        """Split the round's ordered senders into runs of bounded draws.

        Yields ``(c0, c1, draws)``: senders ``ssort[c0:c1]`` consume
        ``draws`` ≤ :data:`_CHUNK_CELLS` delay draws between them; a sender
        whose own broadcast draws more forms a chunk of one.
        """
        np = _np
        ends = np.cumsum(self.draw_totals[ssort])
        c0 = done = 0
        while c0 < len(ssort):
            c1 = max(c0 + 1, int(np.searchsorted(
                ends, done + _CHUNK_CELLS, side="right")))
            yield c0, c1, int(ends[c1 - 1]) - done
            c0, done = c1, int(ends[c1 - 1])

    def _arrivals(self, pids: Any, sent: Any, draws: int) -> Any:
        """One chunk's ``(C, n)`` arrival times and its hop distances.

        Message ``(s, r)`` relays over ``dist(s, r)`` hops (the loopback copy
        over one) and accumulates ``time += delay`` hop by hop, as the serial
        loop does.  Uniform delays are one contiguous slice of the serial
        draw ledger — sender-major, then receiver, then hop — so hop level
        ``h`` gathers every message's ``h``-th draw and adds it densely;
        cells already past their last hop add ``+0.0``, which leaves them
        bit-for-bit unchanged (an arrival time is never ``-0.0``).  ``dist``
        is None on the complete graph (one hop everywhere).
        """
        np = _np
        C, n = len(pids), self.n
        if self.complete:
            dist, levels = None, 1
        else:
            dist = self.index.dist_rows(pids)
            if (dist < 0).any():  # pragma: no cover - gated on connectivity
                raise _Fallback("unroutable pair")
            dist[np.arange(C), pids] = 1        # the loopback copy draws once
            levels = int(dist.max())
        AT = np.repeat(sent[:, None], n, axis=1)
        if self.uniform:
            # Splitting random_sample per chunk is exact (same MT state
            # walk).  lo + span·x is formed in place: IEEE * and + commute,
            # so the bits are the serial draw's.  With lo > 0 (always, for
            # validated parameters) no draw can be non-positive.
            delays = self.rng.random_sample(draws)
            delays *= self.delay_span
            delays += self.delay_lo
            if self.delay_lo <= 0 and (delays <= 0).any():
                raise _Fallback("non-positive delay")
        if levels == 1:             # one hop each: the draws are the block
            AT += delays.reshape(C, n) if self.uniform else self.delay_fixed
            return AT, dist

        step = np.full((C, n), self.delay_fixed)
        if self.uniform:
            # Each message's first draw: its row's base plus the draws of
            # the receivers before it.
            hop = np.cumsum(dist, axis=1,
                            dtype=np.int32 if draws < 2 ** 31 else np.int64)
            hop -= dist
            counts = self.draw_totals[pids]
            hop += (np.cumsum(counts) - counts).astype(hop.dtype)[:, None]
        for h in range(levels):
            if self.uniform:
                # delays[h:][hop] is each message's h-th draw; a cell past
                # its last hop reads some other draw (clipped at the end)
                # and is zeroed just below.
                np.take(delays[h:], hop, out=step, mode="clip")
            if h:
                np.copyto(step, 0.0, where=dist <= h)
            AT += step
        return AT, dist

    def _deliver_round(self, b: Any, act_b: Any, u: Any, act_u: Any) -> Any:
        """One round's broadcasts: draws, arrivals, stats, value buffers.

        Returns ``(low_buf, high_buf)`` — the running f+1 smallest/largest
        clock values each updating receiver collected from *correct* senders
        — or ``(None, None)`` when nobody updates this round.  Arrivals from
        crash-fault senders go to the persistent dense columns instead.
        """
        np = _np
        n = self.n
        senders = np.nonzero(act_b)[0]
        need_values = bool(act_u.any())
        if need_values:
            act_idx = np.nonzero(act_u)[0]
            width = min(self.params.f + 1, self.n_correct)
            low_buf = np.full((len(act_idx), width), np.inf)
            high_buf = np.full((len(act_idx), width), -np.inf)
        else:
            low_buf = high_buf = None
        if not senders.size:
            return low_buf, high_buf

        # Global send order within the round block; ties and cross-round
        # inversions would reorder the serial draw ledger.
        bs = b[senders]
        order = np.argsort(bs, kind="stable")
        ssort = senders[order]
        bsort = bs[order]
        if len(bsort) > 1 and (bsort[1:] == bsort[:-1]).any():
            raise _Fallback("tied send times")
        if bsort[0] <= self.prev_block_max:
            raise _Fallback("send-order inversion across rounds")
        self.prev_block_max = float(bsort[-1])

        if not self.uniform and self.delay_fixed <= 0:
            raise _Fallback("non-positive delay")

        for c0, c1, draws in self._chunks(ssort):
            pids = ssort[c0:c1]
            C = len(pids)
            AT, dist = self._arrivals(pids, bsort[c0:c1], draws)
            arrived = AT <= self.end_time
            arrived_count = int(arrived.sum())
            self.delivered += arrived_count
            self.dispatched += arrived_count
            self.sent += C * n
            self.pps[pids] += n
            if dist is not None:
                self.relayed += int((dist >= 2).sum())
            if not need_values:
                continue

            correct = np.flatnonzero(pids < self.n_correct)
            if correct.size:
                # Each updater's arrivals from the chunk's correct senders,
                # in order.  A clock value (off + rt·t) + corr never
                # decreases with t (rt > 0, correctly rounded ops), so the
                # chunk's f+1 extreme values are those of its f+1 extreme
                # arrivals.
                ranked = AT[correct]
                if len(act_idx) < n:
                    ranked = ranked[:, act_idx]
                ranked.sort(axis=0)
                # Clean path: every value an updater reads landed inside the
                # window it is read in.  Anything else means the serial loop
                # reads a stale cell or a pending stash — run it serially.
                if not ((ranked[0] > self.last_u[act_idx])
                        & (ranked[-1] <= u[act_idx])).all():
                    raise _Fallback("arrival outside the collection window")
                off, rt = self.off[act_idx], self.rt[act_idx]
                corr = self.corr[act_idx]
                lows = ((off + rt * ranked[:width]) + corr).T
                highs = ((off + rt * ranked[-width:]) + corr).T
                low_buf = np.partition(
                    np.concatenate([low_buf, lows], axis=1),
                    width - 1, axis=1)[:, :width]
                merged = np.concatenate([high_buf, highs], axis=1)
                high_buf = np.partition(
                    merged, merged.shape[1] - width, axis=1)[:, -width:]

            fault_rows = pids >= self.n_correct
            if fault_rows.any() and self.fault_kind == "crash":
                cols = pids[fault_rows] - self.n_correct
                ATf = AT[fault_rows].T              # (receiver, fault sender)
                recv = (arrived[fault_rows].T & self.is_upd[:, None]
                        & self.armed_w[:, None]
                        & (ATf < self.crash_t[:, None]))
                if (recv & (ATf <= self.last_u[:, None])).any():
                    raise _Fallback("arrival before previous update")
                if (recv & (ATf > u[:, None])).any():
                    raise _Fallback("arrival outside the collection window")
                old_t = self.fa_t[:, cols]
                if (recv & (ATf == old_t)).any():
                    raise _Fallback("tied ARR arrivals")
                newer = recv & (ATf > old_t)
                value = (self.off[:, None] + self.rt[:, None] * ATf) \
                    + self.corr[:, None]
                self.fa_val[:, cols] = np.where(newer, value,
                                                self.fa_val[:, cols])
                self.fa_t[:, cols] = np.where(newer, ATf, old_t)
                self.fa_has[:, cols] |= recv
        return low_buf, high_buf

    def run(self) -> None:
        """Advance through all rounds; raises :class:`_Fallback` off-path."""
        np = _np
        n = self.n
        params = self.params
        window = params.collection_window()
        delta = params.delta
        P = params.round_length
        f = params.f

        self.dispatched += int((self.start_t <= self.end_time).sum())

        T = params.initial_round_time
        armed_b = self.is_upd.copy()
        for r in range(self.rounds):
            # Broadcast phase: the round-r timer (START for round 0) fires.
            b = ((T - self.corr) - self.off) / self.rt
            fire_b = armed_b & (b <= self.end_time)
            if r > 0:
                fired = int(fire_b.sum())
                self.timers_fired += fired
                self.dispatched += fired
            act_b = fire_b & (b < self.crash_t)

            # Collection-window timer: T + (1+ρ)(β+δ+ε), on the same CORR.
            window_end = T + (window + (n - 1) * 0.0)
            u = ((window_end - self.corr) - self.off) / self.rt
            armed_w = act_b & (u > b)
            if (act_b & ~armed_w).any():
                raise _Fallback("collection window not in the future")
            self.armed_w = armed_w
            self.timers_set += int(armed_w.sum())

            fire_w = armed_w & (u <= self.end_time)
            act_u = fire_w & (u < self.crash_t)
            # Clean path needs the full value matrix: every correct process
            # must still be broadcasting while anyone updates.
            if act_u.any() and not act_b[:self.n_correct].all():
                raise _Fallback("correct sender missing from round")

            low_buf, high_buf = self._deliver_round(b, act_b, u, act_u)

            # Update phase: mid(reduce(ARR)), ADJ = (T + δ) − AV.
            fired = int(fire_w.sum())
            self.timers_fired += fired
            self.dispatched += fired
            if act_u.any():
                act_idx = np.nonzero(act_u)[0]
                fallback = ((self.off[act_idx] + self.rt[act_idx] * u[act_idx])
                            + self.corr[act_idx])
                if self.fault_count:
                    if self.fault_kind == "crash":
                        fault_vals = np.where(self.fa_has[act_idx],
                                              self.fa_val[act_idx],
                                              fallback[:, None])
                    else:  # silent: nothing ever arrives from them
                        fault_vals = np.broadcast_to(
                            fallback[:, None],
                            (len(act_idx), self.fault_count))
                    cand_low = np.concatenate([low_buf, fault_vals], axis=1)
                    cand_high = np.concatenate([high_buf, fault_vals], axis=1)
                else:
                    cand_low, cand_high = low_buf, high_buf
                # The f-th smallest / f-th largest of all n values live in
                # the buffered extremes ∪ fault columns by construction.
                low = np.partition(cand_low, f, axis=1)[:, f]
                m = cand_high.shape[1]
                high = np.partition(cand_high, m - 1 - f, axis=1)[:, m - 1 - f]
                average = (low + high) / 2.0
                adjustment = (T + delta) - average
                self.u_hist[act_idx, r] = u[act_idx]
                self.adj_hist[act_idx, r] = adjustment
                self.corr[act_idx] = self.corr[act_idx] + adjustment
                self.did_update[:, r] = act_u
                self.last_u[act_idx] = u[act_idx]
            self.corr_hist[:, r + 1] = self.corr

            # Next round's broadcast timer, on the new logical clock.
            T_next = T + P
            if r + 1 < self.rounds:
                b_next = ((T_next - self.corr) - self.off) / self.rt
                armed_b = act_u & (b_next > u)
                if (act_u & ~armed_b).any():
                    raise _Fallback("missed round")
                self.timers_set += int(armed_b.sum())
            else:
                armed_b = np.zeros(n, dtype=bool)
            T = T_next

        if self.dispatched > self.budget:
            raise _Fallback("event budget exceeded")


def try_execute(spec: Any, topology: Optional[Any],
                telemetry: Optional[Any] = None) -> Optional[Any]:
    """Run the spec through the round engine, or return None to go serial.

    ``topology`` is the already-built object (None for the complete-graph
    default).  Falls back — returning None and counting
    ``roundengine.fallbacks`` — whenever the built topology is out of scope
    (disconnected, extra delays, drops) or the execution leaves the clean
    path mid-run.  Unexpected errors from the index build or the engine are
    also absorbed (counted separately as ``roundengine.errors``) so the
    caller always gets the serial reference path instead of a crash.  On
    success the result carries the serial bit pattern and
    ``roundengine.rounds`` / ``roundengine.edges`` telemetry.
    """
    if telemetry is None:
        from ..telemetry import get_active
        telemetry = get_active()

    def fallback(error: bool = False) -> None:
        if telemetry is not None:
            telemetry.registry.counter("roundengine.fallbacks").inc()
            if error:
                telemetry.registry.counter("roundengine.errors").inc()

    if topology is not None:
        if topology.has_extra_delays or topology.has_lossy_links:
            fallback()
            return None
        from ..topology.index import topology_index
        try:
            connected = topology_index(topology).connected
        except Exception:
            fallback(error=True)
            return None
        if not connected:
            fallback()
            return None
    fc = _fault_count(spec)
    if fc and fc * spec.params.n > _MAX_FAULT_CELLS:
        fallback()
        return None
    try:
        engine = RoundSystem(spec, topology)
        engine.run()
        result, = engine.results([spec])
    except _Fallback:
        fallback()
        return None
    except Exception:
        fallback(error=True)
        return None
    if telemetry is not None:
        registry = telemetry.registry
        registry.counter("roundengine.rounds").inc(engine.rounds)
        registry.gauge("roundengine.edges").set(engine.edge_count)
    return result
