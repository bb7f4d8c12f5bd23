"""Vectorized per-topology index arrays: CSR adjacency + hop distances.

Large-n execution (:mod:`repro.sim.roundengine`) needs the graph as flat
numpy arrays — a CSR neighbor table for multi-source BFS, per-sender RNG
draw totals, and hop-distance rows.  The CSR table is a read-only
``np.frombuffer`` view of the sorted CSR buffers a
:class:`~repro.topology.base.Topology` already stores, so it costs no copy.
The rest costs one BFS sweep (skipped for the complete graph), so the
index is **memoized**: once per Topology *instance* (an attribute on
the object, excluded from pickling) and across *equal* instances through a
small LRU keyed by topology equality — repeated ``execute()`` calls of one
spec rebuild the Topology object every time, and the LRU is what lets them
share one index.  Cache hits are counted on the active telemetry bundle as
``topology.index_cache_hits``.

The index also provides exact fast paths for two O(n²)-python walks:

* :attr:`TopologyIndex.diameter` (used by :meth:`Topology.diameter`);
* the hop extrema behind :func:`repro.topology.routing.delay_envelope` when
  the topology declares no per-link extra delays (the envelope is then a
  monotone function of the hop count, so only the extreme hop counts
  matter — evaluated with the same python-float expression the serial loop
  uses, the result is bit-identical).

Everything here degrades gracefully: :func:`maybe_index` returns ``None``
when numpy is absent or disabled (``REPRO_NO_NUMPY``), and every caller
falls back to the pure-python walk.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Optional

from ..sim.traceindex import numpy_enabled
from .base import Topology

try:  # pragma: no cover - exercised via the both-backend fixtures
    import numpy as _np
except ImportError:  # pragma: no cover - numpy genuinely absent
    _np = None

__all__ = ["TopologyIndex", "topology_index", "maybe_index"]

#: keep the full (n, n) distance matrix when it stays under ~64 MB.
_DENSE_DIST_MAX_N = 4096

#: BFS frontier work per chunk, in (row × gathered-edge) cells.
_BFS_CHUNK_CELLS = 1 << 24

#: equal-topology LRU size (sweeps touch a handful of graphs at a time).
_LRU_CAPACITY = 8

_lru: "OrderedDict[Topology, TopologyIndex]" = OrderedDict()


def _view(table: Any) -> Any:
    """A read-only int64 numpy view of one of a Topology's CSR buffers."""
    view = _np.frombuffer(table, dtype=_np.int64)
    view.flags.writeable = False
    return view


def _count_cache_hit() -> None:
    from ..telemetry import get_active
    telemetry = get_active()
    if telemetry is not None:
        telemetry.registry.counter("topology.index_cache_hits").inc()


class TopologyIndex:
    """Flat-array view of one topology: CSR adjacency and hop distances.

    Attributes
    ----------
    n, edge_count : int
        node and undirected-link counts.
    indptr, indices : numpy arrays
        CSR neighbor table (both directions of every link): read-only views
        sharing memory with the topology's own buffers.
    draw_totals : (n,) int64
        per-sender RNG draws one broadcast consumes in the serial ledger:
        ``Σ_r dist_eff(s, r)`` with ``dist_eff(s, s) = 1`` (the loopback
        copy draws once) and unreachable pairs contributing zero.
    connected : bool
    diameter : int
        longest finite hop distance (0 for n == 1).
    min_pair_hops, max_pair_hops : int
        extrema of ``dist(s, r)`` over reachable ordered pairs ``s != r``
        (0 when no such pair exists).
    """

    def __init__(self, topology: Topology):
        if _np is None or not numpy_enabled():
            raise RuntimeError("numpy is required to build a TopologyIndex")
        np = _np
        self.topology = topology
        self.n = n = topology.n
        self.edge_count = topology.link_count
        self.is_complete = topology.is_complete
        self.indptr = _view(topology.indptr)
        self.indices = _view(topology.indices)
        degrees = np.diff(self.indptr)
        self._isolated = degrees == 0
        # Trailing isolated nodes make indptr[:-1] contain len(indices),
        # which reduceat rejects; _bfs pads one False column so that offset
        # stays in range (clipping instead would truncate the previous
        # node's segment).
        self._pad_bfs = bool(n and degrees[n - 1] == 0)
        self._dist: Optional[Any] = None
        if self.is_complete:
            # dist is 1 everywhere off-diagonal; skip the sweep entirely.
            self.draw_totals = np.full(n, n, dtype=np.int64)
            self.connected = True
            self.diameter = 1 if n > 1 else 0
            self.min_pair_hops = 1 if n > 1 else 0
            self.max_pair_hops = self.min_pair_hops
            return
        self.draw_totals = np.zeros(n, dtype=np.int64)
        dense = n <= _DENSE_DIST_MAX_N
        if dense:
            self._dist = np.empty((n, n), dtype=np.int32)
        connected = True
        worst = 0
        min_pair = n                    # above any hop count: no pair yet
        chunk = max(1, _BFS_CHUNK_CELLS // max(len(self.indices), 1))
        for lo in range(0, n, chunk):
            sources = np.arange(lo, min(lo + chunk, n))
            dist = self._bfs(sources)
            if dense:
                self._dist[lo:lo + len(sources)] = dist
            reachable = dist >= 0
            connected = connected and bool(reachable.all())
            # -1 (unreachable) and 0 (the source) never win the max.
            worst = max(worst, int(dist.max()))
            min_pair = min(min_pair,
                           int(dist.min(where=dist > 0, initial=n)))
            # Reachable receivers draw once per hop, the loopback copy once.
            self.draw_totals[sources] = dist.sum(axis=1, where=reachable) + 1
        self.connected = connected
        self.diameter = worst
        self.min_pair_hops = 0 if min_pair == n else min_pair
        self.max_pair_hops = worst

    def _bfs(self, sources: Any) -> Any:
        """Multi-source BFS hop distances; ``-1`` marks unreachable nodes."""
        np = _np
        C, n = len(sources), self.n
        dist = np.full((C, n), -1, dtype=np.int32)
        rows = np.arange(C)
        frontier = np.zeros((C, n), dtype=bool)
        frontier[rows, sources] = True
        dist[rows, sources] = 0
        level = 0
        while True:
            if not len(self.indices):
                break
            if self._pad_bfs:
                # One always-False column keeps offsets == len(indices)
                # (trailing isolated nodes) in range; False is the OR
                # identity, so real segments are unaffected.
                gathered = np.zeros((C, len(self.indices) + 1), dtype=bool)
                gathered[:, :-1] = frontier[:, self.indices]
            else:
                gathered = frontier[:, self.indices]
            nxt = np.bitwise_or.reduceat(gathered, self.indptr[:-1], axis=1)
            # reduceat mis-reports empty segments (degree-0 nodes); they have
            # no in-edges, so force them off.
            if self._isolated.any():
                nxt[:, self._isolated] = False
            nxt &= dist < 0
            if not nxt.any():
                break
            level += 1
            dist[nxt] = np.int32(level)
            frontier = nxt
        return dist

    def dist_rows(self, pids: Any) -> Any:
        """Hop-distance rows for the given source ids ((len(pids), n) int32).

        ``0`` on the diagonal, ``-1`` for unreachable pairs.  Served from the
        dense cache when the matrix fits, recomputed (chunked BFS) otherwise.
        """
        np = _np
        pids = np.asarray(pids, dtype=np.int64)
        if self.is_complete:
            dist = np.ones((len(pids), self.n), dtype=np.int32)
            dist[np.arange(len(pids)), pids] = 0
            return dist
        if self._dist is not None:
            return self._dist[pids]
        return self._bfs(pids)


def topology_index(topology: Topology) -> TopologyIndex:
    """The (memoized) index for a topology; builds it on first access."""
    index = topology.__dict__.get("_topology_index")
    if index is not None:
        _count_cache_hit()
        return index
    index = _lru.get(topology)
    if index is not None:
        _lru.move_to_end(topology)
        _count_cache_hit()
    else:
        index = TopologyIndex(topology)
        _lru[topology] = index
        while len(_lru) > _LRU_CAPACITY:
            _lru.popitem(last=False)
    topology.__dict__["_topology_index"] = index
    return index


def maybe_index(topology: Topology) -> Optional[TopologyIndex]:
    """The memoized index, or ``None`` when numpy is absent or disabled."""
    if _np is None or not numpy_enabled():
        return None
    return topology_index(topology)
