"""The :class:`Topology` abstraction: who can talk to whom, and at what cost.

The paper's model (assumptions A2/A3) implicitly assumes a *complete*
communication graph: ``broadcast(m)`` reaches every process directly within
``[δ-ε, δ+ε]``.  A :class:`Topology` drops that assumption and makes the
network graph a first-class object:

* an undirected graph over process ids ``0 .. n-1``, stored once as a sorted
  CSR (compressed sparse row) table — ``indptr`` and ``indices``, two stdlib
  ``array('q')`` buffers of 8-byte ints holding both directions of every
  link, each node's neighbors in ascending order.  No per-link python object
  exists: the complete graph at n=1000 is one 8 MB buffer, and
  :class:`~repro.topology.index.TopologyIndex` views it with numpy without
  copying;
* optional per-link **extra delay** (added on top of whatever the
  :class:`~repro.sim.network.DelayModel` samples for the hop);
* optional per-link **drop probability** (sampled independently per traversal).

The constructor normalizes the edge list once (range and self-loop checks,
canonical order, dedupe, sort) — vectorized when numpy is enabled, with a
per-edge loop otherwise; both build identical arrays.

Messages between non-adjacent processes are *relayed* hop by hop along
shortest routes by the network layer (see :mod:`repro.topology.routing`), so
the end-to-end delay envelope of a sparse graph is the per-hop envelope
stretched by the route length.  ``complete(n)`` reproduces the paper's
setting exactly.

Topologies are immutable; time-varying connectivity (link crash, flapping,
partition-and-heal) is layered on via :class:`~repro.topology.schedule.LinkSchedule`.
"""

from __future__ import annotations

import hashlib
import math
import struct
import sys
from array import array
from bisect import bisect_left, bisect_right
from functools import cached_property
from operator import index as _as_int
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..sim.traceindex import numpy_enabled

try:  # pragma: no cover - exercised via the both-backend fixtures
    import numpy as _np
except ImportError:  # pragma: no cover - numpy genuinely absent
    _np = None

__all__ = ["Topology", "LinkKey", "canonical_link"]

#: an undirected link, canonically ordered ``(min, max)``.
LinkKey = Tuple[int, int]

#: predicate deciding whether a link is currently usable.
LinkPredicate = Callable[[int, int], bool]


def canonical_link(u: int, v: int) -> LinkKey:
    """The canonical (sorted) form of an undirected link."""
    return (u, v) if u <= v else (v, u)


def _check_node(n: int, pid: int) -> None:
    if not 0 <= pid < n:
        raise ValueError(f"node {pid} outside 0..{n - 1}")


def _check_edge(n: int, u: int, v: int) -> None:
    _check_node(n, u)
    _check_node(n, v)
    if u == v:
        raise ValueError(f"self-loop {u}-{v} is not a link")


def _csr_python(n: int, edges: Iterable[Tuple[int, int]]) -> Tuple[array, array]:
    """Sorted CSR of an edge list, one edge at a time.

    Each link ``u-v`` becomes the directed keys ``u*n+v`` and ``v*n+u``;
    the sorted distinct keys are the CSR row by row, neighbors ascending.
    """
    keys = set()
    for u, v in edges:
        u, v = _as_int(u), _as_int(v)
        _check_edge(n, u, v)
        keys.add(u * n + v)
        keys.add(v * n + u)
    ordered = sorted(keys)
    indptr = array("q", (bisect_left(ordered, node * n)
                         for node in range(n + 1)))
    return indptr, array("q", (key % n for key in ordered))


def _csr_numpy(n: int, edges: Any) -> Tuple[array, array]:
    """:func:`_csr_python` vectorized; accepts an (m, 2) integer array."""
    np = _np
    if not isinstance(edges, np.ndarray):
        edges = list(edges)
    pairs = np.asarray(edges)
    if pairs.size == 0:
        pairs = np.zeros((0, 2), dtype=np.int64)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError(f"edges must be (u, v) pairs, got shape {pairs.shape}")
    if pairs.dtype.kind not in "iu":
        raise TypeError(f"edge endpoints must be integers, got {pairs.dtype}")
    u = pairs[:, 0].astype(np.int64, copy=False)
    v = pairs[:, 1].astype(np.int64, copy=False)
    bad = (u < 0) | (u >= n) | (v < 0) | (v >= n) | (u == v)
    if bad.any():
        first = int(np.argmax(bad))
        _check_edge(n, int(u[first]), int(v[first]))
    keys = np.sort(np.concatenate([u * n + v, v * n + u]))
    repeated = keys[1:] == keys[:-1]
    if repeated.any():
        keys = keys[np.concatenate([[True], ~repeated])]
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
    return (array("q", indptr.astype(np.int64).tobytes()),
            array("q", (keys % n).tobytes()))


def _little_endian(table: array) -> array:
    if sys.byteorder == "little":
        return table
    swapped = array("q", table)
    swapped.byteswap()
    return swapped


class Topology:
    """An immutable undirected communication graph with per-link overrides.

    ``edges`` is any iterable of ``(u, v)`` pairs or an (m, 2) integer array;
    duplicates and reversed pairs collapse into one undirected link.  The
    graph lives in :attr:`indptr` / :attr:`indices` (node ``u``'s neighbors
    are ``indices[indptr[u]:indptr[u + 1]]``, ascending); treat them as
    read-only.
    """

    def __init__(
        self,
        n: int,
        edges: Iterable[Tuple[int, int]],
        name: str = "custom",
        extra_delay: Optional[Dict[Tuple[int, int], float]] = None,
        drop_probability: Optional[Dict[Tuple[int, int], float]] = None,
    ):
        if n < 1:
            raise ValueError(f"a topology needs at least one node, got n={n}")
        self.n = int(n)
        self.name = name
        build = _csr_numpy if _np is not None and numpy_enabled() else _csr_python
        self.indptr, self.indices = build(self.n, edges)
        self._extra_delay = self._normalize_overrides(extra_delay, "extra_delay",
                                                      minimum=0.0)
        self._drop = self._normalize_overrides(drop_probability, "drop_probability",
                                               minimum=0.0, maximum=1.0)

    def _normalize_overrides(self, overrides, label: str, minimum: float,
                             maximum: Optional[float] = None) -> Dict[LinkKey, float]:
        normalized: Dict[LinkKey, float] = {}
        for (u, v), value in (overrides or {}).items():
            if not self.has_link(u, v):
                raise ValueError(f"{label} given for non-existent link {u}-{v}")
            value = float(value)
            if not (math.isfinite(value) and value >= minimum
                    and (maximum is None or value <= maximum)):
                bound = (f"finite and >= {minimum}" if maximum is None
                         else f"in [{minimum}, {maximum}]")
                raise ValueError(f"{label} for link {u}-{v} must be {bound}, got {value}")
            # + 0.0 folds -0.0 into 0.0, so equal topologies share a digest.
            normalized[canonical_link(u, v)] = value + 0.0
        return normalized

    # -- structure ---------------------------------------------------------------
    def _row(self, pid: int) -> Tuple[int, int]:
        return self.indptr[pid], self.indptr[pid + 1]

    def links(self) -> List[LinkKey]:
        """All undirected links, sorted."""
        indices = self.indices
        links: List[LinkKey] = []
        for u in range(self.n):
            lo, hi = self._row(u)
            start = bisect_right(indices, u, lo, hi)
            links.extend((u, v) for v in indices[start:hi])
        return links

    @property
    def link_count(self) -> int:
        return len(self.indices) // 2

    def has_link(self, u: int, v: int) -> bool:
        """Whether ``u`` and ``v`` are directly connected (symmetric)."""
        if not (0 <= u < self.n and 0 <= v < self.n):
            return False
        lo, hi = self._row(u)
        at = bisect_left(self.indices, v, lo, hi)
        return at < hi and self.indices[at] == v

    def neighbors(self, pid: int) -> Tuple[int, ...]:
        """The direct neighbors of a node, in ascending order."""
        _check_node(self.n, pid)
        lo, hi = self._row(pid)
        return tuple(self.indices[lo:hi])

    def degree(self, pid: int) -> int:
        _check_node(self.n, pid)
        lo, hi = self._row(pid)
        return hi - lo

    @property
    def is_complete(self) -> bool:
        """True when every pair of distinct nodes is directly linked."""
        return self.link_count == self.n * (self.n - 1) // 2

    # -- per-link overrides --------------------------------------------------------
    def extra_delay(self, u: int, v: int) -> float:
        """Extra delay added to every traversal of link ``u-v`` (0 by default)."""
        return self._extra_delay.get(canonical_link(u, v), 0.0)

    def drop_probability(self, u: int, v: int) -> float:
        """Per-traversal drop probability of link ``u-v`` (0 by default)."""
        return self._drop.get(canonical_link(u, v), 0.0)

    @property
    def has_lossy_links(self) -> bool:
        return any(p > 0.0 for p in self._drop.values())

    @property
    def has_extra_delays(self) -> bool:
        return any(d > 0.0 for d in self._extra_delay.values())

    # -- connectivity ----------------------------------------------------------------
    def components(self, link_up: Optional[LinkPredicate] = None) -> List[List[int]]:
        """Connected components (each sorted; the list ordered by smallest member).

        ``link_up(u, v)`` optionally filters links, e.g. with a
        :class:`~repro.topology.schedule.LinkSchedule` frozen at one instant —
        this is how partitions are *detected* from a schedule.
        """
        seen = bytearray(self.n)
        components: List[List[int]] = []
        for root in range(self.n):
            if seen[root]:
                continue
            stack, component = [root], []
            seen[root] = 1
            while stack:
                node = stack.pop()
                component.append(node)
                lo, hi = self._row(node)
                for peer in self.indices[lo:hi]:
                    if seen[peer]:
                        continue
                    if link_up is not None and not link_up(node, peer):
                        continue
                    seen[peer] = 1
                    stack.append(peer)
            components.append(sorted(component))
        return components

    def is_connected(self, link_up: Optional[LinkPredicate] = None) -> bool:
        return len(self.components(link_up)) == 1

    def hop_distances(self, source: int,
                      link_up: Optional[LinkPredicate] = None) -> Dict[int, int]:
        """BFS hop counts from ``source`` to every reachable node."""
        _check_node(self.n, source)
        distances = {source: 0}
        frontier = [source]
        while frontier:
            next_frontier: List[int] = []
            for node in frontier:
                lo, hi = self._row(node)
                for peer in self.indices[lo:hi]:
                    if peer in distances:
                        continue
                    if link_up is not None and not link_up(node, peer):
                        continue
                    distances[peer] = distances[node] + 1
                    next_frontier.append(peer)
            frontier = next_frontier
        return distances

    def diameter(self) -> int:
        """Longest shortest path (in hops) between any two connected nodes."""
        from .index import maybe_index
        index = maybe_index(self)
        if index is not None:
            return index.diameter
        worst = 0
        for source in range(self.n):
            distances = self.hop_distances(source)
            worst = max(worst, max(distances.values()))
        return worst

    # -- identity ----------------------------------------------------------------------
    @cached_property
    def digest(self) -> str:
        """sha256 of ``n``, the CSR and the overrides, platform-independent.

        Integers are hashed as little-endian int64 and override values as
        little-endian IEEE doubles, so equal topologies hash alike on every
        machine; computed once per instance.
        """
        sha = hashlib.sha256(struct.pack("<q", self.n))
        sha.update(_little_endian(self.indptr))
        sha.update(_little_endian(self.indices))
        for overrides in (self._extra_delay, self._drop):
            sha.update(struct.pack("<q", len(overrides)))
            for (u, v), value in sorted(overrides.items()):
                sha.update(struct.pack("<qqd", u, v, value))
        return sha.hexdigest()

    def describe(self) -> str:
        shape = "complete" if self.is_complete else f"diameter {self.diameter()}"
        return (f"{self.name}: n={self.n}, {self.link_count} links, {shape}, "
                f"{len(self.components())} component(s)")

    def __repr__(self) -> str:
        # Content-addressed: RunSpec reprs embed it, and store keys and
        # manifest spec hashes are sha256(repr(spec)).
        return (f"Topology(name={self.name!r}, n={self.n}, "
                f"links={self.link_count}, digest={self.digest})")

    def __getstate__(self) -> Dict[str, object]:
        # The memoized TopologyIndex (repro.topology.index) holds large numpy
        # arrays; pool workers rebuild it cheaply, so keep pickles lean.
        state = self.__dict__.copy()
        state.pop("_topology_index", None)
        return state

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Topology):
            return NotImplemented
        return (self.n == other.n and self.indptr == other.indptr
                and self.indices == other.indices
                and self._extra_delay == other._extra_delay
                and self._drop == other._drop)

    def __hash__(self) -> int:
        return hash(self.digest)
