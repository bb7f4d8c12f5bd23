"""Seed-deterministic topology generators.

Every generator takes the node count ``n`` plus a ``seed`` (ignored by the
deterministic families, consumed by a private :class:`random.Random` by the
randomized ones — never the global RNG) and returns a
:class:`~repro.topology.base.Topology`.  The families cover the regimes the
scenario matrix cares about:

* ``complete``   — the paper's implicit assumption (diameter 1);
* ``ring``       — the sparsest 2-connected graph (diameter ⌊n/2⌋), the
  classic worst case for relay accumulation;
* ``star``       — a single hub; hub failure disconnects everything;
* ``grid``       — a near-square 2-D mesh (row-major ids);
* ``random_gnp`` — an Erdős–Rényi G(n, p) draw, optionally augmented to be
  connected so maintenance runs terminate;
* ``clustered``  — dense clusters joined by a few bridge links, the "clouds
  connected by thin pipes" shape that partition experiments cut along;
* ``hierarchy``  — star-of-stars (core, mid-tier hubs, leaves), the
  NTP-stratum shape for large-n round-engine runs.
"""

from __future__ import annotations

import math
import random
from typing import Any, Callable, Dict, List, Sequence, Tuple

from ..sim.traceindex import numpy_enabled
from .base import Topology, canonical_link

try:  # pragma: no cover - exercised via the both-backend fixtures
    import numpy as _np
except ImportError:  # pragma: no cover - numpy genuinely absent
    _np = None

__all__ = [
    "complete",
    "ring",
    "star",
    "grid",
    "random_gnp",
    "clustered",
    "hierarchy",
    "TOPOLOGY_GENERATORS",
    "topology_names",
    "make_topology",
]


def _clique_edges(groups: Sequence[Sequence[int]],
                  extra: Sequence[Tuple[int, int]] = ()) -> Any:
    """Every pair within each group, plus ``extra`` links.

    An (m, 2) array built with ``np.triu_indices`` when numpy is enabled
    (the complete graph at n=1000 has ~500k links), a list of pairs
    otherwise; :class:`Topology` accepts either.
    """
    if _np is None or not numpy_enabled():
        edges = [(u, v) for group in groups
                 for i, u in enumerate(group) for v in group[i + 1:]]
        return edges + list(extra)
    np = _np
    blocks = []
    for group in groups:
        members = np.asarray(group, dtype=np.int64)
        first, second = np.triu_indices(len(members), 1)
        blocks.append(np.stack([members[first], members[second]], axis=1))
    blocks.append(np.asarray(extra, dtype=np.int64).reshape(-1, 2))
    return np.concatenate(blocks)


def complete(n: int, seed: int = 0) -> Topology:
    """Every pair directly linked — the paper's assumption A3 setting."""
    return Topology(n, _clique_edges([range(n)]), name="complete")


def ring(n: int, seed: int = 0) -> Topology:
    """Nodes on a cycle; messages to the far side relay ⌊n/2⌋ hops."""
    if n < 3:
        raise ValueError(f"a ring needs at least 3 nodes, got n={n}")
    edges = [(i, (i + 1) % n) for i in range(n)]
    return Topology(n, edges, name="ring")


def star(n: int, hub: int = 0, seed: int = 0) -> Topology:
    """One hub linked to every other node; all cross-traffic relays via it."""
    if n < 2:
        raise ValueError(f"a star needs at least 2 nodes, got n={n}")
    if not 0 <= hub < n:
        raise ValueError(f"hub {hub} outside 0..{n - 1}")
    edges = [(hub, node) for node in range(n) if node != hub]
    return Topology(n, edges, name="star")


def grid(n: int, cols: int = 0, seed: int = 0) -> Topology:
    """A near-square 2-D mesh; node ids are row-major, possibly ragged."""
    if n < 2:
        raise ValueError(f"a grid needs at least 2 nodes, got n={n}")
    if cols <= 0:
        cols = max(1, int(math.ceil(math.sqrt(n))))
    edges: List[Tuple[int, int]] = []
    for node in range(n):
        row, col = divmod(node, cols)
        if col + 1 < cols and node + 1 < n:
            edges.append((node, node + 1))
        if node + cols < n:
            edges.append((node, node + cols))
    return Topology(n, edges, name="grid")


def random_gnp(n: int, p: float = 0.35, seed: int = 0,
               connect: bool = True) -> Topology:
    """Erdős–Rényi G(n, p), deterministic for a fixed ``(n, p, seed)``.

    With ``connect=True`` (the default) isolated components are stitched
    together afterwards — one deterministic edge from the smallest node of
    each later component to the smallest node of the first — so clock
    maintenance has a route between every pair.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    topology = Topology(n, edges, name="random_gnp")
    if connect and not topology.is_connected():
        components = topology.components()
        anchor = components[0][0]
        edges = list(topology.links())
        edges.extend(canonical_link(anchor, component[0])
                     for component in components[1:])
        topology = Topology(n, edges, name="random_gnp")
    return topology


def clustered(n: int, clusters: int = 2, bridges: int = 1,
              seed: int = 0) -> Topology:
    """Dense clusters joined by thin bridges — the partition-experiment shape.

    Nodes are split into ``clusters`` contiguous groups, each internally
    complete; consecutive clusters are joined by ``bridges`` parallel links
    between their lowest-id members.  Cutting the bridge links partitions the
    network along cluster boundaries.
    """
    if clusters < 1:
        raise ValueError(f"need at least one cluster, got {clusters}")
    if clusters > n:
        raise ValueError(f"more clusters ({clusters}) than nodes ({n})")
    if bridges < 1:
        raise ValueError(f"need at least one bridge link, got {bridges}")
    groups = cluster_groups(n, clusters)
    bridge_links = [(left[index], right[index])
                    for left, right in zip(groups, groups[1:])
                    for index in range(min(bridges, len(left), len(right)))]
    return Topology(n, _clique_edges(groups, bridge_links), name="clustered")


def hierarchy(n: int, hubs: int = 0, seed: int = 0) -> Topology:
    """A star-of-stars: one core, mid-tier hubs, leaf fan-out.

    Node 0 is the core; nodes ``1..hubs`` are mid-tier hubs linked to the
    core; every remaining node is a leaf attached round-robin to one mid-tier
    hub.  This is the NTP-style stratum shape — a small sync core serving a
    huge leaf population — with diameter 4
    (leaf→hub→core→hub→leaf) regardless of n, so the relay-corrected
    ``(δ', ε')`` envelope stays bounded while n scales to 10^4–10^5.
    ``hubs`` defaults to ⌈√n⌉, balancing hub degree against leaf fan-out.
    """
    if n < 2:
        raise ValueError(f"a hierarchy needs at least 2 nodes, got n={n}")
    if hubs <= 0:
        hubs = max(1, int(math.ceil(math.sqrt(n))))
    hubs = min(hubs, n - 1)
    edges: List[Tuple[int, int]] = [(0, hub) for hub in range(1, hubs + 1)]
    for leaf in range(hubs + 1, n):
        edges.append((1 + (leaf - hubs - 1) % hubs, leaf))
    return Topology(n, edges, name="hierarchy")


def cluster_groups(n: int, clusters: int) -> List[List[int]]:
    """The contiguous node groups used by :func:`clustered` (largest first)."""
    base, remainder = divmod(n, clusters)
    groups: List[List[int]] = []
    start = 0
    for index in range(clusters):
        size = base + (1 if index < remainder else 0)
        groups.append(list(range(start, start + size)))
        start += size
    return groups


#: name -> (factory, one-line description) for the CLI and the spec parser.
TOPOLOGY_GENERATORS: Dict[str, Tuple[Callable[..., Topology], str]] = {
    "complete": (complete, "every pair directly linked (the paper's setting)"),
    "ring": (ring, "cycle; worst-case relay depth floor(n/2)"),
    "star": (star, "single hub (option hub=<id>); hub failure disconnects all"),
    "grid": (grid, "near-square 2-D mesh (option cols=<k>)"),
    "random_gnp": (random_gnp, "Erdos-Renyi G(n, p) (options p=<prob>, "
                               "connect=<0|1>); seed-deterministic"),
    "clustered": (clustered, "dense clusters over thin bridges (options "
                             "clusters=<k>, bridges=<k>)"),
    "hierarchy": (hierarchy, "star-of-stars: core, mid-tier hubs, leaf "
                             "fan-out (option hubs=<k>); diameter 4"),
}


def topology_names() -> Tuple[str, ...]:
    """All registered generator names, in a stable order."""
    return tuple(sorted(TOPOLOGY_GENERATORS))


def make_topology(kind: str, n: int, seed: int = 0, **options) -> Topology:
    """Build a topology by generator name."""
    try:
        factory, _ = TOPOLOGY_GENERATORS[kind]
    except KeyError:
        raise KeyError(f"unknown topology {kind!r}; "
                       f"choose from {', '.join(topology_names())}") from None
    return factory(n, seed=seed, **options)
