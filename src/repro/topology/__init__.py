"""Network topologies, link-fault schedules and multi-hop relay routing.

This package removes the paper's implicit complete-graph assumption:

* :mod:`repro.topology.base` — the :class:`Topology` abstraction (a sorted
  CSR adjacency + per-link delay/drop overrides);
* :mod:`repro.topology.generators` — seed-deterministic graph families
  (``complete``, ``ring``, ``star``, ``grid``, ``random_gnp``, ``clustered``,
  ``hierarchy``);
* :mod:`repro.topology.schedule` — :class:`LinkSchedule`, time-varying link
  faults (the concrete injectors live in :mod:`repro.faults.links`);
* :mod:`repro.topology.routing` — deterministic shortest-route relay with
  per-epoch caching, and the effective delay envelope;
* :mod:`repro.topology.spec` — the ``kind:key=value,...`` spec strings the
  CLI's ``--topology`` flag accepts.

``System(..., topology=...)`` activates relay routing; omitting it preserves
the seed's complete-graph behavior bit for bit.
"""

from .base import LinkKey, Topology, canonical_link
from .generators import (
    TOPOLOGY_GENERATORS,
    clustered,
    cluster_groups,
    complete,
    grid,
    make_topology,
    random_gnp,
    ring,
    star,
    topology_names,
)
from .routing import Router, all_pairs_routes, bfs_routes, delay_envelope
from .schedule import LinkFault, LinkSchedule
from .spec import build_topology, describe_topologies, parse_topology_spec

__all__ = [
    "Topology",
    "LinkKey",
    "canonical_link",
    "TOPOLOGY_GENERATORS",
    "complete",
    "ring",
    "star",
    "grid",
    "random_gnp",
    "clustered",
    "cluster_groups",
    "make_topology",
    "topology_names",
    "Router",
    "bfs_routes",
    "all_pairs_routes",
    "delay_envelope",
    "LinkFault",
    "LinkSchedule",
    "build_topology",
    "describe_topologies",
    "parse_topology_spec",
]
