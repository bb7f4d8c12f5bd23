"""Real-socket execution backend for the Welch-Lynch algorithm.

Everything else in this repository runs the paper inside a discrete-event
simulator, where δ and ε are *inputs*.  This package runs the same
Section 4.2 maintenance algorithm, the simulator's own
:class:`~repro.core.maintenance.WelchLynchProcess`, over real TCP sockets
and real ``time.monotonic()`` clocks, where δ and ε must be *measured*:

* :mod:`~repro.net.wire` — length-prefixed JSON framing for the existing
  :class:`~repro.sim.events.Message` type;
* :mod:`~repro.net.measure` — :class:`MeasuredEnvelope` derives a modeled
  (δ, ε) pair from observed delays, so the A1–A3 audits and the Theorem 16
  agreement bound re-run against measured reality;
* :mod:`~repro.net.peer` — one peer: TCP mesh, seeded drift clock, and the
  process context its hosted ``WelchLynchProcess`` runs on; a hostile
  frame closes its connection as a counted rejection;
* :mod:`~repro.net.cluster` — single-process loopback clusters with the
  full online observer + audit pipeline, and the leader-coordinated
  multi-process serve protocol.

Entry points: ``repro net run`` (loopback, audited) and ``repro net serve``
(one process per peer).
"""

from .cluster import (NetRunResult, ServeConfig, execute_net_spec,
                      run_loopback_cluster, serve_peer)
from .measure import DelayEnvelope, MeasuredEnvelope
from .peer import Axis, NetPeer, PeerConfig, make_net_clock
from .wire import (MAX_FRAME, WireError, decode_message, encode_message,
                   pack_frame, read_frame, unpack_frames, write_frame)

__all__ = [
    "NetRunResult",
    "ServeConfig",
    "execute_net_spec",
    "run_loopback_cluster",
    "serve_peer",
    "DelayEnvelope",
    "MeasuredEnvelope",
    "Axis",
    "NetPeer",
    "PeerConfig",
    "make_net_clock",
    "MAX_FRAME",
    "WireError",
    "decode_message",
    "encode_message",
    "pack_frame",
    "read_frame",
    "unpack_frames",
    "write_frame",
]
