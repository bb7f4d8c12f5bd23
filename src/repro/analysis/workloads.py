"""Named workload presets used by examples, sweeps and the CLI.

A *workload* bundles the things the paper treats as fixed by the environment —
the hardware constants (ρ, δ, ε), the delay model, the clock drift model, and
the fault mix — so that experiments can be described as "run algorithm X on
workload Y for R rounds" instead of repeating a dozen keyword arguments.

The presets are deliberately spread over the regimes the paper's discussion
cares about:

* ``lan``          — the reference workload: 10 ms ± 2 ms
  delays, crystal-grade drift, uniform delays (the Bell Labs Ethernet setting
  of Section 9.3, minus contention);
* ``wan``          — long, noisy delays (δ = 50 ms, ε = 20 ms): the regime
  where the ≈ 4ε agreement floor dominates;
* ``high-drift``   — cheap oscillators (ρ = 2·10⁻³): the regime where the
  4ρP term and the P/β trade-off of Section 5.2 dominate;
* ``flaky-ethernet`` — the Section 9.3 contention model with datagram loss,
  used by the staggered-broadcast experiments;
* ``adversarial-delay`` — every message delivered at the extreme edge of the
  envelope allowed by assumption A3 (the worst case the analysis covers);
* ``adversarial-lan`` — the lower-bound engine's skew-maximizing two-block
  adversary on LAN constants (see :mod:`repro.adversary.delays`);
* ``tightness-sweep`` — the shifting argument's per-pair "diagonal" delay
  assignment, the base workload of
  :func:`~repro.analysis.sweeps.sweep_tightness`;
* ``quiet``        — no faults, no uncertainty: a control for tests.

The topology-parameterized presets drop the complete-graph assumption:

* ``ring-lan``       — LAN constants on a ring: every broadcast relays up to
  ⌊n/2⌋ hops, stretching the effective (δ', ε') envelope;
* ``grid-lan``       — LAN constants on a near-square mesh;
* ``sparse-lan``     — LAN constants on a connected G(n, p=0.35) draw;
* ``clustered-wan``  — WAN constants on dense clusters over thin bridges;
* ``partition-heal`` — LAN constants, network split in two mid-run and healed
  a few rounds later (audited with
  :func:`~repro.analysis.verification.check_partition_heal_run`).

A workload runs like every other experiment: :func:`build_spec` turns it
into a :class:`~repro.runner.spec.RunSpec`, and
:func:`~repro.runner.spec.execute` (or a
:class:`~repro.runner.batch.BatchRunner`, for many) runs that spec.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

from ..core.config import SyncParameters
from ..runner.spec import RunSpec
from ..topology.base import Topology

__all__ = ["Workload", "WORKLOADS", "workload_names", "get_workload",
           "build_parameters", "build_spec"]


@dataclass(frozen=True)
class Workload:
    """A named simulation environment (hardware constants + faults)."""

    name: str
    description: str
    rho: float
    delta: float
    epsilon: float
    #: delay model family: 'uniform', 'fixed', 'gaussian', 'adversarial',
    #: 'contention', ... (any name :class:`RunSpec` accepts as ``delay``;
    #: an unknown one fails in :func:`build_spec`).
    delay_kind: str = "uniform"
    #: extra keyword arguments for the delay model constructor.
    delay_options: Dict[str, float] = field(default_factory=dict)
    #: physical-clock drift model, one of
    #: :data:`~repro.clocks.drift.CLOCK_KINDS`.
    clock_kind: str = "constant"
    #: fault behaviour injected into the last f process slots (None = no faults).
    fault_kind: Optional[str] = "two_faced"
    #: network graph as a topology spec string ('ring', 'random_gnp:p=0.4', ...);
    #: None = the paper's implicit complete graph.
    topology: Optional[str] = None
    #: link-level fault scenario: currently only 'partition_heal'.
    link_fault_kind: Optional[str] = None
    #: extra keyword arguments for the link-fault scenario builder
    #: (e.g. partition_round / heal_round for 'partition_heal').
    link_fault_options: Dict[str, float] = field(default_factory=dict)
    #: rounds a run of this workload defaults to (long-horizon presets raise
    #: it well past what callers usually pass explicitly).
    default_rounds: int = 10
    #: False = stream by default: no full trace, bounded correction
    #: histories, metrics from the online observers.
    record_trace: bool = True
    #: online observers attached by default ('skew', 'validity', 'network').
    observers: Tuple[str, ...] = ()


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="lan",
            description="Reference LAN: 10 ms ± 2 ms delays, crystal drift 1e-4, "
                        "two-faced Byzantine attackers.",
            rho=1e-4, delta=0.01, epsilon=0.002,
        ),
        Workload(
            name="wan",
            description="Wide-area links: 50 ms ± 20 ms delays; the ≈4ε floor "
                        "dominates the achievable agreement.",
            rho=1e-4, delta=0.05, epsilon=0.02,
            delay_kind="gaussian",
        ),
        Workload(
            name="high-drift",
            description="Cheap oscillators (rho = 2e-3); the 4·rho·P term and the "
                        "Section 5.2 P/beta trade-off dominate.",
            rho=2e-3, delta=0.01, epsilon=0.002,
        ),
        Workload(
            name="flaky-ethernet",
            description="Section 9.3 contention: simultaneous broadcasts collide "
                        "and datagrams are lost.",
            rho=1e-4, delta=0.01, epsilon=0.002,
            delay_kind="contention",
            delay_options={"window": 0.004, "threshold": 2, "drop_probability": 0.5},
            fault_kind=None,
        ),
        Workload(
            name="adversarial-delay",
            description="Every delay at the extreme edge of [delta-eps, delta+eps]: "
                        "the worst case assumption A3 permits.",
            rho=1e-4, delta=0.01, epsilon=0.002,
            delay_kind="adversarial",
        ),
        Workload(
            name="adversarial-lan",
            description="LAN constants under the skew-maximizing two-block "
                        "adversary: crossing messages ride the envelope "
                        "edges, dragging the blocks ~epsilon apart while "
                        "every theorem bound must still hold.",
            rho=1e-4, delta=0.01, epsilon=0.002,
            delay_kind="skew_max", fault_kind=None,
        ),
        Workload(
            name="tightness-sweep",
            description="LAN constants under the per-pair 'diagonal' "
                        "adversary of the shifting argument; the base "
                        "workload of sweep_tightness (achieved skew vs "
                        "gamma vs the eps(1-1/n) lower bound).",
            rho=1e-4, delta=0.01, epsilon=0.002,
            delay_kind="per_pair", fault_kind=None,
        ),
        Workload(
            name="quiet",
            description="No faults, fixed delays, perfect clocks: a control "
                        "configuration for tests and debugging.",
            rho=0.0, delta=0.01, epsilon=0.0,
            delay_kind="fixed", clock_kind="perfect", fault_kind=None,
        ),
        Workload(
            name="ring-lan",
            description="LAN constants on a ring: broadcasts relay up to "
                        "floor(n/2) hops, stretching the effective envelope.",
            rho=1e-4, delta=0.01, epsilon=0.002,
            topology="ring", fault_kind=None,
        ),
        Workload(
            name="grid-lan",
            description="LAN constants on a near-square 2-D mesh.",
            rho=1e-4, delta=0.01, epsilon=0.002,
            topology="grid", fault_kind=None,
        ),
        Workload(
            name="sparse-lan",
            description="LAN constants on a connected Erdos-Renyi G(n, 0.35) "
                        "draw (seed-deterministic).",
            rho=1e-4, delta=0.01, epsilon=0.002,
            topology="random_gnp:p=0.35", fault_kind=None,
        ),
        Workload(
            name="clustered-wan",
            description="WAN constants on dense clusters joined by thin "
                        "bridges; cross-cluster traffic funnels through them.",
            rho=1e-4, delta=0.05, epsilon=0.02,
            delay_kind="gaussian",
            topology="clustered:clusters=2,bridges=2", fault_kind=None,
        ),
        Workload(
            name="long-horizon-lan",
            description="LAN constants over 60 resynchronization rounds, "
                        "streamed: no trace, online skew/validity observers, "
                        "O(n) memory.",
            rho=1e-4, delta=0.01, epsilon=0.002,
            default_rounds=60, record_trace=False,
            observers=("skew", "validity"),
        ),
        Workload(
            name="steady-state-wan",
            description="WAN constants (50 ms +/- 20 ms, gaussian) held for "
                        "50 rounds to observe the steady-state ~4 epsilon + "
                        "4 rho P floor; streamed with online observers.",
            rho=1e-4, delta=0.05, epsilon=0.02,
            delay_kind="gaussian",
            default_rounds=50, record_trace=False,
            observers=("skew", "validity"),
        ),
        Workload(
            name="partition-heal",
            description="LAN constants; the network splits in two mid-run and "
                        "heals a few rounds later (divergence then Lemma 20 "
                        "re-convergence).",
            rho=1e-4, delta=0.01, epsilon=0.002,
            fault_kind=None,
            link_fault_kind="partition_heal",
            link_fault_options={"partition_round": 3, "heal_round": 7},
        ),
    )
}


def workload_names() -> Tuple[str, ...]:
    """All registered workload names, in a stable order."""
    return tuple(sorted(WORKLOADS))


def get_workload(name: str) -> Workload:
    """Look up a workload preset by name."""
    try:
        return WORKLOADS[name]
    except KeyError:
        raise KeyError(f"unknown workload {name!r}; "
                       f"choose from {', '.join(workload_names())}") from None


def build_parameters(workload: Workload, n: int = 7, f: int = 2,
                     round_length: Optional[float] = None) -> SyncParameters:
    """Derive a feasible parameter set for a workload's hardware constants."""
    return SyncParameters.derive(n=n, f=f, rho=workload.rho, delta=workload.delta,
                                 epsilon=workload.epsilon,
                                 round_length=round_length)


def build_spec(workload: Workload, n: int = 7, f: int = 2,
               rounds: Optional[int] = None,
               seed: int = 0, round_length: Optional[float] = None,
               stagger_interval: float = 0.0,
               topology: Union[str, Topology, None] = None,
               record_trace: Optional[bool] = None,
               observers: Optional[Tuple[str, ...]] = None,
               horizon: Optional[float] = None,
               checkpoint_every: Optional[float] = None,
               samples: Optional[int] = None) -> RunSpec:
    """Translate a workload preset into a declarative :class:`RunSpec`.

    This is the bridge between the workload vocabulary (hardware constants +
    fault mix) and the runner vocabulary (one spec per run): the CLI and the
    replication/batch machinery both go through it, so a workload name plus
    (n, f, rounds, seed) fully determines a spec — and therefore, through
    :func:`repro.runner.execute`'s determinism, a bit-exact run.

    ``rounds``, ``record_trace`` and ``observers`` default to the workload's
    own presets (the long-horizon workloads stream by default); pass explicit
    values to override.  ``horizon`` / ``checkpoint_every`` thread straight
    through to the streaming pipeline.  The workload picks the scenario (a
    ``partition_heal`` link fault or maintenance); the stagger option and
    the streaming fields are then set on that spec, which refuses what its
    kind cannot honour (the partition-heal scenario takes neither).
    """
    params = build_parameters(workload, n=n, f=f, round_length=round_length)
    common = dict(
        rounds=workload.default_rounds if rounds is None else rounds,
        clock_kind=workload.clock_kind, delay=workload.delay_kind,
        delay_options=workload.delay_options, seed=seed,
        topology=workload.topology if topology is None else topology)
    if workload.link_fault_kind == "partition_heal":
        spec = RunSpec.partition_heal(
            params, **common, **{key: int(value) for key, value
                                 in workload.link_fault_options.items()})
    elif workload.link_fault_kind is not None:
        raise ValueError(f"workload {workload.name!r} has unknown link fault "
                         f"kind {workload.link_fault_kind!r}")
    else:
        spec = RunSpec.maintenance(params, fault_kind=workload.fault_kind,
                                   **common)
    options = spec.options
    if stagger_interval:
        options += (("stagger_interval", stagger_interval),)
    return spec.replace(
        options=options,
        record_trace=(workload.record_trace if record_trace is None
                      else record_trace),
        observers=tuple(workload.observers if observers is None
                        else observers),
        horizon=horizon, checkpoint_every=checkpoint_every, samples=samples)
