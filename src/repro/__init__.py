"""repro — a reproduction of Welch & Lynch, "A New Fault-Tolerant Algorithm for
Clock Synchronization" (PODC 1984 / Information and Computation 1988).

The package is organised bottom-up:

* :mod:`repro.multiset` — multiset operations and approximate agreement, the
  substrate of the fault-tolerant averaging function;
* :mod:`repro.clocks` — ρ-bounded physical clocks, logical clocks, validators;
* :mod:`repro.sim` — the interrupt-driven discrete-event simulator (processes,
  message buffer, delay models, traces);
* :mod:`repro.topology` — network topologies (ring, grid, G(n,p), clustered,
  ...), time-varying link faults, and multi-hop relay routing;
* :mod:`repro.faults` — crash, omission, Byzantine and link-level fault
  injection;
* :mod:`repro.core` — the maintenance algorithm, the start-up algorithm,
  reintegration, the staggered/multi-exchange/mean variants, and the
  closed-form bounds of the analysis;
* :mod:`repro.baselines` — the Section 10 comparison algorithms;
* :mod:`repro.adversary` — the lower-bound engine: shifting transforms,
  worst-case delay models, the ε(1 − 1/n) certifier and the cross-algorithm
  conformance harness;
* :mod:`repro.analysis` — metrics, scenario builders, and reporting;
* :mod:`repro.runner` — declarative :class:`~repro.runner.RunSpec` run
  descriptions, the parallel :class:`~repro.runner.BatchRunner`, and
  multi-seed replication.

Quick start::

    from repro import RunSpec, default_parameters, execute, measured_agreement
    from repro.core import agreement_bound

    params = default_parameters(n=7, f=2)
    result = execute(RunSpec.maintenance(params, rounds=10,
                                         fault_kind="two_faced"))
    skew = measured_agreement(result.trace, result.tmax0, result.end_time)
    print(skew, "<=", agreement_bound(params))
"""

from .analysis import (
    default_parameters,
    measured_agreement,
    run_algorithm_scenario,
    run_comparison,
    run_maintenance_scenario,
    run_partition_heal_scenario,
    run_reintegration_scenario,
    run_startup_scenario,
)
from .runner import BatchRunner, RunSpec, execute, replicate
from .topology import Topology, build_topology, make_topology
from .core import (
    FaultTolerantMean,
    FaultTolerantMidpoint,
    SyncParameters,
    WelchLynchProcess,
    agreement_bound,
    adjustment_bound,
    lower_bound,
    tightness_gap,
    validity_parameters,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "default_parameters",
    "measured_agreement",
    "run_algorithm_scenario",
    "run_comparison",
    "run_maintenance_scenario",
    "run_partition_heal_scenario",
    "run_reintegration_scenario",
    "run_startup_scenario",
    "BatchRunner",
    "RunSpec",
    "execute",
    "replicate",
    "Topology",
    "build_topology",
    "make_topology",
    "FaultTolerantMidpoint",
    "FaultTolerantMean",
    "SyncParameters",
    "WelchLynchProcess",
    "agreement_bound",
    "adjustment_bound",
    "lower_bound",
    "tightness_gap",
    "validity_parameters",
]
