"""repro.runner — declarative run specs and parallel batch execution.

The execution layer every experiment entry point funnels through:

* :class:`~repro.runner.spec.RunSpec` — a frozen, hashable, picklable
  description of one simulation run (scenario kind, parameters, faults,
  delay/clock models, topology, seed, rounds);
* :func:`~repro.runner.spec.execute` — the single ``spec -> ScenarioResult``
  dispatcher (pure and deterministic per spec);
* :class:`~repro.runner.batch.BatchRunner` — runs spec lists in-process or
  on :class:`~repro.runner.resilient.SupervisedPool` workers, with result
  caching, ordered collection and a bit-identical-to-serial guarantee;
* :func:`~repro.runner.replication.replicate` — multi-seed replication with
  mean/min/max/CI summaries of the agreement and validity metrics;
* :class:`~repro.runner.resilient.ResilientRunner` — the crash-safe variant:
  durable content-addressed :class:`~repro.runner.store.ResultStore`
  (sqlite), supervised workers with retries (per-spec timeouts, retry with
  backoff, crash respawn, quarantine) and ``resume`` that serves
  already-stored specs bit-identically, all testable under deterministic
  fault injection (:class:`~repro.runner.chaos.ChaosSchedule`).

Quick start::

    from repro.runner import RunSpec, BatchRunner, replicate
    from repro.analysis import default_parameters

    spec = RunSpec.maintenance(default_parameters(), rounds=10)
    results = BatchRunner(jobs=4).run([spec.with_seed(s) for s in range(8)])
    stats = replicate(spec, seeds=range(8), jobs=4)
    print(stats.agreement)
"""

from .spec import RunSpec, SCENARIO_KINDS, execute
from .batch import BatchRunner, SpecLost, available_parallelism
from .replication import ReplicatedResult, ReplicationError, SeedFailure, \
    replicate
from .chaos import CHAOS_ACTIONS, ChaosFault, ChaosInjectedError, \
    ChaosSchedule
from .store import ResultStore, SCHEMA_VERSION, StoreError, \
    StoreVersionError, store_key
from .resilient import FailureRecord, QuarantinedResult, ResilientRunner, \
    SupervisedPool, SweepInterrupted

__all__ = [
    "RunSpec",
    "SCENARIO_KINDS",
    "execute",
    "BatchRunner",
    "SpecLost",
    "available_parallelism",
    "ReplicatedResult",
    "ReplicationError",
    "SeedFailure",
    "replicate",
    "CHAOS_ACTIONS",
    "ChaosFault",
    "ChaosInjectedError",
    "ChaosSchedule",
    "ResultStore",
    "SCHEMA_VERSION",
    "StoreError",
    "StoreVersionError",
    "store_key",
    "FailureRecord",
    "QuarantinedResult",
    "ResilientRunner",
    "SupervisedPool",
    "SweepInterrupted",
]
