"""repro.runner — declarative run specs and batch execution.

The execution layer every experiment entry point funnels through:

* :class:`~repro.runner.spec.RunSpec` — a frozen, hashable, picklable
  description of one simulation run (scenario kind, parameters, faults,
  delay/clock models, topology, seed, rounds);
* :func:`~repro.runner.spec.execute` — the single ``spec -> ScenarioResult``
  dispatcher (pure and deterministic per spec);
* :class:`~repro.runner.batch.BatchRunner` — the one executor: it serves
  stored specs from a durable content-addressed
  :class:`~repro.runner.store.ResultStore` (sqlite) on ``resume``, runs
  seed-replica groups on the round kernel, runs the rest in-process or on
  :class:`~repro.runner.resilient.SupervisedPool` workers, and commits each
  result as it arrives; ordered collection, bit-identical to serial.  A
  retry budget (``max_retries``) turns on supervision — per-spec timeouts,
  retry with backoff, crash respawn, quarantine, resumable interrupts — all
  testable under deterministic fault injection
  (:class:`~repro.runner.chaos.ChaosSchedule`);
* :func:`~repro.runner.replication.replicate` — multi-seed replication with
  mean/min/max/CI summaries of the agreement and validity metrics.

Quick start::

    from repro.runner import RunSpec, BatchRunner, replicate
    from repro.analysis import default_parameters

    spec = RunSpec.maintenance(default_parameters(), rounds=10)
    runner = BatchRunner(jobs=4)
    results = runner.run([spec.with_seed(s) for s in range(8)])
    stats = replicate(spec, seeds=range(8), runner=runner)
    print(stats.agreement)

    # durable and supervised: rerun with resume=True after a crash
    durable = BatchRunner(jobs=4, store="results.sqlite", max_retries=2)
"""

from .spec import RunSpec, SCENARIO_KINDS, execute
from .batch import BatchRunner, SpecLost, available_parallelism
from .replication import ReplicatedResult, ReplicationError, SeedFailure, \
    replicate
from .chaos import CHAOS_ACTIONS, ChaosFault, ChaosInjectedError, \
    ChaosSchedule
from .store import ResultStore, SCHEMA_VERSION, StoreError, \
    StoreVersionError, store_key
from .resilient import FailureRecord, QuarantinedResult, SupervisedPool, \
    SweepInterrupted

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
    "SupervisedPool",
    "SweepInterrupted",
]
