"""Batch execution of :class:`~repro.runner.spec.RunSpec` lists.

:class:`BatchRunner` is the one executor every replicated estimate, sweep,
comparison and conformance matrix goes through.  A batch runs in four steps:

1. with ``resume``, specs already in the ``store`` are served from it;
2. seed-replica groups run in lockstep on the round kernel
   (:func:`repro.sim.vectorized.execute_batch`), in this process;
3. the remaining specs run one by one, in-process or on a
   :class:`~repro.runner.resilient.SupervisedPool` of worker processes;
4. with a ``store``, every result (or quarantine record) is committed as it
   arrives, so a killed batch keeps everything it finished.

Three properties the layers above (sweeps, comparison, replication, CLI)
rely on:

* **Ordered collection** — ``run(specs)[i]`` always corresponds to
  ``specs[i]``, no matter which step or worker finished first.
* **Determinism** — :func:`~repro.runner.spec.execute` is a pure function of
  the spec, so every step produces bit-identical results per spec (guarded
  by ``tests/property/test_runner_properties.py``); a stored result is the
  prior run's bytes.
* **One run per distinct spec** — specs hash by value, so a batch holding
  duplicates runs each once, and each result is released after its last
  slot, so long batches stream in O(workers) memory.  Reuse across batches
  is the store's job (``store=":memory:", resume=True`` keeps one in the
  process).

The retry budget ``max_retries`` is the one failure policy.  ``None`` (the
default) runs specs in-process at ``jobs=1`` (so single-run entry points
stay bit-for-bit the pre-runner code paths) and on a pool without retries
otherwise; the first failing spec in input order raises its own exception
— :class:`SpecLost` when its worker died mid-spec (SIGKILL, the OOM
killer).  A blown interrupt budget raises
:class:`~repro.sim.events.EventBudgetExceeded` with the offending spec
attached (``err.spec``), from a worker as in-process.  Any integer, 0
included, supervises: per-spec work always runs on the pool, failing specs
retry with backoff, ``spec_timeout`` reclaims hung workers, crashed workers
respawn, and every failure comes back as data, a
:class:`~repro.runner.resilient.QuarantinedResult` in the spec's slot;
SIGINT/SIGTERM raise :class:`~repro.runner.resilient.SweepInterrupted` once
in-flight specs land.  A batch takes no callbacks: progress is the
caller's span around it and the manifest line of each run.

Streaming results travel whole: ``ScenarioResult.observers`` (online metrics
state) pickles back from the workers and through the store alongside the
trace — or instead of one, for ``record_trace=False`` specs, which is how
replicated long-horizon studies stay bounded-memory.

Every step books into the telemetry bundle active while the batch runs
(:func:`repro.telemetry.activated`); a computed spec's metrics and manifest
lines come back from a run-local bundle, in-process or in a worker.
"""

from __future__ import annotations

import contextlib
import os
import traceback
from typing import Dict, Iterable, List, Optional, Sequence, TYPE_CHECKING

from ..telemetry import Telemetry, activated, get_active
from .spec import RunSpec, engine_for, execute
from .store import ResultStore

if TYPE_CHECKING:  # pragma: no cover - type-only import, avoids the cycle
    from ..analysis.experiments import ScenarioResult
    from .chaos import ChaosSchedule

__all__ = ["BatchRunner", "SpecLost", "available_parallelism"]


class SpecLost(RuntimeError):
    """A pool worker died mid-spec (or its error could not be pickled).

    ``quarantined`` is the spec's
    :class:`~repro.runner.resilient.QuarantinedResult`, which a batch with
    a retry budget puts in the spec's slot instead.
    """

    def __init__(self, quarantined):
        super().__init__(quarantined.last_error)
        self.quarantined = quarantined


def _run_task(spec: RunSpec, engine: str, instrumented: bool):
    """Execute one spec: the in-process loop and every pool worker call this.

    It calls this module's ``execute``, which tests patch and forked workers
    inherit.  ``instrumented`` runs it under a fresh, run-local
    :class:`~repro.telemetry.Telemetry` (:func:`~repro.telemetry.activated`)
    and returns ``(result, metrics snapshot, manifests)`` for :func:`_fold`,
    which is what makes merged worker totals equal a serial run's by
    construction.
    """
    if not instrumented:
        return execute(spec, engine=engine)
    with activated(Telemetry()) as local:
        result = execute(spec, engine=engine)
    return result, local.registry.snapshot(), local.manifests


def _fold(payload, telemetry: Optional[Telemetry]):
    """Unwrap one :func:`_run_task` payload into ``telemetry``, the bundle
    its task ran instrumented for (None: the payload is the bare result)."""
    if telemetry is None:
        return payload
    result, snapshot, manifests = payload
    telemetry.registry.merge(snapshot)
    for record in manifests:
        telemetry.emit_manifest(record)
    return result


def available_parallelism() -> int:
    """CPUs usable by this process (affinity-aware where the OS supports it)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - macOS/Windows
        return os.cpu_count() or 1


class BatchRunner:
    """Execute batches of specs: stored, grouped, in-process or supervised.

    ``jobs`` is the maximum number of worker processes (0 or negative = one
    per available CPU).  ``engine`` (one of
    :data:`~repro.runner.spec.ENGINES`) picks the engine for every spec,
    through :func:`~repro.runner.spec.engine_for`; pool workers receive it
    with each task.  Results are bit-identical under every choice, and the
    engine is not part of a spec's store key, so a store filled under one
    engine resumes under any other.

    ``store`` (a :class:`~repro.runner.store.ResultStore` or a path) receives
    every computed result as it arrives; with ``resume=True`` specs already
    stored are served from it without running, and quarantined ones are
    re-attempted.  A write that fails with ``ENOSPC`` (real or chaos) is
    counted on ``resilient.store.write_errors``; the result still reaches
    the caller and the spec re-runs on resume.

    ``max_retries`` is the retry budget of the supervised policy (see the
    module docstring); ``spec_timeout`` (seconds of wall clock per spec) and
    ``chaos`` (a :class:`~repro.runner.chaos.ChaosSchedule`) apply to it and
    so need one.

    The telemetry bundle active while a batch runs
    (:func:`repro.telemetry.activated`) instruments every computed spec:
    each run executes under a fresh run-local bundle — in-process or in a
    pool worker, identically — and its metrics snapshot and manifest
    records are folded into the active one as results arrive, beside the
    store, kernel-group and supervision counters.  Counter totals after a
    ``jobs=2`` batch therefore equal a serial batch's exactly.  Specs run
    on the pool book into the bundle active when the pool started, whichever
    is active at a later ``next()`` of :meth:`run_iter`.  Worker span
    records are not collected (each process has its own wall-clock origin);
    spans around the batch belong to the caller.  Stored results merge
    nothing — no run happened.
    """

    def __init__(self, jobs: int = 1, engine: str = "auto",
                 store=None, resume: bool = False,
                 max_retries: Optional[int] = None,
                 spec_timeout: Optional[float] = None,
                 chaos: Optional["ChaosSchedule"] = None):
        from .resilient import SupervisedPool

        if resume and store is None:
            raise ValueError("resume=True requires a result store")
        if max_retries is None and (spec_timeout is not None
                                    or chaos is not None):
            raise ValueError("spec_timeout and chaos apply to supervised "
                             "runs: pass max_retries")
        if jobs < 1:
            jobs = available_parallelism()
        self.jobs = int(jobs)
        self.engine = engine
        self.max_retries = max_retries
        self.pool = SupervisedPool(jobs=self.jobs,
                                   max_retries=max_retries or 0,
                                   spec_timeout=spec_timeout, chaos=chaos,
                                   engine=engine)
        if isinstance(store, (str, bytes, os.PathLike)):
            store = ResultStore(os.fsdecode(store), chaos=chaos)
        self.store: Optional[ResultStore] = store
        self.resume = bool(resume)

    def run(self, specs: Iterable[RunSpec]) -> List["ScenarioResult"]:
        """Execute every spec and return results in input order.

        With a retry budget, a failed spec's slot holds its
        :class:`~repro.runner.resilient.QuarantinedResult`; without one,
        the first failure in input order raises.
        """
        return list(self.run_iter(specs))

    def run_iter(self, specs: Iterable[RunSpec]):
        """Like :meth:`run`, but yield each result as soon as it is ready.

        Results are yielded in input order.  In-process execution is fully
        lazy: a spec only runs when its result is pulled, so a consumer
        (e.g. a sweep measuring each cell) interleaves with the
        computation.  With a pool, later specs keep computing in the
        background while earlier results are consumed.  Leaving the
        iterator early stops the pool.
        """
        from .resilient import QuarantinedResult

        specs = list(specs)
        remaining: Dict[RunSpec, int] = {}
        for spec in specs:
            if not isinstance(spec, RunSpec):
                raise TypeError(f"BatchRunner runs RunSpecs, got "
                                f"{type(spec).__name__}")
            remaining[spec] = remaining.get(spec, 0) + 1
        done: Dict[RunSpec, object] = {}
        with contextlib.closing(self._execute_pending(
                list(remaining))) as arrivals:
            for spec in specs:
                while spec not in done:
                    arrived, outcome = next(arrivals)
                    done[arrived] = outcome
                outcome = done[spec]
                # Raised at the spec's turn in input order, so the failure
                # raised is the first in input order, whichever worker
                # finished first.
                if (self.max_retries is None
                        and isinstance(outcome, QuarantinedResult)):
                    error = outcome.failures[-1].exception
                    raise SpecLost(outcome) if error is None else error
                remaining[spec] -= 1
                if remaining[spec] == 0:
                    # No later slot needs it: release the result.
                    del done[spec]
                yield outcome

    def _execute_pending(self, pending: Sequence[RunSpec]):
        """Yield one ``(spec, outcome)`` per distinct spec, as each arrives.

        Stored specs come first (with ``resume``), counted on
        ``resilient.store.hits`` / ``.misses``; then the misses run (see
        :meth:`_arrivals`), each outcome committed to the store before it
        is yielded.
        """
        from .resilient import _count

        misses: List[RunSpec] = []
        for spec in pending:
            stored = self.store.get(spec) if self.resume else None
            if stored is not None:
                _count("store.hits")
                yield spec, stored
                continue
            if self.resume:
                _count("store.misses")
            misses.append(spec)
        with (self.pool.trapping_signals() if self.max_retries is not None
              else contextlib.nullcontext()):
            for spec, outcome in self._arrivals(misses):
                if self.store is not None:
                    self._commit(spec, outcome)
                yield spec, outcome

    def _arrivals(self, specs: Sequence[RunSpec]):
        """Run kernel replica groups, then the rest one spec at a time.

        Specs identical modulo seed form one group; a group runs as one
        lockstep batch when :func:`~repro.runner.spec.engine_for` picks the
        lockstep grouping for it at its size (unless ``serial``: 2 or more
        members the kernel accepts, below the lone-run n).  Everything else
        runs per spec — in-process at ``jobs=1`` without a retry budget,
        otherwise on the pool — with results bit-identical by construction.
        """
        from ..sim.vectorized import execute_batch
        from .resilient import FailureRecord, QuarantinedResult

        groups: Dict[RunSpec, List[RunSpec]] = {}
        for spec in specs:
            groups.setdefault(spec.with_seed(0), []).append(spec)
        grouped = set()
        for members in groups.values():
            if engine_for(members[0], self.engine, len(members)) != "batch":
                continue
            try:
                results = execute_batch(members)
            except Exception:
                if self.max_retries is None:
                    raise
                # One bad replica poisons the whole lockstep batch; the
                # per-spec path lets its siblings complete (bit-identical by
                # contract) and quarantines only the offender.
                continue
            grouped.update(members)
            yield from zip(members, results)
            if self.max_retries is not None:
                self.pool.raise_if_interrupted(len(grouped))
        rest = [spec for spec in specs if spec not in grouped]
        if self.max_retries is not None or (self.jobs > 1 and len(rest) > 1):
            yield from self.pool.run(rest)
            return
        for spec in rest:
            telemetry = get_active()  # at the spec's turn, when it runs
            try:
                outcome = _fold(_run_task(spec, self.engine,
                                          telemetry is not None), telemetry)
            except Exception as err:
                outcome = QuarantinedResult(spec, (FailureRecord(
                    attempt=0, kind="error",
                    error=f"{type(err).__name__}: {err}",
                    traceback=traceback.format_exc(), exception=err),))
            yield spec, outcome

    def _commit(self, spec: RunSpec, outcome) -> None:
        """Store one arrival: its result, or its quarantine record."""
        from .resilient import QuarantinedResult, _count

        if isinstance(outcome, QuarantinedResult):
            self.store.quarantine(spec, outcome.attempts, outcome.last_error,
                                  outcome.last_traceback)
        else:
            try:
                self.store.put(spec, outcome)
                _count("store.writes")
            except OSError:
                # Disk full (real or chaos-simulated): degraded, not fatal.
                _count("store.write_errors")
        telemetry = get_active()
        if telemetry is not None:
            telemetry.registry.gauge("resilient.store.size").set(
                len(self.store))
