"""Batch execution of :class:`~repro.runner.spec.RunSpec` lists.

:class:`BatchRunner` turns a list of specs into a list of results, optionally
fanning the work out over a :mod:`multiprocessing` pool.  Three properties the
layers above (sweeps, comparison, replication, CLI) rely on:

* **Ordered collection** — ``run(specs)[i]`` always corresponds to
  ``specs[i]``, no matter which worker finished first.
* **Determinism** — :func:`~repro.runner.spec.execute` is a pure function of
  the spec, so serial and parallel execution produce bit-identical traces per
  spec (guarded by ``tests/property/test_runner_properties.py``).
* **Caching** — results are cached by spec (specs hash by value), so a batch
  containing duplicates runs each distinct spec once, and a runner reused
  across batches never re-runs a spec it has already executed.

The default is ``jobs=1`` (plain in-process loop, no pool): determinism is
then trivially inherited rather than asserted, which keeps single-run entry
points bit-for-bit identical to the pre-runner code paths.

A run that blows its interrupt budget raises
:class:`~repro.sim.events.EventBudgetExceeded` out of :meth:`BatchRunner.run`
with the counts *and* the offending :class:`RunSpec` attached (``err.spec``,
set by :func:`~repro.runner.spec.execute`); the exception reconstructs itself
across the multiprocessing boundary, so pool execution surfaces exactly the
same diagnostics as serial execution.  Streaming results travel whole:
``ScenarioResult.observers`` (online metrics state) pickles back from the
workers alongside the trace — or instead of one, for ``record_trace=False``
specs, which is how replicated long-horizon studies stay bounded-memory.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, TYPE_CHECKING

from .spec import RunSpec, engine_for, execute

if TYPE_CHECKING:  # pragma: no cover - type-only import, avoids the cycle
    from ..analysis.experiments import ScenarioResult

__all__ = ["BatchRunner", "SpecFailure", "execute_many",
           "available_parallelism"]

#: callback signature: invoked once per *computed* spec, as results stream in.
OnResult = Callable[[RunSpec, "ScenarioResult"], None]


@dataclass(frozen=True)
class SpecFailure:
    """One spec's failure, captured instead of raised (tolerant batches).

    With ``tolerate_failures=True`` a failing spec produces one of these in
    its result slot instead of aborting the whole batch: the spec, a
    one-line ``error`` (``TypeName: message``) and the full traceback text.
    Everything is plain data, so failures survive the multiprocessing
    round trip no matter how unpicklable the original exception was.
    """

    spec: RunSpec
    error: str
    traceback: str = ""

    def describe(self) -> str:
        return f"{self.spec.describe()} failed: {self.error}"


def _capture_failure(spec: RunSpec, err: BaseException) -> SpecFailure:
    return SpecFailure(spec=spec, error=f"{type(err).__name__}: {err}",
                       traceback=traceback.format_exc())


def _execute_tolerant(spec: RunSpec, engine: str = "auto"):
    """Pool-shippable execute that returns failures instead of raising."""
    try:
        return "ok", execute(spec, engine=engine)
    except Exception as err:
        return "fail", _capture_failure(spec, err)


def _execute_tolerant_instrumented(spec: RunSpec, engine: str = "auto"):
    """Tolerant variant of :func:`_execute_instrumented`."""
    try:
        return "ok", _execute_instrumented(spec, engine=engine)
    except Exception as err:
        return "fail", _capture_failure(spec, err)


def _execute_instrumented(spec: RunSpec, engine: str = "auto"):
    """Pool-shippable instrumented execute: (result, metrics snapshot, manifests).

    Builds a fresh, run-local :class:`~repro.telemetry.Telemetry` so workers
    never contend on shared state, then returns its registry snapshot and
    manifest records for the parent to merge.  Serial and pool execution use
    this same wrapper when a batch runs with telemetry, which is what makes
    merged worker totals equal a serial run's by construction.
    """
    from ..telemetry import Telemetry

    local = Telemetry()
    result = execute(spec, telemetry=local, engine=engine)
    return result, local.registry.snapshot(), local.manifests


def available_parallelism() -> int:
    """CPUs usable by this process (affinity-aware where the OS supports it)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - macOS/Windows
        return os.cpu_count() or 1


class BatchRunner:
    """Execute batches of specs, serially or over a worker pool.

    ``jobs`` is the maximum number of worker processes (1 = run in-process;
    0 or negative = one per available CPU).  ``cache=True`` (the default)
    memoizes results by spec for the lifetime of the runner.

    ``telemetry`` (a :class:`~repro.telemetry.Telemetry`) instruments every
    computed spec: each run executes against a fresh run-local bundle —
    in-process or in a pool worker, identically — and its metrics snapshot
    and manifest records are folded into ``telemetry`` as results arrive.
    Counter totals after a ``jobs=2`` batch therefore equal a serial batch's
    exactly.  Worker span records are not collected (each process has its own
    wall-clock origin); spans around the batch belong to the caller.  Cached
    results merge nothing — no run happened.  When no telemetry is passed the
    runner adopts the process-local active one (see
    :func:`repro.telemetry.set_active`), so ``--telemetry`` on the CLI
    reaches pool workers without every intermediate layer threading the
    argument through.

    ``engine`` (one of :data:`~repro.runner.spec.ENGINES`) picks the engine
    for every spec, through :func:`~repro.runner.spec.engine_for`; pool
    workers receive it with each task.  Results are bit-identical under
    every choice, so cached results serve any engine.
    """

    def __init__(self, jobs: int = 1, cache: bool = True, telemetry=None,
                 engine: str = "auto"):
        from ..telemetry import get_active

        if jobs < 1:
            jobs = available_parallelism()
        self.jobs = int(jobs)
        self.engine = engine
        self.telemetry = telemetry if telemetry is not None else get_active()
        self._cache: Optional[Dict[RunSpec, "ScenarioResult"]] = \
            {} if cache else None

    # -- cache management ----------------------------------------------------
    @property
    def cache_size(self) -> int:
        """Number of results currently memoized (0 when caching is off)."""
        return len(self._cache) if self._cache is not None else 0

    def clear_cache(self) -> None:
        """Drop every memoized result."""
        if self._cache is not None:
            self._cache.clear()

    # -- execution -----------------------------------------------------------
    def run(self, specs: Iterable[RunSpec],
            on_result: Optional[OnResult] = None,
            tolerate_failures: bool = False) -> List["ScenarioResult"]:
        """Execute every spec and return results in input order.

        Duplicate specs (and specs already in the cache) are executed once;
        ``on_result(spec, result)`` fires once per spec actually computed, in
        first-occurrence order, as soon as its result is available — the
        observability hook for long batches.

        ``tolerate_failures=True`` turns per-spec exceptions into
        :class:`SpecFailure` records in the corresponding result slots
        instead of aborting the batch — one poison spec no longer discards
        every completed sibling (failures are cached like results, so a
        cached runner will not silently re-run a known-bad spec).
        """
        return list(self.run_iter(specs, on_result=on_result,
                                  tolerate_failures=tolerate_failures))

    def run_iter(self, specs: Iterable[RunSpec],
                 on_result: Optional[OnResult] = None,
                 tolerate_failures: bool = False):
        """Like :meth:`run`, but yield each result as soon as it is ready.

        Results are yielded in input order.  With ``jobs=1`` execution is
        fully lazy: a spec only runs when its result is pulled, so consumers
        (e.g. a sweep's progress callback) interleave with the computation.
        With a pool, later specs keep computing in the background while
        earlier results are consumed.
        """
        specs = list(specs)
        for spec in specs:
            if not isinstance(spec, RunSpec):
                raise TypeError(f"BatchRunner runs RunSpecs, got "
                                f"{type(spec).__name__}")
        computed: Dict[RunSpec, "ScenarioResult"] = {}
        pending: List[RunSpec] = []
        seen = set()
        for spec in specs:
            if spec in seen:
                continue
            seen.add(spec)
            if self._cache is not None and spec in self._cache:
                continue
            pending.append(spec)
        arrivals = self._execute_pending(pending,
                                         tolerant=tolerate_failures)
        # computed doubles as the lookup when caching is off; with caching on,
        # every arrival lands in the cache, which also holds prior batches.
        lookup = self._cache if self._cache is not None else computed
        remaining: Dict[RunSpec, int] = {}
        for spec in specs:
            remaining[spec] = remaining.get(spec, 0) + 1
        for spec in specs:
            while spec not in lookup:
                done_spec, result = next(arrivals)
                lookup[done_spec] = result
                if on_result is not None:
                    on_result(done_spec, result)
            result = lookup[spec]
            remaining[spec] -= 1
            if self._cache is None and remaining[spec] == 0:
                # No later occurrence needs it: release the trace so long
                # uncached batches stream in O(workers) memory, not O(batch).
                del lookup[spec]
            yield result

    def run_one(self, spec: RunSpec) -> "ScenarioResult":
        """Execute (or fetch from cache) a single spec."""
        return self.run([spec])[0]

    def _execute_pending(self, pending: Sequence[RunSpec],
                         tolerant: bool = False):
        """Yield (spec, result) pairs in ``pending`` order."""
        if not pending:
            return
        vectorized = self._execute_vector_groups(pending, tolerant=tolerant)
        serial = [spec for spec in pending if spec not in vectorized]
        arrivals = self._execute_serial(serial, tolerant=tolerant)
        for spec in pending:
            if spec in vectorized:
                yield spec, vectorized.pop(spec)
            else:
                yield next(arrivals)

    def _execute_vector_groups(self, pending: Sequence[RunSpec],
                               tolerant: bool = False) -> Dict[RunSpec, "ScenarioResult"]:
        """Run seed-replica groups on the round kernel; return results.

        Specs identical modulo seed form one group; a group runs as one
        lockstep batch when :func:`~repro.runner.spec.engine_for` picks the
        lockstep grouping for it at its size (under ``auto``: 2 or more
        members the kernel accepts, below the lone-run n).  Everything else
        stays on the per-spec path, whose results are bit-identical by
        construction.
        """
        from ..sim.vectorized import execute_batch

        groups: Dict[RunSpec, List[RunSpec]] = {}
        for spec in pending:
            groups.setdefault(spec.with_seed(0), []).append(spec)
        results: Dict[RunSpec, "ScenarioResult"] = {}
        for members in groups.values():
            if engine_for(members[0], self.engine, len(members)) != "batch":
                continue
            try:
                batch_results = execute_batch(members,
                                              telemetry=self.telemetry)
            except Exception:
                if not tolerant:
                    raise
                # One bad replica poisons the whole lockstep batch; in
                # tolerant mode, leave the group to the per-spec serial path
                # so siblings complete (bit-identical by contract) and only
                # the offender becomes a SpecFailure.
                continue
            for spec, result in zip(members, batch_results):
                results[spec] = result
        return results

    def _execute_serial(self, pending: Sequence[RunSpec],
                        tolerant: bool = False):
        """The per-spec path: in-process loop or multiprocessing pool."""
        if not pending:
            return
        workers = min(self.jobs, len(pending))
        instrumented = self.telemetry is not None
        if tolerant:
            worker_fn = (_execute_tolerant_instrumented if instrumented
                         else _execute_tolerant)
        else:
            worker_fn = _execute_instrumented if instrumented else execute
        # The engine rides with every task, so it holds in pool workers
        # under any start method.
        worker_fn = functools.partial(worker_fn, engine=self.engine)
        if workers <= 1:
            for spec in pending:
                yield spec, self._collect(worker_fn(spec), tolerant=tolerant)
            return
        # chunksize > 1 amortizes IPC for large batches of small runs while
        # keeping enough chunks (4 per worker) for the pool to load-balance.
        chunksize = max(1, len(pending) // (workers * 4))
        pool = multiprocessing.Pool(processes=workers)
        try:
            for spec, arrival in zip(pending,
                                     pool.imap(worker_fn, pending,
                                               chunksize=chunksize)):
                yield spec, self._collect(arrival, tolerant=tolerant)
            pool.close()
        except BaseException:
            # KeyboardInterrupt (and generator close): stop the children
            # promptly instead of letting them finish a doomed batch — the
            # join in `finally` then guarantees no process outlives the
            # runner, and the interrupt re-raises to the caller intact.
            pool.terminate()
            raise
        finally:
            pool.join()

    def _collect(self, arrival, tolerant: bool = False):
        """Unpack one instrumented arrival, folding its telemetry in."""
        if tolerant:
            tag, payload = arrival
            if tag == "fail":
                return payload  # a SpecFailure: nothing ran, nothing to merge
            arrival = payload
        if self.telemetry is None:
            return arrival
        result, snapshot, manifests = arrival
        self.telemetry.registry.merge(snapshot)
        for record in manifests:
            self.telemetry.emit_manifest(record)
        return result


def execute_many(specs: Iterable[RunSpec], jobs: int = 1,
                 on_result: Optional[OnResult] = None) -> List["ScenarioResult"]:
    """One-shot convenience: ``BatchRunner(jobs).run(specs, on_result)``."""
    return BatchRunner(jobs=jobs).run(specs, on_result=on_result)
