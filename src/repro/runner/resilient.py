"""Crash-safe supervised execution: the resilient layer over BatchRunner.

:class:`~repro.runner.batch.BatchRunner` assumes a well-behaved world: every
worker returns, every spec terminates, the process lives to the end of the
batch.  A multi-hour sweep meets the other world — OOM-killed workers, one
poison spec that hangs, an operator ``kill`` — and with an in-memory cache a
single such event used to cost every completed result.  This module adds the
three missing guarantees:

* **Supervision** (:class:`SupervisedPool`) — each worker is an owned
  ``multiprocessing.Process`` on a private duplex pipe, so the parent can
  detect a crashed worker (pipe EOF), reclaim a hung one (per-spec wall-clock
  timeout → SIGKILL), and respawn either.  Failing specs retry with
  exponential backoff + deterministic jitter; a spec that fails
  ``max_retries + 1`` times is **quarantined** — recorded with its tracebacks
  and yielded as a :class:`QuarantinedResult`, never fatal to the sweep.
* **Durability** (:class:`ResilientRunner`) — every completed result is
  committed to a :class:`~repro.runner.store.ResultStore` as it arrives
  (atomic write-then-commit), so an interrupted sweep keeps everything it
  finished; with ``resume=True`` already-stored specs are served from the
  store bit-identically (the stored bytes *are* the prior result).
* **Graceful interruption** — SIGINT/SIGTERM (and the chaos ``interrupt``
  action) stop dispatching, leave the store consistent, and raise
  :class:`SweepInterrupted` with the completed count: the operator reruns
  with ``--resume`` and loses nothing.

Failures are injectable on a deterministic schedule
(:class:`~repro.runner.chaos.ChaosSchedule`), which is what makes every one
of these paths testable rather than aspirational.

Determinism note: :func:`~repro.runner.spec.execute` is a pure function of
the spec, so supervision never touches result bytes — serial, supervised,
crashed-and-resumed and ``jobs=N`` runs are bit-identical by construction.
The retry jitter draws from a private ``random.Random(backoff_seed)`` and can
never perturb a simulation.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import random
import signal
import time
import traceback
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple, TYPE_CHECKING

from .batch import BatchRunner, available_parallelism, _execute_instrumented
from .spec import RunSpec, execute
from .store import ResultStore

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from ..analysis.experiments import ScenarioResult
    from .chaos import ChaosSchedule

__all__ = [
    "FailureRecord",
    "QuarantinedResult",
    "ResilientRunner",
    "SupervisedPool",
    "SweepInterrupted",
]


@dataclass(frozen=True)
class FailureRecord:
    """One failed attempt at a spec: what happened, on which attempt.

    ``kind`` is ``"error"`` (the spec raised), ``"crash"`` (the worker died —
    SIGKILL, segfault, OOM) or ``"timeout"`` (the supervisor reclaimed a
    worker past the per-spec deadline).  ``attempt`` is 0-based.
    """

    attempt: int
    kind: str
    error: str
    traceback: str = ""


@dataclass(frozen=True)
class QuarantinedResult:
    """A spec the supervisor gave up on, with its full failure history.

    Takes the result slot of its spec (sweeps skip it and count it in
    ``failed_runs``); the sweep itself continues.  Quarantine is forensic,
    not final — resumed sweeps re-attempt quarantined specs, since the fault
    may have been environmental.
    """

    spec: RunSpec
    failures: Tuple[FailureRecord, ...]

    @property
    def attempts(self) -> int:
        return len(self.failures)

    @property
    def last_error(self) -> str:
        return self.failures[-1].error if self.failures else ""

    @property
    def last_traceback(self) -> str:
        return self.failures[-1].traceback if self.failures else ""

    def describe(self) -> str:
        return (f"{self.spec.describe()} quarantined after "
                f"{self.attempts} attempts: {self.last_error}")


class SweepInterrupted(RuntimeError):
    """The sweep was interrupted (SIGINT/SIGTERM/chaos) but left resumable.

    Every result completed before the interrupt has already been yielded —
    and, when a store is attached, durably committed — so rerunning with
    ``resume=True`` continues where this run stopped.  ``completed`` counts
    the specs finished by the supervised portion of this run.
    """

    def __init__(self, message: str, completed: int = 0):
        super().__init__(message)
        self.completed = completed


#: how often an idle worker checks whether its parent is still alive.
_ORPHAN_POLL_SECONDS = 1.0


def _worker_main(conn, chaos: Optional["ChaosSchedule"],
                 instrumented: bool) -> None:
    """A supervised worker: recv task, inject chaos, execute, send outcome.

    Workers ignore SIGINT — interruption policy belongs to the parent, which
    stops dispatching and shuts workers down (or SIGKILLs a hung one).  Every
    outcome is plain data (``("ok", payload)`` or ``("err", msg, tb)``), so
    unpicklable exceptions cannot wedge the pipe.

    A blocking ``recv`` cannot be relied on to notice a SIGKILLed parent:
    under the fork start method the worker itself inherited the parent's end
    of the pipe, so the write side never fully closes and EOF never comes.
    Idle waits therefore poll, and the worker exits when it finds itself
    reparented — otherwise every killed sweep would leak an orphan worker
    blocked on ``recv`` forever.
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except ValueError:  # pragma: no cover - non-main-thread spawn
        pass
    parent_pid = os.getppid()
    while True:
        try:
            while not conn.poll(_ORPHAN_POLL_SECONDS):
                if os.getppid() != parent_pid:  # orphaned by a dead parent
                    return
            task = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):  # parent went away
            return
        if task is None:  # orderly shutdown
            return
        index, attempt, spec, engine = task
        try:
            if chaos is not None:
                chaos.inject(index, attempt)
            payload = (_execute_instrumented(spec, engine=engine)
                       if instrumented else execute(spec, engine=engine))
            conn.send(("ok", payload))
        except Exception as err:
            conn.send(("err", f"{type(err).__name__}: {err}",
                       traceback.format_exc()))


class _Task:
    """Mutable supervision state for one spec (parent-side only)."""

    __slots__ = ("index", "spec", "attempt", "failures", "ready_at")

    def __init__(self, index: int, spec: RunSpec):
        self.index = index
        self.spec = spec
        self.attempt = 0  # 0-based attempt about to run / running
        self.failures: List[FailureRecord] = []
        self.ready_at = 0.0  # monotonic time before which not to redispatch


class _Worker:
    """One owned worker process plus its private pipe."""

    __slots__ = ("process", "conn", "task", "deadline")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        self.task: Optional[_Task] = None
        self.deadline: Optional[float] = None


class SupervisedPool:
    """A worker pool that survives crashes, hangs and poison specs.

    Unlike ``multiprocessing.Pool`` — which wedges forever if a worker is
    SIGKILLed mid-task — every worker here is an owned process on a private
    duplex pipe: a crash reads as pipe EOF, a hang is reclaimed by the
    per-spec ``spec_timeout`` (SIGKILL + respawn), and either counts as one
    failed attempt for the in-flight spec.  Failed specs retry up to
    ``max_retries`` times with exponential backoff
    (``backoff_base * 2**k``, capped at ``backoff_cap``) times a
    deterministic jitter in ``[0.5, 1.5)`` drawn from
    ``random.Random(backoff_seed)``; specs still failing are yielded as
    :class:`QuarantinedResult` and the sweep continues.

    :meth:`run` yields ``(spec, result)`` in **completion** order (the layer
    above — :meth:`BatchRunner.run_iter` — reorders to input order).  SIGINT
    and SIGTERM are trapped for the duration of a run: dispatching stops and
    :class:`SweepInterrupted` is raised once in-flight bookkeeping is safe.

    ``chaos`` (a :class:`~repro.runner.chaos.ChaosSchedule`) injects
    deterministic faults: worker-side actions ship with the schedule to every
    worker; the parent-side ``interrupt`` action aborts dispatch exactly as a
    signal would.  Telemetry counters (``resilient.retries`` / ``.timeouts``
    / ``.crashes`` / ``.errors`` / ``.quarantined``) record what supervision
    had to do.  ``engine`` (see :func:`~repro.runner.spec.engine_for`)
    travels to the workers with every task.
    """

    def __init__(self, jobs: int = 1, max_retries: int = 2,
                 spec_timeout: Optional[float] = None,
                 backoff_base: float = 0.05, backoff_cap: float = 2.0,
                 backoff_seed: int = 0,
                 chaos: Optional["ChaosSchedule"] = None,
                 telemetry=None, engine: str = "auto"):
        if jobs < 1:
            jobs = available_parallelism()
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if spec_timeout is not None and spec_timeout <= 0:
            raise ValueError(f"spec_timeout must be positive, "
                             f"got {spec_timeout}")
        self.jobs = int(jobs)
        self.max_retries = int(max_retries)
        self.spec_timeout = spec_timeout
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.chaos = chaos
        self.telemetry = telemetry
        self.engine = engine
        self._rng = random.Random(backoff_seed)
        self._interrupted: Optional[str] = None

    # -- telemetry helpers ---------------------------------------------------
    def _count(self, name: str, amount: float = 1.0) -> None:
        if self.telemetry is not None:
            self.telemetry.registry.counter(f"resilient.{name}").inc(amount)

    def _collect(self, payload):
        """Unwrap one worker payload, folding its telemetry snapshot in."""
        if self.telemetry is None:
            return payload
        result, snapshot, manifests = payload
        self.telemetry.registry.merge(snapshot)
        for record in manifests:
            self.telemetry.emit_manifest(record)
        return result

    # -- worker lifecycle ----------------------------------------------------
    def _spawn(self) -> _Worker:
        parent_conn, child_conn = multiprocessing.Pipe(duplex=True)
        process = multiprocessing.Process(
            target=_worker_main,
            args=(child_conn, self.chaos, self.telemetry is not None),
            daemon=True)
        process.start()
        # Close the parent's copy of the child end *immediately*: EOF
        # detection (our crash signal) requires that no live process other
        # than the worker holds its write end.
        child_conn.close()
        return _Worker(process, parent_conn)

    def _kill(self, worker: _Worker) -> None:
        """SIGKILL a worker and reap it (used for hung workers + shutdown)."""
        if worker.process.is_alive():
            worker.process.kill()
        worker.process.join()
        worker.conn.close()

    def _shutdown(self, workers: Sequence[_Worker]) -> None:
        for worker in workers:
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        deadline = time.monotonic() + 5.0
        for worker in workers:
            worker.process.join(timeout=max(0.0,
                                            deadline - time.monotonic()))
            if worker.process.is_alive():  # pragma: no cover - stuck worker
                worker.process.kill()
                worker.process.join()
            worker.conn.close()

    # -- failure bookkeeping -------------------------------------------------
    def _record_failure(self, task: _Task, kind: str, error: str,
                        tb: str = "") -> Optional[QuarantinedResult]:
        """Book one failed attempt; requeue with backoff or quarantine."""
        task.failures.append(FailureRecord(attempt=task.attempt, kind=kind,
                                           error=error, traceback=tb))
        self._count({"error": "errors", "crash": "crashes",
                     "timeout": "timeouts"}[kind])
        if len(task.failures) > self.max_retries:
            self._count("quarantined")
            quarantined = QuarantinedResult(spec=task.spec,
                                            failures=tuple(task.failures))
            if self.telemetry is not None:
                from ..telemetry import build_manifest
                self.telemetry.emit_manifest(build_manifest(
                    task.spec, outcome="quarantined",
                    error=quarantined.last_error))
            return quarantined
        self._count("retries")
        attempt = len(task.failures)  # 1-based count of failures so far
        delay = min(self.backoff_cap,
                    self.backoff_base * (2.0 ** (attempt - 1)))
        delay *= 0.5 + self._rng.random()  # jitter in [0.5, 1.5)
        task.attempt = attempt
        task.ready_at = time.monotonic() + delay
        return None

    # -- signals -------------------------------------------------------------
    def _signal_handler(self, signum, frame) -> None:
        self._interrupted = signal.Signals(signum).name

    # -- the supervision loop ------------------------------------------------
    def run(self, specs: Iterable[RunSpec]):
        """Execute every spec under supervision; yield in completion order.

        Yields ``(spec, result)`` where ``result`` is a ScenarioResult (or
        the instrumented payload already folded into telemetry) or a
        :class:`QuarantinedResult`.  Raises :class:`SweepInterrupted` on
        SIGINT/SIGTERM/chaos-interrupt once it is safe to do so.
        """
        tasks = [_Task(index, spec) for index, spec in enumerate(specs)]
        if not tasks:
            return
        self._interrupted = None
        previous_handlers = {}
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                previous_handlers[signum] = signal.signal(
                    signum, self._signal_handler)
            except ValueError:  # pragma: no cover - non-main thread
                pass
        workers = [self._spawn()
                   for _ in range(min(self.jobs, len(tasks)))]
        pending: List[_Task] = list(tasks)  # FIFO; retries append at the end
        completed = 0
        try:
            while completed < len(tasks):
                now = time.monotonic()
                # 1. dispatch ready tasks to idle workers (unless interrupted)
                if self._interrupted is None:
                    for worker in workers:
                        if worker.task is not None:
                            continue
                        task = self._next_ready(pending, now)
                        if task is None:
                            break
                        if self.chaos is not None and self.chaos.parent_action(
                                task.index, task.attempt) is not None:
                            self._interrupted = "chaos interrupt"
                            pending.append(task)
                            break
                        worker.conn.send((task.index, task.attempt,
                                          task.spec, self.engine))
                        worker.task = task
                        worker.deadline = (now + self.spec_timeout
                                           if self.spec_timeout is not None
                                           else None)
                busy = [worker for worker in workers
                        if worker.task is not None]
                if self._interrupted is not None and not busy:
                    raise SweepInterrupted(
                        f"sweep interrupted by {self._interrupted} after "
                        f"{completed} completed specs (resumable)",
                        completed=completed)
                if not busy:
                    # nothing in flight: we are waiting out a backoff window.
                    wait = min((task.ready_at - now for task in pending),
                               default=0.0)
                    if wait > 0:
                        time.sleep(min(wait, 0.05))
                    continue
                # 2. wait for arrivals — capped low so signals, deadlines and
                #    backoff expiries are all noticed promptly.
                timeout = 0.2
                for worker in busy:
                    if worker.deadline is not None:
                        timeout = min(timeout, max(0.0,
                                                   worker.deadline - now))
                ready = multiprocessing.connection.wait(
                    [worker.conn for worker in busy], timeout)
                now = time.monotonic()
                by_conn = {worker.conn: worker for worker in busy}
                for conn in ready:
                    worker = by_conn[conn]
                    task = worker.task
                    if task is None:  # pragma: no cover - already handled
                        continue
                    try:
                        message = conn.recv()
                    except EOFError:
                        # The worker died mid-spec (SIGKILL/OOM/segfault).
                        self._kill(worker)
                        workers[workers.index(worker)] = self._spawn()
                        worker.task = None
                        outcome = self._record_failure(
                            task, "crash",
                            f"worker pid {worker.process.pid} crashed while "
                            f"running {task.spec.describe()}")
                        if outcome is None:
                            pending.append(task)
                        else:
                            completed += 1
                            yield task.spec, outcome
                        continue
                    worker.task = None
                    worker.deadline = None
                    if message[0] == "ok":
                        completed += 1
                        yield task.spec, self._collect(message[1])
                    else:
                        outcome = self._record_failure(task, "error",
                                                       message[1], message[2])
                        if outcome is None:
                            pending.append(task)
                        else:
                            completed += 1
                            yield task.spec, outcome
                # 3. reclaim workers past their per-spec deadline.
                for position, worker in enumerate(workers):
                    if worker.task is None or worker.deadline is None \
                            or now < worker.deadline:
                        continue
                    task = worker.task
                    self._kill(worker)
                    workers[position] = self._spawn()
                    outcome = self._record_failure(
                        task, "timeout",
                        f"spec exceeded {self.spec_timeout}s wall-clock "
                        f"timeout; worker killed")
                    if outcome is None:
                        pending.append(task)
                    else:
                        completed += 1
                        yield task.spec, outcome
        finally:
            self._shutdown(workers)
            for signum, handler in previous_handlers.items():
                signal.signal(signum, handler)

    @staticmethod
    def _next_ready(pending: List[_Task], now: float) -> Optional[_Task]:
        """Pop the first task whose backoff window has elapsed, if any."""
        for position, task in enumerate(pending):
            if task.ready_at <= now:
                return pending.pop(position)
        return None


class ResilientRunner(BatchRunner):
    """A BatchRunner with durable results, supervision and resume.

    Drop-in for :class:`~repro.runner.batch.BatchRunner` anywhere a runner is
    accepted (sweeps take ``runner=``), with three additions:

    * every completed result is committed to ``store`` (a
      :class:`~repro.runner.store.ResultStore` or a path) as it arrives —
      atomic per result, so an interrupt never loses finished work;
    * with ``resume=True``, specs whose hash is already stored are served
      from the store without running (bit-identical: the stored bytes are
      the prior run's result).  Quarantined specs are *re-attempted* on
      resume;
    * execution goes through :class:`SupervisedPool` — per-spec timeouts,
      retry with backoff, crash respawn, quarantine — instead of a bare
      ``multiprocessing.Pool``.

    The vectorized lockstep grouping is intentionally bypassed: supervision
    is per-spec, and results are bit-identical either way (the parity suite
    guards exactly that equivalence), so robustness costs correctness
    nothing.  The engine choice is not part of a spec's store key, so a
    store filled under one ``engine`` resumes under any other.  A
    simulated-full ``store`` (chaos) degrades gracefully: the failed write
    is counted (``resilient.store.write_errors``), the result still flows
    to the caller, and the spec simply re-runs on resume.
    """

    def __init__(self, jobs: int = 1, cache: bool = True, telemetry=None,
                 store=None, resume: bool = False, max_retries: int = 2,
                 spec_timeout: Optional[float] = None,
                 backoff_base: float = 0.05, backoff_cap: float = 2.0,
                 backoff_seed: int = 0,
                 chaos: Optional["ChaosSchedule"] = None,
                 engine: str = "auto"):
        super().__init__(jobs=jobs, cache=cache, telemetry=telemetry,
                         engine=engine)
        if isinstance(store, (str, bytes)):
            store = ResultStore(str(store), chaos=chaos)
        self.store: Optional[ResultStore] = store
        if resume and store is None:
            raise ValueError("resume=True requires a result store")
        self.resume = bool(resume)
        self.chaos = chaos
        self.pool = SupervisedPool(jobs=self.jobs, max_retries=max_retries,
                                   spec_timeout=spec_timeout,
                                   backoff_base=backoff_base,
                                   backoff_cap=backoff_cap,
                                   backoff_seed=backoff_seed, chaos=chaos,
                                   telemetry=self.telemetry, engine=engine)

    # -- telemetry helpers ---------------------------------------------------
    def _count(self, name: str, amount: float = 1.0) -> None:
        if self.telemetry is not None:
            self.telemetry.registry.counter(f"resilient.{name}").inc(amount)

    def _store_size_gauge(self) -> None:
        if self.telemetry is not None and self.store is not None:
            self.telemetry.registry.gauge(
                "resilient.store.size").set(len(self.store))

    # -- the resilient execution path ----------------------------------------
    def _execute_pending(self, pending: Sequence[RunSpec],
                         tolerant: bool = False):
        """Serve store hits, then run misses supervised, committing arrivals.

        ``tolerant`` is accepted for interface compatibility but subsumed:
        supervision always tolerates per-spec failure (the failing spec
        quarantines instead of aborting the batch).
        """
        if not pending:
            return
        misses: List[RunSpec] = []
        for spec in pending:
            stored = (self.store.get(spec)
                      if self.resume and self.store is not None else None)
            if stored is not None:
                self._count("store.hits")
                yield spec, stored
            else:
                if self.resume and self.store is not None:
                    self._count("store.misses")
                misses.append(spec)
        for spec, result in self.pool.run(misses):
            if self.store is not None:
                if isinstance(result, QuarantinedResult):
                    self.store.quarantine(spec, result.attempts,
                                          result.last_error,
                                          result.last_traceback)
                else:
                    try:
                        self.store.put(spec, result)
                        self._count("store.writes")
                    except OSError as err:
                        # Disk full (real or chaos-simulated): degraded, not
                        # fatal — the result still flows to the caller; the
                        # spec re-runs on resume.
                        self._count("store.write_errors")
                        del err
                self._store_size_gauge()
            yield spec, result
