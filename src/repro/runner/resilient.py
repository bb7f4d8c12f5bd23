"""Crash-safe supervised execution: the one worker pool and its records.

A multi-hour sweep meets OOM-killed workers, one poison spec that hangs, an
operator ``kill``.  :class:`SupervisedPool` is the pool every multi-process
batch of :class:`~repro.runner.batch.BatchRunner` runs on, and it survives
all three:

* **Supervision** — each worker is an owned ``multiprocessing.Process`` on a
  private duplex pipe, so the parent can detect a crashed worker (pipe EOF),
  reclaim a hung one (per-spec wall-clock timeout → SIGKILL), and respawn
  either.  Failing specs retry with exponential backoff + deterministic
  jitter; a spec that fails ``max_retries + 1`` times is **quarantined** —
  recorded with its tracebacks and yielded as a :class:`QuarantinedResult`,
  never fatal to the sweep.
* **Graceful interruption** — under :meth:`SupervisedPool.trapping_signals`
  (a supervised runner's batches), SIGINT/SIGTERM (and the chaos
  ``interrupt`` action) stop dispatching and raise :class:`SweepInterrupted`
  with the completed count once in-flight specs land; with a store attached
  every finished result is already committed, so the operator reruns with
  ``--resume`` and loses nothing.

Durability and resume belong to the runner and its
:class:`~repro.runner.store.ResultStore`.  Failures are injectable on a
deterministic schedule (:class:`~repro.runner.chaos.ChaosSchedule`), which
is what makes every one of these paths testable rather than aspirational.

Determinism note: :func:`~repro.runner.spec.execute` is a pure function of
the spec, so supervision never touches result bytes — serial, supervised,
crashed-and-resumed and ``jobs=N`` runs are bit-identical by construction.
The retry jitter draws from a private ``random.Random`` and can never
perturb a simulation.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import multiprocessing.connection
import os
import pickle
import random
import signal
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple, TYPE_CHECKING

from ..telemetry import build_manifest, get_active
from .batch import available_parallelism, _fold, _run_task
from .spec import RunSpec, _check_engine

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from ..analysis.experiments import ScenarioResult
    from .chaos import ChaosSchedule

__all__ = [
    "FailureRecord",
    "QuarantinedResult",
    "SupervisedPool",
    "SweepInterrupted",
]


@dataclass(frozen=True)
class FailureRecord:
    """One failed attempt at a spec: what happened, on which attempt.

    ``kind`` is ``"error"`` (the spec raised), ``"crash"`` (the worker died —
    SIGKILL, segfault, OOM) or ``"timeout"`` (the supervisor reclaimed a
    worker past the per-spec deadline).  ``attempt`` is 0-based.
    ``exception`` is the spec's own exception, when it pickled.
    """

    attempt: int
    kind: str
    error: str
    traceback: str = ""
    exception: Optional[BaseException] = field(default=None, compare=False,
                                               repr=False)


@dataclass(frozen=True)
class QuarantinedResult:
    """A spec a runner gave up on, with its full failure history.

    A runner puts this in the result slot of a failed spec it tolerates
    (every failure, once it has a retry budget); sweeps skip it and count it
    in ``failed_runs``, and the sweep itself continues.  Quarantine is
    forensic, not final — resumed sweeps re-attempt quarantined specs, since
    the fault may have been environmental.
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
    the specs the interrupted stage (the kernel groups, or the pool)
    finished.
    """

    def __init__(self, message: str, completed: int = 0):
        super().__init__(message)
        self.completed = completed


#: how often a worker checks whether its parent is still alive.
_ORPHAN_POLL_SECONDS = 1.0

#: retry backoff: the k-th retry of a spec waits
#: ``min(_BACKOFF_CAP, _BACKOFF_BASE * 2**(k-1))`` seconds times a jitter in
#: ``[0.5, 1.5)`` drawn from ``random.Random(_BACKOFF_SEED)``.
_BACKOFF_BASE = 0.05
_BACKOFF_CAP = 2.0
_BACKOFF_SEED = 0


def _count(name: str) -> None:
    """Count one ``resilient.<name>`` event on the active telemetry bundle."""
    telemetry = get_active()
    if telemetry is not None:
        telemetry.registry.counter(f"resilient.{name}").inc()


def _portable(err: BaseException) -> Optional[BaseException]:
    """``err`` if it survives a pickle round trip, else None."""
    try:
        pickle.loads(pickle.dumps(err))
    except Exception:
        return None
    return err


def _worker_main(conn, chaos: Optional["ChaosSchedule"],
                 instrumented: bool) -> None:
    """A supervised worker: recv task, inject chaos, execute, send outcome.

    Workers ignore SIGINT — interruption policy belongs to the parent.  An
    outcome is ``("ok", payload)`` or ``("error", msg, tb, exception)``; the
    exception travels only if it survives pickling, so none can wedge the
    pipe.

    The pipe cannot be relied on to notice a SIGKILLed parent: under the
    fork start method the worker itself inherited the parent's end, so EOF
    never comes to ``recv``, and a ``send`` larger than the pipe buffer
    blocks forever.  A watchdog thread therefore exits the worker once it
    finds itself reparented, idle, mid-spec or mid-send — otherwise every
    killed sweep would leak an orphan worker.
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except ValueError:  # pragma: no cover - non-main-thread spawn
        pass
    threading.Thread(target=_exit_when_orphaned, args=(os.getppid(),),
                     daemon=True).start()
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):  # parent went away
            return
        if task is None:  # orderly shutdown
            return
        index, attempt, spec, engine = task
        try:
            if chaos is not None:
                chaos.inject(index, attempt)
            conn.send(("ok", _run_task(spec, engine, instrumented)))
        except Exception as err:
            conn.send(("error", f"{type(err).__name__}: {err}",
                       traceback.format_exc(), _portable(err)))


def _exit_when_orphaned(parent_pid: int) -> None:
    """A worker's watchdog: end the process once its parent has died."""
    while os.getppid() == parent_pid:
        time.sleep(_ORPHAN_POLL_SECONDS)
    os._exit(0)


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

    Every worker is an owned process on a private duplex pipe: a crash
    reads as pipe EOF, a hang is reclaimed by the per-spec ``spec_timeout``
    (SIGKILL + respawn), and either counts as one failed attempt for the
    in-flight spec; a worker found dead while idle is replaced at no cost.
    Failed specs retry up to ``max_retries`` times with exponential backoff
    and a deterministic jitter (see :data:`_BACKOFF_BASE`); specs still
    failing are yielded as :class:`QuarantinedResult` and the sweep
    continues.

    :meth:`run` yields ``(spec, result)`` in **completion** order (the layer
    above — :meth:`BatchRunner.run_iter` — reorders to input order), once
    the worker holds its next spec.  Leaving it early (an exception, a
    ``close()``) SIGKILLs the workers still mid-spec.

    ``chaos`` (a :class:`~repro.runner.chaos.ChaosSchedule`) injects
    deterministic faults: worker-side actions ship with the schedule to every
    worker; the parent-side ``interrupt`` action aborts dispatch exactly as a
    signal would.  Telemetry counters (``resilient.retries`` / ``.timeouts``
    / ``.crashes`` / ``.errors`` / ``.quarantined``) record what supervision
    had to do, in the active bundle; workers (re)spawn instrumented for, and
    every arrival folds into, the bundle active when :meth:`run` started.
    ``engine`` (see :func:`~repro.runner.spec.engine_for`) travels to the
    workers with every task.
    """

    def __init__(self, jobs: int = 1, max_retries: int = 2,
                 spec_timeout: Optional[float] = None,
                 chaos: Optional["ChaosSchedule"] = None,
                 engine: str = "auto"):
        if jobs < 1:
            jobs = available_parallelism()
        _check_engine(engine)
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if spec_timeout is not None and spec_timeout <= 0:
            raise ValueError(f"spec_timeout must be positive, "
                             f"got {spec_timeout}")
        self.jobs = int(jobs)
        self.max_retries = int(max_retries)
        self.spec_timeout = spec_timeout
        self.chaos = chaos
        self.engine = engine
        self._rng = random.Random(_BACKOFF_SEED)
        self._interrupted: Optional[str] = None

    # -- worker lifecycle ----------------------------------------------------
    def _spawn(self, instrumented: bool) -> _Worker:
        parent_conn, child_conn = multiprocessing.Pipe(duplex=True)
        process = multiprocessing.Process(
            target=_worker_main, args=(child_conn, self.chaos, instrumented),
            daemon=True)
        process.start()
        # Close the parent's copy of the child end *immediately*: EOF
        # detection (our crash signal) requires that no live process other
        # than the worker holds its write end.
        child_conn.close()
        return _Worker(process, parent_conn)

    def _replace(self, workers: List[_Worker], position: int,
                 instrumented: bool) -> _Worker:
        """SIGKILL and reap the worker at ``position``; spawn its successor."""
        worker = workers[position]
        if worker.process.is_alive():
            worker.process.kill()
        worker.process.join()
        worker.conn.close()
        workers[position] = self._spawn(instrumented)
        return workers[position]

    def _shutdown(self, workers: Sequence[_Worker]) -> None:
        """Dismiss idle workers; SIGKILL any abandoned mid-spec."""
        for worker in workers:
            if worker.task is not None:
                worker.process.kill()
                continue
            try:
                worker.conn.send(None)
            except OSError:
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
    def _record_failure(self, task: _Task, kind: str, error: str, tb: str = "",
                        exception: Optional[BaseException] = None
                        ) -> Optional[QuarantinedResult]:
        """Book one failed attempt; requeue with backoff or quarantine."""
        task.failures.append(FailureRecord(attempt=task.attempt, kind=kind,
                                           error=error, traceback=tb,
                                           exception=exception))
        _count({"error": "errors", "crash": "crashes",
                "timeout": "timeouts"}[kind])
        if len(task.failures) > self.max_retries:
            _count("quarantined")
            quarantined = QuarantinedResult(spec=task.spec,
                                            failures=tuple(task.failures))
            telemetry = get_active()
            if telemetry is not None:
                telemetry.emit_manifest(build_manifest(
                    task.spec, outcome="quarantined",
                    error=quarantined.last_error))
            return quarantined
        _count("retries")
        attempt = len(task.failures)  # 1-based count of failures so far
        delay = min(_BACKOFF_CAP, _BACKOFF_BASE * (2.0 ** (attempt - 1)))
        delay *= 0.5 + self._rng.random()  # jitter in [0.5, 1.5)
        task.attempt = attempt
        task.ready_at = time.monotonic() + delay
        return None

    # -- signals -------------------------------------------------------------
    def _signal_handler(self, signum, frame) -> None:
        self._interrupted = signal.Signals(signum).name

    @contextlib.contextmanager
    def trapping_signals(self):
        """SIGINT/SIGTERM stop dispatching instead of ending the process.

        Inside the block a trapped signal lets in-flight specs land, then
        :meth:`run` (or :meth:`raise_if_interrupted`) raises
        :class:`SweepInterrupted`; the previous handlers return on exit.
        """
        self._interrupted = None
        previous = {}
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                previous[signum] = signal.signal(signum, self._signal_handler)
            except ValueError:  # pragma: no cover - non-main thread
                pass
        try:
            yield
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)

    def raise_if_interrupted(self, completed: int) -> None:
        """Raise :class:`SweepInterrupted` once a signal or chaos struck."""
        if self._interrupted is not None:
            raise SweepInterrupted(
                f"sweep interrupted by {self._interrupted} after "
                f"{completed} completed specs (resumable)",
                completed=completed)

    # -- the supervision loop ------------------------------------------------
    def run(self, specs: Iterable[RunSpec]):
        """Execute every spec under supervision; yield in completion order.

        Yields ``(spec, result)`` where ``result`` is a ScenarioResult (or
        the instrumented payload already folded into telemetry) or a
        :class:`QuarantinedResult`.  Raises :class:`SweepInterrupted` once a
        chaos interrupt or a trapped signal stopped dispatching.
        """
        tasks = [_Task(index, spec) for index, spec in enumerate(specs)]
        if not tasks:
            return
        self._interrupted = None
        telemetry = get_active()
        workers = [self._spawn(telemetry is not None)
                   for _ in range(min(self.jobs, len(tasks)))]
        pending: List[_Task] = list(tasks)  # FIFO; retries append at the end
        finished: List[Tuple[RunSpec, object]] = []
        completed = 0
        try:
            while True:
                now = time.monotonic()
                # 1. dispatch ready tasks to idle workers (unless interrupted),
                #    then hand over what finished: its worker is busy again.
                if self._interrupted is None:
                    for position, worker in enumerate(workers):
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
                        message = (task.index, task.attempt, task.spec,
                                   self.engine)
                        try:
                            worker.conn.send(message)
                        except OSError:
                            # The worker died while idle (OOM killer, kill -9):
                            # replace it; the spec is not charged an attempt.
                            worker = self._replace(workers, position,
                                                   telemetry is not None)
                            worker.conn.send(message)
                        worker.task = task
                        worker.deadline = (now + self.spec_timeout
                                           if self.spec_timeout is not None
                                           else None)
                for outcome in finished:
                    completed += 1
                    yield outcome
                finished.clear()
                if completed == len(tasks):
                    return
                busy = [worker for worker in workers
                        if worker.task is not None]
                if not busy:
                    self.raise_if_interrupted(completed)
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
                # 3. collect outcomes: a result, an error, a dead worker
                #    (SIGKILL/OOM/segfault) or one past its deadline.
                for position, worker in enumerate(workers):
                    task = worker.task
                    if task is None:
                        continue
                    if worker.conn in ready:
                        try:
                            message = worker.conn.recv()
                        except EOFError:
                            message = ("crash", f"worker pid "
                                       f"{worker.process.pid} crashed while "
                                       f"running {task.spec.describe()}")
                    elif worker.deadline is not None and now >= worker.deadline:
                        message = ("timeout", f"spec exceeded "
                                   f"{self.spec_timeout}s wall-clock "
                                   f"timeout; worker killed")
                    else:
                        continue
                    worker.task = worker.deadline = None
                    if message[0] == "ok":
                        finished.append((task.spec,
                                         _fold(message[1], telemetry)))
                        continue
                    if message[0] != "error":
                        self._replace(workers, position, telemetry is not None)
                    outcome = self._record_failure(task, *message)
                    if outcome is None:
                        pending.append(task)
                    else:
                        finished.append((task.spec, outcome))
        finally:
            self._shutdown(workers)

    @staticmethod
    def _next_ready(pending: List[_Task], now: float) -> Optional[_Task]:
        """Pop the first task whose backoff window has elapsed, if any."""
        for position, task in enumerate(pending):
            if task.ready_at <= now:
                return pending.pop(position)
        return None
