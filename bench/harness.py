"""Workloads, isolated repeats and the correctness gate of the benchmark.

Every repeat of a workload runs its ``repro`` CLI command(s) through
``repro.cli.main(argv)`` in a fresh interpreter (:mod:`child`), one process
at a time.  The parent measures each process from outside: set-up time from
its spawn timestamp to ``repro.cli`` imported, CPU time and peak RSS of the
process and its pool workers from ``wait4``.  Wall time is taken inside the
child around ``main`` only.

The workloads' inputs are derived from one seed ``S``: ``--seed S`` and
replica seeds ``S*1000+i``.  ``mini=True`` shrinks every workload to the
same command shape at toy sizes (used by the tests).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
CHILD = BENCH_DIR / "child.py"

#: end-to-end metrics every workload reports: (name, unit).
E2E: List[Tuple[str, str]] = [
    ("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
]
#: end-to-end metrics only one workload has, with their regression bounds.
#: BENCHMARK.json lists them with the per-layer metrics, because there every
#: end-to-end metric must exist on every workload.
EXTRA: Dict[str, Tuple[str, float]] = {
    "resume_s": ("s", 0.25),
    "frame_delay_us.p50": ("us", 0.25),
    "frame_delay_us.p90": ("us", 0.25),
}

#: import-only set-up samples taken per workload run, besides one per command.
IMPORT_SAMPLES = 3
#: a command is killed after this many seconds, or 4x its median if less.
TIMEOUT_CAP = 120.0


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summary(values: Sequence[float]) -> Dict[str, object]:
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "samples": list(values)}


def tail_percentile(count: int) -> Optional[float]:
    """The highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    best = None
    for p in (50.0, 90.0, 99.0, 99.9):
        if count * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            best = p
    return best


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile of ``values`` (``0 <= p <= 100``)."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * p / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Step:
    """One CLI command of a repeat and the file it writes."""

    #: "main" (timed as wall_s), "resume" (timed as resume_s) or a probe
    #: role; timeouts follow the earlier durations of the same role.
    role: str
    argv: Tuple[str, ...]
    output: Path


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its commands and how to judge them."""

    name: str
    why: str
    steps: Callable[[int, Path, bool], List[Step]]
    #: operations one step counts for (a sweep counts its specs).
    ops: Callable[[bool], int] = lambda mini: 1
    #: outputs repeat bit for bit for one seed.  The net workload is not
    #: pure: it is judged on its verdict, and its frame delays are read.
    pure: bool = True
    #: traced-run counters that prove the intended engine ran.
    engine: Callable[[bool], Dict[str, float]] = lambda mini: {}
    #: per-layer metrics that must be non-zero on the traced run.
    layers: Tuple[str, ...] = ()
    #: an untimed parity probe: two argv lists whose outputs must match.
    probe: Optional[Callable[[int, Path], Tuple[Step, Step]]] = None


def _replicas(seed: int, count: int) -> Tuple[str, ...]:
    return tuple(str(seed * 1000 + i) for i in range(count))


def _strs(*items) -> Tuple[str, ...]:
    return tuple(str(item) for item in items)


def _audit_run(seed: int, tmp: Path, mini: bool) -> List[Step]:
    n, f, rounds = (7, 2, 4) if mini else (100, 33, 80)
    out = tmp / "run.json"
    return [Step("main", _strs("run", "-n", n, "-f", f, "--rounds", rounds,
                               "--seed", seed, "--json", out), out)]


def _sweep_size(mini: bool):
    return ((7, 8), 3, 2) if mini else ((16, 24, 32, 40), 30, 8)


def _sweep_store(seed: int, tmp: Path, mini: bool) -> List[Step]:
    values, rounds, count = _sweep_size(mini)
    base = _strs("sweep", "--axis", "n", "--values", *values, "--rounds",
                 rounds, "--seed", seed, "--replicate-seeds",
                 *_replicas(seed, count), "--jobs", 2,
                 "--store", tmp / "store.sqlite")
    fresh, resumed = tmp / "fresh.csv", tmp / "resumed.csv"
    return [Step("main", base + _strs("--csv", fresh), fresh),
            Step("resume", base + _strs("--resume", "--csv", resumed),
                 resumed)]


def _sweep_ops(mini: bool) -> int:
    values, _, count = _sweep_size(mini)
    return len(values) * count


def _replicas_size(mini: bool):
    return (7, 4, 4) if mini else (32, 60, 256)


def _replicas_argv(n: int, rounds: int, seeds: Sequence[str],
                   out: Path) -> Tuple[str, ...]:
    return _strs("run", "-n", n, "--rounds", rounds, "--no-trace",
                 "--observe", "skew,validity", "--replicate-seeds", *seeds,
                 "--json", out)


def _replicas_batch(seed: int, tmp: Path, mini: bool) -> List[Step]:
    n, rounds, count = _replicas_size(mini)
    out = tmp / "replicas.json"
    return [Step("main", _replicas_argv(n, rounds, _replicas(seed, count),
                                        out), out)]


def _replicas_probe(seed: int, tmp: Path) -> Tuple[Step, Step]:
    n, rounds, _ = _replicas_size(False)
    seeds = _replicas(seed, 8)
    a, b = tmp / "probe-vector.json", tmp / "probe-serial.json"
    return (Step("probe", _replicas_argv(n, rounds, seeds, a), a),
            Step("probe-reference", _replicas_argv(n, rounds, seeds, b)
                 + ("--no-vectorize",), b))


#: (topology, full n, rounds, event budget) of the two large-n workloads.
_LARGE = {"large_n_dense": ("complete", 1000, 4, 100_000_000),
          "large_n_sparse": ("hierarchy", 2000, 3, 1_000_000_000)}


def _large_argv(name: str, n: int, seed: int, out: Path) -> Tuple[str, ...]:
    topology, _, rounds, budget = _LARGE[name]
    return _strs("run", "--workload", "grid-lan", "--topology", topology,
                 "-n", n, "--rounds", rounds, "--seed", seed, "--no-trace",
                 "--observe", "skew,validity", "--max-events", budget,
                 "--json", out)


def _net_loopback(seed: int, tmp: Path, mini: bool) -> List[Step]:
    n, rounds = (4, 2) if mini else (7, 12)
    out = tmp / "net.json"
    return [Step("main", _strs("net", "run", "--n", n, "--rounds", rounds,
                               "--seed", seed, "--json", out), out)]


_ROUND_ENGINE = ("topology.build_s", "topology.index_s",
                 "topology.index_cache_hits", "sim.roundengine.try_execute_s",
                 "sim.roundengine.run_s", "sim.roundengine.rounds",
                 "runner.spec.execute_s", "runner.spec.calls", "cli.self_s")


def _large_workload(name: str, why: str) -> Workload:
    _, n, rounds, _ = _LARGE[name]

    def steps(seed: int, tmp: Path, mini: bool) -> List[Step]:
        out = tmp / f"{name}.json"
        if mini:  # below n=512 the round engine must be asked for
            return [Step("main", _large_argv(name, 40, seed, out)
                         + ("--round-engine",), out)]
        return [Step("main", _large_argv(name, n, seed, out), out)]

    def probe(seed: int, tmp: Path) -> Tuple[Step, Step]:
        a, b = tmp / "probe-engine.json", tmp / "probe-serial.json"
        return (Step("probe", _large_argv(name, 200, seed, a)
                     + ("--round-engine",), a),
                Step("probe-reference", _large_argv(name, 200, seed, b)
                     + ("--no-round-engine",), b))

    return Workload(
        name, why, steps, probe=probe, layers=_ROUND_ENGINE,
        engine=lambda mini: {"sim.roundengine.rounds": rounds,
                             "sim.roundengine.fallbacks": 0,
                             "sim.roundengine.errors": 0})


WORKLOADS: Dict[str, Workload] = {w.name: w for w in [
    Workload(
        "audit_run",
        "single-process baseline: serial event loop with a full trace, "
        "Theorem 4/16/19 audits and two-faced faults; no engine, pool, "
        "store or socket",
        _audit_run,
        layers=("cli.self_s", "sim.system.run_until_s", "sim.system.events",
                "sim.system.events_per_s", "analysis.verification.check_s",
                "analysis.metrics_s", "runner.spec.execute_s",
                "runner.spec.calls")),
    Workload(
        "sweep_store",
        "study workflow: traced specs in 2 supervised workers, every result "
        "written to the store, then read back by --resume",
        _sweep_store, ops=_sweep_ops,
        layers=("sim.system.run_until_s", "sim.system.events",
                "analysis.metrics_s", "runner.resilient.run_s",
                "runner.resilient.busy_s", "runner.resilient.idle_s",
                "runner.store.put_s", "runner.store.puts",
                "runner.store.bytes", "runner.store.get_s",
                "runner.store.gets", "runner.store.hits")),
    Workload(
        "replicas_batch",
        "replicated estimate on the lockstep batch engine: 256 seeds, no "
        "trace, no topology, no pool",
        _replicas_batch, probe=_replicas_probe,
        engine=lambda mini: {"sim.vectorized.replicas":
                             _replicas_size(mini)[2],
                             "sim.vectorized.fallbacks": 0},
        layers=("cli.self_s", "sim.vectorized.execute_batch_s",
                "sim.vectorized.replicas", "runner.replication.replicate_s")),
    _large_workload(
        "large_n_dense",
        "round engine on a complete graph: building the topology and its "
        "index outweighs the engine"),
    _large_workload(
        "large_n_sparse",
        "round engine on a star-of-stars graph: cheap topology, the CSR "
        "relay kernel dominates"),
    Workload(
        "net_loopback",
        "7 asyncio peers over real TCP: wall time is paced by the round "
        "length, code cost shows up as frame delay",
        _net_loopback, pure=False,
        layers=("net.wire.encode_s", "net.wire.decode_s", "net.wire.frames",
                "net.peer.measure_s", "net.peer.sync_s",
                "net.peer.sync_wait_s", "net.measure.derive_s",
                "net.cluster.audit_s", "runner.spec.execute_s")),
]}


# ---------------------------------------------------------------------------
# one child process
# ---------------------------------------------------------------------------

class ChildProcess:
    """Spawn :mod:`child`, wait for it with a timeout, read its costs."""

    def __init__(self, tmp: Path):
        self.tmp = tmp
        self.env = {key: value for key, value in os.environ.items()
                    if not key.startswith("REPRO_")}
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]]
                                   if os.environ.get("PYTHONPATH") else []))

    def run(self, mode: str, argv: Sequence[str] = (),
            timeout: float = TIMEOUT_CAP, run_label: str = "",
            net_probe: bool = False) -> Dict[str, object]:
        request = self.tmp / "request.json"
        result = self.tmp / "result.json"
        result.unlink(missing_ok=True)
        request.write_text(json.dumps({
            "mode": mode, "argv": list(argv), "result": str(result),
            "run": run_label, "net_probe": net_probe}))
        with open(self.tmp / "stdout.log", "wb") as out, \
                open(self.tmp / "stderr.log", "wb") as err:
            spawned = time.monotonic()
            proc = subprocess.Popen([sys.executable, str(CHILD), str(request)],
                                    cwd=str(ROOT), env=self.env, stdout=out,
                                    stderr=err, start_new_session=True)
            waited: Dict[str, tuple] = {}
            waiter = threading.Thread(
                target=lambda: waited.update(r=os.wait4(proc.pid, 0)))
            waiter.start()
            try:
                waiter.join(timeout)
                timed_out = waiter.is_alive()
            finally:
                # a hung command, an interrupted benchmark, or pool workers
                # a crashed command left behind: none may outlive the call
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                waiter.join()
        _, status, usage = waited["r"]
        proc.returncode = os.waitstatus_to_exitcode(status)
        data: Dict[str, object] = {}
        if result.exists():
            data = json.loads(result.read_text())
        data["timed_out"] = timed_out
        data["exit"] = proc.returncode
        data["stderr"] = (self.tmp / "stderr.log").read_text(errors="replace")
        if "ready" in data:
            data["setup_s"] = float(data["ready"]) - spawned
        if "cpu_start" in data:
            data["cpu_s"] = (usage.ru_utime + usage.ru_stime
                             - float(data["cpu_start"]))
        data["peak_rss_mb"] = usage.ru_maxrss / 1024.0
        return data


def _digest(path: Path) -> Optional[str]:
    if not path.exists():
        return None
    return hashlib.sha256(path.read_bytes()).hexdigest()


_STORE_LINE = re.compile(r"store \S+: (\d+) result\(s\), (\d+) quarantined")


# ---------------------------------------------------------------------------
# one workload, repeated
# ---------------------------------------------------------------------------

@dataclass
class WorkloadRun:
    """Repeats of one workload at one seed, and what they measured."""

    workload: Workload
    seed: int
    tmp: Path
    mini: bool = False
    samples: Dict[str, List[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    reference: Optional[str] = None
    frame_delays_us: List[List[float]] = field(default_factory=list)
    durations: Dict[str, List[float]] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    events: List[dict] = field(default_factory=list)
    traced_commands: int = 0

    def __post_init__(self):
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.child = ChildProcess(self.tmp)

    # -- bookkeeping ----------------------------------------------------------
    def _sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def _fail(self, ops: int, message: str) -> None:
        self.failed += ops
        self.problems.append(f"{self.workload.name}: {message}")

    def _timeout(self, role: str) -> float:
        past = self.durations.get(role)
        if not past:
            return TIMEOUT_CAP
        return min(TIMEOUT_CAP, 4.0 * statistics.median(past))

    def _spawn(self, step: Step, mode: str = "run",
               label: str = "") -> Dict[str, object]:
        step.output.unlink(missing_ok=True)
        started = time.monotonic()
        data = self.child.run(mode, step.argv, timeout=self._timeout(step.role),
                              run_label=label,
                              net_probe=not self.workload.pure)
        self.durations.setdefault(step.role, []).append(
            time.monotonic() - started)
        if "setup_s" in data:
            self._sample("setup_s", float(data["setup_s"]))
        return data

    def _step_failure(self, data: Dict[str, object]) -> Optional[str]:
        if data["timed_out"]:
            return "timed out"
        if data.get("error"):
            return f"raised:\n{data['error']}"
        if data.get("status") != 0 or data["exit"] != 0:
            tail = str(data["stderr"]).strip().splitlines()[-3:]
            return (f"exit status {data.get('status', data['exit'])}: "
                    + " | ".join(tail))
        return None

    # -- the measured operations ----------------------------------------------
    def setup_samples(self, count: int = IMPORT_SAMPLES) -> None:
        """Import-only set-up samples (the first one warms the caches)."""
        if not (ROOT / "src" / "repro" / "__init__.py").is_file():
            raise RuntimeError(f"no repro package under {ROOT / 'src'}")
        for index in range(count + 1):
            data = self.child.run("import")
            if "setup_s" not in data:
                raise RuntimeError(
                    f"cannot import repro.cli from {ROOT / 'src'}:\n"
                    f"{data['stderr']}")
            if index:
                self._sample("setup_s", float(data["setup_s"]))

    def repeat(self, traced: bool = False) -> None:
        """One repeat: every step of the workload, each in a fresh process."""
        steps = self.workload.steps(self.seed, self.tmp, self.mini)
        ops = self.workload.ops(self.mini)
        for path in self.tmp.glob("store.sqlite*"):
            path.unlink()
        label = f"{self.workload.name}-seed{self.seed}"
        for step in steps:
            self.attempted += ops
            data = self._spawn(step, "trace" if traced else "run", label)
            problem = self._step_failure(data)
            if problem is None:
                problem = self._check_output(step, data, steps[0])
            if problem is not None:
                self._fail(ops, f"{step.role} {problem}")
                continue
            if traced:
                for name, value in data["layers"].items():
                    self.layers[name] = self.layers.get(name, 0.0) + value
                # one Chrome-trace process row per traced command
                self.events.extend(dict(event, pid=self.traced_commands)
                                   for event in data["events"])
                self.traced_commands += 1
                self._sample(f"traced_{step.role}_wall_s",
                             float(data["wall_s"]))
                continue
            if step.role == "main":
                for name in ("wall_s", "cpu_s", "peak_rss_mb"):
                    self._sample(name, float(data[name]))
            else:
                self._sample("resume_s", float(data["wall_s"]))
            if data.get("frame_delays_us"):
                self.frame_delays_us.append(data["frame_delays_us"])

    def _check_output(self, step: Step, data: Dict[str, object],
                      fresh: Step) -> Optional[str]:
        digest = _digest(step.output)
        if digest is None:
            return f"wrote no {step.output.name}"
        if not self.workload.pure:
            report = json.loads(step.output.read_text())
            if not report.get("passed"):
                return "net audits did not pass"
            if not data.get("frame_delays_us"):
                return "no sync-frame delays reached the audit"
            return None
        if step.role == "resume":
            if digest != _digest(fresh.output):
                return "resumed CSV differs from the fresh one"
            return self._check_store(data, "resume")
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            return f"{step.output.name} differs from repeat 1's"
        if "--store" in step.argv:
            return self._check_store(data, "fresh")
        return None

    def _check_store(self, data: Dict[str, object], what: str
                     ) -> Optional[str]:
        match = _STORE_LINE.search(str(data["stderr"]))
        expected = self.workload.ops(self.mini)
        if match is None:
            return f"{what} sweep printed no store status"
        results, quarantined = int(match.group(1)), int(match.group(2))
        if results != expected or quarantined:
            return (f"{what} sweep stored {results}/{expected} results, "
                    f"{quarantined} quarantined")
        return None

    def check_engine(self) -> None:
        """After a traced repeat: the intended engine ran, every layer fired."""
        for name, expected in self.workload.engine(self.mini).items():
            if self.layers.get(name) != expected:
                self._fail(0, f"traced {name} = {self.layers.get(name)}, "
                              f"expected {expected}")
        for name in self.workload.layers:
            if not self.layers.get(name):
                self._fail(0, f"traced layer {name} never fired")

    def parity_probe(self) -> None:
        """The untimed engine-parity probe, if this workload has one."""
        if self.workload.probe is None:
            return
        first, second = self.workload.probe(self.seed, self.tmp)
        self.attempted += 1
        digests = []
        for step in (first, second):
            data = self._spawn(step)
            problem = self._step_failure(data)
            if problem is not None:
                self._fail(1, f"parity probe {problem}")
                return
            digests.append(_digest(step.output))
        if digests[0] is None or digests[0] != digests[1]:
            self._fail(1, f"parity probe: {first.output.name} differs "
                          f"from {second.output.name}")

    # -- results ---------------------------------------------------------------
    def metrics(self) -> Dict[str, dict]:
        """Median/quartiles/count of every measured metric."""
        out = {name: summary(values)
               for name, values in self.samples.items()
               if not name.startswith("traced_")}
        if self.frame_delays_us:
            # The percentile of the delays pooled over repeats; its quartiles
            # are those of the per-repeat percentiles (the run-to-run spread).
            pooled = [d for repeat in self.frame_delays_us for d in repeat]
            for p in (50.0, 90.0):
                stat = summary([percentile(repeat, p)
                                for repeat in self.frame_delays_us])
                stat.update(median=percentile(pooled, p), n=len(pooled))
                out[f"frame_delay_us.p{p:g}"] = stat
            out["frame_delay_us.tail"] = {
                "percentile": tail_percentile(len(pooled)), "n": len(pooled)}
        return out

    def trace_overhead(self) -> Optional[float]:
        traced = self.samples.get("traced_main_wall_s")
        if not traced or not self.samples.get("wall_s"):
            return None
        return traced[-1] / statistics.median(self.samples["wall_s"]) - 1.0

    def write_trace(self, directory: Path) -> Path:
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{self.workload.name}.trace.json"
        path.write_text(json.dumps({"traceEvents": self.events,
                                    "displayTimeUnit": "ms"}))
        return path


def clean(tmp: Path) -> None:
    shutil.rmtree(tmp, ignore_errors=True)
