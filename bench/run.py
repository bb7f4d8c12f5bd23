"""The repository benchmark: six CLI workloads, end to end and layer by layer.

Two ways to run it, both from the repository root:

* ``python3 bench/run.py [--seed S] [--repeats K] [--trace] [--reverse]``
  runs every workload K times (default 5), round-robin, one process at a
  time; prints each end-to-end metric's median, quartiles and sample count
  with the failed/attempted operation counts, and writes the results to
  ``bench/out/results-seed<S>.json`` (``--out`` to change).  ``--trace``
  adds one traced repeat per workload: a Chrome trace per workload in
  ``bench/out/``, the per-layer table and ``trace.overhead``.
* ``python3 bench/run.py --workload NAME --seed S --seconds T --trace 0|1``
  measures one workload for about T seconds (at least two repeats) and
  prints, as its last line, one JSON object with ``correct``, ``attempted``,
  ``failed`` and the end-to-end metrics (``--trace 1``: the per-layer ones).

Either way the correctness gate runs: every command must exit 0, every
repeat's output must equal the first repeat's, a resumed sweep must write
the fresh sweep's CSV byte for byte, the engine parity probes must match,
and a traced run must show the intended engine engaged.  Any violation
exits 1.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from harness import (E2E, EXTRA, OUT_DIR, ROOT, WORKLOADS, WorkloadRun,
                     clean)
from layers import METRICS

#: repeats per workload before the time budget is consulted.
MIN_REPEATS = 2


def per_layer_metrics() -> List[tuple]:
    """``(name, unit, better)`` of every metric a traced run reports."""
    return (list(METRICS) + [("trace.overhead", "ratio", "lower")]
            + [(name, unit, "lower") for name, (unit, _) in EXTRA.items()])


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _bounds() -> Dict[str, float]:
    bounds = {m["name"]: m["bound"] for m in _spec()["end_to_end"]}
    bounds.update({name: bound for name, (_, bound) in EXTRA.items()})
    return bounds


def _layer_values(run: WorkloadRun) -> Dict[str, float]:
    metrics = run.metrics()
    values = dict(run.layers)
    overhead = run.trace_overhead()
    values["trace.overhead"] = overhead if overhead is not None else 0.0
    for name in EXTRA:
        values[name] = metrics[name]["median"] if name in metrics else 0.0
    return values


# ---------------------------------------------------------------------------
# single-workload mode
# ---------------------------------------------------------------------------

def run_one(name: str, seed: int, seconds: float, traced: bool) -> int:
    run = WorkloadRun(WORKLOADS[name], seed, OUT_DIR / f"tmp-{os.getpid()}")
    try:
        try:
            run.setup_samples()
        except RuntimeError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        run.parity_probe()
        started = time.monotonic()
        took: List[float] = []
        while len(took) < MIN_REPEATS or (
                time.monotonic() - started + statistics.median(took)
                <= seconds):
            begin = time.monotonic()
            run.repeat()
            took.append(time.monotonic() - begin)
        if traced:
            run.repeat(traced=True)
            run.check_engine()
            run.write_trace(OUT_DIR)
    finally:
        clean(run.tmp)
    metrics = run.metrics()
    _print_workload(run, metrics, _bounds())
    if traced:
        values = _layer_values(run)
        out = {name: {"value": values.get(name, 0.0), "unit": unit}
               for name, unit, _ in per_layer_metrics()}
    else:
        out = {name: {"value": metrics[name]["median"], "unit": unit}
               for name, unit in E2E if name in metrics}
    correct = not run.problems
    for problem in run.problems:
        print(f"FAIL {problem}")
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": out}))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# all-workload mode
# ---------------------------------------------------------------------------

def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "-"
    return f"{value:.4g}"


def _print_workload(run: WorkloadRun, metrics: Dict[str, dict],
                    bounds: Dict[str, float]) -> None:
    print(f"== {run.workload.name} (seed {run.seed}): "
          f"{run.failed}/{run.attempted} operations failed")
    units = dict(E2E)
    units.update({name: unit for name, (unit, _) in EXTRA.items()})
    print(f"  {'metric':<20} {'unit':<5} {'median':>10} {'q1':>10} "
          f"{'q3':>10} {'n':>5} {'bound':>6}")
    for name, unit in units.items():
        if name not in metrics:
            continue
        stat = metrics[name]
        print(f"  {name:<20} {unit:<5} {_fmt(stat['median']):>10} "
              f"{_fmt(stat.get('q1')):>10} {_fmt(stat.get('q3')):>10} "
              f"{stat['n']:>5} {bounds.get(name, 0):>6.0%}")
    tail = metrics.get("frame_delay_us.tail")
    if tail:
        print(f"  frame delays: {tail['n']} samples support up to "
              f"p{tail['percentile']:g}")


def _environment() -> Dict[str, object]:
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy,
            "platform": platform.platform(), "git_sha": _git_sha()}


def _git_sha() -> Optional[str]:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_all(seed: int, repeats: int, traced: bool, reverse: bool,
            out: Path) -> int:
    names = list(WORKLOADS)[::-1] if reverse else list(WORKLOADS)
    tmp = OUT_DIR / f"tmp-{os.getpid()}"
    runs = [WorkloadRun(WORKLOADS[name], seed, tmp / name) for name in names]
    started = time.monotonic()
    try:
        try:
            for run in runs:
                run.setup_samples()
        except RuntimeError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        for run in runs:
            run.parity_probe()
        for _ in range(repeats):
            for run in runs:
                run.repeat()
        if traced:
            for run in runs:
                run.repeat(traced=True)
                run.check_engine()
                run.write_trace(OUT_DIR)
    finally:
        clean(tmp)
    bounds = _bounds()
    report = {"env": _environment(), "seed": seed, "repeats": repeats,
              "order": names, "traced": traced,
              "elapsed_s": time.monotonic() - started, "workloads": {}}
    for run in runs:
        metrics = run.metrics()
        _print_workload(run, metrics, bounds)
        entry = {"attempted": run.attempted, "failed": run.failed,
                 "metrics": metrics}
        if traced:
            entry["layers"] = _layer_values(run)
        report["workloads"][run.workload.name] = entry
    if traced:
        _print_layers(runs)
    problems = [problem for run in runs for problem in run.problems]
    report.update(correct=not problems, problems=problems,
                  attempted=sum(run.attempted for run in runs),
                  failed=sum(run.failed for run in runs))
    for problem in problems:
        print(f"FAIL {problem}")
    print(f"{report['failed']}/{report['attempted']} operations failed; "
          f"{report['elapsed_s']:.0f} s")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}")
    return 0 if not problems else 1


def _print_layers(runs: List[WorkloadRun]) -> None:
    print("== per-layer metrics (traced repeat)")
    values = {run.workload.name: _layer_values(run) for run in runs}
    header = "".join(f"{name[:14]:>15}" for name in values)
    print(f"  {'metric':<32} {'unit':<6}{header}")
    for name, unit, _ in per_layer_metrics():
        row = "".join(f"{_fmt(values[w].get(name)):>15}" for w in values)
        print(f"  {name:<32} {unit:<6}{row}")
    for run in runs:
        print(f"  trace: {OUT_DIR / (run.workload.name + '.trace.json')}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="measure one workload (default: all, repeated)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=_spec()["run_seconds"],
                        help="single-workload mode: seconds to measure")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="add a traced repeat")
    parser.add_argument("--repeats", type=int, default=5,
                        help="all-workload mode: repeats per workload")
    parser.add_argument("--reverse", action="store_true",
                        help="all-workload mode: reverse the workload order")
    parser.add_argument("--out", type=Path, default=None,
                        help="all-workload mode: results file")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so the running command is killed and the
    # temporary directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.workload:
        return run_one(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    out = args.out or OUT_DIR / f"results-seed{args.seed}.json"
    return run_all(args.seed, max(1, args.repeats), bool(args.trace),
                   args.reverse, out)


if __name__ == "__main__":
    sys.exit(main())
