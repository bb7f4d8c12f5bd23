#!/usr/bin/env python3
"""Crash-safe sweeps: durable results, supervised workers, chaos, resume.

Long parameter sweeps die to preemptions, OOM kills and flaky specs.  The
resilience layer makes them restartable instead of rerunnable: every
completed spec is committed to a content-addressed sqlite store the moment
it arrives, workers run under a supervisor that respawns crashes and retries
failures with backoff, and a poison spec is quarantined (with its traceback)
rather than taking the sweep down.  This example uses the deterministic
chaos harness to stage the failures on purpose:

* a sweep is interrupted midway — exactly what a SIGKILL leaves behind —
  then resumed to a result bit-identical to an uninterrupted run;
* a worker is SIGKILLed and an injected exception forces a retry, both
  invisible in the final table but visible in the telemetry counters;
* a spec that fails every attempt is quarantined and reported, while the
  rest of the sweep completes.

The CLI equivalents are ``repro sweep --store results.sqlite`` (persist),
``--resume`` (skip stored specs) and ``repro store status`` (inspect).

Run with::

    python examples/resilient_sweep.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.analysis.sweeps import sweep_epsilon
from repro.runner import (
    ChaosFault,
    ChaosSchedule,
    ResilientRunner,
    ResultStore,
    SweepInterrupted,
)
from repro.telemetry import Telemetry

EPSILONS = [0.001, 0.002, 0.003, 0.004]

#: near-instant backoff so the staged retries do not slow the example down.
FAST = dict(max_retries=2, backoff_base=0.01, backoff_cap=0.05)


def epsilon_sweep(runner=None):
    return sweep_epsilon(EPSILONS, n=4, f=1, rounds=3, runner=runner)


def interrupted_then_resumed(store_path: Path) -> None:
    print("== interrupt midway, then resume ==")
    # Chaos stages the outage: the worker on spec 0 is SIGKILLed once (the
    # supervisor respawns it and retries), and the sweep is cut down right
    # before spec 3 is dispatched.
    chaos = ChaosSchedule(faults=(ChaosFault(0, "kill", attempts=1),
                                  ChaosFault(3, "interrupt", attempts=1)))
    telemetry = Telemetry()
    runner = ResilientRunner(jobs=1, cache=False, store=store_path,
                             chaos=chaos, telemetry=telemetry, **FAST)
    try:
        epsilon_sweep(runner=runner)
    except SweepInterrupted as exc:
        print(f"sweep died: {exc}")
    counters = telemetry.registry.snapshot()
    crashes = counters["resilient.crashes"]["value"]
    with ResultStore(store_path) as store:
        print(f"store kept {len(store)} finished specs "
              f"({crashes:.0f} worker crash survived)")

    # Resume: stored specs are served bit-identically, only the missing
    # ones execute.  The table equals an uninterrupted run's.
    resumed = ResilientRunner(jobs=1, cache=False, store=store_path,
                              resume=True, **FAST)
    recovered = epsilon_sweep(runner=resumed)
    clean = epsilon_sweep()
    identical = recovered.rows() == clean.rows()
    print(f"resumed sweep bit-identical to uninterrupted run: {identical}")
    assert identical
    print()


def poison_spec_is_quarantined() -> None:
    print("== a poison spec quarantines; the sweep completes ==")
    telemetry = Telemetry()
    runner = ResilientRunner(
        jobs=1, cache=False, telemetry=telemetry, max_retries=1,
        backoff_base=0.01,
        chaos=ChaosSchedule.single(1, "raise", attempts=10))
    table = epsilon_sweep(runner=runner)
    counters = telemetry.registry.snapshot()
    print(f"retries: {counters['resilient.retries']['value']:.0f}, "
          f"quarantined: {counters['resilient.quarantined']['value']:.0f}")
    for point, epsilon in zip(table.points, EPSILONS):
        outcome = ("FAILED after retries exhausted"
                   if "failed_runs" in point.outputs else
                   f"agreement {point.outputs['agreement']:.6f}")
        print(f"  epsilon={epsilon}: {outcome}")
    print()


def store_introspection(store_path: Path) -> None:
    print("== the durable store is inspectable ==")
    with ResultStore(store_path) as store:
        status = store.status()
        print(f"schema v{status['schema_version']}, "
              f"{status['results']} results "
              f"({status['size_bytes']:,} bytes), "
              f"{status['quarantined']} quarantined, "
              f"by kind: {status['by_kind']}")
        removed = store.gc(older_than=3600.0, vacuum=False)
        print(f"gc(older_than=1h) removed {removed['removed_results']} "
              f"results (everything is fresh)")


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-resilient-") as scratch:
        store_path = Path(scratch) / "sweep.sqlite"
        interrupted_then_resumed(store_path)
        poison_spec_is_quarantined()
        store_introspection(store_path)


if __name__ == "__main__":
    main()
