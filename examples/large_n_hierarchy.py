#!/usr/bin/env python3
"""A 10,000-process star-of-stars synchronized by the round kernel.

Real NTP-style deployments synchronize huge leaf populations through a small
core via strata.  This example builds the ``hierarchy`` topology — one core,
~100 mid-tier hubs, ~9,900 leaves, diameter 4 regardless of n — and runs
Welch-Lynch maintenance over it in streaming mode at a size the serial event
loop cannot touch interactively: each round is all-to-all, so two rounds
dispatch ~2·10^8 deliveries.

Two passes make the engineering point:

* a **control slice** (n=400, same workload): the serial loop and the
  round kernel running the spec alone (:mod:`repro.sim.roundengine`) both
  run it, their wall clocks are compared, and the online skew envelope plus
  the full message statistics are asserted *bit-identical* — the kernel's
  contract;
* the **full population** (n=10,000): the kernel only, streamed through
  the online observers at O(n) memory, and judged by
  :func:`repro.analysis.verification.audit` — Theorem 16 against the
  topology-corrected γ' the run's effective parameters carry, and Theorem
  19.

Run with::

    python examples/large_n_hierarchy.py
"""

from __future__ import annotations

import time

from repro import default_parameters
from repro.analysis.verification import audit, format_report
from repro.runner import RunSpec, execute
from repro.sim.roundengine import decline_reason

CONTROL_N = 400
FULL_N = 10_000
ROUNDS = 2


def spec_for(n: int) -> RunSpec:
    params = default_parameters(n=n, f=2)
    return RunSpec.maintenance(
        params, rounds=ROUNDS, fault_kind=None, topology="hierarchy",
        record_trace=False, observers=("skew", "validity"), seed=7,
        max_events=4 * n * n * ROUNDS + 10_000)


def main() -> None:
    reason = decline_reason(spec_for(CONTROL_N))
    if reason is not None:
        print(f"the round kernel declines the spec ({reason}); "
              f"skipping the large-n demonstration")
        return

    print(f"== control slice: n={CONTROL_N} hierarchy, serial vs round "
          f"engine")
    control = spec_for(CONTROL_N)
    start = time.perf_counter()
    serial = execute(control, engine="serial")
    serial_seconds = time.perf_counter() - start
    start = time.perf_counter()
    engine = execute(control, engine="kernel")
    engine_seconds = time.perf_counter() - start

    serial_skew = serial.online("skew").max_skew
    engine_skew = engine.online("skew").max_skew
    assert serial_skew == engine_skew, "online skew diverged from serial"
    assert serial.trace.stats == engine.trace.stats, "stats diverged"
    print(f"   serial {serial_seconds:6.2f}s   engine {engine_seconds:6.2f}s "
          f"({serial_seconds / engine_seconds:.1f}x)   max skew "
          f"{engine_skew:.6f}  — bit-identical")

    print(f"== full population: n={FULL_N} hierarchy, round engine, "
          f"streaming")
    spec = spec_for(FULL_N)
    start = time.perf_counter()
    result = execute(spec, engine="kernel")
    seconds = time.perf_counter() - start
    stats = result.trace.stats
    print(f"   {seconds:.1f}s wall clock, {stats.delivered:,} deliveries "
          f"({stats.delivered / seconds:,.0f}/s), {stats.relayed:,} relayed")
    # result.params carry the topology-effective (delta', epsilon'), so the
    # Theorem 16 row is judged against gamma'.
    report = audit(result)
    print(format_report(report))
    assert report.all_passed


if __name__ == "__main__":
    main()
