#!/usr/bin/env python3
"""Vectorized replication: a 1000-replica tightness estimate, timed both ways.

How tight is the Welch-Lynch agreement bound γ in practice?  One seed gives
one draw of the adversary; a *distributional* answer needs many independent
replicas.  This example drives a 1000-seed replication of the maintenance
algorithm under two-faced Byzantine attackers through
:func:`repro.runner.replicate` twice:

* once with the round kernel running the replicas in lockstep
  (:mod:`repro.sim.vectorized`) — the default (``engine="auto"``) for
  replicated streaming groups the kernel accepts;
* once on a runner with ``engine="serial"``, so every replica walks the
  serial event loop.

Both passes return bit-identical summaries (the kernel's contract); the point
of running both is the wall-clock ratio printed at the end.  The measured
agreement envelope is then placed between the paper's two bounds: the
ε(1 − 1/n) lower bound no algorithm can beat (Theorem 21) and the γ upper
bound the algorithm guarantees (Theorem 16).

Run with::

    python examples/replicated_sweep_vectorized.py
"""

from __future__ import annotations

import time

from repro import default_parameters
from repro.core.bounds import agreement_bound, lower_bound
from repro.runner import BatchRunner, RunSpec, replicate
from repro.sim.roundengine import decline_reason

REPLICAS = 1000


def main() -> None:
    params = default_parameters(n=7, f=2)
    spec = RunSpec.maintenance(params, rounds=5, fault_kind="two_faced",
                               record_trace=False,
                               observers=("skew", "validity"))
    seeds = list(range(REPLICAS))

    print(f"replicating n={params.n} f={params.f} rounds=5 two-faced "
          f"maintenance over {REPLICAS} seeds")
    reason = decline_reason(spec, len(seeds))
    if reason is not None:
        print(f"note: the round kernel declines the group ({reason}) — both "
              f"passes run the serial loop")

    begin = time.perf_counter()
    fast = replicate(spec, seeds)
    vector_seconds = time.perf_counter() - begin

    begin = time.perf_counter()
    slow = replicate(spec, seeds, runner=BatchRunner(engine="serial"))
    serial_seconds = time.perf_counter() - begin

    if fast.agreement_values != slow.agreement_values:
        raise AssertionError("vectorized replication diverged from serial")
    print(f"bit-identity check: all {REPLICAS} agreement values match")
    print(f"serial     {serial_seconds:8.3f} s")
    print(f"vectorized {vector_seconds:8.3f} s   "
          f"({serial_seconds / vector_seconds:.1f}x)")
    print()

    stats = fast.agreement
    lower = lower_bound(params)
    gamma = agreement_bound(params)
    print(f"agreement over {REPLICAS} replicas: mean={stats.mean:.6f} "
          f"ci95=[{stats.ci95_low:.6f}, {stats.ci95_high:.6f}] "
          f"worst={stats.maximum:.6f}")
    print(f"lower bound eps(1-1/n) = {lower:.6f}  <=  worst "
          f"{stats.maximum:.6f}  <=  gamma = {gamma:.6f}")
    print(f"the worst replica uses {stats.maximum / gamma:.0%} of gamma and "
          f"sits {stats.maximum / lower:.1f}x above the information-theoretic "
          f"floor")
    print(f"validity: "
          f"{'no replica violated' if slow.validity_values == fast.validity_values and max(fast.validity_values) == 0.0 else 'VIOLATIONS SEEN'}")


if __name__ == "__main__":
    main()
