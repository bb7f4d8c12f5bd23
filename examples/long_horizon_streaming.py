"""Long-horizon streaming: online metrics, bounded memory, checkpoint/resume.

The Lundelius-Lynch bound is a steady-state guarantee, so the interesting
regime is *many* resynchronization rounds under drift.  Recording a full
execution trace caps how far a run can go; the streaming observer pipeline
removes the cap:

1. run 60 rounds at n = 40 with ``record_trace=False`` — no event log, bounded
   correction histories, metrics computed online in O(n) memory;
2. judge the online skew/validity numbers against the paper bounds with
   :func:`repro.analysis.verification.audit`;
3. split the same run with periodic snapshot/restore checkpoints and show the
   result is bit-identical to the unsegmented run.

Run with:  PYTHONPATH=src python examples/long_horizon_streaming.py
"""

from repro.analysis import default_parameters
from repro.analysis.verification import audit, format_report
from repro.runner import RunSpec, execute

params = default_parameters(n=40, f=2)
rounds = 60

# -- 1. stream a long horizon ------------------------------------------------
spec = RunSpec.maintenance(params, rounds=rounds, fault_kind="silent",
                           seed=11, record_trace=False,
                           observers=("skew", "validity", "network"))
result = execute(spec)

stats = result.trace.stats
print(f"streamed {rounds} rounds at n={params.n}: "
      f"{stats.delivered} messages delivered, "
      f"{len(result.trace.events)} trace events retained (none, by design)")

# -- 2. online metrics vs the paper bounds ------------------------------------
# A streamed result carries no trace, so audit() reads the Theorem 16/19 rows
# from the skew and validity observers.
report = audit(result)
print(format_report(report))
skew = result.online("skew")
validity = result.online("validity").report()
network = result.online("network")
print(f"network observer saw {len(network.records)} end-to-end sends "
      f"({stats.dropped} dropped)")
assert report.all_passed

# -- 3. checkpointed run is bit-identical -------------------------------------
checkpointed = execute(spec.replace(checkpoint_every=2.0))
print(f"checkpointed run: {checkpointed.checkpoints} snapshot/restore round "
      f"trips")
same = (checkpointed.online("skew").max_skew == skew.max_skew
        and checkpointed.online("validity").report() == validity)
print(f"bit-identical to the unsegmented run: {same}")
assert same
