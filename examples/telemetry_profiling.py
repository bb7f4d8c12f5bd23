"""Telemetry profiling: metrics, phase spans and run manifests for one run.

Observability for simulation campaigns: where does the wall-clock go, how
many events were dispatched, what did the network do — without adding a
single RNG draw to the run (instrumented results are bit-identical to plain
ones).  This example:

1. streams an n = 100 maintenance run under an active telemetry bundle
   (the one way in, ``activated``): the metric registry counts
   events/messages/timers, spans time each phase, and one manifest line
   records the run;
2. prints the registry and the span tree, and writes the spans as Chrome
   trace-event JSON into a temporary directory the example removes (load
   such a file in chrome://tracing or https://ui.perfetto.dev);
3. shows the per-run metric delta a manifest embeds, and that disabling
   telemetry (the default) reproduces the identical simulation.

Run with:  PYTHONPATH=src python examples/telemetry_profiling.py
"""

import json
import os
import tempfile

from repro.analysis import default_parameters
from repro.runner import RunSpec, execute
from repro.telemetry import Telemetry, activated, read_manifests

params = default_parameters(n=100, f=2)
spec = RunSpec.maintenance(params, rounds=10, fault_kind="silent", seed=11,
                           record_trace=False,
                           observers=("skew", "validity", "network"))

# -- 1. one instrumented streaming run ----------------------------------------
# Both files live in a temporary directory removed at the end; for a trace
# worth keeping, run `python -m repro run --trace-out FILE`.
with tempfile.TemporaryDirectory() as workdir:
    manifest_path = os.path.join(workdir, "manifest.jsonl")
    telemetry = Telemetry(manifest_path=manifest_path)
    with activated(telemetry):
        result = execute(spec)

    registry = telemetry.registry
    print(f"instrumented run: n={params.n}, "
          f"{registry.value('sim.events_dispatched'):.0f} events dispatched, "
          f"{registry.value('sim.messages_sent'):.0f} messages sent")
    print()
    print(registry.format())

    # -- 2. spans: terminal tree + Chrome trace --------------------------------
    print()
    print(telemetry.tracer.tree())
    trace_path = os.path.join(workdir, "trace.json")
    telemetry.tracer.write_chrome_trace(trace_path)
    with open(trace_path) as handle:
        events = json.load(handle)["traceEvents"]
    print(f"\nwrote {len(events)} span events to a Chrome trace "
          f"(open in chrome://tracing or ui.perfetto.dev)")

    # -- 3. the manifest line and bit-identity ---------------------------------
    (record,) = read_manifests(manifest_path)
print(f"\nmanifest: spec {record['spec']} hash {record['spec_hash']} "
      f"outcome {record['outcome']} wall {record['wall_seconds']}s")
print(f"manifest network stats: {record['network']}")
assert record["metrics"]["sim.events_dispatched"]["value"] == \
    registry.value("sim.events_dispatched")

plain = execute(spec)  # no bundle active, the default: zero instrumentation
same = (plain.online("skew").max_skew == result.online("skew").max_skew
        and plain.trace.stats.sent == result.trace.stats.sent)
print(f"\nplain run bit-identical to instrumented run: {same}")
assert same
print("for a trace worth keeping: python -m repro run --trace-out FILE")
