"""The layer boundaries the traced run wraps, and the per-layer metrics.

The traced run records spans from the benchmark's own files: before the
command starts, :func:`install` replaces each public function at a layer
boundary with a wrapper that opens a span around the call.  A function is
replaced under every name a ``repro`` module holds it by, because callers
look it up there (``repro.cli`` calls its own ``build_topology`` binding,
``repro.net.peer`` its own ``encode_message``).  Nothing per-event is
wrapped: the simulator's event loop and the engines' inner kernels run
untouched.

Pool workers are forked from the traced process, so they inherit the
wrappers.  Their spans never reach the parent's recorder; instead each one
is added to the worker's run-local telemetry registry, which the program
already ships back to the parent and merges (see :func:`forward_to`).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pickle
import sys
import types
from typing import Any, Callable, Dict, List, Optional, Tuple

from spans import Recorder

__all__ = ["TARGETS", "CAPTURES", "METRICS", "install", "forward_to",
           "layer_metrics"]

#: ``(span name, "module:attribute path", modules that keep the original)``.
#: ``analysis.metrics`` is skipped inside the verification module so that
#: it counts only the metric calls made outside the audit.
TARGETS: List[Tuple[str, str, Tuple[str, ...]]] = [
    ("topology.build", "repro.topology.spec:build_topology", ()),
    ("topology.index", "repro.topology.index:topology_index", ()),
    ("sim.system.run_until", "repro.sim.system:System.run_until", ()),
    ("sim.vectorized.execute_batch", "repro.sim.vectorized:execute_batch", ()),
    ("sim.roundengine.try_execute", "repro.sim.roundengine:try_execute", ()),
    ("sim.roundengine.run", "repro.sim.roundengine:RoundSystem.run", ()),
    ("analysis.verification.check",
     "repro.analysis.verification:check_maintenance_run", ()),
    ("analysis.metrics", "repro.analysis.metrics:measured_agreement",
     ("repro.analysis.verification",)),
    ("analysis.metrics", "repro.analysis.metrics:skew_series",
     ("repro.analysis.verification",)),
    ("analysis.metrics", "repro.analysis.metrics:validity_report",
     ("repro.analysis.verification",)),
    ("runner.spec.execute", "repro.runner.spec:execute", ()),
    ("runner.replication.replicate", "repro.runner.replication:replicate", ()),
    ("runner.resilient.run", "repro.runner.resilient:SupervisedPool.run", ()),
    ("runner.store.put", "repro.runner.store:ResultStore.put", ()),
    ("runner.store.get", "repro.runner.store:ResultStore.get", ()),
    ("net.wire.encode", "repro.net.wire:encode_message", ()),
    ("net.wire.frame", "repro.net.wire:pack_frame", ()),
    ("net.wire.decode", "repro.net.wire:decode_message", ()),
    # read_frame mixes waiting on the socket with parsing; only the parse
    # (the json module as repro.net.wire sees it) is wire cost.
    ("net.wire.parse", "repro.net.wire:json.loads", ()),
    ("net.peer.measure", "repro.net.peer:NetPeer.measure", ()),
    ("net.peer.sync", "repro.net.peer:NetPeer.run_sync", ()),
    ("net.measure.derive",
     "repro.net.measure:MeasuredEnvelope.derive_parameters", ()),
    ("net.cluster.audit", "repro.sim.recording:envelope_violations", ()),
]


def _note_pool(notes: Dict[str, Any], pool, *_args, **_kwargs) -> None:
    notes["pool_jobs"] = max(notes.get("pool_jobs", 0), pool.jobs)


def _note_put(notes: Dict[str, Any], _store, _spec, result) -> None:
    notes["store_bytes"] = notes.get("store_bytes", 0) + len(
        pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL))


def _note_pings(notes: Dict[str, Any], envelope, *_args, **_kwargs) -> None:
    notes["ping_records"] = len(envelope)


def _note_delays(notes: Dict[str, Any], records, *_args, **_kwargs) -> None:
    # The audit's evidence is the ping records followed by the sync frames.
    sync = records[notes.get("ping_records", 0):]
    notes["frame_delays_us"] = [record.delay * 1e6 for record in sync]


#: argument probes run before a wrapped call (outside its span).  The two
#: net probes also run on untraced repeats: they read the one-way frame
#: delays from the single audit call per run, with no per-frame hook.
CAPTURES: Dict[str, Callable[..., None]] = {
    "repro.runner.resilient:SupervisedPool.run": _note_pool,
    "repro.runner.store:ResultStore.put": _note_put,
    "repro.net.measure:MeasuredEnvelope.derive_parameters": _note_pings,
    "repro.sim.recording:envelope_violations": _note_delays,
}
NET_CAPTURES = ("repro.net.measure:MeasuredEnvelope.derive_parameters",
                "repro.sim.recording:envelope_violations")


def _wrap(fn: Callable, name: str, recorder: Optional[Recorder],
          capture: Optional[Callable], notes: Dict[str, Any]) -> Callable:
    def before(args, kwargs):
        if capture is not None:
            capture(notes, *args, **kwargs)

    if recorder is None:
        @functools.wraps(fn)
        def probe(*args, **kwargs):
            before(args, kwargs)
            return fn(*args, **kwargs)
        return probe

    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def async_span(*args, **kwargs):
            before(args, kwargs)
            span, token = recorder.open(name)
            try:
                return await fn(*args, **kwargs)
            finally:
                recorder.close(span, token)
        return async_span

    if inspect.isgeneratorfunction(fn):
        # A generator's consumer runs between its yields, so the span covers
        # the generator's lifetime without becoming the consumer's parent.
        @functools.wraps(fn)
        def generator_span(*args, **kwargs):
            before(args, kwargs)
            span, _ = recorder.open(name, current=False)
            try:
                return (yield from fn(*args, **kwargs))
            finally:
                recorder.close(span, None)
        return generator_span

    @functools.wraps(fn)
    def sync_span(*args, **kwargs):
        before(args, kwargs)
        span, token = recorder.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.close(span, token)
    return sync_span


def _replace(target: str, wrap: Callable[[Callable], Callable],
             skip: Tuple[str, ...]) -> None:
    module_name, path = target.split(":")
    holder: Any = None
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        holder, owner = owner, getattr(owner, part)
    original = getattr(owner, attr)
    wrapper = wrap(original)
    if isinstance(owner, type):
        setattr(owner, attr, wrapper)
    elif isinstance(owner, types.ModuleType) and parents:
        # A stdlib module seen through one repro module: give that module a
        # private copy whose attribute is wrapped.
        copy = types.ModuleType(owner.__name__)
        copy.__dict__.update(vars(owner))
        setattr(copy, attr, wrapper)
        setattr(holder, parents[-1], copy)
    else:
        for name, module in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")) \
                    or name in skip or module is None:
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


#: modules whose bindings must exist before the scan replaces them.
_PRELOAD = ("repro.cli", "repro.analysis.sweeps", "repro.runner",
            "repro.sim.roundengine", "repro.sim.vectorized", "repro.net.cluster")


def install(recorder: Optional[Recorder], notes: Dict[str, Any]) -> None:
    """Wrap every layer boundary (``recorder=None``: the net probes only)."""
    for module in _PRELOAD:
        importlib.import_module(module)
    if recorder is None:
        chosen = [(None, target, ()) for target in NET_CAPTURES]
    else:
        chosen = TARGETS
    for name, target, skip in chosen:
        capture = CAPTURES.get(target)
        _replace(target, lambda fn: _wrap(fn, name, recorder, capture, notes),
                 skip)


def forward_to(get_active: Callable[[], Any]) -> Callable[[str, float], None]:
    """A span sink that books worker spans into the active telemetry."""
    def forward(name: str, self_s: float) -> None:
        telemetry = get_active()
        if telemetry is not None:
            telemetry.registry.counter(f"bench.{name}.self_s").inc(self_s)
            telemetry.registry.counter(f"bench.{name}.calls").inc()
    return forward


#: ``(metric, unit, better)`` for every per-layer metric, in report order.
METRICS: List[Tuple[str, str, str]] = [
    ("cli.self_s", "s", "lower"),
    ("topology.build_s", "s", "lower"),
    ("topology.index_s", "s", "lower"),
    ("topology.index_cache_hits", "count", "higher"),
    ("sim.system.run_until_s", "s", "lower"),
    ("sim.system.events", "count", "lower"),
    ("sim.system.events_per_s", "1/s", "higher"),
    ("sim.vectorized.execute_batch_s", "s", "lower"),
    ("sim.vectorized.replicas", "count", "higher"),
    ("sim.vectorized.fallbacks", "count", "lower"),
    ("sim.roundengine.try_execute_s", "s", "lower"),
    ("sim.roundengine.run_s", "s", "lower"),
    ("sim.roundengine.rounds", "count", "higher"),
    ("sim.roundengine.fallbacks", "count", "lower"),
    ("sim.roundengine.errors", "count", "lower"),
    ("analysis.verification.check_s", "s", "lower"),
    ("analysis.metrics_s", "s", "lower"),
    ("runner.spec.execute_s", "s", "lower"),
    ("runner.spec.calls", "count", "lower"),
    ("runner.replication.replicate_s", "s", "lower"),
    ("runner.resilient.run_s", "s", "lower"),
    ("runner.resilient.busy_s", "s", "lower"),
    ("runner.resilient.idle_s", "s", "lower"),
    ("runner.resilient.retries", "count", "lower"),
    ("runner.resilient.crashes", "count", "lower"),
    ("runner.resilient.timeouts", "count", "lower"),
    ("runner.resilient.quarantined", "count", "lower"),
    ("runner.store.put_s", "s", "lower"),
    ("runner.store.puts", "count", "lower"),
    ("runner.store.bytes", "bytes", "lower"),
    ("runner.store.get_s", "s", "lower"),
    ("runner.store.gets", "count", "lower"),
    ("runner.store.hits", "count", "higher"),
    ("net.wire.encode_s", "s", "lower"),
    ("net.wire.decode_s", "s", "lower"),
    ("net.wire.frames", "count", "lower"),
    ("net.peer.measure_s", "s", "lower"),
    ("net.peer.sync_s", "s", "lower"),
    ("net.peer.sync_wait_s", "s", "lower"),
    ("net.measure.derive_s", "s", "lower"),
    ("net.cluster.audit_s", "s", "lower"),
    ("net.a3_violations", "count", "lower"),
]

#: telemetry counters and gauges the program already keeps.
_REGISTRY = {
    "topology.index_cache_hits": "topology.index_cache_hits",
    "sim.system.events": "sim.events_dispatched",
    "sim.vectorized.replicas": "runner.vectorized_replicas",
    "sim.vectorized.fallbacks": "runner.vectorized_fallbacks",
    "sim.roundengine.rounds": "roundengine.rounds",
    "sim.roundengine.fallbacks": "roundengine.fallbacks",
    "sim.roundengine.errors": "roundengine.errors",
    "runner.resilient.retries": "resilient.retries",
    "runner.resilient.crashes": "resilient.crashes",
    "runner.resilient.timeouts": "resilient.timeouts",
    "runner.resilient.quarantined": "resilient.quarantined",
    "runner.store.hits": "resilient.store.hits",
    "net.a3_violations": "net.a3_violations",
}


def layer_metrics(recorder: Recorder, telemetry: Any,
                  notes: Dict[str, Any]) -> Dict[str, float]:
    """Every per-layer metric of one traced process (0 where not reached)."""
    totals = recorder.totals()
    registry = telemetry.registry

    def seconds(name: str) -> float:
        return totals.get(name, (0, 0.0))[1] \
            + registry.value(f"bench.{name}.self_s")

    def calls(name: str) -> float:
        return totals.get(name, (0, 0.0))[0] \
            + registry.value(f"bench.{name}.calls")

    out = {metric: float(registry.value(source))
           for metric, source in _REGISTRY.items()}
    out["cli.self_s"] = seconds("cli")
    for name in ("topology.build", "topology.index", "sim.system.run_until",
                 "sim.vectorized.execute_batch", "sim.roundengine.try_execute",
                 "sim.roundengine.run", "analysis.verification.check",
                 "analysis.metrics", "runner.spec.execute",
                 "runner.replication.replicate", "runner.resilient.run",
                 "runner.store.put", "runner.store.get", "net.measure.derive",
                 "net.cluster.audit"):
        out[f"{name}_s"] = seconds(name)
    run_until = out["sim.system.run_until_s"]
    out["sim.system.events_per_s"] = (out["sim.system.events"] / run_until
                                      if run_until > 0 else 0.0)
    out["runner.spec.calls"] = calls("runner.spec.execute")
    if "pool_jobs" in notes:
        busy = sum(record.get("wall_seconds", 0.0)
                   for record in telemetry.manifests)
        out["runner.resilient.busy_s"] = busy
        out["runner.resilient.idle_s"] = (notes["pool_jobs"]
                                          * out["runner.resilient.run_s"] - busy)
    else:
        out["runner.resilient.busy_s"] = out["runner.resilient.idle_s"] = 0.0
    out["runner.store.puts"] = calls("runner.store.put")
    out["runner.store.gets"] = calls("runner.store.get")
    out["runner.store.bytes"] = float(notes.get("store_bytes", 0))
    out["net.wire.encode_s"] = seconds("net.wire.encode") \
        + seconds("net.wire.frame")
    out["net.wire.decode_s"] = seconds("net.wire.decode") \
        + seconds("net.wire.parse")
    out["net.wire.frames"] = calls("net.wire.frame")
    # Peers run concurrently: a phase's time is the wall its spans cover.
    out["net.peer.measure_s"] = recorder.union("net.peer.measure")
    out["net.peer.sync_s"] = recorder.union("net.peer.sync")
    out["net.peer.sync_wait_s"] = max(0.0, out["net.peer.sync_s"]
                                      - out["net.wire.encode_s"]
                                      - out["net.wire.decode_s"])
    return {metric: out[metric] for metric, _, _ in METRICS}
