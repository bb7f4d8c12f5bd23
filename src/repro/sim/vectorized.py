"""Seed-replica groups on the round kernel: :func:`execute_batch`.

A replica group is the *same* :class:`~repro.runner.spec.RunSpec` under S
different seeds.  Welch–Lynch rounds are globally synchronized by the sync
interval ``P``, so every replica walks the same event skeleton, and the
group runs in lockstep as one :class:`~repro.sim.roundengine.RoundSystem`
whose arrays carry a leading replica axis — the same kernel a lone large-n
run uses with S = 1 (see :mod:`repro.sim.roundengine` for the round and its
bit-identity contract).

The output is always the serial output.  Replicas that leave the kernel's
clean path re-run through the serial :func:`~repro.runner.spec.execute`, and
so does every replica of a group that names a topology, that
:func:`~repro.sim.roundengine.decline_reason` declines, or that the kernel
fails on.  :func:`repro.runner.spec.engine_for` routes groups here.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from .roundengine import RoundSystem, decline_reason

__all__ = ["execute_batch"]


def execute_batch(specs: Sequence[Any]) -> List[Any]:
    """Execute S replicas of one spec (identical modulo seed) in lockstep.

    Returns results aligned with ``specs``; duplicate seeds share one
    replica.  Each replica that re-runs serially — off the clean path, out
    of scope or after an unexpected kernel error — counts as one
    ``runner.vectorized_fallbacks``; a kernel error also counts
    ``runner.vectorized_errors``.  Only the complete graph runs here: specs
    naming a topology re-run serially at any group size.  The counters,
    like every serial re-run, book into the active telemetry bundle
    (:func:`repro.telemetry.get_active`), read once per call.
    """
    from time import perf_counter
    from ..runner.spec import execute

    specs = list(specs)
    if not specs:
        return []
    base = specs[0]
    for spec in specs[1:]:
        if spec.with_seed(base.seed) != base:
            raise ValueError("execute_batch needs specs identical modulo "
                             "seed; got a differing spec")

    # Deduplicate (BatchRunner already does; direct callers may not).
    unique: List[Any] = []
    index: Dict[Any, int] = {}
    for spec in specs:
        if spec not in index:
            index[spec] = len(unique)
            unique.append(spec)
    if base.topology is not None \
            or decline_reason(base, len(unique)) is not None:
        return [execute(spec, engine="serial") for spec in specs]

    start = perf_counter()
    synthesized: List[Any] = [None] * len(unique)
    error = False
    try:
        engine = RoundSystem(base, [spec.seed for spec in unique])
        engine.run()
        if not engine.bad.all():
            synthesized = engine.results(unique, skip=engine.bad.tolist())
    except Exception:
        error = True
    # The kernel's share only: each serial re-run books its own wall time.
    wall = perf_counter() - start
    results: Dict[Any, Any] = {}
    vector_specs = []
    for spec, result in zip(unique, synthesized):
        if result is None:
            results[spec] = execute(spec, engine="serial")
        else:
            results[spec] = result
            vector_specs.append(spec)

    from ..telemetry import build_manifest, get_active
    telemetry = get_active()
    if telemetry is not None:
        registry = telemetry.registry
        registry.counter("runner.vectorized_batches").inc()
        registry.counter("runner.vectorized_replicas").inc(len(vector_specs))
        registry.counter("runner.vectorized_fallbacks").inc(
            len(unique) - len(vector_specs))
        if error:
            registry.counter("runner.vectorized_errors").inc()
        registry.gauge("runner.vector_batch_size").set(len(unique))
        if vector_specs:
            registry.counter("runner.specs_executed").inc(len(vector_specs))
            share = wall / len(vector_specs)
            for spec in vector_specs:
                registry.histogram("runner.spec_wall_seconds").observe(share)
                telemetry.emit_manifest(build_manifest(
                    spec, results[spec], wall_seconds=share))
    return [results[spec] for spec in specs]
