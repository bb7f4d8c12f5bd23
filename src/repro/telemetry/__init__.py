"""``repro.telemetry`` — metrics, phase tracing, and run manifests.

The observability layer has three pillars (see each module's docstring):

* :mod:`~repro.telemetry.metrics` — Counter/Gauge/Histogram primitives and a
  mergeable :class:`MetricsRegistry`;
* :mod:`~repro.telemetry.tracing` — nested wall-clock spans with Chrome
  trace-event export;
* :mod:`~repro.telemetry.manifest` — one JSON line per executed spec.

A :class:`Telemetry` object bundles one registry + one tracer + manifest
settings.  There is one way in: the *process-local active telemetry*,
installed for a block with the :func:`activated` context manager and read
with :func:`get_active`.  Every instrumented layer books into it —
``execute``, both kernel entry points, ``BatchRunner``, its pool (read once,
as a batch starts), the store, the topology index, the net peers and each
``System`` (read once, when built) — so one bundle sees a whole run::

    with activated(Telemetry()) as telemetry:
        execute(spec)

A batch runs each spec under a run-local bundle, in-process or in a pool
worker, and merges that bundle's metrics snapshot and manifest lines into
the active one as the result arrives; that is the only merge.

Instrumented code never requires a bundle: with none active the disabled
path is a single ``is None`` check, so default behaviour stays bit-identical
to an uninstrumented build.  Phase marks use the module-level :func:`span`
helper, which is a no-op when nothing is active::

    with span("certify:audit", chain=chain_id):
        ...
"""

from __future__ import annotations

import tracemalloc
from contextlib import contextmanager, nullcontext
from typing import Any, Dict, Iterator, List, Optional

from .manifest import (append_manifest, build_manifest, read_manifests,
                       spec_hash)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .tracing import SpanRecord, Tracer

__all__ = [
    "Telemetry",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Tracer",
    "SpanRecord",
    "spec_hash",
    "build_manifest",
    "append_manifest",
    "read_manifests",
    "get_active",
    "activated",
    "span",
]


class Telemetry:
    """One run's observability bundle: registry + tracer + manifest sink.

    ``manifest_path`` (optional) is where :func:`repro.runner.spec.execute`
    appends a JSON line per run; emitted records are also kept in
    :attr:`manifests` so callers without a file still see them.
    ``track_memory`` turns on :mod:`tracemalloc` around each executed spec —
    accurate peak-allocation numbers at roughly 2x runtime, so it is opt-in.
    """

    def __init__(self, manifest_path: Optional[str] = None,
                 track_memory: bool = False):
        self.registry = MetricsRegistry()
        self.tracer = Tracer()
        self.manifest_path = manifest_path
        self.track_memory = track_memory
        self.manifests: List[Dict[str, Any]] = []

    def span(self, name: str, **args: Any):
        return self.tracer.span(name, **args)

    def emit_manifest(self, record: Dict[str, Any]) -> None:
        """Record (and, when configured, persist) one manifest line."""
        self.manifests.append(record)
        if self.manifest_path:
            append_manifest(self.manifest_path, record)

    @contextmanager
    def memory_probe(self) -> Iterator[Dict[str, Optional[int]]]:
        """Measure peak allocation across the block (no-op unless enabled).

        Yields a dict whose ``"peak"`` entry is filled in on exit.  When an
        outer caller already has tracemalloc running, the probe reads peaks
        without stopping it.
        """
        probe: Dict[str, Optional[int]] = {"peak": None}
        if not self.track_memory:
            yield probe
            return
        owner = not tracemalloc.is_tracing()
        if owner:
            tracemalloc.start()
        else:
            tracemalloc.reset_peak()
        try:
            yield probe
        finally:
            _, peak = tracemalloc.get_traced_memory()
            probe["peak"] = peak
            if owner:
                tracemalloc.stop()


#: the process-local active telemetry (None = observability fully disabled).
_ACTIVE: Optional[Telemetry] = None


def get_active() -> Optional[Telemetry]:
    """The currently installed process-local telemetry, if any."""
    return _ACTIVE


@contextmanager
def activated(telemetry: Optional[Telemetry]) -> Iterator[Optional[Telemetry]]:
    """Scope an active telemetry to a block, restoring the previous one."""
    global _ACTIVE
    previous, _ACTIVE = _ACTIVE, telemetry
    try:
        yield telemetry
    finally:
        _ACTIVE = previous


def span(name: str, **args: Any):
    """A span on the active telemetry, or a free no-op when none is active."""
    active = _ACTIVE
    if active is None:
        return nullcontext()
    return active.tracer.span(name, **args)
