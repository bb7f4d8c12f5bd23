"""Run manifests: one durable JSON line per executed spec.

A manifest line is the audit-trail record of a single ``execute(spec)`` call:
which run it was (stable spec hash, describe string, kind/n/seed/rounds), how
it went (outcome, wall seconds, simulated end time, event and message
counts, peak traced memory), and what the network saw (via
:meth:`~repro.sim.recording.NetworkRecorder.stats` when the spec attached
one).  Sweeps append these lines as cells complete, so a crashed or
budget-killed sweep leaves a greppable record of exactly what ran and where
the time went.  The spec hash is a prefix of the resumable result store's
key (:func:`repro.runner.store.store_key`), so manifest lines and store rows
cross-reference.

The spec hash is ``sha256(repr(spec))`` (truncated) rather than Python's
``hash()``: specs are frozen dataclasses with value-repr semantics, and
sha256 is stable across processes and interpreter invocations, which
``hash()`` (salted per process for strings) is not.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Iterator, List, Optional

__all__ = [
    "spec_hash",
    "build_manifest",
    "append_manifest",
    "read_manifests",
]

#: manifest lines are versioned so the report tool can evolve safely.
MANIFEST_VERSION = 1


def spec_hash(spec: Any) -> str:
    """A short, cross-process-stable content hash of a RunSpec."""
    return hashlib.sha256(repr(spec).encode("utf-8")).hexdigest()[:16]


def build_manifest(spec: Any,
                   result: Any = None,
                   *,
                   outcome: str = "ok",
                   wall_seconds: float = 0.0,
                   peak_memory_bytes: Optional[int] = None,
                   metrics: Optional[Dict[str, Dict[str, Any]]] = None,
                   error: Optional[str] = None) -> Dict[str, Any]:
    """Assemble the manifest record for one executed spec.

    ``result`` is a :class:`~repro.analysis.experiments.ScenarioResult` (or
    ``None`` when the run failed before producing one).  Everything pulled
    out of it is defensive: a manifest must never be the thing that makes a
    run fail.
    """
    record: Dict[str, Any] = {
        "v": MANIFEST_VERSION,
        "spec_hash": spec_hash(spec),
        "spec": spec.describe(),
        "kind": spec.kind,
        "n": spec.params.n,
        "seed": spec.seed,
        "rounds": spec.rounds,
        "outcome": outcome,
        "wall_seconds": round(wall_seconds, 6),
    }
    if error is not None:
        record["error"] = error
    if result is not None:
        trace = getattr(result, "trace", None)
        if trace is not None:
            stats = trace.stats
            record["sim_end_time"] = trace.end_time
            record["events"] = (stats.delivered + stats.timers_fired
                                + spec.params.n)
            record["messages"] = stats.as_dict()
        network = _network_observer(result)
        if network is not None:
            record["network"] = network.stats()
    if peak_memory_bytes is not None:
        record["peak_memory_bytes"] = int(peak_memory_bytes)
    if metrics:
        record["metrics"] = metrics
    return record


def _network_observer(result: Any):
    """The attached NetworkRecorder, if the spec requested one."""
    observers = getattr(result, "observers", None)
    if not observers:
        return None
    recorder = observers.get("network")
    if recorder is not None and hasattr(recorder, "stats"):
        return recorder
    return None


def append_manifest(path: str, record: Dict[str, Any]) -> None:
    """Append one manifest record as a JSON line (creates the file)."""
    with open(path, "a", encoding="utf-8") as handle:
        json.dump(record, handle, sort_keys=True)
        handle.write("\n")


def iter_manifests(path: str) -> Iterator[Dict[str, Any]]:
    """Yield manifest records from a JSON-lines file, skipping blank lines."""
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError as err:
                raise ValueError(
                    f"{path}:{line_number}: not a JSON manifest line "
                    f"({err})") from None


def read_manifests(path: str) -> List[Dict[str, Any]]:
    """All manifest records in the file, in append order."""
    return list(iter_manifests(path))
