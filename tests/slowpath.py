"""Frozen seed-semantics reference implementations of the hot metrics.

The simulator and metrics engine carry a *bit-identical* guarantee: every
fast-path rewrite (indexed correction lookup, merged grid sweeps, optional
numpy vectorization) must produce exactly the same floats as the original
seed implementation.  This module preserves those original implementations —
one straight-line function per hot path, kept deliberately naive — so that
the determinism tests can run both paths on the same trace and assert float
equality (``tests/integration/test_fastpath_determinism.py`` and the
hypothesis suites under ``tests/property/``).

Nothing here is used by the production pipeline; do not "optimize" these
functions — their slowness is the point.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Sequence, Tuple

from repro.analysis.metrics import ValidityReport, sample_grid
from repro.clocks.logical import CorrectionHistory
from repro.core.bounds import validity_envelope
from repro.core.config import SyncParameters
from repro.sim.trace import ExecutionTrace

__all__ = [
    "seed_correction_at",
    "seed_local_time",
    "seed_local_times",
    "seed_skew",
    "seed_skew_series",
    "seed_max_skew",
    "seed_measured_agreement",
    "seed_validity_report",
    "seed_per_partition_agreement",
]


def seed_correction_at(history: CorrectionHistory, real_time: float) -> float:
    """CORR_p(t) exactly as the seed computed it (list rebuild + bisect).

    It models untrimmed histories only: before the first retained
    breakpoint of a bounded (trimmed) history it answers the initial CORR,
    where ``correction_at`` answers the trim horizon.  Bounded histories
    are checked against their traced twins instead
    (``tests/property/test_roundengine_parity.py::TestTrimmedHistories``).
    """
    events = history.events
    times = [e.real_time for e in events]
    index = bisect.bisect_right(times, real_time) - 1
    index = max(index, 0)
    return events[index].new_correction


def seed_local_time(trace: ExecutionTrace, process_id: int,
                    real_time: float) -> float:
    """``L_p(t) = Ph_p(t) + CORR_p(t)`` via a per-call view, as in the seed."""
    view = trace.view(process_id)
    return (view.physical_clock.read(real_time)
            + seed_correction_at(view.history, real_time))


def _all_ids(trace: ExecutionTrace) -> List[int]:
    return sorted(set(trace.nonfaulty_ids) | set(trace.faulty_ids))


def seed_local_times(trace: ExecutionTrace, real_time: float,
                     include_faulty: bool = False) -> Dict[int, float]:
    ids = _all_ids(trace) if include_faulty else trace.nonfaulty_ids
    return {pid: seed_local_time(trace, pid, real_time) for pid in ids}


def seed_skew(trace: ExecutionTrace, real_time: float) -> float:
    values = list(seed_local_times(trace, real_time).values())
    if len(values) < 2:
        return 0.0
    return max(values) - min(values)


def seed_skew_series(trace: ExecutionTrace,
                     times: Sequence[float]) -> List[Tuple[float, float]]:
    return [(t, seed_skew(trace, t)) for t in times]


def seed_max_skew(trace: ExecutionTrace, times: Sequence[float]) -> float:
    if not times:
        return 0.0
    return max(seed_skew(trace, t) for t in times)


def seed_measured_agreement(trace: ExecutionTrace, start: float, end: float,
                            samples: int = 200) -> float:
    return seed_max_skew(trace, sample_grid(start, end, samples))


def seed_validity_report(trace: ExecutionTrace, params: SyncParameters,
                         tmin0: float, tmax0: float, start: float, end: float,
                         samples: int = 100) -> ValidityReport:
    grid = sample_grid(start, end, samples)
    violations = 0
    total = 0
    for t in grid:
        lower, upper = validity_envelope(params, t, tmin0, tmax0)
        for pid, local in seed_local_times(trace, t).items():
            elapsed = local - params.initial_round_time
            total += 1
            if not (lower - 1e-9 <= elapsed <= upper + 1e-9):
                violations += 1
    rates = []
    span = end - start
    for pid in trace.nonfaulty_ids:
        rates.append((seed_local_time(trace, pid, end)
                      - seed_local_time(trace, pid, start)) / span)
    return ValidityReport(samples=total, violations=violations,
                          min_rate=min(rates) if rates else 1.0,
                          max_rate=max(rates) if rates else 1.0)


def seed_per_partition_agreement(trace: ExecutionTrace,
                                 groups: Sequence[Sequence[int]], start: float,
                                 end: float, samples: int = 100
                                 ) -> Dict[int, float]:
    grid = sample_grid(start, end, samples)
    nonfaulty = set(trace.nonfaulty_ids)
    filtered = [[pid for pid in group if pid in nonfaulty] for group in groups]
    filtered = [group for group in filtered if group]

    def skew_at(group: List[int], t: float) -> float:
        values = [seed_local_time(trace, pid, t) for pid in group]
        return max(values) - min(values) if len(values) > 1 else 0.0

    return {index: max(skew_at(group, t) for t in grid)
            for index, group in enumerate(filtered)}
