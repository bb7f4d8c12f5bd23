"""Metrics extracted from execution traces.

These functions turn an :class:`~repro.sim.trace.ExecutionTrace` into the
quantities the paper's theorems talk about:

* **agreement** — the maximum difference between nonfaulty local times over a
  real-time window (Theorem 16's γ);
* **validity** — how the local times track real time against the
  (α₁, α₂, α₃) envelope of Theorem 19;
* **adjustment statistics** — per-round |ADJ| against the Theorem 4(a) bound;
* **round-start spread** — the per-round real-time spread of broadcast events
  (the per-round β_i, used to observe the halving of Lemma 9/10 and the
  steady-state β ≈ 4ε + 4ρP of Section 5.2);
* **start-up spread series** — the B^i series of Lemma 20;
* **per-partition metrics** — agreement *inside* each side of a network
  partition, and the divergence *between* sides (what the topology
  subsystem's partition-and-heal experiments plot).

The grid queries (agreement windows, validity envelopes, per-partition
skew, divergence series) evaluate the whole grid through the trace's
:class:`~repro.sim.traceindex.TraceIndex` — one merged sweep per process,
optional numpy vectorization — and reduce in the seed implementation's
operation order, so every float is bit-identical to the naive per-sample
loops the tests keep as their oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.bounds import validity_envelope
from ..core.config import SyncParameters
from ..sim.trace import ExecutionTrace
from ..telemetry import span

__all__ = [
    "sample_grid",
    "measured_agreement",
    "skew_series",
    "AdjustmentStats",
    "adjustment_statistics",
    "round_start_spreads",
    "steady_state_round_spread",
    "ValidityReport",
    "validity_report",
    "startup_spread_series",
    "messages_per_round",
    "local_time_rate_estimates",
    "group_skew",
    "per_partition_agreement",
    "cross_group_divergence",
    "divergence_series",
]


def sample_grid(start: float, end: float, count: int) -> List[float]:
    """``count`` evenly spaced real times in [start, end]."""
    if count < 2:
        raise ValueError("need at least two samples")
    if end < start:
        raise ValueError("end must not precede start")
    step = (end - start) / (count - 1)
    return [start + i * step for i in range(count)]


def measured_agreement(trace: ExecutionTrace, start: float, end: float,
                       samples: int = 200) -> float:
    """Maximum nonfaulty skew over an evenly sampled real-time window."""
    with span("metrics.agreement", samples=samples):
        return trace.max_skew(sample_grid(start, end, samples))


def skew_series(trace: ExecutionTrace, start: float, end: float,
                samples: int = 200) -> List[Tuple[float, float]]:
    """(real time, skew) samples — the data behind the agreement figure."""
    return trace.skew_series(sample_grid(start, end, samples))


@dataclass(frozen=True)
class AdjustmentStats:
    """Summary of the adjustments applied by nonfaulty processes."""

    count: int
    max_abs: float
    mean_abs: float
    per_process_max: Dict[int, float]


def adjustment_statistics(trace: ExecutionTrace) -> AdjustmentStats:
    """Collect |ADJ| statistics over all nonfaulty processes and rounds."""
    all_abs: List[float] = []
    per_process: Dict[int, float] = {}
    for pid in trace.nonfaulty_ids:
        adjustments = [abs(a) for a in trace.adjustments(pid)]
        if adjustments:
            per_process[pid] = max(adjustments)
            all_abs.extend(adjustments)
    if not all_abs:
        return AdjustmentStats(count=0, max_abs=0.0, mean_abs=0.0, per_process_max={})
    return AdjustmentStats(count=len(all_abs), max_abs=max(all_abs),
                           mean_abs=sum(all_abs) / len(all_abs),
                           per_process_max=per_process)


def round_start_spreads(trace: ExecutionTrace,
                        event_name: str = "broadcast") -> Dict[int, float]:
    """Real-time spread of nonfaulty round starts, per round index.

    This is the per-round β_i: the difference between the earliest and latest
    real times at which nonfaulty processes begin round i (``tmax^i − tmin^i``
    in the paper's notation).  A process "begins" round i at its *first*
    broadcast of that round, so variants that broadcast several times per
    round (the Section 7 k-exchange variant) are measured at the same point in
    the round as the basic algorithm.
    """
    nonfaulty = set(trace.nonfaulty_ids)
    first_broadcast: Dict[Tuple[int, int], float] = {}
    for event in trace.events_named(event_name):
        if event.process_id not in nonfaulty:
            continue
        index = event.data.get("round_index")
        if index is None:
            continue
        key = (index, event.process_id)
        if key not in first_broadcast or event.real_time < first_broadcast[key]:
            first_broadcast[key] = event.real_time
    per_round: Dict[int, List[float]] = {}
    for (index, _pid), time in first_broadcast.items():
        per_round.setdefault(index, []).append(time)
    return {index: (max(times) - min(times)) for index, times in per_round.items()
            if len(times) >= 2}


def steady_state_round_spread(trace: ExecutionTrace, skip_rounds: int = 3) -> float:
    """Largest per-round spread after the initial transient (E7's measurement)."""
    spreads = round_start_spreads(trace)
    steady = [spread for index, spread in spreads.items() if index >= skip_rounds]
    if not steady:
        return 0.0
    return max(steady)


@dataclass(frozen=True)
class ValidityReport:
    """How the measured local times compare with the Theorem 19 envelope."""

    samples: int
    violations: int
    min_rate: float
    max_rate: float

    @property
    def holds(self) -> bool:
        return self.violations == 0

    @classmethod
    def from_counts(cls, samples: int, violations: int,
                    rates: Sequence[float]) -> "ValidityReport":
        """Assemble a report from raw counts and per-process rate estimates.

        The single construction point shared by the batch grid sweep
        (:func:`validity_report`) and the streaming observer
        (:class:`repro.analysis.online.OnlineValidity`),
        so the empty-rates convention and min/max handling cannot drift
        between the two paths.
        """
        return cls(samples=samples, violations=violations,
                   min_rate=min(rates) if rates else 1.0,
                   max_rate=max(rates) if rates else 1.0)


def validity_report(trace: ExecutionTrace, params: SyncParameters, tmin0: float,
                    tmax0: float, start: float, end: float,
                    samples: int = 100) -> ValidityReport:
    """Check every nonfaulty local time sample against the validity envelope.

    Also estimates the long-run rate ``(L_p(end) − L_p(start)) / (end − start)``
    for each nonfaulty process; Theorem 19 implies these rates stay within
    roughly ``[α₁, α₂]``.

    The local-time matrix is computed in one grid sweep instead of per
    sample; the counting and rate arithmetic are the seed loop's, so the
    report is bit-identical to it.
    """
    grid = sample_grid(start, end, samples)
    pids = trace.nonfaulty_ids
    rows = trace.index().local_times_rows(pids, grid)
    violations = 0
    total = 0
    initial = params.initial_round_time
    for position, t in enumerate(grid):
        lower, upper = validity_envelope(params, t, tmin0, tmax0)
        low = lower - 1e-9
        high = upper + 1e-9
        for row in rows:
            elapsed = row[position] - initial
            total += 1
            if not (low <= elapsed <= high):
                violations += 1
    width = end - start
    rates = [(trace.local_time(pid, end) - trace.local_time(pid, start))
             / width for pid in pids]
    return ValidityReport.from_counts(total, violations, rates)


def startup_spread_series(trace: ExecutionTrace) -> List[float]:
    """The B^i series of Lemma 20 for a start-up run.

    ``B^i`` is the maximum difference between nonfaulty clock values at the
    latest real time when a nonfaulty process begins round i.
    """
    nonfaulty = set(trace.nonfaulty_ids)
    per_round: Dict[int, List[float]] = {}
    for event in trace.events_named("startup_round_begin"):
        if event.process_id not in nonfaulty:
            continue
        per_round.setdefault(event.data["round_index"], []).append(event.real_time)
    series: List[float] = []
    for index in sorted(per_round):
        times = per_round[index]
        if len(times) < max(2, len(nonfaulty) // 2):
            continue
        latest = max(times)
        series.append(trace.skew(latest))
    return series


def messages_per_round(trace: ExecutionTrace, rounds: int) -> float:
    """Average number of application messages sent per completed round."""
    if rounds <= 0:
        return 0.0
    return trace.stats.sent / float(rounds)


def local_time_rate_estimates(trace: ExecutionTrace, start: float,
                              end: float) -> Dict[int, float]:
    """Per-process long-run local-time rate over [start, end]."""
    span = end - start
    if span <= 0:
        raise ValueError("end must be after start")
    return {pid: (trace.local_time(pid, end) - trace.local_time(pid, start)) / span
            for pid in trace.nonfaulty_ids}


# ---------------------------------------------------------------------------
# Per-partition metrics (the topology subsystem's partition experiments)
# ---------------------------------------------------------------------------

def _nonfaulty_groups(trace: ExecutionTrace,
                      groups: Sequence[Sequence[int]]) -> List[List[int]]:
    """Each group's nonfaulty members, empty groups dropped."""
    nonfaulty = set(trace.nonfaulty_ids)
    filtered = [[pid for pid in group if pid in nonfaulty] for group in groups]
    return [group for group in filtered if group]


def group_skew(trace: ExecutionTrace, group: Sequence[int], t: float) -> float:
    """Maximum local-time difference *within* one group at real time ``t``."""
    nonfaulty = set(trace.nonfaulty_ids)
    values = [trace.local_time(pid, t) for pid in group if pid in nonfaulty]
    if len(values) < 2:
        return 0.0
    return max(values) - min(values)


def per_partition_agreement(trace: ExecutionTrace,
                            groups: Sequence[Sequence[int]], start: float,
                            end: float, samples: int = 100
                            ) -> Dict[int, float]:
    """Worst within-group skew per group over an evenly sampled window.

    During a partition each side keeps γ-agreement *internally* even though
    the global skew diverges; this is the quantity that shows it.

    Each group is evaluated as one batched grid sweep (bit-identical to the
    per-sample loop).
    """
    grid = sample_grid(start, end, samples)
    index = trace.index()
    return {position: index.max_skew(group, grid)
            for position, group in enumerate(_nonfaulty_groups(trace, groups))}


def cross_group_divergence(trace: ExecutionTrace,
                           groups: Sequence[Sequence[int]], t: float) -> float:
    """Largest gap between the group *centroids* of local time at ``t``.

    Using centroids (rather than extremes) separates the between-group
    divergence a partition causes from the within-group skew that exists
    anyway; for healthy runs it is ~0, during a partition it grows with the
    drift between the isolated sides.
    """
    filtered = _nonfaulty_groups(trace, groups)
    if len(filtered) < 2:
        return 0.0
    centroids = [sum(trace.local_time(pid, t) for pid in group) / len(group)
                 for group in filtered]
    return max(centroids) - min(centroids)


def divergence_series(trace: ExecutionTrace, groups: Sequence[Sequence[int]],
                      start: float, end: float, samples: int = 100
                      ) -> List[Tuple[float, float]]:
    """(real time, cross-group divergence) samples over a window.

    Batched over the grid, with the centroid sums in the seed's sequential
    within-group order, so it is bit-identical to calling
    :func:`cross_group_divergence` per sample.
    """
    grid = sample_grid(start, end, samples)
    filtered = _nonfaulty_groups(trace, groups)
    if len(filtered) < 2:
        return [(t, 0.0) for t in grid]
    index = trace.index()
    group_rows = [(index.local_times_rows(group, grid), len(group))
                  for group in filtered]
    series: List[Tuple[float, float]] = []
    for position, t in enumerate(grid):
        centroids = [sum(row[position] for row in rows) / size
                     for rows, size in group_rows]
        series.append((t, max(centroids) - min(centroids)))
    return series
