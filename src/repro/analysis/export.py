"""Export of runs and results to JSON and CSV.

Traces, scenario results, comparison rows and sweep results can all be
serialized so that experiments can be archived, diffed across versions of the
library, or post-processed with external tools.  The representation is plain
dictionaries/lists of JSON-compatible scalars; CSV output is provided for the
tabular shapes (skew series, sweeps, comparisons).
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, is_dataclass
from typing import Any, Dict, List, Optional, Sequence

from ..core.config import SyncParameters
from ..sim.trace import ExecutionTrace
from .comparison import ComparisonRow
from .experiments import ScenarioResult
from .metrics import sample_grid
from .sweeps import SweepResult

__all__ = [
    "parameters_to_dict",
    "trace_to_dict",
    "scenario_to_dict",
    "skew_series_rows",
    "comparison_rows_to_dicts",
    "sweep_to_dicts",
    "to_json",
    "write_json",
    "rows_to_csv",
    "write_csv",
]


def parameters_to_dict(params: SyncParameters) -> Dict[str, float]:
    """The algorithm constants, including the derived Section 5.2 quantities."""
    return {
        "n": params.n,
        "f": params.f,
        "rho": params.rho,
        "delta": params.delta,
        "epsilon": params.epsilon,
        "beta": params.beta,
        "round_length": params.round_length,
        "initial_round_time": params.initial_round_time,
        "collection_window": params.collection_window(),
        "p_lower_bound": params.p_lower_bound(),
        "p_upper_bound": params.p_upper_bound(),
        "beta_lower_bound": params.beta_lower_bound(),
    }


def trace_to_dict(trace: ExecutionTrace, samples: int = 0) -> Dict[str, Any]:
    """Serialize a trace: events, corrections, message statistics.

    With ``samples > 0`` the local times of every process are also sampled on
    an even grid over ``[0, end_time]`` (useful for plotting skew offline
    without re-running the simulation).
    """
    payload: Dict[str, Any] = {
        "end_time": trace.end_time,
        "n": trace.n,
        "faulty_ids": sorted(trace.faulty_ids),
        "stats": {
            "sent": trace.stats.sent,
            "delivered": trace.stats.delivered,
            "dropped": trace.stats.dropped,
            "relayed": trace.stats.relayed,
            "unroutable": trace.stats.unroutable,
            "timers_set": trace.stats.timers_set,
            "timers_fired": trace.stats.timers_fired,
            "per_process_sent": dict(trace.stats.per_process_sent),
        },
        "events": [
            {"real_time": real_time, "process_id": process_id, "name": name,
             "data": dict(data)}
            for real_time, process_id, name, data in zip(*trace.log)
        ],
        "corrections": {
            str(pid): [
                {"real_time": real_time, "adjustment": adjustment,
                 "new_correction": correction, "round_index": round_index}
                # Entry 0, the -inf sentinel, is not an update.
                for real_time, adjustment, correction, round_index in zip(
                    history.times[1:], history.adjustments,
                    history.corrections[1:], history.rounds[1:])
            ]
            for pid, history in enumerate(
                map(trace.correction_history, range(trace.n)))
        },
    }
    if samples > 0:
        grid = sample_grid(0.0, trace.end_time, samples)
        payload["local_times"] = {
            "real_times": grid,
            "per_process": {
                str(pid): [trace.local_time(pid, t) for t in grid]
                for pid in range(trace.n)
            },
        }
    return payload


def scenario_to_dict(result: ScenarioResult, samples: int = 0) -> Dict[str, Any]:
    """Serialize a full scenario result (parameters, start times, trace)."""
    return {
        "params": parameters_to_dict(result.params),
        "rounds": result.rounds,
        "end_time": result.end_time,
        "start_times": {str(pid): t for pid, t in result.start_times.items()},
        "tmin0": result.tmin0,
        "tmax0": result.tmax0,
        "trace": trace_to_dict(result.trace, samples=samples),
    }


def skew_series_rows(trace: ExecutionTrace, start: float, end: float,
                     samples: int = 200) -> List[Dict[str, float]]:
    """The (real time, skew) series as a list of row dicts (one per sample)."""
    return [{"real_time": t, "skew": skew}
            for t, skew in trace.skew_series(sample_grid(start, end, samples))]


def comparison_rows_to_dicts(rows: Sequence[ComparisonRow]) -> List[Dict[str, Any]]:
    """Section 10 comparison rows as plain dicts."""
    return [asdict(row) for row in rows]


def sweep_to_dicts(result: SweepResult) -> List[Dict[str, Any]]:
    """A sweep result as a list of flat row dicts (inputs and outputs merged)."""
    rows: List[Dict[str, Any]] = []
    for point in result.points:
        row: Dict[str, Any] = {}
        row.update(point.inputs)
        row.update(point.outputs)
        rows.append(row)
    return rows


def _jsonable(value: Any) -> Any:
    if is_dataclass(value) and not isinstance(value, type):
        return asdict(value)
    return value


def to_json(payload: Any) -> str:
    """Serialize any of the structures above (or dataclasses) to a JSON string.

    One line, no indent: an indent sends ``json.dumps`` to its pure-Python
    encoder, which takes about twice as long on a traced run's payload.
    """
    return json.dumps(payload, default=_jsonable, sort_keys=True)


def write_json(payload: Any, path: str) -> None:
    """Write a JSON file (creating/overwriting ``path``)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(to_json(payload))
        handle.write("\n")


def rows_to_csv(rows: Sequence[Dict[str, Any]],
                fieldnames: Optional[Sequence[str]] = None) -> str:
    """Render a list of row dicts as CSV text (header + one line per row)."""
    if not rows:
        return ""
    if fieldnames is None:
        fieldnames = []
        for row in rows:
            for name in row:
                if name not in fieldnames:
                    fieldnames.append(name)
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(fieldnames), extrasaction="ignore")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buffer.getvalue()


def write_csv(rows: Sequence[Dict[str, Any]], path: str,
              fieldnames: Optional[Sequence[str]] = None) -> None:
    """Write a CSV file (creating/overwriting ``path``)."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(rows_to_csv(rows, fieldnames=fieldnames))
