"""Compare two benchmark result files, metric by metric.

Usage: ``python3 bench/compare.py A.json B.json`` (A is the base, usually
the parent commit; files come from ``python3 bench/run.py``).

For every workload and end-to-end metric it prints A's and B's median with
their quartiles and sample counts, the ratio B/A with its base, and a
verdict against the metric's bound (``BENCHMARK.json``, or
:data:`harness.EXTRA` for the metrics only one workload has):

* ``unresolved`` — the spread (q3 - q1) / median of either side exceeds
  the bound, so a difference within it cannot be told from noise; unless
  every B sample is better than every A sample, which reads ``better``;
* ``worse`` / ``better`` — B's median moved past the bound;
* ``unchanged`` — B's median is within the bound of A's.

Operation failures compare as counts: more failed operations is ``worse``.
Exits 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

from harness import EXTRA, ROOT


def spread(stat: Dict[str, float]) -> float:
    """(q3 - q1) / median; 0 for a single sample."""
    if "q1" not in stat or not stat["median"]:
        return 0.0
    return (stat["q3"] - stat["q1"]) / abs(stat["median"])


def verdict(a: Dict[str, float], b: Dict[str, float], bound: float,
            better: str = "lower") -> str:
    """The comparison rule above for one metric (``better``: lower|higher)."""
    if max(spread(a), spread(b)) > bound:
        a_samples, b_samples = a.get("samples"), b.get("samples")
        if a_samples and b_samples and (
                max(b_samples) < min(a_samples) if better == "lower"
                else min(b_samples) > max(a_samples)):
            return "better"
        return "unresolved"
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (b["median"] - a["median"]) / abs(a["median"])
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "unchanged"


def _metric_rules() -> Dict[str, tuple]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rules = {m["name"]: (m["unit"], m["bound"], m["better"])
             for m in spec["end_to_end"]}
    rules.update({name: (unit, bound, "lower")
                  for name, (unit, bound) in EXTRA.items()})
    return rules


def _stat_text(stat: Dict[str, float]) -> str:
    text = f"{stat['median']:.4g}"
    if "q1" in stat:
        text += f" [{stat['q1']:.4g}, {stat['q3']:.4g}]"
    return f"{text} n={stat['n']}"


def compare(a: dict, b: dict) -> List[str]:
    """Verdict rows for every workload/metric both result files measured."""
    rules = _metric_rules()
    rows = [f"{'workload':<15} {'metric':<19} {'unit':<5} {'A':<34} "
            f"{'B':<34} {'B/A (base: A median)':<30} verdict"]
    for workload, a_entry in a["workloads"].items():
        b_entry = b["workloads"].get(workload)
        if b_entry is None:
            continue
        for metric, (unit, bound, better) in rules.items():
            a_stat = a_entry["metrics"].get(metric)
            b_stat = b_entry["metrics"].get(metric)
            if a_stat is None or b_stat is None:
                continue
            ratio = (f"{b_stat['median'] / a_stat['median']:.3f} "
                     f"(base {a_stat['median']:.4g} {unit})")
            rows.append(f"{workload:<15} {metric:<19} {unit:<5} "
                        f"{_stat_text(a_stat):<34} {_stat_text(b_stat):<34} "
                        f"{ratio:<30} "
                        f"{verdict(a_stat, b_stat, bound, better)}")
        a_failed, b_failed = a_entry["failed"], b_entry["failed"]
        rows.append(f"{workload:<15} {'failed ops':<19} {'count':<5} "
                    f"{a_failed}/{a_entry['attempted']:<32} "
                    f"{b_failed}/{b_entry['attempted']:<32} {'':<30} "
                    f"{'worse' if b_failed > a_failed else 'unchanged'}")
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in args)
    rows = compare(a, b)
    print("\n".join(rows))
    return 1 if any(row.endswith(" worse") for row in rows[1:]) else 0


if __name__ == "__main__":
    sys.exit(main())
