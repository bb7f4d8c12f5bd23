"""Tests of the benchmark harness (span arithmetic, statistics, verdicts,
and a miniature traced run of every workload shape)."""

import asyncio
import json
import statistics

import pytest

import compare
import harness
from harness import ROOT, WORKLOADS, WorkloadRun, quartiles, tail_percentile
from run import per_layer_metrics
from spans import Recorder, covered


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 3), (2, 5), (8, 12)], 0, 10) == 6
    assert covered([], 0, 10) == 0
    assert covered([(-2, 1), (9, 11)], 0, 10) == 2


def test_self_time_subtracts_children():
    clock = FakeClock()
    recorder = Recorder("r", clock=clock)
    root = recorder.open("root")
    clock.now = 1.0
    child = recorder.open("child")
    clock.now = 1.5
    grandchild = recorder.open("grandchild")
    clock.now = 2.0
    recorder.close(*grandchild)
    clock.now = 3.0
    recorder.close(*child)
    clock.now = 4.0
    second = recorder.open("child")
    clock.now = 5.0
    recorder.close(*second)
    clock.now = 10.0
    recorder.close(*root)
    spans = {(s.name, s.start): s for s in recorder.spans}
    assert spans[("root", 0.0)].self_s == pytest.approx(7.0)
    assert spans[("child", 1.0)].self_s == pytest.approx(1.5)
    assert spans[("grandchild", 1.5)].self_s == pytest.approx(0.5)
    assert spans[("child", 1.0)].parent is spans[("root", 0.0)]
    assert recorder.totals()["child"] == (2, pytest.approx(2.5))


def test_asyncio_tasks_nest_under_their_own_parent():
    recorder = Recorder("r")

    async def peer(tag):
        outer = recorder.open(f"peer{tag}")
        for _ in range(3):
            await asyncio.sleep(0)
            inner = recorder.open(f"frame{tag}")
            await asyncio.sleep(0)
            recorder.close(*inner)
        recorder.close(*outer)

    async def cluster():
        root = recorder.open("cluster")
        await asyncio.gather(peer("a"), peer("b"))
        recorder.close(*root)

    asyncio.run(cluster())
    by_name = {}
    for span in recorder.spans:
        by_name.setdefault(span.name, []).append(span)
    for tag in "ab":
        (outer,) = by_name[f"peer{tag}"]
        assert outer.parent.name == "cluster"
        assert all(span.parent is outer for span in by_name[f"frame{tag}"])
        assert outer.self_s <= outer.duration
    (root,) = by_name["cluster"]
    # the two peers overlap in time: the root's covered part is their union
    assert root.self_s >= 0
    assert recorder.union("peera") <= root.duration


@pytest.mark.parametrize("count, expected", [
    (9, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
    (1000, 99.0), (10000, 99.9)])
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected


def test_quartiles_follow_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6]
    q1, median, q3 = quartiles(values)
    assert [q1, median, q3] == statistics.quantiles(values, n=4)
    assert quartiles([2.0]) == (2.0, 2.0, 2.0)
    assert harness.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5


def _stat(median, q1=None, q3=None, samples=None):
    stat = {"median": median, "n": 5}
    if q1 is not None:
        stat.update(q1=q1, q3=q3)
    if samples is not None:
        stat["samples"] = samples
    return stat


def test_compare_verdicts():
    base = _stat(10.0, 9.9, 10.1)
    assert compare.verdict(base, _stat(10.5, 10.4, 10.6), 0.10) == "unchanged"
    assert compare.verdict(base, _stat(11.5, 11.4, 11.6), 0.10) == "worse"
    assert compare.verdict(base, _stat(8.5, 8.4, 8.6), 0.10) == "better"
    assert compare.verdict(base, _stat(11.5, 11.4, 11.6), 0.10,
                           better="higher") == "better"
    noisy = _stat(10.0, 8.0, 12.0, samples=[8, 10, 12])
    assert compare.verdict(noisy, _stat(10.2, 10.1, 10.3), 0.10) == \
        "unresolved"
    assert compare.verdict(noisy, _stat(7.0, 6.9, 7.1, samples=[6.9, 7.1]),
                           0.10) == "better"


def test_compare_states_ratio_with_its_base():
    def result(median, failed=0):
        return {"workloads": {"audit_run": {
            "attempted": 5, "failed": failed,
            "metrics": {"wall_s": _stat(median, median, median)}}}}

    rows = compare.compare(result(2.0), result(3.0, failed=1))
    wall = next(row for row in rows if " wall_s " in row)
    assert "1.500 (base 2 s)" in wall and wall.endswith("worse")
    assert next(row for row in rows if "failed ops" in row).endswith("worse")


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == \
        [name for name, _ in harness.E2E]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == per_layer_metrics()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_miniature_traced_run_fires_every_declared_layer(name, tmp_path):
    run = WorkloadRun(WORKLOADS[name], seed=3, tmp=tmp_path, mini=True)
    run.repeat(traced=True)
    run.check_engine()
    assert run.problems == []
    assert run.failed == 0 and run.attempted >= 1
    assert run.events, "the traced run produced no Chrome trace events"


def test_gate_catches_an_output_that_changes_between_repeats(tmp_path):
    run = WorkloadRun(WORKLOADS["audit_run"], seed=3, tmp=tmp_path, mini=True)
    run.reference = "not-the-digest"
    run.repeat()
    assert run.failed == 1
    assert "differs from repeat 1's" in run.problems[0]
