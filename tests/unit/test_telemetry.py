"""Unit tests for repro.telemetry: metrics, tracing, manifests, reports.

The contracts under test:

* **metrics** — counters add, gauges keep the max, histograms merge
  bucket-wise; ``snapshot``/``merge`` make worker totals equal serial totals;
  ``delta`` isolates one run's contribution;
* **tracing** — spans nest, close on exception, and export valid Chrome
  trace-event JSON;
* **manifests** — one JSON line per run, stable spec hashes, strict reads;
* **report** — the aggregates `telemetry report` renders.
"""

import json

import pytest

from repro.telemetry import (
    Telemetry,
    activated,
    get_active,
    span,
    spec_hash,
)
from repro.telemetry.manifest import (
    append_manifest,
    build_manifest,
    read_manifests,
)
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.report import format_report, summarize
from repro.telemetry.tracing import Tracer


class TestCounter:
    def test_monotone(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_merge_adds(self):
        a, b = Counter("c"), Counter("c")
        a.inc(3)
        b.inc(4)
        a.merge_state(b.state())
        assert a.value == 7


class TestGauge:
    def test_high_water_retained(self):
        gauge = Gauge("g")
        gauge.set(5)
        gauge.set(2)
        assert gauge.value == 2
        assert gauge.high_water == 5

    def test_merge_keeps_max(self):
        a, b = Gauge("g"), Gauge("g")
        a.set(10)
        a.set(1)
        b.set(7)
        a.merge_state(b.state())
        assert a.value == 7  # max of currents
        assert a.high_water == 10


class TestHistogram:
    def test_observe_buckets_and_extrema(self):
        hist = Histogram("h", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            hist.observe(value)
        assert hist.counts == [1, 1, 1]
        assert hist.count == 3
        assert hist.min == 0.05 and hist.max == 5.0
        assert hist.mean == pytest.approx((0.05 + 0.5 + 5.0) / 3)

    def test_merge_bucketwise(self):
        a = Histogram("h", buckets=(0.1, 1.0))
        b = Histogram("h", buckets=(0.1, 1.0))
        a.observe(0.05)
        b.observe(0.5)
        b.observe(2.0)
        a.merge_state(b.state())
        assert a.counts == [1, 1, 1]
        assert a.count == 3

    def test_merge_rejects_mismatched_buckets(self):
        a = Histogram("h", buckets=(0.1, 1.0))
        b = Histogram("h", buckets=(0.5,))
        with pytest.raises(ValueError, match="bucket mismatch"):
            a.merge_state(b.state())


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_name_means_one_thing(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_snapshot_merge_equals_serial(self):
        # Two "workers" and one serial registry doing the same work: after
        # merging the worker snapshots, counter totals and gauge high-waters
        # must be identical to serial (the BatchRunner jobs=2 invariant).
        serial = MetricsRegistry()
        workers = [MetricsRegistry(), MetricsRegistry()]
        for index, worker in enumerate(workers):
            for registry in (serial, worker):
                registry.counter("events").inc(10 * (index + 1))
                registry.gauge("depth").set(5 - index)
                registry.histogram("wall", buckets=(0.1, 1.0)).observe(0.5)
        parent = MetricsRegistry()
        for worker in workers:
            parent.merge(worker.snapshot())
        assert parent.value("events") == serial.value("events") == 30
        assert parent.gauge("depth").high_water == \
            serial.gauge("depth").high_water == 5
        assert parent.histogram("wall").count == \
            serial.histogram("wall").count == 2

    def test_snapshot_is_picklable_plain_data(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.histogram("h").observe(0.2)
        snapshot = registry.snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot

    def test_delta_isolates_one_run(self):
        registry = MetricsRegistry()
        registry.counter("events").inc(100)
        registry.counter("untouched").inc(5)
        baseline = registry.snapshot()
        registry.counter("events").inc(40)
        registry.gauge("depth").set(3)
        delta = registry.delta(baseline)
        assert delta["events"]["value"] == 40
        assert "untouched" not in delta
        assert delta["depth"]["value"] == 3

    def test_format_renders_every_metric(self):
        registry = MetricsRegistry()
        registry.counter("sim.events").inc(7)
        registry.gauge("sim.depth").set(2)
        text = registry.format()
        assert "sim.events" in text and "sim.depth" in text
        assert "7" in text


class TestTracer:
    def test_spans_nest_and_record_args(self):
        tracer = Tracer()
        with tracer.span("outer", k=1):
            with tracer.span("inner"):
                pass
        records = tracer.records
        assert [r.name for r in records] == ["inner", "outer"]
        assert records[0].depth == 1 and records[1].depth == 0
        assert records[1].args == {"k": 1}

    def test_span_closes_on_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        assert len(tracer) == 1
        assert tracer._depth == 0

    def test_chrome_trace_is_valid(self, tmp_path):
        tracer = Tracer()
        with tracer.span("phase", n=3, label="x"):
            pass
        path = tmp_path / "trace.json"
        tracer.write_chrome_trace(str(path))
        loaded = json.loads(path.read_text())
        (event,) = loaded["traceEvents"]
        assert event["ph"] == "X"
        assert event["name"] == "phase"
        assert event["dur"] >= 0
        assert event["args"] == {"n": 3, "label": "x"}

    def test_tree_indents_children(self):
        tracer = Tracer()
        with tracer.span("parent"):
            with tracer.span("child"):
                pass
        tree = tracer.tree()
        lines = tree.splitlines()
        assert lines[0].startswith("parent")
        assert lines[1].startswith("  child")


class TestActiveTelemetry:
    def test_module_span_is_noop_when_inactive(self):
        assert get_active() is None
        with span("anything", k=1):
            pass  # must not raise, must not record anywhere

    def test_activated_scopes_and_restores(self):
        telemetry = Telemetry()
        with activated(telemetry):
            assert get_active() is telemetry
            with span("inside"):
                pass
        assert get_active() is None
        assert len(telemetry.tracer) == 1

    def test_nested_activated_restores_outer_then_none(self):
        outer, inner = Telemetry(), Telemetry()
        with activated(outer):
            with activated(inner):
                assert get_active() is inner
            assert get_active() is outer
        assert get_active() is None

    def test_memory_probe_disabled_by_default(self):
        telemetry = Telemetry()
        with telemetry.memory_probe() as probe:
            pass
        assert probe["peak"] is None

    def test_memory_probe_measures_when_enabled(self):
        telemetry = Telemetry(track_memory=True)
        with telemetry.memory_probe() as probe:
            _ = [0] * 50_000
        assert probe["peak"] is not None and probe["peak"] > 0


class _FakeParams:
    n = 7


class _FakeSpec:
    """Just enough of a RunSpec for manifest assembly."""

    kind = "maintenance"
    seed = 3
    rounds = 5
    params = _FakeParams()

    def describe(self):
        return "maintenance:n=7:seed=3"

    def __repr__(self):
        return "FakeSpec(n=7, seed=3)"


class TestManifest:
    def test_spec_hash_stable_and_short(self):
        assert spec_hash(_FakeSpec()) == spec_hash(_FakeSpec())
        assert len(spec_hash(_FakeSpec())) == 16

    def test_build_minimal_record(self):
        record = build_manifest(_FakeSpec(), outcome="ok", wall_seconds=0.25)
        assert record["spec"] == "maintenance:n=7:seed=3"
        assert record["kind"] == "maintenance"
        assert record["n"] == 7 and record["seed"] == 3
        assert record["outcome"] == "ok"
        assert record["wall_seconds"] == 0.25

    def test_error_and_metrics_fields(self):
        record = build_manifest(_FakeSpec(), outcome="budget_exceeded",
                                wall_seconds=1.0, error="boom",
                                metrics={"events": {"kind": "counter",
                                                    "value": 9}})
        assert record["error"] == "boom"
        assert record["metrics"]["events"]["value"] == 9

    def test_append_read_roundtrip(self, tmp_path):
        path = str(tmp_path / "manifest.jsonl")
        first = build_manifest(_FakeSpec(), wall_seconds=0.1)
        second = build_manifest(_FakeSpec(), outcome="error", wall_seconds=0.2)
        append_manifest(path, first)
        append_manifest(path, second)
        assert read_manifests(path) == [first, second]

    def test_read_rejects_corrupt_lines_with_location(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        path.write_text('{"ok": 1}\nnot json\n')
        with pytest.raises(ValueError, match=r":2"):
            read_manifests(str(path))

    def test_telemetry_emit_keeps_and_persists(self, tmp_path):
        path = str(tmp_path / "manifest.jsonl")
        telemetry = Telemetry(manifest_path=path)
        record = build_manifest(_FakeSpec(), wall_seconds=0.1)
        telemetry.emit_manifest(record)
        assert telemetry.manifests == [record]
        assert read_manifests(path) == [record]


def _record(spec="s", wall=1.0, events=1000, outcome="ok",
            dropped=0, sent=100):
    return {"spec": spec, "spec_hash": "abc", "outcome": outcome,
            "wall_seconds": wall, "events": events,
            "messages": {"sent": sent, "dropped": dropped, "unroutable": 0}}


class TestReport:
    def test_summarize_aggregates(self):
        records = [_record("a", wall=1.0, events=1000),
                   _record("b", wall=2.0, events=1000, dropped=50),
                   _record("c", wall=0.5, events=0, outcome="error")]
        summary = summarize(records, slowest=2)
        assert summary["runs"] == 3
        assert summary["outcomes"] == {"ok": 2, "error": 1}
        assert summary["wall_total"] == pytest.approx(3.5)
        assert summary["events_total"] == 2000
        assert summary["events_per_s"]["max"] == pytest.approx(1000.0)
        assert summary["drop_rate_max"] == pytest.approx(0.5)
        # Slowest-first, truncated to the requested count.
        assert [row["spec"] for row in summary["slowest"]] == ["b", "a"]

    def test_format_report_renders(self):
        summary = summarize([_record()])
        text = format_report(summary)
        assert "runs: 1" in text
        assert "slowest cells:" in text

    def test_empty_records(self):
        summary = summarize([])
        assert summary["runs"] == 0
        assert format_report(summary)
