"""Unit tests for the durable content-addressed result store."""

import dataclasses
import errno
import gc
import pickle
import sqlite3
import time
from pathlib import Path

import pytest

from repro.adversary.shifting import shift_execution
from repro.analysis import default_parameters, sample_grid, validity_report
from repro.runner import (
    SCHEMA_VERSION,
    ChaosSchedule,
    ResultStore,
    RunSpec,
    StoreError,
    StoreVersionError,
    execute,
    store_key,
)
from repro.clocks import CorrectionEvent
from repro.sim import TraceEvent, traceindex
from repro.sim.vectorized import execute_batch
from repro.telemetry import spec_hash
from repro.topology import Topology


@pytest.fixture(scope="module")
def params():
    return default_parameters(n=4, f=1)


@pytest.fixture(scope="module")
def spec(params):
    return RunSpec.maintenance(params, rounds=2, seed=0)


@pytest.fixture(scope="module")
def result(spec):
    return execute(spec)


def make_store(tmp_path, **kwargs):
    return ResultStore(str(tmp_path / "results.sqlite"), **kwargs)


#: the fixture spec's payload as the build before the columnar pickles wrote
#: it (default slot state, one dataclass state per event).
SLOT_STATE_PAYLOAD = Path(__file__).resolve().parents[1] / "data" \
    / "slot_state_payload.pickle"

#: store payloads as the columnar pickles first wrote them, while results
#: still held one event object per log event and per CORR breakpoint: a
#: pickled dict of two payloads, the fixture spec's and TRIMMED_SPEC's.
COLUMNAR_PAYLOADS = SLOT_STATE_PAYLOAD.with_name("columnar_payload.pickle")

#: a no-trace run long enough for its bounded histories to trim.
TRIMMED_SPEC = RunSpec.maintenance(
    default_parameters(n=4, f=1), rounds=12, record_trace=False,
    observers=("skew", "validity"), seed=3)


def history_fields(history):
    return {"times": list(history.times),
            "corrections": list(history.corrections),
            "events": [(e.real_time, e.adjustment, e.new_correction,
                        e.round_index) for e in history.events],
            "initial_correction": history.initial_correction,
            "max_entries": history.max_entries,
            "bounded": history.bounded}


def trace_fields(trace):
    return {"events": [(e.real_time, e.process_id, e.name, e.data)
                       for e in trace.events],
            "histories": {pid: history_fields(trace.correction_history(pid))
                          for pid in range(trace.n)},
            "stats": trace.stats.as_dict(),
            "per_process_sent": dict(trace.stats.per_process_sent),
            "faulty_ids": trace.faulty_ids,
            "end_time": trace.end_time}


def assert_same_result(loaded, original):
    """Field by field and to the bit: repr tells apart every double that
    == would conflate (0.0 and -0.0)."""
    expected = trace_fields(original.trace)
    for name, value in trace_fields(loaded.trace).items():
        assert repr(value) == repr(expected[name]), name
    assert repr(loaded.start_times) == repr(original.start_times)
    assert (loaded.rounds, loaded.end_time, loaded.checkpoints,
            loaded.spec) == (original.rounds, original.end_time,
                             original.checkpoints, original.spec)
    start, end = original.tmax0, original.trace.end_time
    grid = sample_grid(start, end, 40)
    previous = traceindex.numpy_enabled()
    backends = [False] + [True] * traceindex.numpy_available()
    try:
        for use_numpy in backends:
            traceindex.use_numpy(use_numpy)
            assert repr(loaded.trace.skew_series(grid)) \
                == repr(original.trace.skew_series(grid))
            assert repr(validity_report(
                loaded.trace, loaded.params, loaded.tmin0, loaded.tmax0,
                start, end, samples=40)) == repr(validity_report(
                    original.trace, original.params, original.tmin0,
                    original.tmax0, start, end, samples=40))
    finally:
        traceindex.use_numpy(previous)


class TestContentAddressing:
    def test_key_is_stable_and_spec_determined(self, spec):
        assert store_key(spec) == store_key(spec)
        assert store_key(spec) != store_key(spec.with_seed(1))

    def test_distinct_topologies_get_distinct_keys(self, params):
        # Same name, n and link count, different wiring: different runs.
        line = Topology(4, [(0, 1), (1, 2), (2, 3)], name="line")
        other = Topology(4, [(0, 2), (2, 1), (1, 3)], name="line")
        a = RunSpec.maintenance(params, rounds=2, topology=line)
        b = RunSpec.maintenance(params, rounds=2, topology=other)
        assert a != b
        assert store_key(a) != store_key(b)
        assert spec_hash(a) != spec_hash(b)

    def test_equal_topologies_get_equal_keys(self, params):
        edges = [(0, 1), (1, 2), (2, 3)]
        variants = [edges, edges[::-1], [(v, u) for u, v in edges],
                    edges + [(2, 1), (0, 1)]]
        keys = {store_key(RunSpec.maintenance(
            params, rounds=2, topology=Topology(4, variant, name="line")))
            for variant in variants}
        assert len(keys) == 1

    def test_keys_of_named_and_default_topologies_are_stable(self, spec):
        # Literal schema-v2 digests: stores written by earlier v2 builds
        # keep resuming.  Each is the sha256 of the schema-v1 repr with
        # its two trailing engine fields (both None) cut out.
        assert store_key(spec) == (
            "ee75eef86e221c81df7d92691a759db88f81d2f3b2b6fbed10d1d887a19da5e5")
        assert store_key(dataclasses.replace(spec, topology="ring")) == (
            "cea9e82a431ab2807150d78a2fdf3b06b1ca36520f73b4c3b0d6767713671666")

    def test_key_extends_manifest_hash(self, spec):
        # Manifest lines carry the truncated digest; store rows the full
        # one — they must cross-reference by prefix.
        assert store_key(spec).startswith(spec_hash(spec))


class TestPutGet:
    def test_roundtrip_is_bit_identical(self, tmp_path, spec, result):
        with make_store(tmp_path) as store:
            store.put(spec, result)
            loaded = store.get(spec)
        assert_same_result(loaded, result)

    def test_miss_returns_none(self, tmp_path, spec):
        with make_store(tmp_path) as store:
            assert store.get(spec) is None
            assert spec not in store

    def test_contains_and_len_and_keys(self, tmp_path, spec, result):
        with make_store(tmp_path) as store:
            assert len(store) == 0
            store.put(spec, result)
            assert spec in store
            assert store.contains(spec)
            assert len(store) == 1
            assert store.keys() == [store_key(spec)]

    def test_put_overwrites_same_spec(self, tmp_path, spec, result):
        with make_store(tmp_path) as store:
            store.put(spec, result)
            store.put(spec, result)
            assert len(store) == 1

    def test_survives_reopen(self, tmp_path, spec, result):
        path = str(tmp_path / "durable.sqlite")
        with ResultStore(path) as store:
            store.put(spec, result)
        with ResultStore(path) as store:
            assert store.get(spec).trace.events == result.trace.events

    def test_corrupt_payload_reads_as_miss(self, tmp_path, spec, result):
        path = str(tmp_path / "corrupt.sqlite")
        with ResultStore(path) as store:
            store.put(spec, result)
        conn = sqlite3.connect(path)
        with conn:
            conn.execute("UPDATE results SET payload = ?",
                         (sqlite3.Binary(b"torn bytes"),))
        conn.close()
        with ResultStore(path) as store:
            assert store.get(spec) is None  # the spec simply re-runs


@pytest.fixture(scope="module", params=["crash", "two_faced", "trimmed",
                                        "shifted", "checkpointed"])
def any_result(request):
    """One result per payload shape a store or a pool pipe carries."""
    seven, four = default_parameters(n=7, f=2), default_parameters(n=4, f=1)
    if request.param == "crash":
        return execute(RunSpec.maintenance(seven, rounds=4, fault_kind="crash",
                                           seed=1), engine="serial")
    if request.param == "two_faced":
        return execute(RunSpec.maintenance(seven, rounds=4, seed=2),
                       engine="serial")
    if request.param == "trimmed":
        result = execute(RunSpec.maintenance(
            four, rounds=12, record_trace=False,
            observers=("skew", "validity"), seed=3))
        # the bounded histories trimmed: the horizon left the initial CORR
        assert any(h.corrections[0] != h.initial_correction
                   for h in map(result.trace.correction_history,
                                range(result.trace.n)))
        return result
    if request.param == "shifted":
        base = execute(RunSpec.maintenance(four, rounds=4, seed=4))
        shifts = {pid: 1e-3 * pid for pid in range(base.trace.n)}
        return dataclasses.replace(
            base, trace=shift_execution(base.trace, shifts).trace)
    result = execute(RunSpec.maintenance(four, rounds=6, checkpoint_every=1.0,
                                         seed=5))
    assert result.checkpoints > 0
    return result


class TestResultPickle:
    """A result crosses the pool pipe and the store as a pickle: exactly."""

    def test_roundtrip_is_exact_field_by_field(self, any_result):
        blob = pickle.dumps(any_result, protocol=pickle.HIGHEST_PROTOCOL)
        assert_same_result(pickle.loads(blob), any_result)

    def test_online_observer_still_shares_the_trace_clocks(self):
        result = execute(RunSpec.maintenance(default_parameters(n=4, f=1),
                                             rounds=3, observers=("skew",),
                                             seed=6))
        for run in (result, pickle.loads(pickle.dumps(result))):
            clocks = run.observers["skew"]._clocks
            assert clocks and all(
                clock is run.trace.view(pid).physical_clock
                for pid, clock in clocks.items())

    def test_pickle_carries_no_index(self, spec):
        result = execute(spec)
        result.trace.skew_series(sample_grid(0.0, result.end_time, 10))
        result.trace.events_named("update")
        assert result.trace._index is not None
        blob = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        for name in (b"TraceIndex", b"_events_by_name", b"_nonfaulty"):
            assert name not in blob
        loaded = pickle.loads(blob).trace
        assert loaded._index is None


class TestOneRepresentation:
    """Results hold each log event and CORR breakpoint once, as columns;
    event objects exist only while a caller holds what it asked for."""

    @staticmethod
    def live_event_objects():
        gc.collect()
        return sum(isinstance(obj, (TraceEvent, CorrectionEvent))
                   for obj in gc.get_objects())

    def test_runs_pickles_and_batches_build_no_event_objects(self):
        params = default_parameters(n=4, f=1)
        before = self.live_event_objects()
        traced = execute(RunSpec.maintenance(params, rounds=4, seed=7))
        assert traced.trace.log.names and self.live_event_objects() == before
        loaded = pickle.loads(pickle.dumps(traced,
                                           protocol=pickle.HIGHEST_PROTOCOL))
        assert self.live_event_objects() == before
        streamed = RunSpec.maintenance(params, rounds=12, record_trace=False,
                                       observers=("skew", "validity"))
        group = execute_batch([streamed.with_seed(s) for s in range(8)])
        assert len(group) == 8 and self.live_event_objects() == before
        # On demand, from the columns: the same events the run logged.
        assert loaded.trace.events == traced.trace.events
        assert len(traced.trace.events) == len(traced.trace.log.names)


class TestPayloadCompatibility:
    """Stored payloads outlive the build that wrote them."""

    def test_slot_state_payload_still_loads(self, result):
        data = SLOT_STATE_PAYLOAD.read_bytes()
        assert len(data) == 3032
        assert b"_from_columns" not in data  # really the older layout
        assert_same_result(pickle.loads(data), result)

    def test_slot_state_payload_is_a_store_hit(self, tmp_path, spec, result):
        path = str(tmp_path / "older.sqlite")
        with ResultStore(path) as store:
            store.put(spec, result)
        with sqlite3.connect(path) as conn:
            conn.execute("UPDATE results SET payload = ?",
                         (sqlite3.Binary(SLOT_STATE_PAYLOAD.read_bytes()),))
        conn.close()
        with ResultStore(path) as store:
            loaded = store.get(spec)
            assert store.corrupt_reads == 0
        assert_same_result(loaded, result)

    @pytest.mark.parametrize("name", ["fixture", "trimmed"])
    def test_columnar_payload_still_loads(self, name, spec):
        spec = spec if name == "fixture" else TRIMMED_SPEC
        payload = pickle.loads(COLUMNAR_PAYLOADS.read_bytes())[name]
        assert b"_from_columns" in payload  # really the columnar layout
        loaded, original = pickle.loads(payload), execute(spec)
        if name == "trimmed":
            assert any(h.corrections[0] != h.initial_correction
                       for h in map(loaded.trace.correction_history,
                                    range(loaded.trace.n)))
        assert_same_result(loaded, original)

    @pytest.mark.parametrize("name", ["fixture", "trimmed"])
    def test_columnar_payload_is_a_store_hit(self, name, tmp_path, spec):
        spec = spec if name == "fixture" else TRIMMED_SPEC
        payload = pickle.loads(COLUMNAR_PAYLOADS.read_bytes())[name]
        original = execute(spec)
        path = str(tmp_path / "columnar.sqlite")
        with ResultStore(path) as store:
            store.put(spec, original)
        with sqlite3.connect(path) as conn:
            conn.execute("UPDATE results SET payload = ?",
                         (sqlite3.Binary(payload),))
        conn.close()
        with ResultStore(path) as store:
            loaded = store.get(spec)
            assert store.corrupt_reads == 0
        assert_same_result(loaded, original)

    def test_reconstructor_names_are_pinned(self, result):
        # Literal names, like the schema-v2 key digests: every stored
        # payload names these functions, so renaming or moving one turns
        # each stored result into a counted corrupt miss.
        pinned = {"repro.sim.trace._trace_from_columns": result.trace,
                  "repro.clocks.logical._history_from_columns":
                      result.trace.correction_history(0)}
        blob = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        for name, obj in pinned.items():
            rebuild = obj.__reduce__()[0]
            assert f"{rebuild.__module__}.{rebuild.__qualname__}" == name
            assert rebuild.__qualname__.encode() in blob


class TestSchemaVersioning:
    def test_create_false_requires_existing_file(self, tmp_path):
        with pytest.raises(StoreError, match="no result store"):
            ResultStore(str(tmp_path / "absent.sqlite"), create=False)

    def test_newer_schema_refused(self, tmp_path, spec, result):
        path = str(tmp_path / "future.sqlite")
        with ResultStore(path) as store:
            store.put(spec, result)
        conn = sqlite3.connect(path)
        with conn:
            conn.execute("UPDATE meta SET value = '999' "
                         "WHERE key = 'schema_version'")
        conn.close()
        with pytest.raises(StoreVersionError, match="v999"):
            ResultStore(path)

    @staticmethod
    def v1_store(tmp_path, spec, result):
        path = str(tmp_path / "v1.sqlite")
        with ResultStore(path) as store:
            store.put(spec, result)
        conn = sqlite3.connect(path)
        with conn:
            conn.execute("UPDATE meta SET value = '1' "
                         "WHERE key = 'schema_version'")
        conn.close()
        return path

    def test_older_schema_refused_with_the_fix(self, tmp_path, spec,
                                              result):
        # A v1 store keys specs by a repr with engine fields, so a resume
        # would silently miss every row; it is refused instead.
        path = self.v1_store(tmp_path, spec, result)
        with pytest.raises(StoreVersionError, match="v1") as excinfo:
            ResultStore(path)
        message = str(excinfo.value)
        assert "fresh store" in message and "without --resume" in message

    def test_cli_refuses_older_store_with_one_error_line(self, tmp_path,
                                                         spec, result,
                                                         capsys):
        from repro.cli import main

        path = self.v1_store(tmp_path, spec, result)
        for argv in (["store", "status", path],
                     ["sweep", "--axis", "n", "--values", "4", "--rounds",
                      "2", "--store", path, "--resume"]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "fresh store" in err

    def test_schema_version_property(self, tmp_path):
        with make_store(tmp_path) as store:
            assert store.schema_version == SCHEMA_VERSION

    def test_concurrent_openers_of_a_new_store_all_succeed(self, tmp_path):
        # A sweep creating its store and a `store status` (or any poller)
        # opening it at the same moment race to switch it to WAL and to
        # write the version row: no opener may raise (IntegrityError and
        # "database is locked" each ended a sweep that way).
        import multiprocessing

        context = multiprocessing.get_context("fork")
        for trial in range(40):
            path = str(tmp_path / f"race{trial}.sqlite")
            barrier, outcomes = context.Barrier(3), context.Queue()
            openers = [context.Process(target=_open_store,
                                       args=(path, barrier, outcomes))
                       for _ in range(3)]
            for opener in openers:
                opener.start()
            results = [outcomes.get(timeout=30) for _ in openers]
            for opener in openers:
                opener.join(timeout=30)
                assert not opener.is_alive()
            assert results == ["ok"] * 3, results
            with ResultStore(path, create=False) as store:
                assert store.schema_version == SCHEMA_VERSION


def _open_store(path, barrier, outcomes):
    """Open (and so create) the store at ``path`` once every opener is ready."""
    barrier.wait()
    try:
        ResultStore(path).close()
        outcomes.put("ok")
    except Exception as err:  # reported to the test process, not raised
        outcomes.put(f"{type(err).__name__}: {err}")


class TestQuarantineLedger:
    def test_quarantine_recorded_most_recent_first(self, tmp_path, spec):
        other = spec.with_seed(9)
        with make_store(tmp_path) as store:
            store.quarantine(spec, failures=3, last_error="boom",
                             traceback_text="tb")
            store.quarantine(other, failures=1, last_error="later")
            records = store.quarantined()
        assert [r["last_error"] for r in records] == ["later", "boom"]
        assert records[1]["failures"] == 3
        assert records[1]["traceback"] == "tb"
        assert records[1]["spec_hash"] == store_key(spec)

    def test_successful_put_clears_quarantine(self, tmp_path, spec, result):
        with make_store(tmp_path) as store:
            store.quarantine(spec, failures=2, last_error="flaky")
            store.put(spec, result)
            assert store.quarantined() == []

    def test_quarantine_upserts(self, tmp_path, spec):
        with make_store(tmp_path) as store:
            store.quarantine(spec, failures=1, last_error="first")
            store.quarantine(spec, failures=2, last_error="second")
            records = store.quarantined()
        assert len(records) == 1
        assert records[0]["failures"] == 2


class TestStatusAndGc:
    def test_status_summary(self, tmp_path, spec, result):
        with make_store(tmp_path) as store:
            store.put(spec, result)
            store.put(spec.with_seed(1), execute(spec.with_seed(1)))
            store.quarantine(spec.with_seed(2), failures=3, last_error="x")
            status = store.status()
        assert status["results"] == 2
        assert status["quarantined"] == 1
        assert status["by_kind"] == {"maintenance": 2}
        assert status["schema_version"] == SCHEMA_VERSION
        assert status["size_bytes"] > 0
        assert status["oldest_created_at"] <= status["newest_created_at"]

    def test_gc_by_age(self, tmp_path, spec, result):
        with make_store(tmp_path) as store:
            store.put(spec, result)
            # Backdate the row so the age cutoff can catch it.
            with store._conn:
                store._conn.execute("UPDATE results SET created_at = ?",
                                    (time.time() - 1000,))
            removed = store.gc(older_than=100)
            assert removed["removed_results"] == 1
            assert len(store) == 0

    def test_gc_clear_quarantine(self, tmp_path, spec):
        with make_store(tmp_path) as store:
            store.quarantine(spec, failures=1, last_error="x")
            removed = store.gc(clear_quarantine=True, vacuum=False)
            assert removed["removed_quarantine"] == 1
            assert store.quarantined() == []

    def test_gc_rejects_negative_age(self, tmp_path):
        with make_store(tmp_path) as store:
            with pytest.raises(ValueError, match="older_than"):
                store.gc(older_than=-1)

    def test_gc_noop_removes_nothing(self, tmp_path, spec, result):
        with make_store(tmp_path) as store:
            store.put(spec, result)
            removed = store.gc()
            assert removed == {"removed_results": 0,
                               "removed_quarantine": 0}
            assert len(store) == 1


class TestChaosDiskFull:
    def test_scheduled_write_raises_enospc(self, tmp_path, spec, result):
        chaos = ChaosSchedule(store_full_writes={1})
        with make_store(tmp_path, chaos=chaos) as store:
            store.put(spec, result)  # write 0: fine
            with pytest.raises(OSError) as excinfo:
                store.put(spec.with_seed(1), result)  # write 1: full disk
            assert excinfo.value.errno == errno.ENOSPC
            # The failed write committed nothing; the store stays usable.
            assert len(store) == 1
            store.put(spec.with_seed(2), result)  # write 2: fine again
            assert len(store) == 2


class TestCorruptPayloadAccounting:
    """Corrupt payloads are counted misses, never silent ones."""

    def corrupt_all_rows(self, path):
        conn = sqlite3.connect(path)
        with conn:
            conn.execute("UPDATE results SET payload = ?",
                         (sqlite3.Binary(b"torn bytes"),))
        conn.close()

    def test_corrupt_read_bumps_counter(self, tmp_path, spec, result):
        path = str(tmp_path / "rot.sqlite")
        with ResultStore(path) as store:
            store.put(spec, result)
        self.corrupt_all_rows(path)
        with ResultStore(path) as store:
            assert store.corrupt_reads == 0
            assert store.get(spec) is None
            assert store.corrupt_reads == 1
            # every read of the damaged row counts, not just the first
            assert store.get(spec) is None
            assert store.corrupt_reads == 2
            # a plain cold miss is NOT counted as corruption
            assert store.get(spec.with_seed(99)) is None
            assert store.corrupt_reads == 2

    def test_corrupt_read_increments_telemetry_counter(self, tmp_path, spec,
                                                       result):
        from repro.telemetry import Telemetry, activated

        path = str(tmp_path / "rot.sqlite")
        with ResultStore(path) as store:
            store.put(spec, result)
        self.corrupt_all_rows(path)
        telemetry = Telemetry()
        with activated(telemetry), ResultStore(path) as store:
            assert store.get(spec) is None
        counter = telemetry.registry.counter("resilient.store.corrupt")
        assert counter.value == 1

    def test_no_telemetry_counter_without_active_telemetry(self, tmp_path,
                                                           spec, result):
        from repro.telemetry import Telemetry, activated

        path = str(tmp_path / "rot.sqlite")
        with ResultStore(path) as store:
            store.put(spec, result)
        self.corrupt_all_rows(path)
        with ResultStore(path) as store:  # no ambient telemetry: no crash
            assert store.get(spec) is None
            assert store.corrupt_reads == 1
        telemetry = Telemetry()
        with activated(telemetry):
            pass
        assert telemetry.registry.counter("resilient.store.corrupt").value == 0

    def test_scan_corrupt_and_status_surface_rot(self, tmp_path, spec,
                                                 result):
        path = str(tmp_path / "rot.sqlite")
        with ResultStore(path) as store:
            store.put(spec, result)
            store.put(spec.with_seed(1), result)
        self.corrupt_all_rows(path)
        with ResultStore(path) as store:
            assert store.scan_corrupt() == 2
            status = store.status()
            assert status["corrupt_payloads"] == 2
            assert status["results"] == 2  # rows still present, just rotten

    def test_healthy_store_reports_zero_corruption(self, tmp_path, spec,
                                                   result):
        with make_store(tmp_path) as store:
            store.put(spec, result)
            assert store.scan_corrupt() == 0
            assert store.status()["corrupt_payloads"] == 0
            assert store.corrupt_reads == 0

    def test_cli_store_status_renders_corruption(self, tmp_path, spec,
                                                 result, capsys):
        from repro.cli import main

        path = str(tmp_path / "rot.sqlite")
        with ResultStore(path) as store:
            store.put(spec, result)
        self.corrupt_all_rows(path)
        assert main(["store", "status", path]) == 0
        out = capsys.readouterr().out
        assert "corrupt_payloads" in out
