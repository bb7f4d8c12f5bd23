"""Hypothesis parity suite: the per-round large-n engine vs the serial loop.

The round engine (:mod:`repro.sim.roundengine`) promises *bit identity* with
the serial event loop — not statistical agreement.  For random supported
configurations (system size, topology, fault mix, clock/delay family, seed)
these properties compare every observable surface of the results:

* message statistics and per-process send counts;
* start times, end time, faulty sets;
* the full per-process correction histories (times, corrections, events);
* the online skew and validity observers, down to their internal sample
  points and capture tables.

Each engine-side run is telemetry-instrumented so the properties assert the
engine actually *ran* (``roundengine.rounds`` advanced, zero fallbacks) —
a silent serial fallback would make parity trivially true and test nothing.

The suite runs on both TraceIndex backends (the ``REPRO_NO_NUMPY`` toggle):
under the pure-python backend the engine declines every spec ("numpy is
off") and ``execute`` must degrade to the serial loop, so parity is
trivially exact there too — the property then guards the fallback wiring.
The same file also pins the topology-index satellites: the memoized index
cache (hits counted in telemetry), the ``delay_envelope`` fast path's
equality with the python route walk, and the Topology's CSR storage: the
numpy and the per-edge builds give identical arrays, and the index views
them in place.
"""

import pickle
from collections import OrderedDict

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import default_parameters
from repro.runner.spec import RunSpec, engine_for, execute
from repro.sim import roundengine, traceindex
from repro.telemetry import Telemetry
from repro.topology.base import Topology, canonical_link
from repro.topology.generators import TOPOLOGY_GENERATORS, make_topology
from repro.topology.routing import delay_envelope

SLOW = settings(max_examples=10, deadline=None,
                suppress_health_check=[HealthCheck.too_slow,
                                       HealthCheck.function_scoped_fixture])

TOPOLOGIES = (None, "star", "grid", "complete", "hierarchy")


@pytest.fixture(params=["numpy", "python"])
def backend(request):
    """Run each property on both TraceIndex backends."""
    if request.param == "numpy" and not traceindex.numpy_available():
        pytest.skip("numpy not installed")
    previous = traceindex.numpy_enabled()
    traceindex.use_numpy(request.param == "numpy")
    yield request.param
    traceindex.use_numpy(previous)


@st.composite
def engine_specs(draw):
    """A random spec the round engine claims to support."""
    f = draw(st.integers(min_value=0, max_value=2))
    tolerated = max(1, f)
    n = draw(st.integers(min_value=3 * tolerated + 1,
                         max_value=3 * tolerated + 3))
    params = default_parameters(n=n, f=tolerated)
    fault_kind = draw(st.sampled_from(
        sorted(roundengine.ROUND_FAULT_KINDS))) if f else None
    spec = RunSpec.maintenance(
        params,
        rounds=draw(st.integers(min_value=1, max_value=4)),
        fault_kind=fault_kind,
        fault_count=f if f else None,
        clock_kind=draw(st.sampled_from(["constant", "perfect"])),
        delay=draw(st.sampled_from(["uniform", "fixed"])),
        topology=draw(st.sampled_from(TOPOLOGIES)),
        seed=draw(st.integers(min_value=0, max_value=2 ** 16)),
        record_trace=False,
        observers=draw(st.sampled_from(
            [("skew", "validity"), ("skew",), ()])),
    )
    return spec


def _history_key(history):
    return (tuple(history.times), tuple(history.corrections),
            tuple((e.real_time, e.adjustment, e.new_correction, e.round_index)
                  for e in history.events))


def _assert_identical(spec, a, b):
    sa, sb = a.trace.stats, b.trace.stats
    assert (sa.sent, sa.delivered, sa.dropped, sa.relayed, sa.timers_set,
            sa.timers_fired) == (sb.sent, sb.delivered, sb.dropped,
                                 sb.relayed, sb.timers_set, sb.timers_fired)
    assert dict(sa.per_process_sent) == dict(sb.per_process_sent)
    assert a.start_times == b.start_times
    assert a.end_time == b.end_time
    assert a.trace.faulty_ids == b.trace.faulty_ids
    for pid in range(spec.params.n):
        assert _history_key(a.trace.correction_history(pid)) == \
            _history_key(b.trace.correction_history(pid))
    skew_a, skew_b = a.online("skew"), b.online("skew")
    assert (skew_a is None) == (skew_b is None)
    if skew_a is not None:
        assert skew_a.max_skew == skew_b.max_skew
        assert skew_a.samples == skew_b.samples
        assert skew_a._points == skew_b._points
    val_a, val_b = a.online("validity"), b.online("validity")
    assert (val_a is None) == (val_b is None)
    if val_a is not None:
        assert val_a.violations == val_b.violations
        assert val_a.samples == val_b.samples
        ra, rb = val_a.report(), val_b.report()
        assert (ra.min_rate, ra.max_rate, ra.samples, ra.violations) == \
            (rb.min_rate, rb.max_rate, rb.samples, rb.violations)
        assert val_a._captures == val_b._captures


def _run_engine(spec, expect_engine, engine="round"):
    """Execute with telemetry; assert the round engine did (not) run.

    ``expect_engine`` is tri-state: ``True`` — the engine must complete every
    round with no fallback; ``False`` — it must never run; ``None`` — either
    a clean engine run or a counted whole-run fallback is acceptable (clock
    configurations that align logical clocks exactly, e.g. perfect rates
    over fixed delays, legitimately trip the tied-send-time guard).
    """
    telemetry = Telemetry()
    result = execute(spec, telemetry=telemetry, engine=engine)
    snapshot = telemetry.registry.snapshot()
    rounds = snapshot.get("roundengine.rounds", {}).get("value", 0.0)
    fallbacks = snapshot.get("roundengine.fallbacks", {}).get("value", 0.0)
    if expect_engine:
        assert rounds == spec.rounds and fallbacks == 0.0
    elif expect_engine is False:
        assert rounds == 0.0
    else:
        assert (rounds == spec.rounds and fallbacks == 0.0) \
            or (rounds == 0.0 and fallbacks >= 1.0)
    return result


class TestRoundEngineParity:
    @SLOW
    @given(spec=engine_specs())
    def test_engine_is_bit_identical_to_serial(self, backend, spec):
        """Engine run == serial run on every observable surface."""
        assert roundengine.decline_reason(spec) == (
            None if backend == "numpy" else "numpy is off")
        serial = execute(spec, engine="serial")
        # Constant clocks (distinct random rates) must take the clean path;
        # perfect clocks can align logical clocks exactly after a correction
        # and legitimately trip the tied-send-time fallback — parity must
        # hold either way.
        if backend != "numpy":
            expect = False
        elif spec.clock_kind == "perfect":
            expect = None
        else:
            expect = True
        engine = _run_engine(spec, expect_engine=expect)
        _assert_identical(spec, serial, engine)

    @SLOW
    @given(spec=engine_specs())
    def test_engine_availability_tracks_backend(self, backend, spec):
        """The engine is live exactly when the numpy backend is active."""
        assert (roundengine.decline_reason(spec) is None) == \
            (backend == "numpy")

    def test_serial_engine_falls_back_to_serial(self, backend):
        """engine="serial" runs the serial loop, identically."""
        params = default_parameters(n=7, f=2)
        spec = RunSpec.maintenance(params, rounds=3, fault_kind="crash",
                                   fault_count=2, topology="star",
                                   record_trace=False,
                                   observers=("skew", "validity"))
        reference = _run_engine(spec, expect_engine=(backend == "numpy"))
        assert engine_for(spec, "serial") == "serial"
        disabled = _run_engine(spec, expect_engine=False, engine="serial")
        _assert_identical(spec, reference, disabled)

    def test_unexpected_error_degrades_to_serial(self, backend, monkeypatch):
        """A non-_Fallback engine crash takes the serial path, counted.

        The docstring contract is that try_execute never escapes: unexpected
        numpy errors from the index build or the engine are absorbed into
        ``roundengine.errors`` (plus the usual fallback count) and the serial
        reference result comes back unchanged.
        """
        if backend == "python":
            pytest.skip("engine needs the numpy backend")
        params = default_parameters(n=7, f=2)
        spec = RunSpec.maintenance(params, rounds=3, fault_kind="crash",
                                   fault_count=2, topology="star",
                                   record_trace=False,
                                   observers=("skew", "validity"))
        serial = execute(spec, engine="serial")

        def boom(self):
            raise RuntimeError("injected engine failure")

        monkeypatch.setattr(roundengine.RoundSystem, "run", boom)
        telemetry = Telemetry()
        result = execute(spec, telemetry=telemetry, engine="round")
        snapshot = telemetry.registry.snapshot()
        assert snapshot["roundengine.errors"]["value"] == 1.0
        assert snapshot["roundengine.fallbacks"]["value"] == 1.0
        assert snapshot.get("roundengine.rounds", {}).get("value", 0.0) == 0.0
        _assert_identical(spec, serial, result)

    def test_larger_run_smoke(self, backend):
        """One deterministic n=40 hierarchy case beyond hypothesis' sizes."""
        params = default_parameters(n=40, f=3)
        spec = RunSpec.maintenance(params, rounds=6, fault_kind="silent",
                                   fault_count=3, topology="hierarchy",
                                   record_trace=False,
                                   observers=("skew", "validity"))
        serial = execute(spec, engine="serial")
        engine = _run_engine(spec, expect_engine=(backend == "numpy"))
        _assert_identical(spec, serial, engine)


@pytest.fixture
def numpy_on():
    """Force the numpy backend (the engine's chunked kernels need it)."""
    if not traceindex.numpy_available():
        pytest.skip("numpy not installed")
    previous = traceindex.numpy_enabled()
    traceindex.use_numpy(True)
    yield
    traceindex.use_numpy(previous)


class _RecordingRNG:
    """Wraps the engine's mirrored RNG and records each draw request."""

    def __init__(self, rng):
        self.rng = rng
        self.sizes = []

    def random_sample(self, size):
        self.sizes.append(size)
        return self.rng.random_sample(size)


class TestChunkedRelayKernel:
    """Rounds split into many draw-bounded chunks stay bit-identical.

    The parity properties above use n ≤ 40, where every round is one chunk.
    Here ``_CHUNK_CELLS`` is patched down to a few draws, so the serial
    draw ledger is split between chunks (down to one sender per chunk), on
    both distance sources: the index's dense (n, n) cache and, with
    ``_DENSE_DIST_MAX_N`` patched to 0, the per-chunk BFS.
    """

    @pytest.mark.parametrize("dense", [True, False],
                             ids=["dense-dist", "bfs-dist"])
    @pytest.mark.parametrize("delay", ["uniform", "fixed"])
    @pytest.mark.parametrize("fault_kind", ["silent", "crash"])
    @pytest.mark.parametrize("topology", ["hierarchy", "grid", "star"])
    def test_chunk_boundaries_are_exact(self, numpy_on, monkeypatch,
                                        topology, fault_kind, delay, dense):
        from repro.topology import index as index_module

        monkeypatch.setattr(index_module, "_lru", OrderedDict())
        if not dense:
            monkeypatch.setattr(index_module, "_DENSE_DIST_MAX_N", 0)
        params = default_parameters(n=26, f=2)
        spec = RunSpec.maintenance(params, rounds=4, fault_kind=fault_kind,
                                   fault_count=2, delay=delay,
                                   topology=topology, seed=11,
                                   record_trace=False,
                                   observers=("skew", "validity"))
        serial = execute(spec, engine="serial")
        for chunk in (3, 150):
            monkeypatch.setattr(roundengine, "_CHUNK_CELLS", chunk)
            engine = _run_engine(spec, expect_engine=True)
            _assert_identical(spec, serial, engine)
        index = index_module.topology_index(make_topology(topology, 26))
        assert (index._dist is not None) == dense

    def test_draws_stay_within_the_chunk_bound(self, numpy_on, monkeypatch):
        """No single draw request exceeds ``_CHUNK_CELLS`` values.

        At n=60 on the hierarchy a sender's broadcast draws ~200 delays, so a
        1000-draw bound packs a few senders per chunk; sizing chunks by
        sender×receiver pairs instead asks for several thousand at once.
        """
        monkeypatch.setattr(roundengine, "_CHUNK_CELLS", 1000)
        mirror_rng = roundengine._mirror_rng
        rngs = []

        def recording_rng(seed):
            rngs.append(_RecordingRNG(mirror_rng(seed)))
            return rngs[-1]

        monkeypatch.setattr(roundengine, "_mirror_rng", recording_rng)
        params = default_parameters(n=60, f=3)
        spec = RunSpec.maintenance(params, rounds=4, fault_kind="crash",
                                   fault_count=3, topology="hierarchy",
                                   record_trace=False,
                                   observers=("skew", "validity"))
        engine = _run_engine(spec, expect_engine=True)
        sizes = [size for rng in rngs for size in rng.sizes]
        assert len(rngs) == 1 and len(sizes) > spec.rounds
        assert max(sizes) <= 1000
        _assert_identical(spec, execute(spec, engine="serial"), engine)


class TestTopologyIndex:
    def test_index_memoized_with_telemetry_counter(self, backend):
        """Repeat access returns the same index and counts a cache hit."""
        from repro.telemetry import activated
        from repro.topology.index import maybe_index

        topology = make_topology("grid", 12)
        if backend == "python":
            assert maybe_index(topology) is None
            return
        telemetry = Telemetry()
        with activated(telemetry):
            first = maybe_index(topology)
            second = maybe_index(topology)
        assert first is not None and first is second
        hits = telemetry.registry.snapshot().get(
            "topology.index_cache_hits", {}).get("value", 0.0)
        assert hits >= 1.0

    def test_index_views_the_topology_csr(self, backend, monkeypatch):
        """The index's CSR is the topology's own buffer, not a copy."""
        from repro.topology import index as index_module

        if backend == "python":
            pytest.skip("index needs the numpy backend")
        import numpy as np

        monkeypatch.setattr(index_module, "_lru", OrderedDict())
        topology = make_topology("grid", 12)
        index = index_module.topology_index(topology)
        for view, table in ((index.indices, topology.indices),
                            (index.indptr, topology.indptr)):
            assert np.shares_memory(view, np.frombuffer(table, dtype=np.int64))
            assert not view.flags.writeable

    def test_equal_topologies_share_index(self, backend):
        """The equality-keyed LRU serves rebuilt-but-equal topologies."""
        from repro.topology.index import maybe_index

        if backend == "python":
            pytest.skip("index needs the numpy backend")
        first = maybe_index(make_topology("star", 9))
        second = maybe_index(make_topology("star", 9))
        assert first is not None and first is second

    @pytest.mark.parametrize("kind,n", [("complete", 8), ("star", 9),
                                        ("grid", 12), ("ring", 7),
                                        ("hierarchy", 23),
                                        ("clustered", 10)])
    def test_delay_envelope_fast_path_matches_walk(self, backend, kind, n):
        """The index fast path equals the python route walk bit for bit."""
        topology = make_topology(kind, n)
        envelope = delay_envelope(topology, delta=0.01, epsilon=0.002)
        previous = traceindex.numpy_enabled()
        traceindex.use_numpy(False)  # forces the python route walk
        try:
            reference = delay_envelope(topology, delta=0.01, epsilon=0.002)
        finally:
            traceindex.use_numpy(previous)
        assert envelope == reference

    def test_delay_envelope_extra_delays_use_walk(self, backend):
        """Per-link extras disable the fast path and stay exact."""
        from repro.topology.base import Topology

        ring = make_topology("ring", 6)
        topology = Topology(6, ring.links(), name="ring",
                            extra_delay={(0, 1): 0.005})
        envelope = delay_envelope(topology, delta=0.01, epsilon=0.002)
        assert envelope[1] >= 3 * 0.012  # the 3-hop route through the extra

    def test_trailing_isolated_node_matches_python_walk(self, backend):
        """Regression: an isolated highest-numbered node crashed the BFS.

        Such nodes leave ``len(indices)`` in the reduceat offsets; the index
        must pad rather than clip (clipping truncates the previous node's
        neighbor segment), staying exactly equal to the python walk.
        """
        from repro.topology.generators import random_gnp
        from repro.topology.index import maybe_index

        for seed in range(8):
            topology = random_gnp(6, p=0.2, seed=seed, connect=False)
            reference = 0
            for source in range(topology.n):
                distances = topology.hop_distances(source)
                reference = max(reference, max(distances.values()))
            assert topology.diameter() == reference
            index = maybe_index(topology)
            if backend == "python":
                assert index is None
                continue
            rows = index.dist_rows(list(range(topology.n)))
            for source in range(topology.n):
                distances = topology.hop_distances(source)
                for node in range(topology.n):
                    assert rows[source][node] == distances.get(node, -1)

    @pytest.mark.parametrize("n,links", [
        (8, [(0, 1), (1, 2), (2, 3), (4, 5)]),          # 6, 7 isolated
        (6, [(0, 2), (2, 4), (4, 0), (1, 3)]),          # 5 isolated
        (5, []),                                        # no links at all
        (7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]),
    ])
    def test_draw_totals_match_python_walk(self, backend, n, links):
        """draw_totals and the hop extrema equal a pure-python BFS walk.

        A broadcast draws once per hop to every reachable receiver and once
        for its loopback copy; unreachable receivers draw nothing.
        """
        from repro.topology.index import maybe_index

        topology = Topology(n, links)
        index = maybe_index(topology)
        if backend == "python":
            assert index is None
            return
        totals, hops = [], []
        for source in range(n):
            distances = topology.hop_distances(source)
            totals.append(1 + sum(distances.values()))
            hops += [d for node, d in distances.items() if node != source]
        assert index.draw_totals.tolist() == totals
        assert index.min_pair_hops == (min(hops) if hops else 0)
        assert index.max_pair_hops == (max(hops) if hops else 0)
        assert index.diameter == index.max_pair_hops
        assert index.connected == (len(topology.components()) == 1)

    def test_distance_arrays_are_int32(self, backend):
        """Regression: int16 hop levels overflow (OverflowError on numpy 2.x)
        once a diameter exceeds 32767 — inside the module's 10^4–10^5 target
        scale for line/ring shapes."""
        from repro.topology.index import maybe_index

        if backend == "python":
            pytest.skip("index needs the numpy backend")
        index = maybe_index(make_topology("ring", 9))
        assert index._dist.dtype.name == "int32"
        assert index.dist_rows([0, 4]).dtype.name == "int32"
        complete = maybe_index(make_topology("complete", 5))
        assert complete.dist_rows([1]).dtype.name == "int32"

    def test_hierarchy_shape(self):
        """The new generator: connected star-of-stars with diameter 4."""
        topology = make_topology("hierarchy", 50)
        assert topology.n == 50
        assert topology.is_connected()
        assert topology.diameter() == 4
        hubs = make_topology("hierarchy", 50, hubs=3)
        assert len(hubs.neighbors(0)) == 3


@st.composite
def edge_lists(draw):
    """``(n, edges)`` with duplicates, reversed pairs and isolated nodes.

    Edges only touch the first ``core`` nodes, so up to three trailing
    nodes stay isolated; ``core == 1`` has no edges and covers n=1.
    """
    core = draw(st.integers(1, 9))
    n = core + draw(st.integers(0, 3))
    edges = []
    if core > 1:
        node = st.integers(0, core - 1)
        edges = draw(st.lists(st.tuples(node, node).filter(
            lambda pair: pair[0] != pair[1]), max_size=30))
    if edges:
        again = draw(st.lists(st.sampled_from(edges), max_size=6))
        edges += again + [(v, u) for u, v in again]
    return n, draw(st.permutations(edges))


def _build_both(n, edges, **kwargs):
    """The same topology built with the numpy and the per-edge backend."""
    previous = traceindex.numpy_enabled()
    try:
        traceindex.use_numpy(True)
        vectorized = Topology(n, edges, **kwargs)
        traceindex.use_numpy(False)
        looped = Topology(n, edges, **kwargs)
    finally:
        traceindex.use_numpy(previous)
    return vectorized, looped


def _assert_same_graph(a, b):
    assert a.indptr == b.indptr and a.indices == b.indices
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert a.links() == b.links()
    assert a.components() == b.components()
    for pid in range(a.n):
        assert a.neighbors(pid) == b.neighbors(pid)
        assert a.hop_distances(pid) == b.hop_distances(pid)
        # Same BFS discovery order, not just the same distances.
        assert list(a.hop_distances(pid)) == list(b.hop_distances(pid))


class TestTopologyCSR:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=edge_lists())
    def test_backends_build_identical_csr(self, backend, case):
        """numpy on and off normalize any edge list to the same CSR."""
        n, edges = case
        vectorized, looped = _build_both(n, edges)
        _assert_same_graph(vectorized, looped)
        links = sorted({canonical_link(u, v) for u, v in edges})
        assert vectorized.links() == links
        assert vectorized.link_count == len(links)
        for pid in range(n):
            expected = sorted({v for u, v in edges if u == pid}
                              | {u for u, v in edges if v == pid})
            assert vectorized.neighbors(pid) == tuple(expected)
            assert vectorized.degree(pid) == len(expected)

    @pytest.mark.parametrize("kind", sorted(TOPOLOGY_GENERATORS))
    @pytest.mark.parametrize("n", [4, 9, 30])
    def test_generators_build_identical_csr(self, backend, kind, n):
        """Every generator gives the same graph under both backends."""
        previous = traceindex.numpy_enabled()
        try:
            traceindex.use_numpy(True)
            vectorized = make_topology(kind, n, seed=3)
            traceindex.use_numpy(False)
            looped = make_topology(kind, n, seed=3)
        finally:
            traceindex.use_numpy(previous)
        _assert_same_graph(vectorized, looped)
        rebuilt, _ = _build_both(n, looped.links())
        assert rebuilt == looped
        if backend == "numpy":
            # A topology built with numpy off indexes like one built with it.
            from repro.topology.index import TopologyIndex
            a, b = TopologyIndex(vectorized), TopologyIndex(looped)
            assert (a.indptr == b.indptr).all()
            assert (a.indices == b.indices).all()
            assert (a.draw_totals == b.draw_totals).all()
            assert (a.diameter, a.connected) == (b.diameter, b.connected)

    def test_pickle_round_trip_preserves_equality(self, backend):
        from repro.topology.index import maybe_index

        topology = Topology(6, [(0, 1), (1, 2), (4, 2)], name="line",
                            extra_delay={(2, 1): 0.003},
                            drop_probability={(0, 1): 0.25})
        maybe_index(topology)
        copy = pickle.loads(pickle.dumps(topology))
        assert "_topology_index" not in copy.__dict__
        assert copy == topology and hash(copy) == hash(topology)
        assert repr(copy) == repr(topology)
        assert copy.links() == topology.links()
        assert copy.extra_delay(1, 2) == 0.003
