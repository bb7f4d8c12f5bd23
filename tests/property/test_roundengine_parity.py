"""Hypothesis parity suite: the round kernel vs the serial loop.

The round kernel (:class:`repro.sim.roundengine.RoundSystem`) promises *bit
identity* with the serial event loop — not statistical agreement — in both
of its groupings:

* ``lone``: one spec through ``execute(engine="kernel")``, on the complete
  graph or any connected topology;
* ``grouped``: seed replicas of one spec in lockstep through
  :func:`~repro.sim.vectorized.execute_batch`, on the complete graph with
  Byzantine attackers.

For random supported configurations (system size, topology, fault mix,
clock/delay family, seeds) these properties compare every observable surface
of the results:

* message statistics and per-process send counts;
* start times, end time, faulty sets;
* the full per-process correction histories (times, corrections, events);
* the online skew and validity observers, down to their internal sample
  points and capture tables.

Each kernel-side run is telemetry-instrumented so the properties assert the
kernel actually *ran* (``roundengine.rounds`` or
``runner.vectorized_replicas`` advanced, zero fallbacks) — a silent serial
fallback would make parity trivially true and test nothing.  Every reason
the kernel records for leaving its clean path is forced once, and the event
budget's boundary is pinned for both groupings.

The suite runs on both TraceIndex backends (the ``REPRO_NO_NUMPY`` toggle):
under the pure-python backend the kernel declines every spec ("numpy is
off") and both entry points must degrade to the serial loop, so parity is
trivially exact there too — the property then guards the fallback wiring.
The same file also pins the topology-index satellites: the memoized index
cache (hits counted in telemetry), the ``delay_envelope`` fast path's
equality with the python route walk, and the Topology's CSR storage: the
numpy and the per-edge builds give identical arrays, and the index views
them in place.
"""

import dataclasses
import pickle
from collections import OrderedDict

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import experiments
from repro.analysis.experiments import default_parameters, maintenance_end_time
from repro.clocks.drift import ConstantRateClock, make_clock_ensemble
from repro.runner import BatchRunner
from repro.runner import spec as spec_module
from repro.runner.spec import RunSpec, engine_for, execute
from repro.sim import roundengine, traceindex
from repro.sim.events import EventBudgetExceeded
from repro.sim.system import _BOUNDED_HISTORY_ENTRIES
from repro.sim.vectorized import execute_batch
from repro.telemetry import Telemetry, activated
from repro.topology.base import Topology, canonical_link
from repro.topology.generators import TOPOLOGY_GENERATORS, make_topology
from repro.topology.routing import delay_envelope
from repro.topology.spec import build_topology

SLOW = settings(max_examples=10, deadline=None,
                suppress_health_check=[HealthCheck.too_slow,
                                       HealthCheck.function_scoped_fixture])

TOPOLOGIES = (None, "star", "grid", "complete", "hierarchy")

#: the fault kinds the kernel runs on an explicit topology.
TOPOLOGY_FAULT_KINDS = ("crash", "silent")

GROUPINGS = ("lone", "grouped")


@pytest.fixture(params=["numpy", "python"])
def backend(request):
    """Run each property on both TraceIndex backends."""
    if request.param == "numpy" and not traceindex.numpy_available():
        pytest.skip("numpy not installed")
    previous = traceindex.numpy_enabled()
    traceindex.use_numpy(request.param == "numpy")
    yield request.param
    traceindex.use_numpy(previous)


@pytest.fixture
def numpy_on():
    """Force the numpy backend (the kernel needs it)."""
    if not traceindex.numpy_available():
        pytest.skip("numpy not installed")
    previous = traceindex.numpy_enabled()
    traceindex.use_numpy(True)
    yield
    traceindex.use_numpy(previous)


@st.composite
def lone_specs(draw):
    """A random spec the kernel runs alone, and its one seed."""
    f = draw(st.integers(min_value=0, max_value=2))
    tolerated = max(1, f)
    n = draw(st.integers(min_value=3 * tolerated + 1,
                         max_value=3 * tolerated + 3))
    params = default_parameters(n=n, f=tolerated)
    fault_kind = draw(st.sampled_from(TOPOLOGY_FAULT_KINDS)) if f else None
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
    return spec, [spec.seed]


@st.composite
def group_specs(draw):
    """A random spec the kernel runs as a replica group, plus a seed batch."""
    f = draw(st.integers(min_value=0, max_value=2))
    tolerated = max(1, f)
    n = draw(st.integers(min_value=3 * tolerated + 1,
                         max_value=3 * tolerated + 2))
    params = default_parameters(n=n, f=tolerated)
    fault_kind = draw(st.sampled_from(sorted(roundengine.FAULT_KINDS))) if f \
        else None
    spec = RunSpec.maintenance(
        params,
        rounds=draw(st.integers(min_value=1, max_value=4)),
        fault_kind=fault_kind,
        fault_count=f if f else None,
        clock_kind=draw(st.sampled_from(["constant", "perfect"])),
        delay=draw(st.sampled_from(["uniform", "fixed"])),
        record_trace=False,
        observers=draw(st.sampled_from(
            [("skew", "validity"), ("skew",), ()])),
    )
    base = draw(st.integers(min_value=0, max_value=2 ** 16))
    seeds = list(range(base, base + draw(st.integers(min_value=2,
                                                     max_value=5))))
    return spec, seeds


STRATEGIES = {"lone": lone_specs(), "grouped": group_specs()}


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


def _assert_all_serial(spec, seeds, results):
    """Each result equals the serial run of its seed."""
    assert len(results) == len(seeds)
    for seed, result in zip(seeds, results):
        _assert_identical(spec, execute(spec.with_seed(seed), engine="serial"),
                          result)


def _run_engine(spec, seeds, expect_engine, grouping="lone", engine="kernel"):
    """Run ``spec`` under ``seeds`` with telemetry; check the kernel ran.

    ``lone`` runs each seed through ``execute(engine=...)`` and reads the
    ``roundengine.*`` counters; ``grouped`` runs them all through
    ``execute_batch`` and reads ``runner.vectorized_*``.  ``expect_engine``
    is tri-state: ``True`` — every seed ran on the kernel with no fallback;
    ``False`` — none did; ``None`` — each seed either ran or was counted as
    a fallback (clock configurations that align logical clocks exactly,
    e.g. perfect rates over fixed delays, legitimately trip the
    tied-send-time exit).
    """
    telemetry = Telemetry()
    registry = telemetry.registry
    specs = [spec.with_seed(seed) for seed in seeds]
    if grouping == "lone":
        with activated(telemetry):
            results = [execute(one, engine=engine) for one in specs]
        ran = registry.value("roundengine.rounds") / spec.rounds
        fell = registry.value("roundengine.fallbacks")
    else:
        with activated(telemetry):
            results = execute_batch(specs)
        ran = registry.value("runner.vectorized_replicas")
        fell = registry.value("runner.vectorized_fallbacks")
    unique = len(set(seeds))
    if expect_engine:
        assert (ran, fell) == (unique, 0)
    elif expect_engine is False:
        assert ran == 0
    else:
        assert ran + fell == unique
    return results


class TestParity:
    @pytest.mark.parametrize("grouping", GROUPINGS)
    @SLOW
    @given(data=st.data())
    def test_kernel_is_bit_identical_to_serial(self, backend, grouping, data):
        """Kernel run == serial run on every observable surface."""
        spec, seeds = data.draw(STRATEGIES[grouping])
        assert roundengine.decline_reason(spec, len(seeds)) == (
            None if backend == "numpy" else "numpy is off")
        serial = [execute(spec.with_seed(s), engine="serial") for s in seeds]
        # Constant clocks (distinct random rates) under uniform delays must
        # take the clean path.  Perfect clocks can align logical clocks
        # exactly after a correction, and fixed delays can tie two senders'
        # broadcast times (test_fixed_delays_can_tie_send_times): both
        # legitimately trip the tied-send-time exit, and parity must hold
        # either way.
        if backend != "numpy":
            expect = False
        elif spec.clock_kind == "perfect" or spec.delay == "fixed":
            expect = None
        else:
            expect = True
        results = _run_engine(spec, seeds, expect, grouping)
        for a, b in zip(serial, results):
            _assert_identical(spec, a, b)

    @pytest.mark.parametrize("grouping", GROUPINGS)
    def test_fixed_delays_can_tie_send_times(self, numpy_on, monkeypatch,
                                             grouping):
        """A drawn case: constant clocks, fixed delays, seeds 386-390.

        In the serial run of seed 390 pids 2 and 3 both broadcast at real
        time 1.2642086551245035, so that seed alone leaves the clean path
        ("tied send times", as the kernel's docstring lists) and re-runs
        serially; every result equals its serial run.
        """
        spec = RunSpec.maintenance(
            default_parameters(n=5, f=1), rounds=4, fault_kind="two_faced",
            fault_count=1, clock_kind="constant", delay="fixed",
            record_trace=False, observers=("skew", "validity"))
        seeds = list(range(386, 391))
        specs = [spec.with_seed(seed) for seed in seeds]
        if grouping == "grouped":
            engine = roundengine.RoundSystem(spec, seeds)
            engine.run()
            assert engine.reason == [None] * 4 + ["tied send times"]
            reruns = _record_serial_reruns(monkeypatch)
            results = execute_batch(specs)
            assert reruns == [390]
        else:
            results, fell = [], []
            for one in specs:
                engine = roundengine.RoundSystem(one, [one.seed])
                engine.run()
                telemetry = Telemetry()
                with activated(telemetry):
                    results.append(execute(one, engine="kernel"))
                if telemetry.registry.value("roundengine.fallbacks"):
                    fell.append((one.seed, engine.reason[0]))
            assert fell == [(390, "tied send times")]
        _assert_all_serial(spec, seeds, results)

    @pytest.mark.parametrize("grouping", GROUPINGS)
    @SLOW
    @given(data=st.data())
    def test_kernel_availability_tracks_backend(self, backend, grouping,
                                                data):
        """The kernel is live exactly when the numpy backend is active."""
        spec, seeds = data.draw(STRATEGIES[grouping])
        assert (roundengine.decline_reason(spec, len(seeds)) is None) == \
            (backend == "numpy")

    def test_serial_engine_falls_back_to_serial(self, backend):
        """engine="serial" runs the serial loop, identically."""
        params = default_parameters(n=7, f=2)
        spec = RunSpec.maintenance(params, rounds=3, fault_kind="crash",
                                   fault_count=2, topology="star",
                                   record_trace=False,
                                   observers=("skew", "validity"))
        reference, = _run_engine(spec, [spec.seed],
                                 expect_engine=(backend == "numpy"))
        assert engine_for(spec, "serial") == "serial"
        disabled, = _run_engine(spec, [spec.seed], expect_engine=False,
                                engine="serial")
        _assert_identical(spec, reference, disabled)

    def test_larger_run_smoke(self, backend):
        """One deterministic n=40 hierarchy case beyond hypothesis' sizes."""
        params = default_parameters(n=40, f=3)
        spec = RunSpec.maintenance(params, rounds=6, fault_kind="silent",
                                   fault_count=3, topology="hierarchy",
                                   record_trace=False,
                                   observers=("skew", "validity"))
        serial = execute(spec, engine="serial")
        engine, = _run_engine(spec, [spec.seed],
                              expect_engine=(backend == "numpy"))
        _assert_identical(spec, serial, engine)

    def test_larger_batch_smoke(self, backend):
        """One deterministic n=13, S=16 case beyond hypothesis' sizes."""
        params = default_parameters(n=13, f=4)
        spec = RunSpec.maintenance(params, rounds=5, fault_kind="two_faced",
                                   record_trace=False,
                                   observers=("skew", "validity"))
        seeds = list(range(16))
        results = _run_engine(spec, seeds, backend == "numpy", "grouped")
        _assert_all_serial(spec, seeds, results)

    @pytest.mark.parametrize("fault_kind",
                             ["two_faced", "skew_early", "skew_late"])
    def test_lone_byzantine_run(self, backend, fault_kind):
        """A lone spec with Byzantine attackers runs on the kernel too."""
        params = default_parameters(n=13, f=4)
        spec = RunSpec.maintenance(params, rounds=5, fault_kind=fault_kind,
                                   seed=7, record_trace=False,
                                   observers=("skew", "validity"))
        result, = _run_engine(spec, [spec.seed], backend == "numpy")
        _assert_identical(spec, execute(spec, engine="serial"), result)

    def test_unequal_attacker_schedules_send_no_phantoms(self, numpy_on):
        """Regression: replicas whose attackers send fewer slots than their
        group's longest schedule counted phantom sends in the attacker tail
        (the inf padding compared as due against the tail's inf boundary).
        """
        params = default_parameters(n=4, f=1)
        spec = RunSpec.maintenance(
            params.with_round_length(0.3 * params.round_length), rounds=3,
            fault_kind="two_faced", fault_count=1, record_trace=False,
            observers=("skew", "validity"))
        seeds = [0, 1, 2, 3]
        engine = roundengine.RoundSystem(spec, seeds)
        (_, slot_t, _, _, _), = engine.slots
        assert len(set((slot_t < float("inf")).sum(axis=1).tolist())) > 1
        results = _run_engine(spec, seeds, True, "grouped")
        _assert_all_serial(spec, seeds, results)


def _crash_star_spec():
    params = default_parameters(n=7, f=2)
    return RunSpec.maintenance(params, rounds=3, fault_kind="crash",
                               fault_count=2, topology="star",
                               record_trace=False,
                               observers=("skew", "validity"))


def _boom(self):
    raise RuntimeError("injected engine failure")


class TestFailurePolicy:
    """Both entry points absorb unexpected kernel errors into serial runs."""

    def test_unexpected_error_degrades_to_serial(self, backend, monkeypatch):
        """A kernel crash in a lone run takes the serial path, counted.

        The docstring contract is that try_execute never escapes: unexpected
        numpy errors from the index build or the kernel are absorbed into
        ``roundengine.errors`` (plus the usual fallback count) and the serial
        reference result comes back unchanged.
        """
        if backend == "python":
            pytest.skip("engine needs the numpy backend")
        spec = _crash_star_spec()
        serial = execute(spec, engine="serial")
        monkeypatch.setattr(roundengine.RoundSystem, "run", _boom)
        telemetry = Telemetry()
        with activated(telemetry):
            result = execute(spec, engine="kernel")
        snapshot = telemetry.registry.snapshot()
        assert snapshot["roundengine.errors"]["value"] == 1.0
        assert snapshot["roundengine.fallbacks"]["value"] == 1.0
        assert snapshot.get("roundengine.rounds", {}).get("value", 0.0) == 0.0
        _assert_identical(spec, serial, result)

    @pytest.mark.parametrize("entry", ["execute", "BatchRunner"])
    def test_group_error_degrades_to_serial(self, numpy_on, monkeypatch,
                                            entry):
        """A kernel crash in a replica group re-runs every replica serially."""
        params = default_parameters(n=7, f=2)
        spec = RunSpec.maintenance(params, rounds=3, fault_kind="two_faced",
                                   record_trace=False,
                                   observers=("skew", "validity"))
        seeds = [0] if entry == "execute" else [0, 1, 2]
        monkeypatch.setattr(roundengine.RoundSystem, "run", _boom)
        telemetry = Telemetry()
        with activated(telemetry):
            if entry == "execute":
                results = execute_batch([spec])
            else:
                results = BatchRunner().run(
                    [spec.with_seed(seed) for seed in seeds])
        registry = telemetry.registry
        assert registry.value("runner.vectorized_errors") == 1
        assert registry.value("runner.vectorized_fallbacks") == len(seeds)
        assert registry.value("runner.vectorized_replicas") == 0
        _assert_all_serial(spec, seeds, results)

    def test_every_replica_off_path_counts_fallbacks(self, numpy_on):
        """A group whose replicas all leave the path counts each of them."""
        params = default_parameters(n=7, f=2)
        spec = RunSpec.maintenance(params, rounds=4, clock_kind="perfect",
                                   delay="fixed", record_trace=False,
                                   observers=("skew", "validity"))
        seeds = [0, 1, 2, 3]
        telemetry = Telemetry()
        with activated(telemetry):
            results = execute_batch([spec.with_seed(s) for s in seeds])
        registry = telemetry.registry
        assert registry.value("runner.vectorized_batches") == 1
        assert registry.value("runner.vectorized_replicas") == 0
        assert registry.value("runner.vectorized_fallbacks") == len(seeds)
        _assert_all_serial(spec, seeds, results)


def _record_serial_reruns(monkeypatch):
    """Seeds the serial ``execute`` runs from here on, in call order."""
    seeds = []
    real = spec_module.execute

    def recording(spec, *args, **kwargs):
        seeds.append(spec.seed)
        return real(spec, *args, **kwargs)

    monkeypatch.setattr(spec_module, "execute", recording)
    return seeds


def _group_case(n, f, fault_count, scale, rounds, clock_kind, delay):
    params = default_parameters(n=n, f=f)
    return RunSpec.maintenance(
        params.with_round_length(scale * params.round_length), rounds=rounds,
        fault_kind="two_faced", fault_count=fault_count,
        clock_kind=clock_kind, delay=delay, record_trace=False,
        observers=("skew", "validity"))


#: (reason, spec) groups of seeds 0-3 in which some replicas, not all,
#: leave the path for that reason: P below the Section 5.2 bound, or more
#: two-faced attackers than the f the parameters tolerate.
GROUP_EXITS = [
    ("tied send times", lambda: _group_case(6, 1, 3, 0.1, 3, "perfect",
                                            "fixed")),
    ("missed round (P below the Section 5.2 bound)",
     lambda: _group_case(6, 1, 5, 0.05, 2, "perfect", "fixed")),
    ("arrival outside the collection window",
     lambda: _group_case(7, 2, 4, 1.0, 3, "constant", "uniform")),
    ("send-order inversion across rounds",
     lambda: _group_case(8, 2, 6, 0.05, 2, "constant", "uniform")),
]


class TestOffPathExits:
    """Every reason the kernel records, forced once, ends in the serial result.

    In a group, only the replicas the kernel marked re-run serially.
    """

    @pytest.mark.parametrize("reason,make_spec", GROUP_EXITS, ids=[
        reason.split(" (")[0] for reason, _ in GROUP_EXITS])
    def test_group_reruns_only_marked_replicas(self, numpy_on, monkeypatch,
                                               reason, make_spec):
        spec, seeds = make_spec(), [0, 1, 2, 3]
        engine = roundengine.RoundSystem(spec, seeds)
        engine.run()
        marked = [seed for seed, bad in zip(seeds, engine.bad) if bad]
        assert set(engine.reason) == {None, reason}
        reruns = _record_serial_reruns(monkeypatch)
        results = execute_batch([spec.with_seed(seed) for seed in seeds])
        assert reruns == marked
        _assert_all_serial(spec, seeds, results)

    def _assert_lone_exit(self, spec, reason):
        topology = build_topology(spec.topology, n=spec.params.n,
                                  seed=spec.seed) if spec.topology else None
        engine = roundengine.RoundSystem(spec, [spec.seed], topology)
        engine.run()
        assert engine.reason == [reason]
        telemetry = Telemetry()
        with activated(telemetry):
            result = execute(spec, engine="kernel")
        assert telemetry.registry.value("roundengine.fallbacks") == 1
        assert telemetry.registry.value("roundengine.errors") == 0
        _assert_identical(spec, execute(spec, engine="serial"), result)

    def test_disconnected_topology(self, numpy_on):
        spec = RunSpec.maintenance(
            default_parameters(n=6, f=1), rounds=4, seed=3, fault_kind=None,
            topology="random_gnp:p=0.2,connect=0", record_trace=False,
            observers=("skew", "validity"))
        self._assert_lone_exit(spec, "disconnected topology")

    def test_collection_window_not_in_the_future(self, numpy_on):
        # At T0 = 1e15 the window (~0.05 s) is below one ulp of T0.
        params = dataclasses.replace(default_parameters(n=4, f=1),
                                     initial_round_time=1e15)
        spec = RunSpec.maintenance(params, rounds=3, record_trace=False)
        self._assert_lone_exit(spec, "collection window not in the future")

    def test_non_positive_delay(self, numpy_on):
        """SyncParameters requires ε < δ; bypassed, a zero delay becomes
        possible, which the kernel refuses up front and the serial delay
        model rejects with the same error on both paths."""
        params = default_parameters(n=4, f=1)
        object.__setattr__(params, "epsilon", params.delta)
        spec = RunSpec.maintenance(params, rounds=3, record_trace=False)
        engine = roundengine.RoundSystem(spec, [spec.seed])
        engine.run()
        assert engine.reason == ["non-positive delay"]
        for engine_name in ("kernel", "serial"):
            with pytest.raises(ValueError, match="delta > epsilon"):
                execute(spec, engine=engine_name)

    def test_extra_link_delays(self, numpy_on):
        """A built topology the kernel cannot relay over: try_execute
        declines it, and the caller runs the serial loop."""
        ring = make_topology("ring", 6)
        topology = Topology(6, ring.links(), name="ring",
                            extra_delay={(0, 1): 0.005})
        spec = RunSpec.maintenance(default_parameters(n=6, f=1), rounds=3,
                                   fault_kind=None, record_trace=False)
        engine = roundengine.RoundSystem(spec, [spec.seed], topology)
        engine.run()
        assert engine.reason == ["extra link delays or drops"]
        telemetry = Telemetry()
        with activated(telemetry):
            assert roundengine.try_execute(spec, topology) is None
        assert telemetry.registry.value("roundengine.fallbacks") == 1

    def test_correct_sender_missing_from_round(self, numpy_on, monkeypatch):
        """Seed 1's process 0 sleeps past the run's end, so the others
        update without its value; seed 0 runs on the kernel."""
        params = default_parameters(n=4, f=1)
        spec = RunSpec.maintenance(params, rounds=3, record_trace=False)
        end = maintenance_end_time(params, spec.rounds)

        def sleeper(n, rho, beta, seed=0, kind="constant",
                    reference_time=0.0):
            clocks = make_clock_ensemble(n, rho, beta, seed=seed, kind=kind,
                                         reference_time=reference_time)
            if seed == 1:
                clocks[0] = ConstantRateClock(offset=-2 * end, rho=rho)
            return clocks

        monkeypatch.setattr(roundengine, "make_clock_ensemble", sleeper)
        monkeypatch.setattr(experiments, "make_clock_ensemble", sleeper)
        engine = roundengine.RoundSystem(spec, [0, 1])
        engine.run()
        assert engine.reason == [None, "correct sender missing from round"]
        reruns = _record_serial_reruns(monkeypatch)
        results = execute_batch([spec.with_seed(0), spec.with_seed(1)])
        assert reruns == [1]
        _assert_all_serial(spec, [0, 1], results)

    def test_fault_column_guards(self, numpy_on):
        """The ARR-column guards, driven directly: an arrival before the
        receiver's previous update, and equal arrival times in a cell and
        in the pending stash.  Real specs cannot reach them — a slot joins
        the ledger after every window of the round before, and one
        sender's arrivals at one receiver never tie but by an exact float
        coincidence — so they are forced here on hand-made arrivals."""
        np = pytest.importorskip("numpy")
        spec = RunSpec.maintenance(default_parameters(n=7, f=2), rounds=3,
                                   fault_kind="crash", record_trace=False)
        engine = roundengine.RoundSystem(spec, [0, 1, 2])
        n, sender = 7, np.array([6])          # the last crash column
        window = (np.full((3, n), 0.5), np.ones((3, n), dtype=bool),
                  np.ones((3, n), dtype=bool))
        fault = np.array([[True], [True], [False]])
        rows = np.zeros((3, 1), dtype=int)

        def deliver(at):
            engine._fault_arrivals(np.full((3, 1, n), at), fault, rows,
                                   sender, None, window)

        engine.last_u[1] = 0.4
        deliver(0.3)        # replica 1: before its previous update
        assert engine.reason == [None, "arrival before previous update",
                                 None]
        deliver(0.3)        # replica 0: the same cell at the same time
        assert engine.reason[0] == "tied ARR arrivals"
        engine = roundengine.RoundSystem(spec, [0, 1, 2])
        deliver(0.6)        # past the window: stashed for the next round
        assert not engine.bad.any() and engine.pend_has[0].any()
        deliver(0.6)
        assert engine.reason == ["tied ARR arrivals"] * 2 + [None]


class TestEventBudget:
    """The budget trips exactly where the serial loop's does, both groupings.

    At n=13, f=2 over 3 rounds the serial run dispatches 585 events on the
    complete graph, 557 on hierarchy+crash and 497 on star+silent.  One
    event fewer raises EventBudgetExceeded carrying the serial count; the
    exact count runs on the kernel with no fallback.
    """

    CASES = [(None, None, 585), ("hierarchy", "crash", 557),
             ("star", "silent", 497)]

    @staticmethod
    def _spec(topology, fault_kind, budget):
        return RunSpec.maintenance(
            default_parameters(n=13, f=2), rounds=3, fault_kind=fault_kind,
            topology=topology, max_events=budget, record_trace=False,
            observers=("skew", "validity"))

    @staticmethod
    def _serial_processed(spec):
        with pytest.raises(EventBudgetExceeded) as raised:
            execute(spec, engine="serial")
        return raised.value.processed

    @pytest.mark.parametrize("topology,fault_kind,count", CASES)
    def test_lone_boundary(self, numpy_on, topology, fault_kind, count):
        short = self._spec(topology, fault_kind, count - 1)
        with pytest.raises(EventBudgetExceeded) as raised:
            execute(short, engine="kernel")
        assert raised.value.processed == self._serial_processed(short)
        exact = self._spec(topology, fault_kind, count)
        result, = _run_engine(exact, [exact.seed], True)
        _assert_identical(exact, execute(exact, engine="serial"), result)

    def test_grouped_boundary(self, numpy_on):
        seeds = [0, 1, 2]
        short = self._spec(None, None, 584)
        engine = roundengine.RoundSystem(short, seeds)
        engine.run()
        assert engine.reason == ["event budget exceeded"] * len(seeds)
        with pytest.raises(EventBudgetExceeded) as raised:
            execute_batch([short.with_seed(seed) for seed in seeds])
        assert raised.value.processed == self._serial_processed(short)
        exact = self._spec(None, None, 585)
        assert engine_for(exact, "auto", len(seeds)) == "batch"
        results = _run_engine(exact, seeds, True, "grouped")
        _assert_all_serial(exact, seeds, results)


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
            engine, = _run_engine(spec, [spec.seed], True)
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
        engine, = _run_engine(spec, [spec.seed], True)
        sizes = [size for rng in rngs for size in rng.sizes]
        assert len(rngs) == 1 and len(sizes) > spec.rounds
        assert max(sizes) <= 1000
        _assert_identical(spec, execute(spec, engine="serial"), engine)

    @pytest.mark.parametrize("chunk", [3, 150])
    def test_group_chunk_boundaries_are_exact(self, numpy_on, monkeypatch,
                                              chunk):
        """A replica group's ledger splits between chunks exactly too.

        The bound counts the draws of all replicas together, so at 3 every
        chunk holds one send event of one rank across the S=3 replicas,
        and at 150 a few; crash senders' broadcasts land in the fault
        columns from chunks of their own.
        """
        monkeypatch.setattr(roundengine, "_CHUNK_CELLS", chunk)
        params = default_parameters(n=13, f=2)
        spec = RunSpec.maintenance(params, rounds=4, fault_kind="crash",
                                   record_trace=False,
                                   observers=("skew", "validity"))
        seeds = [4, 5, 6]
        results = _run_engine(spec, seeds, True, "grouped")
        _assert_all_serial(spec, seeds, results)


def _long_spec(fault_kind, topology, rounds):
    return RunSpec.maintenance(default_parameters(n=10, f=3), rounds=rounds,
                               fault_kind=fault_kind, topology=topology,
                               seed=9, record_trace=False,
                               observers=("skew", "validity"))


#: (grouping, fault kind, topology): crash processes stop updating halfway,
#: so their histories stop early; two-faced attackers never update.
LONG_CASES = [("lone", "crash", "star"), ("lone", "two_faced", None),
              ("grouped", "crash", None), ("grouped", "two_faced", None)]


class TestTrimmedHistories:
    """Runs longer than the bounded history stay bit-identical.

    A streaming history keeps its last ``_BOUNDED_HISTORY_ENTRIES`` − 1
    updates, and its −inf sentinel takes the CORR in force before them.
    The hypothesis specs above run at most 4 rounds, so only these cases
    reach the trim: at 12 rounds the crash processes' histories (6
    updates) still fit, at 25 they are trimmed too.
    """

    @pytest.mark.parametrize("rounds", [12, 25])
    @pytest.mark.parametrize("grouping,fault_kind,topology", LONG_CASES)
    def test_trimmed_histories_match_serial(self, backend, grouping,
                                            fault_kind, topology, rounds):
        spec = _long_spec(fault_kind, topology, rounds)
        seeds = [spec.seed] if grouping == "lone" else [9, 10, 11]
        results = _run_engine(spec, seeds, backend == "numpy", grouping)
        _assert_all_serial(spec, seeds, results)
        history = results[0].trace.correction_history(0)
        assert len(history.times) == _BOUNDED_HISTORY_ENTRIES
        assert history.events[1].round_index == \
            rounds - (_BOUNDED_HISTORY_ENTRIES - 1)
        assert history.corrections[0] != history.events[0].new_correction

    @pytest.mark.parametrize("way", ["serial", "lone", "grouped"])
    def test_bounded_histories_agree_with_the_traced_twin(self, numpy_on,
                                                          way):
        """From its last trimmed update on, every nonfaulty bounded history
        answers ``correction_at`` as its traced twin's full history does;
        the seed oracle (``tests/slowpath.py``) cannot check these."""
        spec = _long_spec("two_faced", None, 20)
        twin = execute(spec.replace(record_trace=True), engine="serial")
        if way == "serial":
            result = execute(spec, engine="serial")
        else:
            seeds = [spec.seed] if way == "lone" else [spec.seed, 10]
            result = _run_engine(spec, seeds, True, way)[0]
        mismatches = []
        for pid in twin.trace.nonfaulty_ids:
            full = twin.trace.correction_history(pid)
            bounded = result.trace.correction_history(pid)
            assert bounded.bounded and not full.bounded
            last_trimmed = len(full.times) - len(bounded.times)
            assert last_trimmed > 0
            probes = list(full.times[last_trimmed:])
            probes += [(a + b) / 2 for a, b in zip(probes, probes[1:])]
            probes.append(twin.end_time)
            mismatches += [(pid, t) for t in probes
                           if bounded.correction_at(t) != full.correction_at(t)]
        assert mismatches == []


class TestObserverChunks:
    """Observer rows split into many chunks stay bit-identical.

    ``_OBS_CHUNK_ROWS`` receiver rows, divided among the replicas, go
    through the CORR lookup at once; the cases above always fit in one
    chunk.  Patched down, the skew extremes, the validity count and the
    rate captures must merge across chunks exactly.
    """

    @pytest.mark.parametrize("rows", [1, 3, 8])
    @pytest.mark.parametrize("grouping", GROUPINGS)
    def test_chunk_boundaries_are_exact(self, numpy_on, monkeypatch,
                                        grouping, rows):
        monkeypatch.setattr(roundengine, "_OBS_CHUNK_ROWS", rows)
        spec = _long_spec("crash", None, 12)
        seeds = [spec.seed] if grouping == "lone" else [9, 10]
        results = _run_engine(spec, seeds, True, grouping)
        _assert_all_serial(spec, seeds, results)


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
