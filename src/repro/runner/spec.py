"""Declarative run specifications and the single execution dispatcher.

A :class:`RunSpec` captures *everything* a simulation run needs — the scenario
kind, the :class:`~repro.core.config.SyncParameters`, the fault mix, the delay
and clock models, the network topology, the seed and the round budget — as a
frozen, hashable, picklable value.  Two equal specs describe the same run, and
because every source of randomness in the simulator is seeded from the spec,
:func:`execute` is a *pure function*: ``execute(spec)`` produces a
bit-identical :class:`~repro.analysis.experiments.ScenarioResult` no matter
when, where, or in which process it is evaluated.  That purity is what lets
:class:`~repro.runner.batch.BatchRunner` fan specs out over a worker pool (and
cache results by spec) without changing any observable behaviour.

The scenario kinds mirror the builders in
:mod:`repro.analysis.experiments` (plus the real-socket backend):

========================  ====================================================
kind                      underlying builder
========================  ====================================================
``maintenance``           :func:`~repro.analysis.experiments.run_maintenance_scenario`
``algorithm``             ``run_maintenance_scenario`` with the algorithm's
                          process as every correct process (what
                          :func:`~repro.analysis.experiments.run_algorithm_scenario`
                          runs)
``startup``               :func:`~repro.analysis.experiments.run_startup_scenario`
``reintegration``         :func:`~repro.analysis.experiments.run_reintegration_scenario`
``partition_heal``        :func:`~repro.analysis.experiments.run_partition_heal_scenario`
``net``                   :func:`~repro.net.cluster.execute_net_spec`
========================  ====================================================

``_execute`` turns every simulated spec into one keyword set and one call
of its kind's builder; what a kind takes, and the fault, clock and
algorithm names (the tuples their builders read), are checked when the
spec is built.

One deliberate exception to the purity contract: ``kind='net'`` runs the
algorithm over real TCP sockets with real clocks, so its results depend on
the machine and the moment — a net spec's ``params`` carry only the inputs
(n, f, ρ) and δ/ε are re-derived from *measured* delays at execution time.
Batch/replication layers must never cache or fan out net specs (the CLI
routes them directly), and both pool engines decline them by kind.

Which engine executes a spec — the serial event loop or the round kernel
(:mod:`repro.sim.roundengine`) — is not part of the spec: every engine
returns the serial loop's exact bits, so the choice is a speed argument
(``engine=``) that travels beside the spec and leaves its hash alone.
Whether the kernel runs a replica group in lockstep
(:mod:`repro.sim.vectorized`) or each spec alone follows from the group,
never from the caller.  :func:`engine_for` is the one place that decides.

Imports from :mod:`repro.analysis` are deferred into the functions so that
``repro.runner`` can be imported by the analysis layer (sweeps, comparison,
workloads) without an import cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Mapping, Optional, Tuple, Union, TYPE_CHECKING

from ..clocks.drift import CLOCK_KINDS
from ..core.config import ParameterError, SyncParameters
from ..sim.network import DELAY_MODEL_KINDS
from ..topology.base import Topology

if TYPE_CHECKING:  # pragma: no cover - type-only import, avoids the cycle
    from ..analysis.experiments import ScenarioResult

__all__ = ["RunSpec", "execute", "engine_for", "ENGINES", "SCENARIO_KINDS",
           "DELAY_KINDS"]

#: the scenario kinds :func:`execute` can dispatch.
SCENARIO_KINDS = ("maintenance", "algorithm", "startup", "reintegration",
                  "partition_heal", "net")

#: delay-model family names ``make_delay_model`` can build, from the single
#: name registry in :mod:`repro.sim.network` (base models plus the
#: :mod:`repro.adversary.delays` worst-case families).  Validated eagerly so
#: a typo fails at spec construction instead of deep inside a worker.
DELAY_KINDS = frozenset(DELAY_MODEL_KINDS)

#: option keys each kind accepts in :attr:`RunSpec.options`.
_ALLOWED_OPTIONS = {
    "maintenance": frozenset({"stagger_interval", "exchanges_per_round"}),
    "algorithm": frozenset(),
    "startup": frozenset({"initial_spread"}),
    "reintegration": frozenset({"recover_after_rounds",
                                "recovered_clock_offset"}),
    "partition_heal": frozenset({"partition_round", "heal_round",
                                 "post_heal_rounds", "groups"}),
    "net": frozenset({"duration", "pings", "jitter_margin", "samples"}),
}

#: kinds whose builders take no fault injection arguments.
_NO_FAULT_KINDS = frozenset({"reintegration", "partition_heal", "net"})

#: kinds whose builders accept the streaming pipeline knobs
#: (observers / record_trace / horizon / checkpoint_every / max_events).
_STREAMING_KINDS = frozenset({"maintenance", "algorithm"})

#: the :mod:`repro.analysis.experiments` builder each simulated kind runs.
_BUILDERS = dict(maintenance="run_maintenance_scenario",
                 algorithm="run_maintenance_scenario",
                 startup="run_startup_scenario",
                 reintegration="run_reintegration_scenario",
                 partition_heal="run_partition_heal_scenario")

#: the ``engine=`` choices; :func:`engine_for` derives the grouping itself.
ENGINES = ("auto", "serial", "kernel")

#: online observer names a spec may request (mirrors
#: :data:`repro.analysis.online.ONLINE_OBSERVER_NAMES`; the factory
#: re-validates at execution time).
_OBSERVER_NAMES = frozenset({"skew", "validity", "network"})

OptionItems = Tuple[Tuple[str, Any], ...]


def _freeze_options(value: Union[Mapping[str, Any], OptionItems, None],
                    label: str) -> OptionItems:
    """Normalize an options mapping to a sorted, hashable tuple of pairs."""
    if value is None:
        return ()
    items = sorted(value.items()) if isinstance(value, Mapping) else list(value)
    frozen = []
    for item in items:
        try:
            key, option = item
        except (TypeError, ValueError):
            raise ValueError(f"{label} entries must be (key, value) pairs; "
                             f"got {item!r}") from None
        if not isinstance(key, str) or not key:
            raise ValueError(f"{label} keys must be non-empty strings; "
                             f"got {key!r}")
        if isinstance(option, list):
            option = tuple(tuple(v) if isinstance(v, (list, tuple)) else v
                           for v in option)
        frozen.append((key, option))
    return tuple(sorted(frozen))


@dataclass(frozen=True)
class RunSpec:
    """Everything one simulation run needs, as an immutable value.

    Instances hash and compare by value (so they key result caches), and
    pickle cheaply (so they travel to pool workers).  Prefer the per-kind
    constructors — :meth:`maintenance`, :meth:`algorithm_run`,
    :meth:`startup`, :meth:`reintegration`, :meth:`partition_heal` — which
    fill in the defaults each scenario expects; direct construction validates
    strictly and rejects settings the scenario kind cannot honor.
    """

    #: one of :data:`SCENARIO_KINDS`.
    kind: str
    #: the algorithm constants; already hashable and picklable.
    params: SyncParameters
    rounds: int = 10
    #: comparison-algorithm name (required iff ``kind == 'algorithm'``).
    algorithm: Optional[str] = None
    #: faulty-process behaviour (see ``make_fault_process``); ``None`` = no faults.
    fault_kind: Optional[str] = "two_faced"
    #: how many faulty processes (``None`` = the worst case ``params.f``).
    fault_count: Optional[int] = None
    #: physical-clock drift model name.
    clock_kind: str = "constant"
    #: delay-model family name (see ``make_delay_model``).
    delay: str = "uniform"
    #: extra delay-model constructor arguments, as sorted (key, value) pairs.
    delay_options: OptionItems = ()
    #: topology spec string (e.g. ``"ring"``), a built :class:`Topology`
    #: (hashable, so still cacheable), or ``None`` for the complete graph.
    topology: Optional[Union[str, Topology]] = None
    seed: int = 0
    #: scenario-specific extras (see ``_ALLOWED_OPTIONS``), as sorted pairs.
    options: OptionItems = ()
    #: record the full execution trace (False = streaming/bounded-memory run;
    #: metrics then come from the ``observers``).
    record_trace: bool = True
    #: online observers to attach, by name ('skew', 'validity', 'network').
    observers: Tuple[str, ...] = ()
    #: extend the run to at least this real time (long-horizon studies).
    horizon: Optional[float] = None
    #: snapshot/restore the system at this real-time period (checkpointing).
    checkpoint_every: Optional[float] = None
    #: total interrupt budget (None = the simulator default of 2M); exceeding
    #: it raises :class:`~repro.sim.events.EventBudgetExceeded` with counts.
    max_events: Optional[int] = None
    #: sample-grid resolution for the online observers (None = the audit
    #: default of 200 agreement / 100 validity samples); only meaningful
    #: together with ``observers``.
    samples: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in SCENARIO_KINDS:
            raise ValueError(f"unknown scenario kind {self.kind!r}; "
                             f"choose from {', '.join(SCENARIO_KINDS)}")
        if not isinstance(self.params, SyncParameters):
            raise TypeError(f"params must be SyncParameters, "
                            f"got {type(self.params).__name__}")
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        object.__setattr__(self, "delay_options",
                           _freeze_options(self.delay_options, "delay_options"))
        object.__setattr__(self, "options",
                           _freeze_options(self.options, "options"))
        if not isinstance(self.delay, str):
            raise TypeError("delay must be a delay-model family name (a spec "
                            "stays declarative; build model objects at "
                            "execution time)")
        # Deferred like execute's: repro.analysis imports this module.
        from ..analysis.experiments import ALGORITHM_FACTORIES, FAULT_BEHAVIOURS
        for label, name, names in (
                ("delay model", self.delay, DELAY_KINDS),
                ("clock kind", self.clock_kind, CLOCK_KINDS),
                ("fault kind", self.fault_kind, FAULT_BEHAVIOURS),
                ("algorithm", self.algorithm, ALGORITHM_FACTORIES)):
            if name is not None and name not in names:
                raise ValueError(f"unknown {label} {name!r}; "
                                 f"choose from {', '.join(sorted(names))}")
        if self.kind == "algorithm":
            if self.algorithm is None:
                raise ValueError("kind='algorithm' needs an algorithm name")
        elif self.algorithm is not None:
            raise ValueError(f"kind={self.kind!r} does not take an algorithm")
        if self.kind in _NO_FAULT_KINDS and self.fault_kind is not None:
            raise ValueError(
                f"kind={self.kind!r} injects no process faults; construct it "
                f"with fault_kind=None (the {self.kind} builder defines its "
                f"own fault semantics)")
        if self.fault_kind is None and self.fault_count not in (None, 0):
            # Guard the "equal specs describe the same run" invariant: a
            # fault_count with no fault_kind would be silently ignored, making
            # unequal specs execute identically.
            raise ValueError(
                f"fault_count={self.fault_count} without a fault_kind would "
                f"inject no faults; use fault_count=None")
        if not 0 <= (self.fault_count or 0) <= self.params.n:
            raise ParameterError(f"fault_count must be in [0, n="
                                 f"{self.params.n}], got {self.fault_count}")
        if self.kind == "reintegration" and self.topology is not None:
            raise ValueError("the reintegration scenario runs on the complete "
                             "graph only")
        if self.kind == "net" and self.topology is not None:
            raise ValueError("the net backend opens a full TCP mesh; "
                             "topologies apply to simulated runs only")
        allowed = _ALLOWED_OPTIONS[self.kind]
        unknown = [key for key, _ in self.options if key not in allowed]
        if unknown:
            raise ValueError(
                f"options {unknown!r} not supported by kind {self.kind!r}; "
                f"allowed: {sorted(allowed) or 'none'}")
        object.__setattr__(self, "observers", tuple(self.observers))
        streaming_used = (not self.record_trace or self.observers
                          or self.horizon is not None
                          or self.checkpoint_every is not None
                          or self.max_events is not None
                          or self.samples is not None)
        if streaming_used and self.kind not in _STREAMING_KINDS:
            raise ValueError(
                f"kind={self.kind!r} does not support the streaming pipeline "
                f"knobs (record_trace/observers/horizon/checkpoint_every/"
                f"max_events/samples); only {sorted(_STREAMING_KINDS)} do")
        bad = [name for name in self.observers if name not in _OBSERVER_NAMES]
        if bad:
            raise ValueError(f"unknown observers {bad!r}; "
                             f"choose from {sorted(_OBSERVER_NAMES)}")
        if self.horizon is not None and self.horizon <= 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.checkpoint_every is not None and self.checkpoint_every <= 0:
            raise ValueError(f"checkpoint_every must be positive, got "
                             f"{self.checkpoint_every}")
        if self.max_events is not None and self.max_events < 1:
            raise ValueError(f"max_events must be >= 1, got {self.max_events}")
        if self.samples is not None and self.samples < 2:
            raise ValueError(f"samples must be >= 2, got {self.samples}")

    # -- convenience ---------------------------------------------------------
    def options_dict(self) -> Dict[str, Any]:
        """The scenario-specific extras as a plain dict."""
        return dict(self.options)

    def delay_options_dict(self) -> Dict[str, Any]:
        """The delay-model extras as a plain dict."""
        return dict(self.delay_options)

    def with_seed(self, seed: int) -> "RunSpec":
        """An identical spec with a different seed (replication's workhorse)."""
        return replace(self, seed=seed)

    def replace(self, **changes: Any) -> "RunSpec":
        """A copy with the given fields changed (re-validated)."""
        return replace(self, **changes)

    def describe(self) -> str:
        """A short human-readable label for manifests, spans and errors."""
        bits = [self.kind]
        if self.algorithm:
            bits.append(self.algorithm)
        bits.append(f"n={self.params.n}")
        if self.fault_kind:
            bits.append(self.fault_kind)
        if self.topology is not None:
            name = (self.topology if isinstance(self.topology, str)
                    else self.topology.name)
            bits.append(name)
        if not self.record_trace:
            bits.append("stream")
        bits.append(f"seed={self.seed}")
        return ":".join(bits)

    # -- per-kind constructors -----------------------------------------------
    @classmethod
    def maintenance(cls, params: SyncParameters, rounds: int = 10,
                    fault_kind: Optional[str] = "two_faced",
                    fault_count: Optional[int] = None,
                    clock_kind: str = "constant", delay: str = "uniform",
                    delay_options: Optional[Mapping[str, Any]] = None,
                    topology: Optional[Union[str, Topology]] = None,
                    seed: int = 0, record_trace: bool = True,
                    observers: Tuple[str, ...] = (),
                    horizon: Optional[float] = None,
                    checkpoint_every: Optional[float] = None,
                    max_events: Optional[int] = None,
                    samples: Optional[int] = None,
                    **options: Any) -> "RunSpec":
        """The Welch-Lynch maintenance algorithm under a chosen fault load."""
        return cls(kind="maintenance", params=params, rounds=rounds,
                   fault_kind=fault_kind, fault_count=fault_count,
                   clock_kind=clock_kind, delay=delay,
                   delay_options=delay_options, topology=topology, seed=seed,
                   options=options, record_trace=record_trace,
                   observers=observers, horizon=horizon,
                   checkpoint_every=checkpoint_every, max_events=max_events,
                   samples=samples)

    @classmethod
    def algorithm_run(cls, algorithm: str, params: SyncParameters,
                      **fields: Any) -> "RunSpec":
        """Any comparison algorithm on the shared workload (Section 10).

        The :meth:`maintenance` spec with the algorithm's name; ``fields``
        are its keywords, scenario options excepted.
        """
        return replace(cls.maintenance(params, **fields), kind="algorithm",
                       algorithm=algorithm)

    @classmethod
    def startup(cls, params: SyncParameters, rounds: int = 8,
                initial_spread: float = 1.0,
                fault_kind: Optional[str] = "silent",
                fault_count: Optional[int] = None,
                clock_kind: str = "constant", delay: str = "uniform",
                delay_options: Optional[Mapping[str, Any]] = None,
                topology: Optional[Union[str, Topology]] = None,
                seed: int = 0) -> "RunSpec":
        """The Section 9.2 start-up algorithm from arbitrarily spread clocks."""
        return cls(kind="startup", params=params, rounds=rounds,
                   fault_kind=fault_kind, fault_count=fault_count,
                   clock_kind=clock_kind, delay=delay,
                   delay_options=delay_options, topology=topology, seed=seed,
                   options=(("initial_spread", float(initial_spread)),))

    @classmethod
    def reintegration(cls, params: SyncParameters, rounds: int = 12,
                      recover_after_rounds: float = 4.5,
                      recovered_clock_offset: Optional[float] = None,
                      clock_kind: str = "constant", delay: str = "uniform",
                      delay_options: Optional[Mapping[str, Any]] = None,
                      seed: int = 0) -> "RunSpec":
        """Maintenance with one crashed-then-repaired process (Section 9.1)."""
        options: Dict[str, Any] = {"recover_after_rounds": float(recover_after_rounds)}
        if recovered_clock_offset is not None:
            options["recovered_clock_offset"] = float(recovered_clock_offset)
        return cls(kind="reintegration", params=params, rounds=rounds,
                   fault_kind=None, clock_kind=clock_kind, delay=delay,
                   delay_options=delay_options, seed=seed, options=options)

    @classmethod
    def partition_heal(cls, params: SyncParameters, rounds: int = 16,
                       partition_round: int = 4, heal_round: int = 10,
                       post_heal_rounds: int = 2,
                       groups: Optional[Tuple[Tuple[int, ...], ...]] = None,
                       clock_kind: str = "constant", delay: str = "uniform",
                       delay_options: Optional[Mapping[str, Any]] = None,
                       topology: Optional[Union[str, Topology]] = None,
                       seed: int = 0) -> "RunSpec":
        """Partition the network mid-run, heal it, keep running (E-topology)."""
        options: Dict[str, Any] = {
            "partition_round": int(partition_round),
            "heal_round": int(heal_round),
            "post_heal_rounds": int(post_heal_rounds),
        }
        if groups is not None:
            options["groups"] = tuple(tuple(group) for group in groups)
        return cls(kind="partition_heal", params=params, rounds=rounds,
                   fault_kind=None, clock_kind=clock_kind, delay=delay,
                   delay_options=delay_options, topology=topology, seed=seed,
                   options=options)

    @classmethod
    def net(cls, n: int, f: Optional[int] = None, rho: float = 1e-5,
            duration: Optional[float] = None, rounds: int = 6,
            seed: int = 0, pings: int = 5, jitter_margin: float = 0.025,
            samples: Optional[int] = None) -> "RunSpec":
        """The real-socket loopback backend (:mod:`repro.net`).

        Only (n, f, ρ) from ``params`` are honored; δ, ε, β and P are
        re-derived from the measured delay envelope when the spec executes,
        so the placeholder values below never reach the algorithm.  A
        ``duration`` (wall seconds) overrides ``rounds``.  Not pure: real
        sockets do not replay — never cache results keyed by a net spec.
        """
        if f is None:
            f = (n - 1) // 3
        placeholder = SyncParameters.derive(n=n, f=f, rho=rho, delta=1e-3,
                                            epsilon=5e-4)
        options: Dict[str, Any] = {"pings": int(pings),
                                   "jitter_margin": float(jitter_margin)}
        if duration is not None:
            options["duration"] = float(duration)
        if samples is not None:
            options["samples"] = int(samples)
        return cls(kind="net", params=placeholder, rounds=rounds,
                   fault_kind=None, seed=seed, options=options)


def _streaming_kwargs(spec: RunSpec) -> Dict[str, Any]:
    """Translate a spec's streaming fields into scenario-builder kwargs."""
    kwargs: Dict[str, Any] = {}
    if not spec.record_trace:
        kwargs["record_trace"] = False
    if spec.horizon is not None:
        kwargs["horizon"] = spec.horizon
    if spec.checkpoint_every is not None:
        kwargs["checkpoint_every"] = spec.checkpoint_every
    if spec.max_events is not None:
        kwargs["max_events"] = spec.max_events
    if spec.observers:
        names = spec.observers
        samples = spec.samples

        def factory(system, start_times, end_time, params):
            from ..analysis.online import build_observers
            extra = {} if samples is None else {"samples": samples}
            return build_observers(names, system, params, start_times,
                                   end_time, **extra)

        kwargs["observers"] = factory
    return kwargs


def _check_engine(engine: str) -> None:
    """Refuse an engine name outside :data:`ENGINES`."""
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; "
                         f"choose from {', '.join(ENGINES)}")


def engine_for(spec: RunSpec, engine: str = "auto", replicas: int = 1) -> str:
    """Which engine runs ``spec``: ``"serial"``, ``"batch"`` or ``"round"``.

    ``replicas`` is the size of the seed-replica group the spec runs in (1
    for a lone spec).  ``batch`` and ``round`` are the two groupings of one
    numpy kernel (:class:`~repro.sim.roundengine.RoundSystem`): the whole
    group in lockstep, or each spec alone.  ``engine`` (one of
    :data:`ENGINES`) says whether the kernel may run; the group picks how:

    * ``serial`` — the serial event loop;
    * otherwise ``batch`` for a group of 2 or more below
      :data:`~repro.sim.roundengine.AUTO_MIN_N` the kernel accepts as one;
    * otherwise ``round`` for a spec the kernel accepts alone, under
      ``kernel`` at any n and under ``auto`` at n ≥ ``AUTO_MIN_N``;
    * otherwise ``serial``.

    :func:`~repro.sim.roundengine.decline_reason` says why the kernel does
    not accept a spec in a group of a given size.
    """
    _check_engine(engine)
    if engine == "serial":
        return "serial"
    from ..sim.roundengine import AUTO_MIN_N, decline_reason
    small = spec.params.n < AUTO_MIN_N
    if replicas >= 2 and small and decline_reason(spec, replicas) is None:
        return "batch"
    if decline_reason(spec) is None and (engine == "kernel" or not small):
        return "round"
    return "serial"


def execute(spec: RunSpec, engine: str = "auto") -> "ScenarioResult":
    """Run the scenario a spec describes; pure and deterministic per spec.

    This is the single dispatcher every experiment entry point (sweeps,
    comparison, workloads, CLI) funnels through, and the function every
    :class:`~repro.runner.resilient.SupervisedPool` worker runs.  The
    returned result carries the spec back in ``result.spec`` so batched
    results stay self-describing.  An
    :class:`~repro.sim.events.EventBudgetExceeded` raised by the simulator is
    re-raised with the offending spec attached (``err.spec``), so batch and
    replication callers can tell exactly which run blew its budget — the
    counts and the spec survive the trip back from a pool worker.

    The active telemetry bundle (:func:`repro.telemetry.activated`), read
    once per call, turns on observability for the run: an ``execute`` span,
    segment-level simulator metrics, optional peak-memory probing, and one
    JSON manifest line per run — including a ``budget_exceeded`` line when
    the interrupt budget trips, so aborted sweep cells stay in the audit
    trail.  Every layer the run enters books into that same bundle.
    Telemetry reads wall clocks only; the simulation itself (RNG draws,
    traces, results) is bit-identical with or without it.

    ``engine`` picks the engine through :func:`engine_for` (as a group of
    one: alone); like telemetry, it changes speed, never the result.
    """
    from ..analysis import experiments
    from ..sim.events import EventBudgetExceeded
    from ..topology.spec import build_topology
    from ..telemetry import build_manifest, get_active

    round_engine = engine_for(spec, engine) == "round"
    telemetry = get_active()
    if telemetry is None:
        try:
            return _execute(spec, experiments, build_topology, round_engine)
        except EventBudgetExceeded as err:
            err.spec = spec
            raise

    from time import perf_counter
    telemetry.registry.counter("runner.specs_executed").inc()
    baseline = telemetry.registry.snapshot()
    start = perf_counter()
    try:
        with telemetry.span("execute", spec=spec.describe(),
                            kind=spec.kind, seed=spec.seed):
            with telemetry.memory_probe() as probe:
                result = _execute(spec, experiments, build_topology,
                                  round_engine)
    except EventBudgetExceeded as err:
        err.spec = spec
        telemetry.registry.counter("runner.budget_exceeded").inc()
        telemetry.emit_manifest(build_manifest(
            spec, outcome="budget_exceeded",
            wall_seconds=perf_counter() - start, error=str(err),
            metrics=telemetry.registry.delta(baseline)))
        raise
    wall = perf_counter() - start
    telemetry.registry.histogram(
        "runner.spec_wall_seconds").observe(wall)
    telemetry.emit_manifest(build_manifest(
        spec, result, wall_seconds=wall,
        peak_memory_bytes=probe["peak"],
        metrics=telemetry.registry.delta(baseline)))
    return result


def _execute(spec: RunSpec, experiments, build_topology,
             round_engine: bool) -> "ScenarioResult":
    if spec.kind == "net":
        # Real sockets, real clocks: explicitly NOT a pure function of the
        # spec (see the module docstring).  execute_net_spec attaches the
        # spec to the result itself.
        from ..net.cluster import execute_net_spec
        return execute_net_spec(spec)
    params = spec.params
    topology = build_topology(spec.topology, n=params.n, seed=spec.seed)
    if round_engine:
        # None means the engine declined (out-of-scope topology or a
        # mid-run clean-path exit) and the serial loop — the
        # bit-identical reference — runs instead.
        from ..sim import roundengine
        result = roundengine.try_execute(spec, topology)
        if result is not None:
            return result
    delay_model = experiments.make_delay_model(spec.delay, params,
                                               **spec.delay_options_dict())
    kwargs = dict(spec.options, rounds=spec.rounds,
                  clock_kind=spec.clock_kind, seed=spec.seed,
                  delay=delay_model, **_streaming_kwargs(spec))
    if spec.kind != "reintegration":
        kwargs["topology"] = topology
    if spec.kind not in _NO_FAULT_KINDS:
        kwargs["fault_kind"] = spec.fault_kind
        kwargs["fault_count"] = (0 if spec.fault_kind is None
                                 else spec.fault_count)
    if spec.algorithm is not None:
        kwargs["correct_process_factory"] = \
            experiments.ALGORITHM_FACTORIES[spec.algorithm]
    result = getattr(experiments, _BUILDERS[spec.kind])(params, **kwargs)
    result.spec = spec
    return result
