"""Scenario builders: canned system configurations for tests, examples and the CLI.

Every paper-claim test (``tests/integration/test_claims_*.py``) is a thin
layer over these builders.  A builder chooses the processes (correct +
faulty), the ρ-bounded clocks, the START schedule and the horizon; ``_run``
does the rest and returns a :class:`ScenarioResult` bundling the trace with
the information the metrics need (the real start times, the parameter set,
the number of rounds).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..baselines.halpern_simons_strong_dolev import HSSDProcess
from ..baselines.lamport_melliar_smith import InteractiveConvergenceProcess
from ..baselines.mahaney_schneider import MahaneySchneiderProcess
from ..baselines.marzullo import MarzulloProcess
from ..baselines.srikanth_toueg import SrikanthTouegProcess
from ..baselines.unsynchronized import UnsynchronizedProcess
from ..clocks import Clock, ConstantRateClock, make_clock_ensemble
from ..core.averaging import AveragingFunction
from ..core.config import ParameterError, SyncParameters
from ..core.maintenance import WelchLynchProcess
from ..core.multi_exchange import MultiExchangeProcess
from ..core.startup import StartupProcess
from ..faults.byzantine import RandomNoiseAttacker, SkewAttacker, TwoFacedClockAttacker
from ..faults.crash import CrashStrategy, SilentProcess
from ..faults.base import FaultyProcessWrapper
from ..faults.omission import OmissionStrategy
from ..faults.recovery import RecoveringProcess
from ..sim.network import (
    AdversarialDelayModel,
    ContentionDelayModel,
    DelayModel,
    FixedDelayModel,
    TruncatedGaussianDelayModel,
    UniformDelayModel,
)
from ..sim.events import EventBudgetExceeded
from ..sim.process import Process
from ..sim.system import System
from ..sim.trace import ExecutionTrace
from ..topology.base import Topology
from ..topology.routing import delay_envelope
from ..topology.schedule import LinkSchedule

__all__ = [
    "ScenarioResult",
    "PartitionHealResult",
    "default_parameters",
    "effective_parameters",
    "maintenance_end_time",
    "make_delay_model",
    "make_fault_process",
    "FAULT_BEHAVIOURS",
    "run_maintenance_scenario",
    "run_algorithm_scenario",
    "run_startup_scenario",
    "run_reintegration_scenario",
    "run_partition_heal_scenario",
    "ALGORITHM_FACTORIES",
]


@dataclass
class ScenarioResult:
    """A completed simulation run plus the context needed to analyse it."""

    params: SyncParameters
    trace: ExecutionTrace
    start_times: Dict[int, float]
    rounds: int
    end_time: float
    #: the :class:`~repro.runner.spec.RunSpec` this run was dispatched from,
    #: when it came through :func:`repro.runner.execute` (None for direct
    #: builder calls); lets batched results stay self-describing.
    spec: Optional[object] = None
    #: streaming observers attached for this run, keyed by observer ``name``
    #: (e.g. ``"skew"`` -> :class:`~repro.analysis.online.OnlineSkew`); the
    #: only metrics source when the run recorded no trace.
    observers: Dict[str, object] = field(default_factory=dict)
    #: snapshot/restore cycles the run went through (``checkpoint_every``).
    checkpoints: int = 0

    def online(self, name: str) -> Optional[object]:
        """The attached streaming observer with the given name, or ``None``."""
        return self.observers.get(name)

    @property
    def is_partition_heal(self) -> bool:
        """Whether this run carries partition-and-heal context."""
        return False

    def _nonfaulty_start_times(self) -> List[float]:
        nonfaulty = set(self.trace.nonfaulty_ids)
        return [t for pid, t in self.start_times.items() if pid in nonfaulty]

    @cached_property
    def tmin0(self) -> float:
        """Earliest real time a nonfaulty process received START.

        Cached: every audit window derives from it and the fault set is
        fixed once the run ends.
        """
        times = self._nonfaulty_start_times()
        return min(times) if times else 0.0

    @cached_property
    def tmax0(self) -> float:
        """Latest real time a nonfaulty process received START (cached)."""
        times = self._nonfaulty_start_times()
        return max(times) if times else 0.0


def default_parameters(
    n: int = 7,
    f: int = 2,
    rho: float = 1e-4,
    delta: float = 0.01,
    epsilon: float = 0.002,
    round_length: Optional[float] = None,
    beta_slack: float = 1.5,
) -> SyncParameters:
    """A feasible laptop-scale parameter set used throughout the claim tests.

    δ = 10 ms, ε = 2 ms and ρ = 10⁻⁴ are deliberately pessimistic (a real
    crystal drifts ~10⁻⁶) so that drift effects are visible within a few
    simulated seconds; the constraints of Section 5.2 are still satisfied.
    """
    return SyncParameters.derive(n=n, f=f, rho=rho, delta=delta, epsilon=epsilon,
                                 round_length=round_length, beta_slack=beta_slack)


def effective_parameters(params: SyncParameters,
                         topology: Optional[Topology]) -> SyncParameters:
    """Re-derive (β, P) for the end-to-end delay envelope a topology induces.

    On a sparse graph the relay layer stretches message delays to the
    ``[lo, hi]`` range of :func:`repro.topology.routing.delay_envelope`; the
    centered constants ``δ' = (lo+hi)/2``, ``ε' = (hi-lo)/2`` make assumption
    A3 hold again for *end-to-end* delays (every route, from the one-hop
    ``δ-ε`` best case to the across-the-diameter worst case, lands inside
    ``[δ'-ε', δ'+ε']``), so the paper's collection window and Theorem 4/16/19
    bounds — computed from the effective constants — remain sound.  The
    complete graph (and ``None``) returns ``params`` unchanged.
    """
    if topology is None or topology.is_complete:
        return params
    lo, hi = delay_envelope(topology, params.delta, params.epsilon)
    delta_eff = (lo + hi) / 2.0
    epsilon_eff = (hi - lo) / 2.0
    # Keep the caller's round length P when it still satisfies the Section
    # 5.2 constraints for the stretched envelope; otherwise re-derive P (and
    # beta), since a P chosen for one-hop delays is usually below the
    # effective lower bound once relays multiply delta and epsilon.
    try:
        return SyncParameters.derive(
            n=params.n, f=params.f, rho=params.rho,
            delta=delta_eff, epsilon=epsilon_eff,
            round_length=params.round_length,
            initial_round_time=params.initial_round_time,
        )
    except ParameterError:
        return SyncParameters.derive(
            n=params.n, f=params.f, rho=params.rho,
            delta=delta_eff, epsilon=epsilon_eff,
            initial_round_time=params.initial_round_time,
        )


def make_delay_model(kind: Union[str, DelayModel], params: SyncParameters,
                     **kwargs) -> DelayModel:
    """Build a delay model by name ('uniform', 'fixed', 'gaussian', 'adversarial',
    'contention', plus the lower-bound engine's 'per_pair', 'skew_max' and
    'round_aware' adversaries) respecting the parameter set's δ and ε."""
    if isinstance(kind, DelayModel):
        return kind
    delta, epsilon = params.delta, params.epsilon
    if kind == "uniform":
        return UniformDelayModel(delta, epsilon)
    if kind == "fixed":
        return FixedDelayModel(delta)
    if kind == "gaussian":
        return TruncatedGaussianDelayModel(delta, epsilon, **kwargs)
    if kind == "adversarial":
        return AdversarialDelayModel(delta, epsilon, **kwargs)
    if kind == "contention":
        return ContentionDelayModel(delta, epsilon, **kwargs)
    from ..adversary.delays import (ADVERSARIAL_DELAY_KINDS,
                                    build_adversarial_delay_model)
    if kind in ADVERSARIAL_DELAY_KINDS:
        return build_adversarial_delay_model(kind, params, **kwargs)
    raise ValueError(f"unknown delay model {kind!r}")


#: the behaviours :func:`make_fault_process` builds (a spec's ``fault_kind``).
FAULT_BEHAVIOURS = ("silent", "crash", "two_faced", "skew_early", "skew_late",
                    "random_noise", "omission")


def make_fault_process(kind: str, params: SyncParameters, rounds: int,
                       seed: int = 0) -> Process:
    """Build one faulty process by behaviour name (:data:`FAULT_BEHAVIOURS`).

    ``crash`` stops halfway through the run; ``omission`` drops half of its
    messages.
    """
    if kind == "silent":
        return SilentProcess()
    if kind == "crash":
        crash_time = params.initial_round_time + (rounds / 2.0) * params.round_length
        return FaultyProcessWrapper(WelchLynchProcess(params, max_rounds=rounds),
                                    CrashStrategy(crash_time))
    if kind == "two_faced":
        return TwoFacedClockAttacker(params, max_rounds=rounds + 2)
    if kind == "skew_early":
        return SkewAttacker(params, direction=-1, max_rounds=rounds + 2)
    if kind == "skew_late":
        return SkewAttacker(params, direction=+1, max_rounds=rounds + 2)
    if kind == "random_noise":
        return RandomNoiseAttacker(params, max_rounds=rounds + 2)
    if kind == "omission":
        return FaultyProcessWrapper(WelchLynchProcess(params, max_rounds=rounds),
                                    OmissionStrategy(drop_probability=0.5, seed=seed))
    raise ValueError(f"unknown fault kind {kind!r}; "
                     f"choose from {', '.join(FAULT_BEHAVIOURS)}")


#: factories for the algorithms compared in experiment E8 (Section 10).
ALGORITHM_FACTORIES: Dict[str, Callable[[SyncParameters, int], Process]] = {
    "welch_lynch": lambda params, rounds: WelchLynchProcess(params, max_rounds=rounds),
    "lamport_melliar_smith": lambda params, rounds: InteractiveConvergenceProcess(
        params, max_rounds=rounds),
    "mahaney_schneider": lambda params, rounds: MahaneySchneiderProcess(
        params, max_rounds=rounds),
    "srikanth_toueg": lambda params, rounds: SrikanthTouegProcess(params, max_rounds=rounds),
    "hssd": lambda params, rounds: HSSDProcess(params, max_rounds=rounds),
    "marzullo": lambda params, rounds: MarzulloProcess(params, max_rounds=rounds),
    "unsynchronized": lambda params, rounds: UnsynchronizedProcess(params),
}


#: an observer factory: called with (system, start_times, end_time, params)
#: after START scheduling but before the run, returns observers to attach.
ObserverFactory = Callable[[System, Dict[int, float], float, SyncParameters],
                           Sequence["object"]]


def maintenance_end_time(params: SyncParameters, rounds: int,
                         extra_time: float = 0.0) -> float:
    """Real-time end of a ``rounds``-round maintenance run.

    The slack after the last round (one collection window, ten δ, one β)
    lets every in-flight message land and every observer grid finish.  Both
    the serial :func:`_run` and the round kernel
    (:mod:`repro.sim.roundengine`) use this exact expression, so their
    horizons — and therefore their observer grids — agree bit for bit.
    """
    return (params.initial_round_time + rounds * params.round_length
            + params.collection_window() + 10 * params.delta
            + params.beta + extra_time)


def _clocks(params: SyncParameters, clock_kind: str, seed: int,
            beta: Optional[float] = None) -> List[Clock]:
    """The run's clocks, their readings spread over ``beta`` (default β)."""
    return make_clock_ensemble(params.n, rho=params.rho,
                               beta=params.beta if beta is None else beta,
                               seed=seed, kind=clock_kind)


def _run(params: SyncParameters, processes: Sequence[Process],
         clocks: Sequence[Clock], rounds: int, delay_model: DelayModel,
         seed: int, end_time: Optional[float] = None,
         start_scheduler: Optional[Callable[[System], Dict[int, float]]] = None,
         topology: Optional[Topology] = None,
         link_schedule: Optional[LinkSchedule] = None,
         observers: Union[ObserverFactory, Sequence[object], None] = None,
         record_trace: bool = True,
         max_events: int = 2_000_000,
         checkpoint_every: Optional[float] = None,
         horizon: Optional[float] = None,
         ) -> ScenarioResult:
    """Assemble a system, schedule its STARTs, run it to ``end_time``.

    The one place a scenario becomes a :class:`System`.  ``start_scheduler``
    returns the real START times (default: all at logical time T⁰);
    ``end_time`` defaults to :func:`maintenance_end_time`.

    The streaming knobs thread the observer pipeline through every scenario:

    * ``observers`` — streaming observers to attach (or a factory called with
      the assembled system, the START times, the end time and the effective
      parameters — what :func:`repro.analysis.online.build_observers` needs);
    * ``record_trace=False`` — drop the default full-trace recorder and bound
      the correction histories, so the run needs O(n) memory beyond what the
      attached observers keep;
    * ``horizon`` — extend the run to at least this real time (long-horizon
      steady-state studies);
    * ``checkpoint_every`` — segment the run at that real-time period, taking
      a full :meth:`~repro.sim.system.System.snapshot` / ``restore`` round
      trip (pickle included) at every boundary; results are bit-identical to
      the unsegmented run;
    * ``max_events`` — the total interrupt budget across all segments
      (:class:`~repro.sim.events.EventBudgetExceeded` carries the counts).
    """
    system = System(processes, clocks, delay_model=delay_model, seed=seed,
                    topology=topology, link_schedule=link_schedule,
                    record_trace=record_trace)
    if start_scheduler is None:
        start_times = system.schedule_all_starts_at_logical(params.initial_round_time)
    else:
        start_times = start_scheduler(system)
    if end_time is None:
        end_time = maintenance_end_time(params, rounds)
    if horizon is not None:
        end_time = max(end_time, float(horizon))
    built = (list(observers(system, start_times, end_time, params))
             if callable(observers) else list(observers or ()))
    for observer in built:
        system.add_observer(observer)
    checkpoints = 0
    try:
        if checkpoint_every:
            period = float(checkpoint_every)
            if period <= 0:
                raise ValueError(
                    f"checkpoint_every must be positive, got {period}")
            boundary = period
            while boundary < end_time:
                system.run_until(
                    boundary,
                    max_events=max_events - system.events_dispatched)
                system.restore(system.snapshot())
                checkpoints += 1
                boundary += period
        trace = system.run_until(
            end_time, max_events=max_events - system.events_dispatched)
    except EventBudgetExceeded as err:
        # Segments run on the *remaining* budget; re-raise with the run's
        # totals so the counts always describe the whole run.
        raise EventBudgetExceeded(
            processed=system.events_dispatched, max_events=max_events,
            current_time=err.current_time, end_time=end_time,
            pending=err.pending, metrics=err.metrics) from None
    system.finalize_observers()
    # Checkpointing restores *pickled copies* of the observers, so the
    # objects that saw the whole run are the system's, not the ones built
    # above.  The attached observers occupy the tail of the system's list
    # (the default recorder precedes them), so match positionally and copy
    # the final state back into the caller's objects — references the caller
    # kept (the pattern every non-checkpointed test uses) stay live.
    final = system.observers[len(system.observers) - len(built):] \
        if built else []
    resolved = []
    for original, restored in zip(built, final):
        if original is not restored and hasattr(restored, "__dict__") \
                and hasattr(original, "__dict__"):
            original.__dict__.clear()
            original.__dict__.update(restored.__dict__)
            restored = original
        resolved.append(restored)
    return ScenarioResult(params=params, trace=trace, start_times=start_times,
                          rounds=rounds, end_time=end_time,
                          observers={obs.name: obs for obs in resolved},
                          checkpoints=checkpoints)


def run_maintenance_scenario(
    params: SyncParameters,
    rounds: int = 10,
    fault_kind: Optional[str] = "two_faced",
    fault_count: Optional[int] = None,
    clock_kind: str = "constant",
    delay: Union[str, DelayModel] = "uniform",
    seed: int = 0,
    averaging: Optional[AveragingFunction] = None,
    stagger_interval: float = 0.0,
    exchanges_per_round: int = 1,
    correct_process_factory: Optional[Callable[[SyncParameters, int], Process]] = None,
    topology: Optional[Topology] = None,
    link_schedule: Optional[LinkSchedule] = None,
    observers: Union[ObserverFactory, Sequence[object], None] = None,
    record_trace: bool = True,
    max_events: int = 2_000_000,
    checkpoint_every: Optional[float] = None,
    horizon: Optional[float] = None,
) -> ScenarioResult:
    """Run the Welch-Lynch maintenance algorithm under a chosen fault load.

    The last ``fault_count`` process ids are faulty (default: exactly
    ``params.f`` of them, i.e. the worst case the analysis covers); the rest
    run the maintenance algorithm.  ``correct_process_factory`` (taking the
    parameter set and the round budget) replaces the default
    :class:`WelchLynchProcess` construction (for the comparison algorithms
    and the ablation tests); it refuses ``averaging``, ``stagger_interval``
    and ``exchanges_per_round``, which only that construction reads.

    With a ``topology`` the per-hop delay model keeps the caller's (δ, ε)
    while the algorithm and the returned ``result.params`` use the
    topology-effective constants of :func:`effective_parameters`, so audits
    compare against bounds that account for relay accumulation.
    """
    if correct_process_factory is not None and (
            averaging is not None or stagger_interval or exchanges_per_round != 1):
        raise ValueError("correct_process_factory takes no averaging, "
                         "stagger_interval or exchanges_per_round")
    if fault_kind is None:
        fault_count = 0
    if fault_count is None:
        fault_count = params.f
    if fault_count > params.n:
        raise ValueError("cannot have more faulty processes than processes")
    delay_model = make_delay_model(delay, params)  # per-hop: the base (δ, ε)
    params = effective_parameters(params, topology)
    processes: List[Process] = []
    for pid in range(params.n - fault_count):
        if correct_process_factory is not None:
            processes.append(correct_process_factory(params, rounds))
        elif exchanges_per_round > 1:
            processes.append(MultiExchangeProcess(params,
                                                  exchanges_per_round=exchanges_per_round,
                                                  averaging=averaging,
                                                  max_rounds=rounds))
        else:
            processes.append(WelchLynchProcess(params, averaging=averaging,
                                               max_rounds=rounds,
                                               stagger_interval=stagger_interval))
    for index in range(fault_count):
        processes.append(make_fault_process(fault_kind, params, rounds,
                                            seed=seed + index))
    return _run(params, processes, _clocks(params, clock_kind, seed), rounds,
                delay_model, seed, topology=topology,
                link_schedule=link_schedule, observers=observers,
                record_trace=record_trace, max_events=max_events,
                checkpoint_every=checkpoint_every, horizon=horizon)


def run_algorithm_scenario(algorithm: str, params: SyncParameters,
                           **kwargs) -> ScenarioResult:
    """Run any of the comparison algorithms on the same workload (E8).

    The maintenance scenario with the algorithm's process
    (:data:`ALGORITHM_FACTORIES`) as every correct process; ``kwargs`` are
    :func:`run_maintenance_scenario`'s.
    """
    if algorithm not in ALGORITHM_FACTORIES:
        raise KeyError(f"unknown algorithm {algorithm!r}; "
                       f"choose from {sorted(ALGORITHM_FACTORIES)}")
    return run_maintenance_scenario(
        params, correct_process_factory=ALGORITHM_FACTORIES[algorithm],
        **kwargs)


def run_startup_scenario(
    params: SyncParameters,
    rounds: int = 8,
    initial_spread: float = 1.0,
    fault_count: Optional[int] = None,
    fault_kind: Optional[str] = "silent",
    clock_kind: str = "constant",
    delay: Union[str, DelayModel] = "uniform",
    seed: int = 0,
    topology: Optional[Topology] = None,
    link_schedule: Optional[LinkSchedule] = None,
) -> ScenarioResult:
    """Run the Section 9.2 start-up algorithm from arbitrarily spread clocks."""
    if fault_count is None:
        fault_count = params.f
    delay_model = make_delay_model(delay, params)
    params = effective_parameters(params, topology)
    processes: List[Process] = [StartupProcess(params, max_rounds=rounds)
                                for _ in range(params.n - fault_count)]
    for index in range(fault_count):
        processes.append(make_fault_process(fault_kind, params, rounds,
                                            seed=seed + index))

    def start_everyone_at_zero(system: System) -> Dict[int, float]:
        for pid in range(params.n):
            system.schedule_start(pid, 0.0)
        return dict.fromkeys(range(params.n), 0.0)

    # Each start-up round lasts roughly the two waiting intervals plus delays.
    per_round = (2 * params.delta + 4 * params.epsilon) * 3 + 6 * params.delta
    # Clocks start spread over `initial_spread` (arbitrary initial values).
    return _run(params, processes,
                _clocks(params, clock_kind, seed, beta=initial_spread),
                rounds, delay_model, seed,
                end_time=rounds * per_round + initial_spread + 1.0,
                start_scheduler=start_everyone_at_zero, topology=topology,
                link_schedule=link_schedule)


def run_reintegration_scenario(
    params: SyncParameters,
    rounds: int = 12,
    recover_after_rounds: float = 4.5,
    clock_kind: str = "constant",
    delay: Union[str, DelayModel] = "uniform",
    seed: int = 0,
    recovered_clock_offset: Optional[float] = None,
) -> ScenarioResult:
    """Run maintenance with one crashed-then-repaired process (Section 9.1).

    Process ``n-1`` is absent until ``recover_after_rounds`` rounds worth of
    real time have elapsed, then wakes up with an arbitrarily wrong clock
    (offset ``recovered_clock_offset``, default half a round) and runs the
    reintegration procedure.  It stays marked faulty for metric purposes; the
    reintegration claim test (E6) inspects its post-rejoin skew directly.
    """
    delay_model = make_delay_model(delay, params)
    processes: List[Process] = [WelchLynchProcess(params, max_rounds=rounds)
                                for _ in range(params.n - 1)]
    # The repaired process only participates in the rounds that remain after
    # its recovery; stopping it one round early keeps it from averaging over a
    # round in which the (already finished) correct processes stay silent.
    remaining_rounds = max(1, rounds - int(recover_after_rounds) - 2)
    processes.append(RecoveringProcess(params, max_rounds=remaining_rounds))
    # Give the repaired process an arbitrary (badly wrong) clock: the point of
    # Section 9.1 is that the averaging cancels the arbitrary initial value.
    clocks = _clocks(params, clock_kind, seed)
    if recovered_clock_offset is None:
        recovered_clock_offset = 0.5 * params.round_length
    clocks[params.n - 1] = ConstantRateClock(offset=recovered_clock_offset,
                                             rate=1.0, rho=params.rho)
    recovery_time = (params.initial_round_time
                     + recover_after_rounds * params.round_length)

    def start_with_recovery(system: System) -> Dict[int, float]:
        start_times = {pid: system.schedule_start_at_logical(
            pid, params.initial_round_time) for pid in range(params.n - 1)}
        system.schedule_start(params.n - 1, recovery_time)
        start_times[params.n - 1] = recovery_time
        return start_times

    return _run(params, processes, clocks, rounds, delay_model, seed,
                start_scheduler=start_with_recovery)


# ---------------------------------------------------------------------------
# Partition-and-heal (the topology subsystem's flagship scenario)
# ---------------------------------------------------------------------------

@dataclass
class PartitionHealResult(ScenarioResult):
    """A maintenance run whose network was partitioned and later healed."""

    groups: List[List[int]] = field(default_factory=list)
    partition_start: float = 0.0
    heal_time: float = 0.0

    @property
    def is_partition_heal(self) -> bool:
        return True


def run_partition_heal_scenario(
    params: SyncParameters,
    rounds: int = 16,
    partition_round: int = 4,
    heal_round: int = 10,
    groups: Optional[Sequence[Sequence[int]]] = None,
    topology: Optional[Topology] = None,
    clock_kind: str = "constant",
    delay: Union[str, DelayModel] = "uniform",
    seed: int = 0,
    post_heal_rounds: int = 2,
    observers: Union[ObserverFactory, Sequence[object], None] = None,
) -> PartitionHealResult:
    """Partition the network mid-run, heal it, and keep running (E-topology).

    All processes run the unmodified maintenance algorithm; between rounds
    ``partition_round`` and ``heal_round`` every link crossing the group
    boundary is down, so the sides synchronize only internally and drift
    apart.  After healing, the ordinary averaging pulls them back together —
    the Lemma 20 halving recurrence bounds the re-convergence (see
    :func:`repro.analysis.verification.check_partition_heal_run`).

    ``groups`` defaults to the *worst-case* two-way split: processes sorted
    by physical-clock rate, fast half against slow half, so the isolated
    sides' rate centroids differ by ≈ ρ and the divergence is guaranteed
    rather than left to the luck of the seed's rate assignment (a random
    split can put equally many fast and slow clocks on both sides, in which
    case the centroids barely separate).  ``topology`` defaults to the
    complete graph (partitioning is a link-schedule effect, so any graph
    works as long as the cut respects it — e.g. ``clustered`` with the cut
    along cluster boundaries).
    """
    if not 0 < partition_round < heal_round < rounds:
        raise ValueError(
            f"need 0 < partition_round < heal_round < rounds; got "
            f"{partition_round}, {heal_round}, {rounds}"
        )
    delay_model = make_delay_model(delay, params)
    params = effective_parameters(params, topology)
    clocks = _clocks(params, clock_kind, seed)
    if groups is None:
        by_rate = sorted(range(params.n), key=lambda pid: clocks[pid].rate_at(0.0))
        half = (params.n + 1) // 2
        groups = [by_rate[:half], by_rate[half:]]
    groups = [sorted(group) for group in groups]
    # Round boundaries in real time (clock rates are 1 ± ρ, so logical round
    # times map to real times up to a negligible drift term).
    partition_start = params.initial_round_time + partition_round * params.round_length
    heal_time = params.initial_round_time + heal_round * params.round_length
    from ..faults.links import partition_and_heal
    schedule = partition_and_heal(groups, partition_start, heal_time)
    # discard_stale: with a whole group unreachable (assumption A2 broken),
    # stale ARR entries would otherwise corrupt the averages catastrophically
    # — see the WelchLynchProcess docstring.
    processes: List[Process] = [WelchLynchProcess(params, max_rounds=rounds,
                                                  discard_stale=True)
                                for _ in range(params.n)]
    result = _run(params, processes, clocks, rounds, delay_model, seed,
                  end_time=maintenance_end_time(
                      params, rounds, post_heal_rounds * params.round_length),
                  topology=topology, link_schedule=schedule,
                  observers=observers)
    return PartitionHealResult(
        params=result.params, trace=result.trace,
        start_times=result.start_times, rounds=result.rounds,
        end_time=result.end_time, observers=result.observers,
        groups=list(groups),
        partition_start=partition_start, heal_time=heal_time,
    )
