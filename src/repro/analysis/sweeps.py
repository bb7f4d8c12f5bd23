"""Parameter sweeps: the machinery behind every "vs" table and figure.

The evaluation questions the paper raises are mostly of the form "how does
quantity Q change as parameter X varies?" — agreement vs ε, steady-state
spread vs P, convergence rate vs n, and so on.  This module provides a small,
generic sweep framework plus ready-made sweeps for the axes the paper
discusses, so tests, examples and the CLI all produce consistent tables.

A sweep is defined by one or more :class:`SweepAxis` objects (a named list of
values) and a runner callable that maps one point of the cartesian product to
a dict of measured quantities.  The result keeps both the inputs and outputs
per point and can be rendered with :func:`repro.analysis.reporting.format_table`.

Two evaluation paths exist:

* :func:`run_sweep` — the fully generic path: an arbitrary callable per point,
  evaluated serially (arbitrary closures cannot travel to worker processes);
* :func:`run_spec_sweep` — the declarative path: each point is described by a
  :class:`~repro.runner.spec.RunSpec` and measured from its result, so the
  whole cartesian product (times any replication seeds) fans out through a
  :class:`~repro.runner.batch.BatchRunner` — ``jobs=N`` runs N simulations at
  once on supervised workers, bit-identical to serial execution.

All the ready-made ``sweep_*`` helpers run on the spec path and uniformly
accept ``seed`` (single run per point), ``seeds`` (replication: outputs become
means with ``*_ci95`` half-width columns), ``jobs``, ``progress`` and
``on_result``.

Per-point measurement (agreement windows, spread series) runs on the batched
trace-reconstruction fast path (:mod:`repro.analysis.fastmetrics`), so the
metric cost no longer dominates wide sweeps; combined with ``jobs=N``
fan-out this is the "as fast as the hardware allows" configuration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Union)

from ..core.bounds import agreement_bound, lower_bound, steady_state_beta
from ..core.config import SyncParameters
from ..runner.batch import BatchRunner
from ..runner.resilient import QuarantinedResult
from ..runner.spec import RunSpec
from ..telemetry import span
from ..topology.spec import build_topology
from .metrics import measured_agreement, steady_state_round_spread
from .statistics import summarize

__all__ = [
    "SweepAxis",
    "SweepPoint",
    "SweepResult",
    "run_sweep",
    "run_spec_sweep",
    "sweep_epsilon",
    "sweep_round_length",
    "sweep_system_size",
    "sweep_fault_count",
    "sweep_topology",
    "sweep_tightness",
]

#: called with a point's swept inputs before it is evaluated.
Progress = Callable[[Dict[str, object]], None]
#: called with a point's inputs *and* measured outputs after evaluation.
OnResult = Callable[[Dict[str, object], Dict[str, float]], None]


@dataclass(frozen=True)
class SweepAxis:
    """One swept parameter: a name and the values it takes."""

    name: str
    values: Sequence

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("axis name must be non-empty")
        if not self.values:
            raise ValueError(f"axis {self.name!r} needs at least one value")


@dataclass(frozen=True)
class SweepPoint:
    """One evaluated point: the swept inputs and the measured outputs."""

    inputs: Dict[str, object]
    outputs: Dict[str, float]

    def row(self, input_names: Sequence[str], output_names: Sequence[str]) -> List:
        """Flatten to a table row in the given column order."""
        return ([self.inputs[name] for name in input_names]
                + [self.outputs.get(name) for name in output_names])


@dataclass
class SweepResult:
    """All evaluated points of a sweep, in evaluation order."""

    axes: List[SweepAxis]
    points: List[SweepPoint] = field(default_factory=list)

    @property
    def input_names(self) -> List[str]:
        return [axis.name for axis in self.axes]

    @property
    def output_names(self) -> List[str]:
        names: List[str] = []
        for point in self.points:
            for name in point.outputs:
                if name not in names:
                    names.append(name)
        return names

    def headers(self) -> List[str]:
        return self.input_names + self.output_names

    def rows(self) -> List[List]:
        outputs = self.output_names
        return [point.row(self.input_names, outputs) for point in self.points]

    def column(self, name: str) -> List:
        """All values of one input or output column, in evaluation order."""
        if name in self.input_names:
            return [point.inputs[name] for point in self.points]
        return [point.outputs.get(name) for point in self.points]

    def best(self, output: str, minimize: bool = True) -> SweepPoint:
        """The point with the smallest (or largest) value of an output."""
        scored = [p for p in self.points if p.outputs.get(output) is not None]
        if not scored:
            raise ValueError(f"no point produced output {output!r}")
        chooser = min if minimize else max
        return chooser(scored, key=lambda p: p.outputs[output])


def _iter_inputs(axes: Sequence[SweepAxis]) -> Iterable[Dict[str, object]]:
    for combination in itertools.product(*(axis.values for axis in axes)):
        yield {axis.name: value for axis, value in zip(axes, combination)}


def run_sweep(axes: Sequence[SweepAxis],
              runner: Callable[..., Mapping[str, float]],
              progress: Optional[Progress] = None,
              on_result: Optional[OnResult] = None) -> SweepResult:
    """Evaluate ``runner`` on the cartesian product of the axes.

    ``runner`` receives the swept values as keyword arguments (one per axis
    name) and returns a mapping of measured quantities.  ``progress``, when
    given, is called with each point's inputs before it is evaluated;
    ``on_result`` with the inputs *and* the measured outputs right after — so
    long sweeps are observable end to end, not just at submission.
    """
    axes = list(axes)
    if not axes:
        raise ValueError("need at least one axis")
    result = SweepResult(axes=axes)
    for inputs in _iter_inputs(axes):
        if progress is not None:
            progress(dict(inputs))
        outputs = dict(runner(**inputs))
        result.points.append(SweepPoint(inputs=dict(inputs), outputs=outputs))
        if on_result is not None:
            on_result(dict(inputs), dict(outputs))
    return result


def _replicated_outputs(per_seed: Sequence[Mapping[str, float]]) -> Dict[str, float]:
    """Collapse per-seed output dicts to means plus ``*_ci95`` half-widths."""
    merged: Dict[str, float] = {}
    half_widths: Dict[str, float] = {}
    for name in per_seed[0]:
        stats = summarize([outputs[name] for outputs in per_seed])
        merged[name] = stats.mean
        half_widths[f"{name}_ci95"] = stats.ci95_high - stats.mean
    merged.update(half_widths)  # ci95 columns after all the means
    return merged


def run_spec_sweep(
    axes: Sequence[SweepAxis],
    build: Callable[..., RunSpec],
    measure: Callable[..., Mapping[str, float]],
    seeds: Optional[Sequence[int]] = None,
    jobs: int = 1,
    runner: Optional[BatchRunner] = None,
    progress: Optional[Progress] = None,
    on_result: Optional[OnResult] = None,
) -> SweepResult:
    """Evaluate a declarative sweep through a :class:`BatchRunner`.

    ``build(**inputs)`` maps one point of the cartesian product to a
    :class:`RunSpec`; ``measure(result, **inputs)`` turns the executed
    result into the point's output mapping (the result carries its spec in
    ``result.spec``, so measures can recover run provenance).

    With ``seeds``, every point is replicated across all of them
    (``build``'s seed is overridden per replica) and each output column
    becomes the across-seed mean, joined by a ``<name>_ci95`` half-width
    column.  All points × seeds execute as one batch, so ``jobs=N``
    parallelizes across both axes at once; per-spec results are bit-identical
    to serial execution regardless of ``jobs``.

    The callbacks stream: each point's ``progress``/``on_result`` fires as
    soon as that point's runs are available (with ``jobs=1`` execution is
    fully lazy, so ``progress`` fires before the point runs, exactly like
    :func:`run_sweep`; with a pool, later points keep computing in the
    background while earlier points are measured and reported).

    ``runner`` substitutes any :class:`BatchRunner`-compatible executor — in
    particular a :class:`~repro.runner.resilient.ResilientRunner`, which
    makes the sweep durable and resumable.  Failures such a runner returns
    as data (a :class:`~repro.runner.resilient.QuarantinedResult`) do not
    abort the sweep: the affected cell keeps its surviving replicas and
    gains a ``failed_runs`` output column counting the casualties.
    """
    axes = list(axes)
    if not axes:
        raise ValueError("need at least one axis")
    seed_list = list(seeds) if seeds is not None else None
    if seed_list is not None and not seed_list:
        raise ValueError("seeds, when given, must be non-empty")
    if seed_list is not None and len(set(seed_list)) != len(seed_list):
        # A repeated seed re-counts one draw as independent samples, biasing
        # the mean and shrinking the CI.
        raise ValueError(f"replication seeds must be distinct, got {seed_list}")
    # The internal default runner does not cache: every spec is measured
    # exactly once and reduced to a few floats, so holding full traces for
    # the whole sweep would be pure memory growth.  Callers wanting reuse
    # across sweeps pass their own runner=.
    batch = runner if runner is not None else BatchRunner(jobs=jobs, cache=False)
    points = list(_iter_inputs(axes))
    spec_lists: List[List[RunSpec]] = []
    for inputs in points:
        spec = build(**inputs)
        if seed_list is None:
            spec_lists.append([spec])
        else:
            spec_lists.append([spec.with_seed(seed) for seed in seed_list])
    flat = [spec for specs in spec_lists for spec in specs]
    results = batch.run_iter(flat)
    result = SweepResult(axes=axes)
    for inputs, specs in zip(points, spec_lists):
        if progress is not None:
            progress(dict(inputs))
        # One span per sweep cell: with jobs=1 this times run + measurement
        # of the cell; with a pool it still brackets when the cell's results
        # became consumable — either way the slow cells stand out in a trace.
        with span("sweep.cell", **inputs):
            per_seed = []
            failed = 0
            for _ in specs:
                outcome = next(results)
                # A tolerant or resilient runner hands failures back as data
                # (QuarantinedResult): the cell keeps whatever replicas
                # survived and reports the casualty count instead of
                # aborting the sweep.
                if isinstance(outcome, QuarantinedResult):
                    failed += 1
                    continue
                per_seed.append(dict(measure(outcome, **inputs)))
        if not per_seed:
            outputs: Dict[str, float] = {}
        elif len(per_seed) == 1:
            outputs = per_seed[0]
        else:
            outputs = _replicated_outputs(per_seed)
        if failed:
            outputs["failed_runs"] = float(failed)
        result.points.append(SweepPoint(inputs=dict(inputs), outputs=outputs))
        if on_result is not None:
            on_result(dict(inputs), dict(outputs))
    return result


# ---------------------------------------------------------------------------
# Ready-made sweeps along the axes the paper discusses.
# ---------------------------------------------------------------------------

def _agreement_after_settle(result, settle_rounds: int = 1,
                            samples: int = 150) -> float:
    start = result.tmax0 + settle_rounds * result.params.round_length
    return measured_agreement(result.trace, start, result.end_time,
                              samples=samples)


def sweep_epsilon(epsilons: Iterable[float], n: int = 7, f: int = 2,
                  rho: float = 1e-4, delta: float = 0.01, rounds: int = 10,
                  fault_kind: Optional[str] = "two_faced", seed: int = 0,
                  seeds: Optional[Sequence[int]] = None, jobs: int = 1,
                  runner: Optional[BatchRunner] = None,
                  progress: Optional[Progress] = None,
                  on_result: Optional[OnResult] = None) -> SweepResult:
    """Agreement and its Theorem 16 bound as the delay uncertainty ε varies."""

    def build(epsilon: float) -> RunSpec:
        params = SyncParameters.derive(n=n, f=f, rho=rho, delta=delta,
                                       epsilon=epsilon)
        return RunSpec.maintenance(params, rounds=rounds,
                                   fault_kind=fault_kind, seed=seed)

    def measure(result, epsilon: float) -> Dict[str, float]:
        return {
            "gamma": agreement_bound(result.params),
            "agreement": _agreement_after_settle(result),
        }

    return run_spec_sweep([SweepAxis("epsilon", list(epsilons))], build,
                          measure, seeds=seeds, jobs=jobs, runner=runner,
                          progress=progress, on_result=on_result)


def sweep_round_length(round_lengths: Iterable[float], n: int = 7, f: int = 2,
                       rho: float = 2e-3, delta: float = 0.01,
                       epsilon: float = 0.002, rounds: int = 14,
                       seed: int = 0, seeds: Optional[Sequence[int]] = None,
                       jobs: int = 1, runner: Optional[BatchRunner] = None,
                       progress: Optional[Progress] = None,
                       on_result: Optional[OnResult] = None) -> SweepResult:
    """Steady-state round spread and the 4ε + 4ρP estimate as P varies (E7)."""

    def build(round_length: float) -> RunSpec:
        params = SyncParameters.derive(n=n, f=f, rho=rho, delta=delta,
                                       epsilon=epsilon,
                                       round_length=round_length)
        return RunSpec.maintenance(params, rounds=rounds, fault_kind=None,
                                   seed=seed)

    def measure(result, round_length: float) -> Dict[str, float]:
        return {
            "paper_beta": steady_state_beta(result.params),
            "spread": steady_state_round_spread(result.trace, skip_rounds=4),
        }

    return run_spec_sweep([SweepAxis("round_length", list(round_lengths))],
                          build, measure, seeds=seeds, jobs=jobs,
                          runner=runner, progress=progress,
                          on_result=on_result)


def sweep_system_size(sizes: Iterable[int], f: int = 2, rho: float = 1e-4,
                      delta: float = 0.01, epsilon: float = 0.002,
                      rounds: int = 10, fault_kind: Optional[str] = "two_faced",
                      seed: int = 0, seeds: Optional[Sequence[int]] = None,
                      jobs: int = 1, runner: Optional[BatchRunner] = None,
                      progress: Optional[Progress] = None,
                      on_result: Optional[OnResult] = None) -> SweepResult:
    """Agreement as n grows at fixed f (the paper: flat; LM: grows)."""

    def build(n: int) -> RunSpec:
        params = SyncParameters.derive(n=n, f=f, rho=rho, delta=delta,
                                       epsilon=epsilon)
        return RunSpec.maintenance(params, rounds=rounds,
                                   fault_kind=fault_kind, seed=seed)

    def measure(result, n: int) -> Dict[str, float]:
        return {
            "gamma": agreement_bound(result.params),
            "agreement": _agreement_after_settle(result),
        }

    return run_spec_sweep([SweepAxis("n", list(sizes))], build, measure,
                          seeds=seeds, jobs=jobs, runner=runner,
                          progress=progress, on_result=on_result)


def sweep_fault_count(counts: Iterable[int], n: int = 7, f: int = 2,
                      rho: float = 1e-4, delta: float = 0.01,
                      epsilon: float = 0.002, rounds: int = 10,
                      fault_kind: str = "two_faced", seed: int = 0,
                      seeds: Optional[Sequence[int]] = None, jobs: int = 1,
                      runner: Optional[BatchRunner] = None,
                      progress: Optional[Progress] = None,
                      on_result: Optional[OnResult] = None) -> SweepResult:
    """Agreement as the number of *actual* attackers varies (the A2 threshold).

    The averaging stays configured for ``f``; counts above ``f`` demonstrate
    the [DHS] impossibility region empirically.
    """
    params = SyncParameters.derive(n=n, f=f, rho=rho, delta=delta, epsilon=epsilon)

    def build(fault_count: int) -> RunSpec:
        return RunSpec.maintenance(params, rounds=rounds, fault_kind=fault_kind,
                                   fault_count=fault_count, seed=seed)

    def measure(result, fault_count: int) -> Dict[str, float]:
        return {
            "gamma": agreement_bound(params),
            "agreement": _agreement_after_settle(result),
        }

    return run_spec_sweep([SweepAxis("fault_count", list(counts))], build,
                          measure, seeds=seeds, jobs=jobs, runner=runner,
                          progress=progress, on_result=on_result)


def sweep_topology(specs: Iterable[str], n: int = 7, f: int = 2,
                   rho: float = 1e-4, delta: float = 0.01,
                   epsilon: float = 0.002, rounds: int = 10,
                   fault_kind: Optional[str] = None, seed: int = 0,
                   seeds: Optional[Sequence[int]] = None, jobs: int = 1,
                   runner: Optional[BatchRunner] = None,
                   progress: Optional[Progress] = None,
                   on_result: Optional[OnResult] = None) -> SweepResult:
    """Agreement across network shapes (complete vs ring vs G(n, p) vs ...).

    Each point runs the maintenance algorithm on one topology spec; since the
    relay layer stretches the end-to-end envelope, both the γ bound and the
    measured agreement are reported against the *effective* parameters of the
    run (``result.params``), alongside the graph's diameter so the relay
    depth driving the stretch is visible in the table.  (With replication
    ``seeds``, seed-dependent generators like ``random_gnp`` draw one graph
    per seed, so the diameter column is an across-draw mean like every other
    output.)
    """
    base = SyncParameters.derive(n=n, f=f, rho=rho, delta=delta, epsilon=epsilon)

    def build(topology: str) -> RunSpec:
        return RunSpec.maintenance(base, rounds=rounds, fault_kind=fault_kind,
                                   topology=topology, seed=seed)

    def measure(result, topology: str) -> Dict[str, float]:
        graph = build_topology(topology, n=n, seed=result.spec.seed)
        return {
            "diameter": float(graph.diameter()),
            "gamma": agreement_bound(result.params),
            "agreement": _agreement_after_settle(result),
        }

    return run_spec_sweep([SweepAxis("topology", list(specs))], build, measure,
                          seeds=seeds, jobs=jobs, runner=runner,
                          progress=progress, on_result=on_result)


def sweep_tightness(sizes: Iterable[int], f: int = 0, rho: float = 1e-4,
                    delta: float = 0.01, epsilon: float = 0.002,
                    rounds: int = 8, delay: str = "skew_max", seed: int = 0,
                    seeds: Optional[Sequence[int]] = None, jobs: int = 1,
                    runner: Optional[BatchRunner] = None,
                    progress: Optional[Progress] = None,
                    on_result: Optional[OnResult] = None) -> SweepResult:
    """Achieved adversarial skew between the ε(1 − 1/n) floor and γ, per n.

    Runs the fault-free maintenance algorithm under an in-envelope adversary
    (default: the skew-maximizing two-block model) for each system size and
    reports the measured agreement next to both theoretical brackets — the
    impossibility floor ``lower_bound`` and the Theorem 16 guarantee
    ``gamma`` — plus ``gamma_over_lower``, the provable window's looseness.
    The companion certificate machinery
    (:func:`repro.adversary.certifier.certify_lower_bound`) proves the floor
    is reachable; this sweep shows where real adversarial runs land inside
    the window as n grows.
    """

    def build(n: int) -> RunSpec:
        params = SyncParameters.derive(n=n, f=f, rho=rho, delta=delta,
                                       epsilon=epsilon)
        return RunSpec.maintenance(params, rounds=rounds, fault_kind=None,
                                   delay=delay, seed=seed)

    def measure(result, n: int) -> Dict[str, float]:
        gamma = agreement_bound(result.params)
        floor = lower_bound(result.params)
        return {
            "lower_bound": floor,
            "agreement": _agreement_after_settle(result),
            "gamma": gamma,
            "gamma_over_lower": gamma / floor if floor > 0 else float("inf"),
        }

    return run_spec_sweep([SweepAxis("n", list(sizes))], build, measure,
                          seeds=seeds, jobs=jobs, runner=runner,
                          progress=progress, on_result=on_result)
