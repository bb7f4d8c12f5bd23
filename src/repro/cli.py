"""Command-line interface: run, audit, sweep and compare from a terminal.

Installed as the ``repro-clocksync`` console script (also reachable as
``python -m repro``).  Sub-commands:

* ``workloads``  — list the named workload presets;
* ``topologies`` — list the network topology generators ``--topology`` accepts;
* ``run``        — run the maintenance algorithm on a workload (alone, streamed
  or across seeds), audit every result with
  :func:`repro.analysis.verification.audit` and print one report;
* ``startup``    — run the Section 9.2 start-up algorithm and report the
  Lemma 20 convergence series;
* ``compare``    — the Section 10 comparison table on one shared workload;
* ``sweep``      — agreement/spread sweeps along the ε, P, n, fault-count,
  topology or tightness axes (the data behind the paper's trade-off
  discussions); ``--store PATH`` commits every completed spec to a durable
  sqlite store as it finishes, ``--resume`` serves already-stored specs
  bit-identically, and ``--retries``/``--spec-timeout`` turn on retries
  (crash respawn, retry with backoff, quarantine) — an interrupted sweep
  exits 130 and continues where it left off;
* ``store``      — inspect (``store status``) or prune (``store gc``) a
  durable sweep result store;
* ``certify``    — run the shifting-argument lower-bound certifier: build the
  paper's family of shifted executions and emit a machine-checkable
  certificate that some admissible execution has skew ≥ ε(1 − 1/n)
  (see :mod:`repro.adversary.certifier`);
* ``conformance`` — the cross-algorithm conformance matrix: every algorithm ×
  fault model × topology audited against axioms A1–A3 and its own agreement
  bound (see :mod:`repro.adversary.conformance`);
* ``net``        — the algorithm over real TCP sockets; ``net run`` and
  ``net serve`` judge the simulator's claim rows (see :mod:`repro.net`);
* ``telemetry``  — render collected run manifests (``telemetry report``):
  slowest runs, events/s distribution, drop rates (see
  :mod:`repro.telemetry.report`).

``run``, ``startup``, ``compare``, ``sweep``, ``certify`` and ``conformance``
all accept ``--telemetry`` (collect metrics, spans and run manifests),
``--trace-out FILE`` (write the spans as Chrome trace-event JSON, loadable in
``chrome://tracing`` / Perfetto) and ``--manifest FILE`` (append one JSON
line per executed spec); ``--track-memory`` adds tracemalloc peak-allocation
numbers to each manifest.  All of it is off by default, and the disabled
path costs one pointer check (see :mod:`repro.telemetry`).

``run``, ``startup`` and ``compare`` accept ``--topology SPEC`` (e.g.
``ring``, ``grid:cols=3``, ``random_gnp:p=0.4``) to replace the paper's
implicit complete graph with an arbitrary network; broadcasts then relay
multi-hop and every audit uses the topology-effective (δ', ε') constants.

``run --replicate-seeds``, ``compare``, ``sweep`` and ``conformance`` each
build one :class:`~repro.runner.batch.BatchRunner` from their flags:
``--jobs N`` fans independent simulations out over N worker processes (with
results bit-identical to serial execution; a killed worker ends the command
with exit status 2), ``sweep``'s store and retry flags make it durable and
supervised, and ``--replicate-seeds S1 S2 …`` replicates the experiment
across seeds, reporting mean/min/max and 95% confidence intervals instead of
single-draw numbers.

``run`` alone picks the engine, through one mutually exclusive flag group
that maps onto :func:`repro.runner.spec.engine_for`.  The round kernel
(:mod:`repro.sim.roundengine`) runs a replicated streaming group below
n = 512 in lockstep and every other spec it accepts alone; by default
(``auto``) a lone spec only at n ≥ 512, with ``--round-engine`` (``kernel``)
at any n.  ``--no-vectorize`` / ``--no-round-engine`` pick the serial event
loop.  Every engine returns the serial loop's exact bits, so the choice
never changes a result, a store key or a manifest hash.
``run --max-events N`` raises the event budget that large-n runs would
otherwise exhaust; a run that still exhausts it ends with one ``error:``
line and exit status 2.

Every sub-command prints plain-text tables (see
:mod:`repro.analysis.reporting`) and exits 0 when every paper claim it
audits holds, 1 when one is violated, and 2 on a usage or input error (a bad
``--topology`` spec, parameters outside the paper's assumptions, a bad
runner flag or store, a dead worker, an exhausted event budget), so the CLI
can be dropped into CI.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Callable, List, Optional, Sequence

from .analysis.comparison import run_comparison, run_replicated_comparison
from .analysis.experiments import ALGORITHM_FACTORIES
from .analysis.export import (
    comparison_rows_to_dicts,
    scenario_to_dict,
    skew_series_rows,
    sweep_to_dicts,
    write_csv,
    write_json,
)
from .analysis.metrics import divergence_series, skew_series, startup_spread_series
from .analysis.plotting import sparkline
from .analysis.reporting import format_series, format_table
from .analysis.sweeps import (
    sweep_epsilon,
    sweep_fault_count,
    sweep_round_length,
    sweep_system_size,
    sweep_tightness,
    sweep_topology,
)
from .analysis.verification import audit, check_startup_run, format_report
from .analysis.workloads import (
    build_parameters,
    build_spec,
    get_workload,
    workload_names,
)
from .core import ParameterError, agreement_bound, startup_limit
from .runner import (BatchRunner, RunSpec, SpecLost, StoreError, execute,
                     replicate)
from .runner.replication import distinct_seeds
from .topology.spec import (
    TopologySpecError,
    build_topology,
    describe_topologies,
)

__all__ = ["main", "build_parser"]


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    """The complete argument parser (exposed for tests and docs)."""
    from . import __version__
    parser = argparse.ArgumentParser(
        prog="repro-clocksync",
        description="Welch-Lynch fault-tolerant clock synchronization — "
                    "run, audit, sweep and compare.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("workloads", help="list the named workload presets")
    subparsers.add_parser(
        "topologies",
        help="list the network topology generators --topology accepts")

    run_parser = subparsers.add_parser(
        "run", help="run the maintenance algorithm and audit it against the paper")
    _add_common_options(run_parser)
    _add_runner_options(run_parser)
    _add_engine_options(run_parser)
    _add_telemetry_options(run_parser)
    run_parser.add_argument("--json", metavar="PATH",
                            help="export the full scenario (trace included) as JSON")
    run_parser.add_argument("--csv", metavar="PATH",
                            help="export the skew-over-time series as CSV")
    run_parser.add_argument("--samples", type=_at_least(2), default=200,
                            help="samples for the agreement window (default 200)")
    run_parser.add_argument("--no-trace", action="store_true",
                            help="streaming mode: record no execution trace "
                                 "and bound all per-process state (O(n) "
                                 "memory); metrics come from --observe")
    run_parser.add_argument("--observe", metavar="LIST", default=None,
                            help="comma-separated online observers to attach "
                                 "(skew,validity,network); default in "
                                 "streaming mode: skew,validity")
    run_parser.add_argument("--checkpoint-every", type=float, default=None,
                            metavar="T",
                            help="snapshot/restore the simulation every T "
                                 "simulated seconds (results are "
                                 "bit-identical to an unsegmented run)")
    run_parser.add_argument("--horizon", type=float, default=None, metavar="T",
                            help="extend the run to at least T simulated "
                                 "seconds (long-horizon studies)")

    startup_parser = subparsers.add_parser(
        "startup", help="run the Section 9.2 start-up algorithm from arbitrary clocks")
    _add_common_options(startup_parser)
    _add_telemetry_options(startup_parser)
    startup_parser.add_argument("--spread", type=float, default=1.0,
                                help="initial clock spread in seconds (default 1.0)")

    compare_parser = subparsers.add_parser(
        "compare", help="Section 10 comparison of all algorithms on one workload")
    _add_common_options(compare_parser)
    _add_runner_options(compare_parser)
    _add_telemetry_options(compare_parser)
    compare_parser.add_argument("--algorithms", nargs="+",
                                choices=sorted(ALGORITHM_FACTORIES),
                                help="subset of algorithms (default: all)")
    compare_parser.add_argument("--json", metavar="PATH",
                                help="export the comparison rows as JSON")

    sweep_parser = subparsers.add_parser(
        "sweep", help="sweep agreement/spread along one parameter axis")
    sweep_parser.add_argument("--axis", required=True,
                              choices=["epsilon", "round-length", "n",
                                       "fault-count", "topology",
                                       "tightness"],
                              help="which parameter to sweep (tightness: "
                                   "adversarial skew vs gamma vs the "
                                   "eps(1-1/n) lower bound, values are n)")
    sweep_parser.add_argument("--values", nargs="+", required=True,
                              help="the values to sweep over (topology axis: "
                                   "specs like ring grid random_gnp:p=0.4)")
    sweep_parser.add_argument("--rounds", type=_at_least(1), default=10)
    sweep_parser.add_argument("--seed", type=int, default=0)
    _add_runner_options(sweep_parser)
    _add_telemetry_options(sweep_parser)
    sweep_parser.add_argument("--csv", metavar="PATH",
                              help="export the sweep table as CSV")
    sweep_parser.add_argument("--store", metavar="PATH", default=None,
                              help="durable sqlite result store: every "
                                   "completed spec is committed as it "
                                   "finishes, so an interrupted sweep keeps "
                                   "its work (inspect with 'store status')")
    sweep_parser.add_argument("--resume", action="store_true",
                              help="serve specs already in --store without "
                                   "re-running them (bit-identical); "
                                   "quarantined specs are re-attempted")
    sweep_parser.add_argument("--retries", type=int, default=None, metavar="N",
                              help="supervised retries per failing spec "
                                   "before quarantine (default 2 once "
                                   "--store/--resume/--spec-timeout is "
                                   "given; giving it enables retries too)")
    sweep_parser.add_argument("--spec-timeout", type=float, default=None,
                              metavar="T",
                              help="per-spec wall-clock timeout in seconds; "
                                   "a worker past it is killed and the spec "
                                   "retried (enables retries)")

    store_parser = subparsers.add_parser(
        "store", help="inspect or prune a durable sweep result store")
    store_actions = store_parser.add_subparsers(dest="action", required=True)
    status_parser = store_actions.add_parser(
        "status", help="summarize a result store: counts, kinds, size, "
                       "quarantine")
    status_parser.add_argument("store", metavar="PATH",
                               help="sqlite store written by sweep --store")
    status_parser.add_argument("--json", metavar="PATH",
                               help="export the summary as JSON")
    gc_parser = store_actions.add_parser(
        "gc", help="prune a result store (by age and/or quarantine) and "
                   "compact the file")
    gc_parser.add_argument("store", metavar="PATH",
                           help="sqlite store written by sweep --store")
    gc_parser.add_argument("--older-than", type=float, default=None,
                           metavar="SECONDS",
                           help="remove results committed more than this "
                                "many seconds ago")
    gc_parser.add_argument("--clear-quarantine", action="store_true",
                           help="drop the quarantine ledger")
    gc_parser.add_argument("--no-vacuum", action="store_true",
                           help="skip the VACUUM compaction pass")

    certify_parser = subparsers.add_parser(
        "certify",
        help="certify the eps(1-1/n) lower bound via the shifting argument")
    certify_parser.add_argument("-n", type=_at_least(2), default=5,
                                help="number of processes (default 5)")
    certify_parser.add_argument("--rounds", type=_at_least(1), default=6,
                                help="base-run resynchronization rounds "
                                     "(default 6)")
    certify_parser.add_argument("--seed", type=int, default=0)
    certify_parser.add_argument("--no-trace", action="store_true",
                                help="stream the base run (O(n) memory); the "
                                     "certifier consumes the online "
                                     "observers")
    certify_parser.add_argument("--json", metavar="PATH",
                                help="write the machine-checkable "
                                     "certificate as JSON")
    _add_telemetry_options(certify_parser)

    conformance_parser = subparsers.add_parser(
        "conformance",
        help="audit every algorithm x fault model x topology against "
             "axioms A1-A3 and its own agreement bound")
    conformance_parser.add_argument("-n", type=int, default=7)
    conformance_parser.add_argument("-f", type=int, default=2)
    conformance_parser.add_argument("--rounds", type=int, default=6)
    conformance_parser.add_argument("--seed", type=int, default=0)
    conformance_parser.add_argument("--algorithms", nargs="+",
                                    choices=sorted(ALGORITHM_FACTORIES),
                                    help="subset of algorithms "
                                         "(default: all)")
    conformance_parser.add_argument("--fault-kinds", nargs="+",
                                    default=["none", "two_faced", "crash"],
                                    metavar="KIND",
                                    help="fault-model axis; 'none' = no "
                                         "faults (bounds are enforced "
                                         "there). Default: none two_faced "
                                         "crash")
    conformance_parser.add_argument("--topologies", nargs="+",
                                    default=["complete"], metavar="SPEC",
                                    help="topology axis; 'complete' = the "
                                         "paper's complete graph")
    conformance_parser.add_argument("--delay", default="uniform",
                                    help="delay-model family for every cell "
                                         "(default uniform)")
    conformance_parser.add_argument("--jobs", type=int, default=1,
                                    metavar="N",
                                    help="worker processes (results are "
                                         "bit-identical to serial)")
    conformance_parser.add_argument("--json", metavar="PATH",
                                    help="export the audited matrix as JSON")
    _add_telemetry_options(conformance_parser)

    net_parser = subparsers.add_parser(
        "net", help="run the algorithm over real TCP sockets, with delta/"
                    "epsilon measured instead of modeled")
    net_actions = net_parser.add_subparsers(dest="action", required=True)
    net_run = net_actions.add_parser(
        "run", help="single-process loopback cluster: n asyncio peers over "
                    "real TCP, audited (A1-A3, Theorem 16/19) against the "
                    "measured delay envelope")
    net_run.add_argument("--n", "-n", type=int, default=4,
                         help="number of peers (default 4)")
    net_run.add_argument("-f", type=int, default=None,
                         help="tolerated faults (default: (n-1)//3)")
    net_run.add_argument("--duration", type=float, default=5.0, metavar="T",
                         help="wall seconds of synchronized rounds "
                              "(default 5.0)")
    net_run.add_argument("--rounds", type=int, default=None,
                         help="exact round count; overrides --duration "
                              "(deterministic tests)")
    net_run.add_argument("--seed", type=int, default=0,
                         help="seed for the drift-clock ensemble")
    net_run.add_argument("--rho", type=float, default=1e-5,
                         help="modeled drift bound (default 1e-5)")
    net_run.add_argument("--pings", type=int, default=5, metavar="K",
                         help="measurement ping volleys per peer (default 5)")
    net_run.add_argument("--jitter-margin", type=float, default=0.025,
                         metavar="S",
                         help="upper-edge padding of the measured envelope, "
                              "seconds (default 0.025); smaller = tighter "
                              "bound, higher A3-violation odds")
    net_run.add_argument("--samples", type=int, default=200,
                         help="agreement-grid samples (default 200)")
    net_run.add_argument("--json", metavar="PATH",
                         help="export the run report as JSON")
    _add_telemetry_options(net_run)
    net_serve = net_actions.add_parser(
        "serve", help="one OS process per peer (peer 0 leads: merges "
                      "envelopes, broadcasts parameters, probes final skew)")
    net_serve.add_argument("--id", type=int, required=True,
                           help="this peer's index into --hosts")
    net_serve.add_argument("--hosts", nargs="+", required=True,
                           metavar="HOST:PORT",
                           help="every peer's listen address, in pid order")
    net_serve.add_argument("--duration", type=float, default=5.0, metavar="T",
                           help="wall seconds of synchronized rounds "
                                "(default 5.0)")
    net_serve.add_argument("--rounds", type=int, default=None,
                           help="exact round count; overrides --duration")
    net_serve.add_argument("--seed", type=int, default=0)
    net_serve.add_argument("--rho", type=float, default=1e-5)
    net_serve.add_argument("--pings", type=int, default=5, metavar="K")
    net_serve.add_argument("--jitter-margin", type=float, default=0.025,
                           metavar="S")

    telemetry_parser = subparsers.add_parser(
        "telemetry", help="inspect collected telemetry (run manifests)")
    telemetry_actions = telemetry_parser.add_subparsers(dest="action",
                                                       required=True)
    report_parser = telemetry_actions.add_parser(
        "report", help="summarize a manifest JSONL file: slowest runs, "
                       "events/s distribution, drop rates")
    report_parser.add_argument("manifest", metavar="MANIFEST",
                               help="manifest JSON-lines file written by "
                                    "--manifest (or --telemetry runs)")
    report_parser.add_argument("--slowest", type=int, default=10, metavar="N",
                               help="how many slowest runs to list "
                                    "(default 10)")
    report_parser.add_argument("--json", metavar="PATH",
                               help="export the summary as JSON")

    return parser


def _at_least(low: int) -> Callable[[str], int]:
    """An argparse ``type``: an int, refused below ``low`` (exit 2)."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse's "invalid int value: 'x'"
    return parse


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workload", default="lan", choices=workload_names(),
                        help="named workload preset (default: lan)")
    parser.add_argument("-n", type=int, default=7, help="number of processes")
    parser.add_argument("-f", type=int, default=2,
                        help="number of tolerated faults (n >= 3f + 1)")
    parser.add_argument("--rounds", type=_at_least(1), default=None,
                        help="resynchronization rounds (default: the "
                             "workload's preset, usually 10)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--topology", metavar="SPEC", default=None,
                        help="network topology spec (e.g. ring, grid:cols=3, "
                             "random_gnp:p=0.4); default: the workload's own "
                             "graph, or the complete graph")


def _add_telemetry_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--telemetry", action="store_true",
                        help="collect metrics, phase spans and run manifests "
                             "for this invocation; prints a metric summary "
                             "on exit")
    parser.add_argument("--trace-out", metavar="FILE", default=None,
                        help="write the phase spans as Chrome trace-event "
                             "JSON (chrome://tracing / Perfetto); implies "
                             "--telemetry")
    parser.add_argument("--manifest", metavar="FILE", default=None,
                        help="append one JSON line per executed spec to FILE; "
                             "implies --telemetry (render with 'telemetry "
                             "report FILE')")
    parser.add_argument("--track-memory", action="store_true",
                        help="add tracemalloc peak-allocation numbers to "
                             "each manifest (roughly 2x runtime); implies "
                             "--telemetry")


def _add_runner_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for independent simulations "
                             "(default 1 = serial; results are bit-identical "
                             "either way)")
    parser.add_argument("--replicate-seeds", nargs="+", type=int, default=None,
                        metavar="SEED",
                        help="replicate the experiment across these seeds and "
                             "report mean/min/max and 95%% CIs")


def _add_engine_options(parser: argparse.ArgumentParser) -> None:
    """The engine choice (see :func:`repro.runner.spec.engine_for`)."""
    engine = parser.add_mutually_exclusive_group()
    parser.set_defaults(engine="auto")
    engine.add_argument("--round-engine", dest="engine", action="store_const",
                        const="kernel",
                        help="run every spec the round kernel accepts on it, "
                             "at any n (default: lone specs only at n >= "
                             "512; results are bit-identical to serial)")
    for flag in ("--no-vectorize", "--no-round-engine"):
        engine.add_argument(flag, dest="engine", action="store_const",
                            const="serial",
                            help="run through the serial event loop, "
                                 "replicas included")
    parser.add_argument("--max-events", type=int, default=None, metavar="N",
                        help="override the per-run event budget (default "
                             "2,000,000); large-n runs dispatch ~n^2 "
                             "deliveries per round and need a bigger cap")


# ---------------------------------------------------------------------------
# Sub-command implementations
# ---------------------------------------------------------------------------

def _cmd_workloads(_args: argparse.Namespace) -> int:
    rows = [(name, get_workload(name).description) for name in workload_names()]
    print(format_table(["workload", "description"], rows))
    return 0


def _cmd_topologies(_args: argparse.Namespace) -> int:
    print(format_table(["topology", "description"], describe_topologies()))
    return 0


def _runner(args: argparse.Namespace) -> BatchRunner:
    """The command's one :class:`BatchRunner`, built from its flags.

    Any of ``sweep``'s ``--store`` / ``--resume`` / ``--spec-timeout`` /
    ``--retries`` makes it supervised (durable commits, retries,
    quarantine), with 2 retries unless ``--retries`` gives another count.
    A bad value among them, or a repeated replication seed, is a usage error.
    """
    store = getattr(args, "store", None)
    resume = getattr(args, "resume", False)
    retries = getattr(args, "retries", None)
    spec_timeout = getattr(args, "spec_timeout", None)
    if resume and not store:
        raise argparse.ArgumentError(None, "--resume requires --store PATH")
    seeds = getattr(args, "replicate_seeds", None)
    max_retries = None
    if store or retries is not None or spec_timeout is not None:
        max_retries = 2 if retries is None else retries
    try:
        if seeds is not None:
            distinct_seeds(seeds)
        return BatchRunner(jobs=args.jobs,
                           engine=getattr(args, "engine", "auto"),
                           store=store, resume=resume,
                           max_retries=max_retries, spec_timeout=spec_timeout)
    except ValueError as error:
        raise argparse.ArgumentError(None, str(error)) from error


def _cmd_run(args: argparse.Namespace) -> int:
    """Run one spec, alone or across seeds, and audit every result."""
    workload = get_workload(args.workload)
    streamed = bool(args.no_trace or args.observe or not workload.record_trace
                    or args.checkpoint_every is not None
                    or args.horizon is not None or workload.observers)
    options = {}
    if streamed:
        observers = tuple(workload.observers) or ("skew", "validity")
        if args.observe:
            observers = tuple(name.strip() for name in args.observe.split(",")
                              if name.strip())
        options = {"record_trace": not args.no_trace and workload.record_trace,
                   "observers": observers,
                   "horizon": args.horizon,
                   "checkpoint_every": args.checkpoint_every,
                   "samples": args.samples}
        if not (options["record_trace"]
                or {"skew", "validity"} <= set(observers)):
            print("error: a --no-trace run needs both 'skew' and 'validity' "
                  "in --observe so the paper claims can be audited online",
                  file=sys.stderr)
            return 2
    topology = args.topology or workload.topology
    try:
        if not (streamed or args.replicate_seeds):
            # A lone traced run names its graph in the banner; replicas draw
            # seed-dependent graphs per seed, streamed runs build theirs
            # once inside execute().
            topology = build_topology(topology, n=args.n, seed=args.seed)
        spec = build_spec(workload, n=args.n, f=args.f, rounds=args.rounds,
                          seed=args.seed, topology=topology, **options)
        if args.max_events is not None:
            spec = dataclasses.replace(spec, max_events=args.max_events)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    rep = None
    if args.replicate_seeds:
        # After the try: a ValueError while a replica runs is a bug, not
        # bad input, and keeps its traceback like a lone run's.
        rep = replicate(spec, args.replicate_seeds, samples=args.samples,
                        runner=_runner(args))
    results = (rep.results if rep is not None
               else [execute(spec, engine=args.engine)])
    reports = [audit(result, samples=args.samples) for result in results]
    if rep is not None:
        _print_replicas(args, workload, rep, reports)
    else:
        _print_run(args, workload, spec, results[0], reports[0], streamed,
                   topology)
    return 0 if all(report.all_passed for report in reports) else 1


def _print_run(args: argparse.Namespace, workload, spec, result, report,
               streamed: bool, topology) -> None:
    """A lone run's report, its per-mode extras and its exports."""
    params = result.params
    mode = "recorded trace" if spec.record_trace else "streaming (no trace)"
    observers = (f", observers: {', '.join(spec.observers)}"
                 if spec.observers else "")
    print(f"workload {workload.name}: n={params.n} f={params.f} "
          f"rounds={result.rounds} seed={args.seed} — {mode}{observers}")
    print(f"parameters: rho={params.rho} delta={params.delta} "
          f"epsilon={params.epsilon} beta={params.beta:.6f} "
          f"P={params.round_length:.6f}")
    if not streamed and topology is not None:
        print(f"topology {topology.describe()} — effective envelope "
              f"delta'={params.delta:.6f} epsilon'={params.epsilon:.6f}")
    print(f"horizon: {result.end_time:.4f} s simulated, "
          f"{result.trace.stats.delivered} messages delivered")
    if args.checkpoint_every:
        print(f"checkpoints: {result.checkpoints} snapshot/restore round "
              f"trips (every {args.checkpoint_every} s)")
    network = result.online("network")
    if network is not None:
        stats = network.stats()
        print(f"online network: {stats['sent']:.0f} sends, drop rate "
              f"{stats['drop_rate']:.4f}, delays "
              f"[{stats['delay_min']:.6f}, {stats['delay_max']:.6f}] "
              f"mean {stats['delay_mean']:.6f}")
    if result.is_partition_heal:
        print(f"partition of groups "
              f"{'/'.join(str(len(g)) for g in result.groups)} over real time "
              f"[{result.partition_start:.4f}, {result.heal_time:.4f}]")
    print(format_report(report))
    settle = result.tmax0 + params.round_length
    if result.is_partition_heal:
        divergences = [d for _, d in divergence_series(
            result.trace, result.groups, settle, result.end_time, samples=60)]
        print(f"cross-group divergence over time: {sparkline(divergences)}")
    if spec.record_trace:
        series = [skew for _, skew in skew_series(result.trace, settle,
                                                  result.end_time, samples=60)]
        print(f"skew over time: {sparkline(series)}")
    if args.json and streamed:
        payload = {"workload": workload.name, "n": params.n, "f": params.f,
                   "rounds": result.rounds, "seed": args.seed,
                   "streamed": not spec.record_trace,
                   "checkpoints": result.checkpoints,
                   "end_time": result.end_time}
        for name in spec.observers:  # the network recorder has no summary
            observer = result.online(name)
            if hasattr(observer, "result"):
                payload[name] = observer.result()
        write_json(payload, args.json)
        print(f"wrote streaming summary JSON to {args.json}")
    elif args.json:
        write_json(scenario_to_dict(result, samples=120), args.json)
        print(f"wrote scenario JSON to {args.json}")
    if args.csv and not streamed:
        write_csv(skew_series_rows(result.trace, settle, result.end_time),
                  args.csv)
        print(f"wrote skew series CSV to {args.csv}")


def _print_replicas(args: argparse.Namespace, workload, rep,
                    reports) -> None:
    """Per-seed verdicts, the summary statistics and the exports."""
    params = rep.results[0].params
    partitioned = rep.results[0].is_partition_heal
    print(f"workload {workload.name}: n={params.n} f={params.f} "
          f"replicated over seeds {list(rep.seeds)} with jobs={args.jobs}")
    seed_rows = [
        {"seed": seed, "agreement": agreement,
         "validity_violation_rate": rate,
         "audit": "pass" if report.all_passed else "FAIL"}
        for seed, agreement, rate, report in zip(
            rep.seeds, rep.agreement_values, rep.validity_values, reports)]
    print(format_table(
        ["seed", "agreement", "validity violations", "audit"],
        [tuple(row.values()) for row in seed_rows], precision=6))
    print(f"claims audited per seed: "
          f"{', '.join(check.claim for check in reports[0].checks)}")
    for seed, report in zip(rep.seeds, reports):
        if not report.all_passed:
            print(f"seed {seed}: {report.verdict}")
    stats = rep.agreement
    print(f"agreement: mean={stats.mean:.6f} min={stats.minimum:.6f} "
          f"max={stats.maximum:.6f} ci95=[{stats.ci95_low:.6f}, "
          f"{stats.ci95_high:.6f}]")
    if partitioned:
        # Agreement/validity above span the whole run, *including* the
        # partition window where divergence is the expected behaviour; the
        # partition-aware paper claims are what the per-seed audits checked.
        print("note: partition-heal workload — summary metrics include the "
              "partition window; the per-seed audits carry the "
              "partition-aware claims")
    else:
        gamma = agreement_bound(params)
        print(f"worst agreement {rep.worst_agreement:.6f} vs gamma "
              f"{gamma:.6f} (margin {(gamma - rep.worst_agreement) / gamma:+.1%})")
        holds = all(report.check("theorem19_validity").passed
                    for report in reports)
        print(f"validity: {'holds on every seed' if holds else 'VIOLATED'}")
    if args.json:
        write_json({"workload": workload.name, "n": params.n, "f": params.f,
                    "rounds": rep.results[0].rounds, "seeds": list(rep.seeds),
                    "partition_heal": partitioned,
                    "streamed": not rep.spec.record_trace,
                    "summary": rep.metrics(), "per_seed": seed_rows},
                   args.json)
        print(f"wrote replication JSON to {args.json}")
    if args.csv:
        write_csv(seed_rows, args.csv)
        print(f"wrote per-seed replication CSV to {args.csv}")


def _cmd_startup(args: argparse.Namespace) -> int:
    workload = get_workload(args.workload)
    params = build_parameters(workload, n=args.n, f=args.f)
    rounds = args.rounds if args.rounds is not None else workload.default_rounds
    result = execute(RunSpec.startup(
        params, rounds=rounds, initial_spread=args.spread, seed=args.seed,
        topology=args.topology or workload.topology))
    params = result.params
    series = startup_spread_series(result.trace)
    print(format_series("measured B^i", series))
    print(f"B^i shape: {sparkline(series)}")
    print(f"Lemma 20 limit (≈ 4 epsilon): {startup_limit(params):.6f}; "
          f"final spread: {series[-1]:.6f}")
    report = check_startup_run(result)
    print(format_report(report))
    return 0 if report.all_passed else 1


def _cmd_compare(args: argparse.Namespace) -> int:
    workload = get_workload(args.workload)
    if args.rounds is None:
        args.rounds = workload.default_rounds
    params = build_parameters(workload, n=args.n, f=args.f)
    topology = build_topology(args.topology or workload.topology,
                              n=args.n, seed=args.seed)
    if args.replicate_seeds:
        # Pass the spec *string* through so seed-dependent generators
        # (random_gnp, clustered) redraw per replica seed; a pre-built graph
        # would freeze every replica to the --seed draw.
        rows = run_replicated_comparison(
            params, seeds=args.replicate_seeds, rounds=args.rounds,
            algorithms=args.algorithms, fault_kind=workload.fault_kind,
            topology=args.topology or workload.topology,
            runner=_runner(args))
        print(f"replicated over seeds {args.replicate_seeds} "
              f"with jobs={args.jobs}")
        print(format_table(
            ["algorithm", "agreement mean", "ci95 low", "ci95 high",
             "worst", "max |ADJ| mean", "paper agreement"],
            [(r.algorithm, r.agreement.mean, r.agreement.ci95_low,
              r.agreement.ci95_high, r.agreement.maximum,
              r.max_adjustment.mean, r.paper_agreement) for r in rows],
            precision=4))
        if args.json:
            write_json([{**{"algorithm": r.algorithm,
                            "agreement_mean": r.agreement.mean,
                            "agreement_min": r.agreement.minimum,
                            "agreement_max": r.agreement.maximum,
                            "agreement_ci95_low": r.agreement.ci95_low,
                            "agreement_ci95_high": r.agreement.ci95_high,
                            "max_adjustment_mean": r.max_adjustment.mean}}
                        for r in rows], args.json)
            print(f"wrote replicated comparison JSON to {args.json}")
        return 0
    rows = run_comparison(params, rounds=args.rounds, algorithms=args.algorithms,
                          fault_kind=workload.fault_kind, seed=args.seed,
                          topology=topology, runner=_runner(args))
    print(format_table(
        ["algorithm", "agreement", "max |ADJ|", "msgs/round",
         "paper agreement", "paper |ADJ|"],
        [(r.algorithm, r.agreement, r.max_adjustment, r.messages_per_round,
          r.paper_agreement, r.paper_adjustment) for r in rows],
        precision=4))
    if args.json:
        write_json(comparison_rows_to_dicts(rows), args.json)
        print(f"wrote comparison JSON to {args.json}")
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    from .adversary.certifier import certify_lower_bound
    from .analysis.verification import check_certificate

    certificate = certify_lower_bound(n=args.n, rounds=args.rounds,
                                      seed=args.seed,
                                      record_trace=not args.no_trace)
    mode = "streamed base run" if args.no_trace else "recorded base run"
    print(f"lower-bound certificate: n={certificate.n} "
          f"delta={certificate.delta} epsilon={certificate.epsilon} — {mode}")
    print(f"chain (by descending local time): "
          f"{' > '.join(str(pid) for pid in certificate.chain)}; "
          f"shift unit {certificate.unit:.6g}")
    print(format_table(
        ["execution", "spread", "messages", "delay range", "skew",
         "admissible"],
        [(item.index, item.spread, item.messages_checked,
          f"[{item.min_delay:.6f}, {item.max_delay:.6f}]", item.skew,
          "yes" if item.admissible else "NO")
         for item in certificate.executions],
        precision=6))
    # The report already folds in the offline re-check (verify_certificate)
    # and the achieved-vs-bound claims, so it is the single verdict source.
    report = check_certificate(certificate)
    print(format_report(report))
    print(f"achieved skew {certificate.achieved_skew:.6f} vs lower bound "
          f"{certificate.bound:.6f} (margin {certificate.margin:.2f}x) vs "
          f"gamma {certificate.gamma:.6f}")
    if args.json:
        write_json(certificate.to_dict(), args.json)
        print(f"wrote machine-checkable certificate to {args.json}")
    ok = report.all_passed
    print("certificate VERIFIED" if ok else "certificate REJECTED")
    return 0 if ok else 1


def _cmd_conformance(args: argparse.Namespace) -> int:
    from .adversary.conformance import build_conformance_matrix, run_conformance

    topologies = [None if spec == "complete" else spec
                  for spec in args.topologies]
    try:
        cases = build_conformance_matrix(
            n=args.n, f=args.f, rounds=args.rounds, seed=args.seed,
            algorithms=args.algorithms, fault_kinds=args.fault_kinds,
            topologies=topologies, delay=args.delay)
    except ValueError as error:
        # Every bad input is refused here, before a cell runs; an error
        # inside a cell is a bug and keeps its traceback.
        print(f"error: {error}", file=sys.stderr)
        return 2
    report = run_conformance(cases, runner=_runner(args))
    print(f"conformance matrix: {len(cases)} cells "
          f"({len(set(c.algorithm for c in cases))} algorithms x "
          f"{len(set(c.fault_kind for c in cases))} fault models x "
          f"{len(set(c.topology for c in cases))} topologies), "
          f"jobs={args.jobs}")
    print(format_table(report.headers(), report.rows(), precision=6))
    violations = report.violations()
    if violations:
        print(f"{len(violations)} enforced check(s) VIOLATED:")
        for case, check in violations:
            print(f"  {case.label}: {check.claim} measured "
                  f"{check.measured:.6g} vs bound {check.bound:.6g}")
    else:
        print("axioms A1-A3 hold on every cell; all nonfaulty cells respect "
              "their agreement bounds")
    if args.json:
        write_json([
            {"algorithm": outcome.case.algorithm,
             "fault_kind": outcome.case.fault_kind,
             "topology": outcome.case.topology,
             "nonfaulty": outcome.case.nonfaulty,
             "passed": outcome.passed,
             "checks": [{"claim": check.claim, "bound": check.bound,
                         "measured": check.measured, "passed": check.passed,
                         "detail": check.detail}
                        for check in outcome.checks]}
            for outcome in report.outcomes], args.json)
        print(f"wrote conformance matrix JSON to {args.json}")
    return 0 if report.passed else 1


_SWEEPS = {
    "epsilon": (sweep_epsilon, float),
    "round-length": (sweep_round_length, float),
    "n": (sweep_system_size, int),
    "fault-count": (sweep_fault_count, int),
    "topology": (sweep_topology, str),
    "tightness": (sweep_tightness, int),
}


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .runner import SweepInterrupted

    sweep, cast = _SWEEPS[args.axis]
    try:
        values = [cast(v) for v in args.values]
    except ValueError as error:
        print(f"error: --values: {error}", file=sys.stderr)
        return 2
    runner = _runner(args)
    try:
        result = sweep(values, rounds=args.rounds,
                       seed=args.seed, seeds=args.replicate_seeds,
                       runner=runner)
    except SweepInterrupted as interrupt:
        # Completed results are already durably committed (--store); tell
        # the operator how to pick the sweep back up and exit like an
        # interrupted process should.
        print(f"interrupted: {interrupt}", file=sys.stderr)
        if runner.store is not None:
            print(f"store {runner.store.path} holds "
                  f"{len(runner.store)} result(s); rerun with --resume to "
                  f"continue", file=sys.stderr)
        return 130
    print(format_table(result.headers(), result.rows()))
    if args.csv:
        write_csv(sweep_to_dicts(result), args.csv)
        print(f"wrote sweep CSV to {args.csv}")
    if runner.store is not None:
        # Row counts only: status() decodes every payload (store status).
        store = runner.store
        print(f"store {store.path}: {len(store)} result(s), "
              f"{len(store.quarantined())} quarantined", file=sys.stderr)
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    from .runner import ResultStore

    with ResultStore(args.store, create=False) as store:
        if args.action == "status":
            status = store.status()
            rows = [[key, value] for key, value in status.items()
                    if key != "by_kind"]
            rows += [[f"kind:{kind}", count]
                     for kind, count in status["by_kind"].items()]
            print(format_table(["field", "value"], rows))
            quarantined = store.quarantined()
            if quarantined:
                print(format_table(
                    ["spec_hash", "failures", "last_error"],
                    [[q["spec_hash"][:16], q["failures"], q["last_error"]]
                     for q in quarantined]))
            if args.json:
                write_json(status, args.json)
                print(f"wrote store status JSON to {args.json}")
            return 0
        # gc
        removed = store.gc(older_than=args.older_than,
                           clear_quarantine=args.clear_quarantine,
                           vacuum=not args.no_vacuum)
        print(f"removed {removed['removed_results']} result(s), "
              f"{removed['removed_quarantine']} quarantine record(s); "
              f"{len(store)} result(s) remain")
    return 0


def _parse_host_port(text: str) -> "tuple":
    host, sep, port = text.rpartition(":")
    if not sep or not host or not port.isdigit():
        raise ValueError(f"--hosts entries must be HOST:PORT, got {text!r}")
    return host, int(port)


def _cmd_net(args: argparse.Namespace) -> int:
    from .net import ServeConfig, serve_peer

    try:
        if args.action == "serve":
            return serve_peer(ServeConfig(
                pid=args.id,
                hosts=[_parse_host_port(entry) for entry in args.hosts],
                seed=args.seed, rho=args.rho, duration=args.duration,
                rounds=args.rounds, pings=args.pings,
                jitter_margin=args.jitter_margin))
        # net run: route the (non-pure) net spec through the standard
        # dispatcher, so telemetry spans/manifests apply unchanged.
        result = execute(RunSpec.net(
            n=args.n, f=args.f, rho=args.rho,
            duration=None if args.rounds is not None else args.duration,
            rounds=args.rounds if args.rounds is not None else 6,
            seed=args.seed, pings=args.pings,
            jitter_margin=args.jitter_margin, samples=args.samples))
    except (ValueError, RuntimeError, TimeoutError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    params = result.params
    envelope = result.envelope
    print(f"net loopback: n={result.n} f={result.f} seed={result.seed} "
          f"rounds={result.rounds} (P={params.round_length * 1e3:.0f}ms, "
          f"wall {result.wall_seconds:.2f}s)")
    print(f"measured envelope: {envelope.samples} delays observed in "
          f"[{envelope.observed_min * 1e6:.0f}, "
          f"{envelope.observed_max * 1e6:.0f}]us -> "
          f"delta={params.delta * 1e3:.3f}ms "
          f"epsilon={params.epsilon * 1e3:.3f}ms "
          f"(jitter margin {envelope.jitter_margin * 1e3:.0f}ms); "
          f"A3 judged {result.audits['a3_records']} delays")
    print(format_report(result.report))
    print(f"throughput: {result.messages_sent} frames, "
          f"{result.msgs_per_second:.0f} msgs/s")
    if args.json:
        write_json(result.as_dict(), args.json)
        print(f"wrote net run report JSON to {args.json}")
    return 0 if result.passed else 1


def _cmd_telemetry(args: argparse.Namespace) -> int:
    from .telemetry import read_manifests
    from .telemetry.report import format_report as format_telemetry_report
    from .telemetry.report import summarize

    try:
        records = read_manifests(args.manifest)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if not records:
        print(f"error: no manifest records in {args.manifest}",
              file=sys.stderr)
        return 2
    summary = summarize(records, slowest=args.slowest)
    print(format_telemetry_report(summary))
    if args.json:
        write_json(summary, args.json)
        print(f"wrote telemetry summary JSON to {args.json}")
    return 0


def _telemetry_requested(args: argparse.Namespace) -> bool:
    """Whether any of the telemetry flags asks for instrumentation."""
    if args.command == "telemetry":
        # The inspection command reads manifests, it doesn't collect them
        # (its positional is also named `manifest`).
        return False
    return bool(getattr(args, "telemetry", False)
                or getattr(args, "trace_out", None)
                or getattr(args, "manifest", None)
                or getattr(args, "track_memory", False))


def _with_telemetry(args: argparse.Namespace,
                    command: "Callable[[argparse.Namespace], int]") -> int:
    """Run a sub-command with an active telemetry bundle, then report.

    The bundle is installed process-locally (see
    :func:`repro.telemetry.activated`), the one way telemetry reaches the
    System hot loop, :func:`repro.runner.spec.execute` and
    :class:`~repro.runner.batch.BatchRunner` with its pool workers; no
    layer takes it as a parameter.  On the way out: the Chrome
    trace is written (``--trace-out``), and the metric registry plus span
    tree are printed to stderr so they never pollute parseable stdout.
    """
    from .telemetry import Telemetry, activated

    telemetry = Telemetry(manifest_path=getattr(args, "manifest", None),
                          track_memory=getattr(args, "track_memory", False))
    with telemetry.span(f"cli.{args.command}"):
        with activated(telemetry):
            status = command(args)
    trace_out = getattr(args, "trace_out", None)
    if trace_out:
        telemetry.tracer.write_chrome_trace(trace_out)
        print(f"wrote Chrome trace JSON to {trace_out} "
              f"({len(telemetry.tracer)} spans)", file=sys.stderr)
    if getattr(args, "manifest", None):
        print(f"appended {len(telemetry.manifests)} manifest line(s) to "
              f"{args.manifest}", file=sys.stderr)
    print("--- telemetry ---", file=sys.stderr)
    print(telemetry.registry.format(), file=sys.stderr)
    tree = telemetry.tracer.tree()
    if tree:
        print("--- spans ---", file=sys.stderr)
        print(tree, file=sys.stderr)
    return status


_COMMANDS = {
    "workloads": _cmd_workloads,
    "topologies": _cmd_topologies,
    "run": _cmd_run,
    "startup": _cmd_startup,
    "compare": _cmd_compare,
    "sweep": _cmd_sweep,
    "store": _cmd_store,
    "certify": _cmd_certify,
    "conformance": _cmd_conformance,
    "net": _cmd_net,
    "telemetry": _cmd_telemetry,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    from .sim.events import EventBudgetExceeded

    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    command = _COMMANDS[args.command]
    try:
        if _telemetry_requested(args):
            return _with_telemetry(args, command)
        return command(args)
    except EventBudgetExceeded as error:
        # Exit 1 means a violated paper claim; a run that never finished
        # audited nothing, so it is a usage error like any other.
        print(f"error: {error}\nhint: raise the budget with run "
              f"--max-events N", file=sys.stderr)
        return 2
    except (TopologySpecError, ParameterError, StoreError, SpecLost,
            argparse.ArgumentError) as error:
        # a bad --topology or --values spec; parameters outside the paper's
        # assumptions; a bad store; a dead worker; a bad runner flag
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
