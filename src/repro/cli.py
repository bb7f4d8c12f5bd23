"""Command-line interface: run, audit, sweep and compare from a terminal.

Installed as the ``repro-clocksync`` console script (also reachable as
``python -m repro``).  Sub-commands:

* ``workloads``  — list the named workload presets;
* ``topologies`` — list the network topology generators ``--topology`` accepts;
* ``run``        — run the maintenance algorithm on a workload, audit the run
  against Theorems 4/16/19 (or the partition-and-heal claims for link-fault
  workloads), and optionally export the trace;
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

``run``, ``compare`` and ``sweep`` go through :mod:`repro.runner`:
``--jobs N`` fans independent simulations out over N worker processes (with
results bit-identical to serial execution; a killed worker ends the command
with exit status 2), and ``--replicate-seeds S1 S2 …`` replicates the
experiment across seeds, reporting mean/min/max and 95% confidence intervals
instead of single-draw numbers.

``run`` alone picks the engine, through one mutually exclusive flag group
that maps onto :func:`repro.runner.spec.engine_for`: by default (``auto``)
large streaming runs (n ≥ 512) run alone on the round kernel
(:mod:`repro.sim.roundengine`) and replicated streaming groups run on it in
lockstep (:mod:`repro.sim.vectorized`); ``--vectorize`` asks for the
lockstep grouping at any group size, ``--round-engine`` for each spec alone
at any n, and ``--no-vectorize`` / ``--no-round-engine`` for the serial
event loop.  Every engine returns the serial loop's exact bits, so the
choice never changes a result, a store key or a manifest hash.
``run --max-events N`` raises the event budget that large-n runs would
otherwise exhaust; a run that still exhausts it ends with one ``error:``
line and exit status 2.

Every sub-command prints plain-text tables (see
:mod:`repro.analysis.reporting`) and exits with a non-zero status if a paper
claim it audits is violated, so the CLI can be dropped into CI.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Callable, List, Optional, Sequence

from .analysis.comparison import run_comparison, run_replicated_comparison
from .analysis.experiments import (
    ALGORITHM_FACTORIES,
    run_startup_scenario,
)
from .analysis.export import (
    comparison_rows_to_dicts,
    scenario_to_dict,
    sweep_to_dicts,
    write_csv,
    write_json,
)
from .analysis.metrics import divergence_series, skew_series, startup_spread_series
from .analysis.plotting import sparkline
from .analysis.reporting import format_series, format_table
from .analysis.sweeps import (
    SweepResult,
    sweep_epsilon,
    sweep_fault_count,
    sweep_round_length,
    sweep_system_size,
    sweep_tightness,
    sweep_topology,
)
from .analysis.verification import (
    check_maintenance_run,
    check_partition_heal_run,
    check_startup_run,
    format_report,
)
from .analysis.workloads import (
    build_parameters,
    build_spec,
    get_workload,
    workload_names,
)
from .core.bounds import agreement_bound, startup_limit
from .runner import BatchRunner, SpecLost, StoreError, execute, replicate
from .topology.spec import build_topology, describe_topologies

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
    run_parser.add_argument("--samples", type=int, default=200,
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
    sweep_parser.add_argument("--rounds", type=int, default=10)
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
    certify_parser.add_argument("-n", type=int, default=5,
                                help="number of processes (default 5)")
    certify_parser.add_argument("--rounds", type=int, default=6,
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


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workload", default="lan", choices=workload_names(),
                        help="named workload preset (default: lan)")
    parser.add_argument("-n", type=int, default=7, help="number of processes")
    parser.add_argument("-f", type=int, default=2,
                        help="number of tolerated faults (n >= 3f + 1)")
    parser.add_argument("--rounds", type=int, default=None,
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
    engine.add_argument("--vectorize", dest="engine", action="store_const",
                        const="batch",
                        help="run every supported group on the round "
                             "kernel in lockstep, replicated or not "
                             "(default: auto-selected for replicated "
                             "streaming runs; results are bit-identical to "
                             "serial)")
    engine.add_argument("--no-vectorize", dest="engine", action="store_const",
                        const="serial",
                        help="run every replica through the serial event "
                             "loop")
    engine.add_argument("--round-engine", dest="engine", action="store_const",
                        const="round",
                        help="run every supported spec alone on the round "
                             "kernel at any n (default: "
                             "auto-selected for streaming specs with n >= "
                             "512; results are bit-identical to serial)")
    engine.add_argument("--no-round-engine", dest="engine",
                        action="store_const", const="serial",
                        help="run through the serial event loop, replicas "
                             "included")
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


def _audit(result, samples: int = 200):
    """The right paper audit for a scenario result (partition-heal aware)."""
    if result.is_partition_heal:
        return check_partition_heal_run(result)
    return check_maintenance_run(result, samples=samples)


def _with_max_events(spec, args: argparse.Namespace):
    """Thread ``run --max-events`` into a built spec."""
    if args.max_events is not None:
        spec = dataclasses.replace(spec, max_events=args.max_events)
    return spec


def _streaming_requested(args: argparse.Namespace, workload) -> bool:
    """Whether this run goes through the streaming observer pipeline."""
    return bool(args.no_trace or args.observe or args.checkpoint_every
                or args.horizon or not workload.record_trace
                or workload.observers)


def _observer_names(args: argparse.Namespace, workload) -> tuple:
    if args.observe:
        return tuple(name.strip() for name in args.observe.split(",") if name.strip())
    if workload.observers:
        return tuple(workload.observers)
    return ("skew", "validity")


def _cmd_run_replicated(args: argparse.Namespace) -> int:
    """Replicate the run workload across seeds; audit every replica."""
    workload = get_workload(args.workload)
    streaming = _streaming_requested(args, workload)
    overrides = {}
    if streaming:
        overrides = {"record_trace": not (args.no_trace
                                          or not workload.record_trace),
                     "observers": _observer_names(args, workload),
                     "horizon": args.horizon,
                     "checkpoint_every": args.checkpoint_every,
                     "samples": args.samples}
    try:
        spec = build_spec(workload, n=args.n, f=args.f, rounds=args.rounds,
                          seed=args.seed,
                          topology=args.topology or workload.topology,
                          **overrides)
        spec = _with_max_events(spec, args)
        rep = replicate(spec, args.replicate_seeds,
                        runner=BatchRunner(jobs=args.jobs,
                                           engine=args.engine))
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    params = rep.results[0].params
    partitioned = rep.results[0].is_partition_heal
    print(f"workload {workload.name}: n={params.n} f={params.f} "
          f"replicated over seeds {list(rep.seeds)} with jobs={args.jobs}")
    if not spec.record_trace:
        # No trace to audit: the per-seed verdict is the online skew
        # envelope against gamma plus a clean validity count.
        gamma = agreement_bound(params)
        reports = None
        passes = [agreement <= gamma + 1e-9 and rate == 0.0
                  for agreement, rate in zip(rep.agreement_values,
                                             rep.validity_values)]
    else:
        reports = [_audit(result, samples=args.samples)
                   for result in rep.results]
        passes = [report.all_passed for report in reports]
    seed_rows = [
        {"seed": seed, "agreement": agreement,
         "validity_violation_rate": rate,
         "audit": "pass" if passed else "FAIL"}
        for seed, agreement, rate, passed in zip(
            rep.seeds, rep.agreement_values, rep.validity_values, passes)]
    print(format_table(
        ["seed", "agreement", "validity violations", "audit"],
        [tuple(row.values()) for row in seed_rows], precision=6))
    if rep.failures:
        # Partial replication: the summaries below cover the survivors only.
        print(f"failed seeds ({len(rep.failures)} of "
              f"{len(rep.failures) + len(rep.seeds)}):", file=sys.stderr)
        for failure in rep.failures:
            print(f"  {failure.describe()}", file=sys.stderr)
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
        print(f"validity: "
              f"{'holds on every seed' if rep.validity_holds else 'VIOLATED'}")
    if args.json:
        write_json({"workload": workload.name, "n": params.n, "f": params.f,
                    "rounds": rep.results[0].rounds, "seeds": list(rep.seeds),
                    "partition_heal": partitioned,
                    "streamed": not spec.record_trace,
                    "summary": rep.metrics(), "per_seed": seed_rows},
                   args.json)
        print(f"wrote replication JSON to {args.json}")
    if args.csv:
        write_csv(seed_rows, args.csv)
        print(f"wrote per-seed replication CSV to {args.csv}")
    return 0 if all(passes) else 1


def _cmd_run_streaming(args: argparse.Namespace) -> int:
    """One run through the streaming pipeline; audit from online observers."""
    workload = get_workload(args.workload)
    record_trace = not (args.no_trace or not workload.record_trace)
    names = _observer_names(args, workload)
    if not record_trace and not {"skew", "validity"} <= set(names):
        # Without a trace there is no batch audit; refuse to report success
        # on a run nothing audited (mirrors replicate()'s requirement).
        print("error: a --no-trace run needs both 'skew' and 'validity' in "
              "--observe so the paper claims can be audited online",
              file=sys.stderr)
        return 2
    try:
        spec = build_spec(workload, n=args.n, f=args.f, rounds=args.rounds,
                          seed=args.seed,
                          topology=args.topology or workload.topology,
                          record_trace=record_trace, observers=names,
                          horizon=args.horizon,
                          checkpoint_every=args.checkpoint_every,
                          samples=args.samples)
        spec = _with_max_events(spec, args)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    result = execute(spec, engine=args.engine)
    params = result.params
    mode = "streaming (no trace)" if not record_trace else "recorded trace"
    print(f"workload {workload.name}: n={params.n} f={params.f} "
          f"rounds={result.rounds} seed={args.seed} — {mode}, "
          f"observers: {', '.join(names)}")
    print(f"horizon: {result.end_time:.4f} s simulated, "
          f"{result.trace.stats.delivered} messages delivered")
    if args.checkpoint_every:
        print(f"checkpoints: {result.checkpoints} snapshot/restore round "
              f"trips (every {args.checkpoint_every} s)")
    ok = True
    skew_obs = result.online("skew")
    if skew_obs is not None:
        gamma = agreement_bound(params)
        passed = skew_obs.max_skew <= gamma + 1e-9
        ok = ok and passed
        print(f"online agreement: max skew {skew_obs.max_skew:.6f} vs gamma "
              f"{gamma:.6f} over {skew_obs.samples} samples "
              f"[{'pass' if passed else 'FAIL'}]")
    validity_obs = result.online("validity")
    if validity_obs is not None:
        report = validity_obs.report()
        ok = ok and report.holds
        print(f"online validity: {report.violations} violations over "
              f"{report.samples} samples, rates in [{report.min_rate:.6f}, "
              f"{report.max_rate:.6f}] [{'pass' if report.holds else 'FAIL'}]")
    network_obs = result.online("network")
    if network_obs is not None:
        stats = network_obs.stats()
        print(f"online network: {stats['sent']:.0f} sends, drop rate "
              f"{stats['drop_rate']:.4f}, delays "
              f"[{stats['delay_min']:.6f}, {stats['delay_max']:.6f}] "
              f"mean {stats['delay_mean']:.6f}")
    if record_trace:
        # The full trace exists too: run the standard paper audit beside the
        # online numbers.
        report = _audit(result, samples=args.samples)
        ok = ok and report.all_passed
        print(format_report(report))
    if args.json:
        payload = {"workload": workload.name, "n": params.n, "f": params.f,
                   "rounds": result.rounds, "seed": args.seed,
                   "streamed": not record_trace,
                   "checkpoints": result.checkpoints,
                   "end_time": result.end_time}
        for name in names:
            observer = result.online(name)
            if observer is not None and hasattr(observer, "result"):
                payload[name] = observer.result()
        write_json(payload, args.json)
        print(f"wrote streaming summary JSON to {args.json}")
    return 0 if ok else 1


def _cmd_run(args: argparse.Namespace) -> int:
    if args.replicate_seeds:
        return _cmd_run_replicated(args)
    workload = get_workload(args.workload)
    if _streaming_requested(args, workload):
        return _cmd_run_streaming(args)
    topology = build_topology(args.topology or workload.topology,
                              n=args.n, seed=args.seed)
    try:
        spec = _with_max_events(
            build_spec(workload, n=args.n, f=args.f, rounds=args.rounds,
                       seed=args.seed, topology=topology), args)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    result = execute(spec, engine=args.engine)
    params = result.params
    print(f"workload {workload.name}: n={params.n} f={params.f} "
          f"rho={params.rho} delta={params.delta} epsilon={params.epsilon} "
          f"beta={params.beta:.6f} P={params.round_length:.6f}")
    if topology is not None:
        print(f"topology {topology.describe()} — effective envelope "
              f"delta'={params.delta:.6f} epsilon'={params.epsilon:.6f}")
    if result.is_partition_heal:
        report = check_partition_heal_run(result)
        print(f"partition of groups "
              f"{'/'.join(str(len(g)) for g in result.groups)} over real time "
              f"[{result.partition_start:.4f}, {result.heal_time:.4f}]")
        print(format_report(report))
        divergences = [d for _, d in divergence_series(
            result.trace, result.groups, result.tmax0 + params.round_length,
            result.end_time, samples=60)]
        print(f"cross-group divergence over time: {sparkline(divergences)}")
    else:
        report = check_maintenance_run(result, samples=args.samples)
        print(format_report(report))
    settle = result.tmax0 + params.round_length
    series = [skew for _, skew in skew_series(result.trace, settle,
                                              result.end_time, samples=60)]
    print(f"skew over time: {sparkline(series)}")
    if args.json:
        write_json(scenario_to_dict(result, samples=120), args.json)
        print(f"wrote scenario JSON to {args.json}")
    if args.csv:
        from .analysis.export import skew_series_rows
        write_csv(skew_series_rows(result.trace, settle, result.end_time), args.csv)
        print(f"wrote skew series CSV to {args.csv}")
    return 0 if report.all_passed else 1


def _cmd_startup(args: argparse.Namespace) -> int:
    workload = get_workload(args.workload)
    params = build_parameters(workload, n=args.n, f=args.f)
    topology = build_topology(args.topology or workload.topology,
                              n=args.n, seed=args.seed)
    rounds = args.rounds if args.rounds is not None else workload.default_rounds
    result = run_startup_scenario(params, rounds=rounds,
                                  initial_spread=args.spread, seed=args.seed,
                                  topology=topology)
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
            topology=args.topology or workload.topology, jobs=args.jobs)
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
                          topology=topology, jobs=args.jobs)
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

    fault_kinds = [None if kind == "none" else kind
                   for kind in args.fault_kinds]
    topologies = [None if spec == "complete" else spec
                  for spec in args.topologies]
    try:
        cases = build_conformance_matrix(
            n=args.n, f=args.f, rounds=args.rounds, seed=args.seed,
            algorithms=args.algorithms, fault_kinds=fault_kinds,
            topologies=topologies, delay=args.delay)
        report = run_conformance(cases, jobs=args.jobs)
    except (ValueError, KeyError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
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


def _sweep_runner(args: argparse.Namespace):
    """The ResilientRunner for a sweep, or None for the plain path.

    Any of ``--store`` / ``--resume`` / ``--spec-timeout`` / ``--retries``
    opts the sweep into the resilient engine (durable commits, retries,
    quarantine); without them the sweep runs on the plain batch runner.
    """
    if not (args.store or args.resume or args.spec_timeout is not None
            or args.retries is not None):
        return None
    from .runner import ResilientRunner

    if args.resume and not args.store:
        raise SystemExit("error: --resume requires --store PATH")
    return ResilientRunner(jobs=args.jobs, cache=False, store=args.store,
                           resume=args.resume,
                           max_retries=(2 if args.retries is None
                                        else args.retries),
                           spec_timeout=args.spec_timeout)


def _run_sweep(args: argparse.Namespace,
               runner=None) -> SweepResult:
    sweep, cast = _SWEEPS[args.axis]
    return sweep([cast(v) for v in args.values], rounds=args.rounds,
                 seed=args.seed, seeds=args.replicate_seeds, jobs=args.jobs,
                 runner=runner)


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .runner import SweepInterrupted

    runner = _sweep_runner(args)
    try:
        result = _run_sweep(args, runner=runner)
    except SweepInterrupted as interrupt:
        # Completed results are already durably committed (--store); tell
        # the operator how to pick the sweep back up and exit like an
        # interrupted process should.
        print(f"interrupted: {interrupt}", file=sys.stderr)
        if runner is not None and runner.store is not None:
            print(f"store {runner.store.path} holds "
                  f"{len(runner.store)} result(s); rerun with --resume to "
                  f"continue", file=sys.stderr)
        return 130
    print(format_table(result.headers(), result.rows()))
    if args.csv:
        write_csv(sweep_to_dicts(result), args.csv)
        print(f"wrote sweep CSV to {args.csv}")
    if runner is not None and runner.store is not None:
        status = runner.store.status()
        print(f"store {status['path']}: {status['results']} result(s), "
              f"{status['quarantined']} quarantined", file=sys.stderr)
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
    if args.action == "serve":
        from .net import ServeConfig, serve_peer

        try:
            config = ServeConfig(
                pid=args.id,
                hosts=[_parse_host_port(entry) for entry in args.hosts],
                seed=args.seed, rho=args.rho, duration=args.duration,
                rounds=args.rounds, pings=args.pings,
                jitter_margin=args.jitter_margin)
            return serve_peer(config)
        except (ValueError, RuntimeError, TimeoutError, OSError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2

    # net run: build the (non-pure) net spec and route it through the
    # standard dispatcher, so telemetry spans/manifests apply unchanged.
    from .core.bounds import validity_parameters
    from .runner import RunSpec

    try:
        spec = RunSpec.net(
            n=args.n, f=args.f, rho=args.rho,
            duration=None if args.rounds is not None else args.duration,
            rounds=args.rounds if args.rounds is not None else 6,
            seed=args.seed, pings=args.pings,
            jitter_margin=args.jitter_margin, samples=args.samples)
        result = execute(spec)
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
          f"(jitter margin {envelope.jitter_margin * 1e3:.0f}ms)")
    audits = result.audits
    audit_rows = [
        ["A1 rho-bounded rates", _verdict(audits["a1_rho_bounded"])],
        ["A2 n >= 3f+1", _verdict(audits["a2_quorum"])],
        [f"A3 delay envelope ({audits['a3_records']} messages)",
         _verdict(audits["a3_envelope"])],
        [f"agreement: max skew {result.max_skew * 1e6:.1f}us <= "
         f"gamma {result.skew_bound * 1e3:.3f}ms",
         _verdict(result.agreement_holds)],
    ]
    if result.validity is not None:
        validity = result.validity
        vp = validity_parameters(params)
        audit_rows.append(
            [f"validity: rates in [{validity['min_rate']:.6f}, "
             f"{validity['max_rate']:.6f}] vs (a1={vp.alpha1:.6f}, "
             f"a2={vp.alpha2:.6f}), "
             f"{validity['violations']} violation(s)",
             _verdict(validity["holds"])])
    print(format_table(["check (measured parameters)", "verdict"],
                       audit_rows))
    print(f"throughput: {result.messages_sent} frames, "
          f"{result.msgs_per_second:.0f} msgs/s")
    if args.json:
        write_json(result.as_dict(), args.json)
        print(f"wrote net run report JSON to {args.json}")
    return 0 if result.passed else 1


def _verdict(passed: bool) -> str:
    return "pass" if passed else "FAIL"


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
    :func:`repro.telemetry.set_active`), which is how it reaches the System
    hot loop, :func:`repro.runner.spec.execute` and pool-backed
    :class:`~repro.runner.batch.BatchRunner` instances without every
    intermediate layer growing a parameter.  On the way out: the Chrome
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
    except (StoreError, SpecLost) as error:  # a bad store; a dead worker
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
