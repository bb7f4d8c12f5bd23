"""Cluster orchestration for the real-socket backend.

Two deployment shapes around :class:`~repro.net.peer.NetPeer`:

* :func:`run_loopback_cluster` — **single process**: n peers as asyncio
  tasks on one event loop, TCP over loopback, one shared monotonic axis.
  Because every stamp lives on one axis, one-way delays are *measured
  exactly*, the online observers (:class:`~repro.analysis.online.
  OnlineSkew` / :class:`~repro.analysis.online.OnlineValidity`) receive
  each peer's corrections from its hosted
  :class:`~repro.core.maintenance.WelchLynchProcess` in nondecreasing
  real-time order (single-threaded loop), and the conformance harness's
  A1–A3 rows plus the Theorem 16/19 rows
  (:mod:`repro.analysis.verification`) are judged against the *measured*
  delay envelope.  This is the conformance harness pointed at a real (if
  colocated) deployment, and the acceptance path of ``repro net run``.
* :func:`serve_peer` — **one OS process per peer** (``repro net serve``),
  the multi-host building block.  No shared clock exists, so measurement
  falls back to RTT/2 and peer 0 acts as leader: it aggregates envelope
  summaries, derives one agreed :class:`~repro.core.config.SyncParameters`,
  broadcasts it with a go time, and after the run estimates cross-process
  skew with probe round-trips (accurate to about the measured ε — the
  fundamental limit the paper's lower bound formalizes).  The leader judges
  that estimate as a Theorem 16 row, γ with the probe's ε as tolerance, and
  exits 1 when it fails.

Each phase of either shape is ordinary await-able code: measurement →
parameter derivation → synchronized rounds → audit.  A cluster run is *not*
a pure function of its inputs — real schedulers and real NICs do not
replay — which is why the ``net`` RunSpec kind is routed around every
result cache (see :mod:`repro.runner.spec`).
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..analysis.metrics import sample_grid
from ..analysis.online import OnlineSkew, OnlineValidity
from ..analysis.verification import (
    TheoremReport,
    agreement_check,
    check_axioms,
    validity_check,
)
from ..core.bounds import agreement_bound
from ..core.config import SyncParameters
from ..sim.recording import MessageRecord
from .measure import DelayEnvelope, MeasuredEnvelope
from .peer import Axis, NetPeer, PeerConfig, make_net_clock

__all__ = [
    "NetRunResult",
    "run_loopback_cluster",
    "serve_peer",
    "execute_net_spec",
]

#: lead time between deriving parameters and the synchronized go (seconds);
#: long enough for observer setup (single process) or a params frame to
#: cross the network (multi process).
GO_LEAD = 0.25

#: default agreement-grid resolution (matches the batch audit default).
DEFAULT_SAMPLES = 200


@dataclass
class NetRunResult:
    """Everything a measured cluster run produced.

    ``report`` holds the run's claim rows, built by the same functions that
    audit simulated runs: the conformance harness's A1–A3 rows, Theorem 16
    against γ on the measured envelope (no tolerance: the shared axis makes
    the skew exact) and Theorem 19 from the online validity observer.  The
    verdict (``passed``) and the ``audits`` summary both read those rows.
    """

    n: int
    f: int
    seed: int
    mode: str  # "asyncio" (shared axis) or "process"
    params: SyncParameters
    envelope: DelayEnvelope
    rounds: int
    skew_samples: int
    validity: Dict[str, Any]
    report: TheoremReport
    #: delay records the A3 row judged: the pings, then the sync frames.
    a3_records: int
    messages_sent: int
    wall_seconds: float
    spec: Any = None

    @property
    def msgs_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.messages_sent / self.wall_seconds

    @property
    def max_skew(self) -> float:
        return self.report.check("theorem16_agreement").measured

    @property
    def skew_bound(self) -> float:
        """Theorem 16's γ on the measured envelope."""
        return self.report.check("theorem16_agreement").bound

    @property
    def agreement_holds(self) -> bool:
        return self.report.check("theorem16_agreement").passed

    @property
    def audits(self) -> Dict[str, Any]:
        """The axiom verdicts under their established keys."""
        a3 = self.report.check("axiom_a3_delay_envelope")
        return {
            "a1_rho_bounded": self.report.check("axiom_a1_rate_bound").passed,
            "a2_quorum": self.report.check("axiom_a2_fault_threshold").passed,
            "a3_envelope": a3.passed,
            "a3_violations": int(a3.measured),
            "a3_records": self.a3_records,
        }

    @property
    def passed(self) -> bool:
        return self.report.all_passed

    def as_dict(self) -> Dict[str, Any]:
        return {
            "n": self.n,
            "f": self.f,
            "seed": self.seed,
            "mode": self.mode,
            "rounds": self.rounds,
            "delta_measured": self.params.delta,
            "epsilon_measured": self.params.epsilon,
            "beta": self.params.beta,
            "round_length": self.params.round_length,
            "envelope": self.envelope.as_dict(),
            "max_skew": self.max_skew,
            "skew_bound": self.skew_bound,
            "skew_samples": self.skew_samples,
            "validity": self.validity,
            "audits": self.audits,
            "messages_sent": self.messages_sent,
            "msgs_per_second": self.msgs_per_second,
            "wall_seconds": self.wall_seconds,
            "agreement_holds": self.agreement_holds,
            "passed": self.passed,
        }


def _plan_rounds(round_length: float, duration: Optional[float],
                 rounds_cap: Optional[int]) -> int:
    """How many BCAST/UPDATE rounds to run.

    An explicit cap wins (deterministic tests); otherwise fill ``duration``
    wall seconds at one round per P, floored at 3 so the audit window
    (which starts one round in) always contains samples.
    """
    if rounds_cap is not None:
        return max(1, int(rounds_cap))
    if duration is None:
        raise ValueError("need a duration or an explicit rounds cap")
    return max(3, min(100_000, int(duration / round_length)))


async def _run_loopback(n: int, f: int, seed: int, rho: float,
                        duration: Optional[float],
                        rounds_cap: Optional[int],
                        pings: int, jitter_margin: float,
                        samples: int,
                        log: Optional[Callable[[str], None]] = None
                        ) -> NetRunResult:
    say = log if log is not None else (lambda message: None)
    axis = Axis()
    shared_addrs: Dict[int, Tuple[str, int]] = {}
    peers = [NetPeer(PeerConfig(pid=pid, n=n, seed=seed, rho=rho,
                                pings=pings, jitter_margin=jitter_margin,
                                shared_axis=True, peers=shared_addrs),
                     axis=axis)
             for pid in range(n)]
    wall_start = time.perf_counter()
    try:
        for peer in peers:
            shared_addrs[peer.pid] = await peer.start_server()
        await asyncio.gather(*(peer.connect() for peer in peers))
        say(f"mesh up: {n} peers, {n * n} streams on loopback")

        # Phase 1 — measure the delay envelope with ping volleys.
        await asyncio.gather(*(peer.measure() for peer in peers))
        merged = MeasuredEnvelope(jitter_margin=jitter_margin)
        for peer in peers:
            merged.merge(peer.envelope)
        params, envelope = merged.derive_parameters(n=n, f=f, rho=rho)
        rounds = _plan_rounds(params.round_length, duration, rounds_cap)
        say(f"measured {envelope.samples} delays in "
            f"[{envelope.observed_min * 1e6:.0f}, "
            f"{envelope.observed_max * 1e6:.0f}]us -> "
            f"delta={params.delta * 1e3:.2f}ms "
            f"epsilon={params.epsilon * 1e3:.2f}ms "
            f"P={params.round_length * 1e3:.0f}ms rounds={rounds}")

        # Phase 2 — observers on the measured parameters, then sync rounds.
        go = axis.now() + GO_LEAD
        clocks = {pid: make_net_clock(seed, pid, params, reference_time=go)
                  for pid in range(n)}
        zero_corr = {pid: 0.0 for pid in range(n)}
        pids = list(range(n))
        start = go + params.round_length
        end = go + rounds * params.round_length
        skew = OnlineSkew(sample_grid(start, end, samples), pids=pids)
        skew.bind_clocks(clocks, zero_corr)
        validity = OnlineValidity(
            params, tmin0=go, tmax0=go,
            grid=sample_grid(start, end, max(50, samples // 2)),
            start=start, end=end, pids=pids)
        validity.bind_clocks(clocks, zero_corr)
        await asyncio.gather(*(
            peer.run_sync(params, clocks[peer.pid], rounds,
                          observers=(skew, validity))
            for peer in peers))
        skew.on_finalize()
        validity.on_finalize()

        # Phase 3 — the claim rows on the measured evidence; f peers are
        # what A2 admits (none is injected faulty).
        sync_records: List[MessageRecord] = []
        for peer in peers:
            sync_records.extend(peer.sync_records)
        evidence = merged.records + sync_records
        checks = check_axioms(params, clocks, f, evidence, end)
        checks.append(agreement_check(
            agreement_bound(params), skew.max_skew, tolerance=0.0,
            detail=f"{skew.samples} online samples, shared axis"))
        checks.append(validity_check(validity.report()))
        wall = time.perf_counter() - wall_start
        messages = sum(peer.frames_sent for peer in peers)
        result = NetRunResult(
            n=n, f=f, seed=seed, mode="asyncio", params=params,
            envelope=envelope, rounds=rounds, skew_samples=skew.samples,
            validity=validity.result(),
            report=TheoremReport(params=params, checks=checks),
            a3_records=len(evidence), messages_sent=messages,
            wall_seconds=wall)
        _count_telemetry(result, sum(peer.process.round_index
                                     for peer in peers))
        return result
    finally:
        await asyncio.gather(*(peer.close() for peer in peers),
                             return_exceptions=True)


def _count_telemetry(result: NetRunResult, corrections: int) -> None:
    """Feed the run's totals into the ambient telemetry bundle, if any."""
    from ..telemetry import get_active

    telemetry = get_active()
    if telemetry is None:
        return
    registry = telemetry.registry
    registry.counter("net.runs").inc()
    registry.counter("net.frames_sent").inc(result.messages_sent)
    registry.counter("net.corrections").inc(corrections)
    registry.counter("net.a3_violations").inc(result.audits["a3_violations"])


def run_loopback_cluster(n: int, f: Optional[int] = None, seed: int = 0,
                         rho: float = 1e-5,
                         duration: Optional[float] = 5.0,
                         rounds: Optional[int] = None,
                         pings: int = 5, jitter_margin: float = 0.025,
                         samples: int = DEFAULT_SAMPLES,
                         log: Optional[Callable[[str], None]] = None
                         ) -> NetRunResult:
    """Run one single-process loopback cluster to completion (blocking).

    ``f`` defaults to the A2-maximal ``(n − 1) // 3``.  ``rounds`` (when
    given) overrides ``duration`` — the deterministic form the tests use.
    Must be called from outside any running event loop.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if f is None:
        f = (n - 1) // 3
    if n < 3 * f + 1:
        raise ValueError(f"assumption A2 requires n >= 3f+1; "
                         f"got n={n}, f={f}")
    return asyncio.run(_run_loopback(
        n=n, f=f, seed=seed, rho=rho, duration=duration, rounds_cap=rounds,
        pings=pings, jitter_margin=jitter_margin, samples=samples, log=log))


def execute_net_spec(spec: Any) -> NetRunResult:
    """Dispatch target for ``RunSpec(kind='net')``.

    The spec's ``params`` carry only the *inputs* (n, f, ρ); δ, ε, β and P
    are re-derived from the measured envelope — that is the point of the
    backend.  Not a pure function of the spec: never cache it.
    """
    options = spec.options_dict()
    duration = options.get("duration")
    result = run_loopback_cluster(
        n=spec.params.n, f=spec.params.f, seed=spec.seed,
        rho=spec.params.rho,
        duration=duration,
        rounds=None if duration is not None else spec.rounds,
        pings=int(options.get("pings", 5)),
        jitter_margin=float(options.get("jitter_margin", 0.025)),
        samples=int(options.get("samples", DEFAULT_SAMPLES)))
    result.spec = spec
    return result


# ---------------------------------------------------------------------------
# serve mode: one OS process per peer, leader-coordinated
# ---------------------------------------------------------------------------

@dataclass
class ServeConfig:
    """Arguments of one ``repro net serve`` process."""

    pid: int
    hosts: List[Tuple[str, int]]
    seed: int = 0
    rho: float = 1e-5
    duration: Optional[float] = 5.0
    rounds: Optional[int] = None
    pings: int = 5
    jitter_margin: float = 0.025

    @property
    def n(self) -> int:
        return len(self.hosts)

    @property
    def f(self) -> int:
        return (self.n - 1) // 3


async def _drain_control(peer: NetPeer, wanted: str, count: int,
                         timeout: float) -> List[Tuple[int, Dict[str, Any]]]:
    """Pull ``count`` control frames of one type, buffering nothing else
    silently (unexpected frames are dropped with a stderr note)."""
    got: List[Tuple[int, Dict[str, Any]]] = []
    deadline = time.monotonic() + timeout
    while len(got) < count:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError(
                f"peer {peer.pid}: got {len(got)}/{count} {wanted!r} "
                f"frames before timeout")
        sender, body = await asyncio.wait_for(peer.control.get(), remaining)
        if body.get("type") == wanted:
            got.append((sender, body))
        else:
            print(f"peer {peer.pid}: ignoring unexpected "
                  f"{body.get('type')!r} frame from {sender}",
                  file=sys.stderr)
    return got


def _params_frame(params: SyncParameters, rounds: int,
                  go_in: float) -> Dict[str, Any]:
    return {
        "type": "params", "n": params.n, "f": params.f, "rho": params.rho,
        "delta": params.delta, "epsilon": params.epsilon,
        "beta": params.beta, "round_length": params.round_length,
        "rounds": rounds, "go_in": go_in,
    }


def _params_from_frame(body: Dict[str, Any]) -> SyncParameters:
    return SyncParameters(
        n=int(body["n"]), f=int(body["f"]), rho=float(body["rho"]),
        delta=float(body["delta"]), epsilon=float(body["epsilon"]),
        beta=float(body["beta"]), round_length=float(body["round_length"]),
        initial_round_time=0.0)


def _leader_report(config: ServeConfig, params: SyncParameters, rounds: int,
                   skew_estimate: float, messages_sent: int) -> Dict[str, Any]:
    """The leader's JSON line, verdict included.

    The probe estimates cross-process skew to about the measured ε, so the
    estimate is judged as a Theorem 16 row against γ with ε of tolerance.
    """
    check = agreement_check(agreement_bound(params), skew_estimate,
                            tolerance=params.epsilon,
                            detail="post-run probe, accurate to about epsilon")
    return {
        "mode": "process", "n": config.n, "f": config.f,
        "rounds": rounds, "delta_measured": params.delta,
        "epsilon_measured": params.epsilon,
        "skew_estimate": skew_estimate,
        "probe_accuracy": params.epsilon,
        "skew_bound": check.bound,
        "messages_sent": messages_sent,
        "passed": check.passed,
    }


async def _serve(config: ServeConfig) -> int:
    pid, n = config.pid, config.n
    leader = pid == 0
    peer = NetPeer(PeerConfig(
        pid=pid, n=n, seed=config.seed, rho=config.rho, pings=config.pings,
        jitter_margin=config.jitter_margin, shared_axis=False,
        peers={q: config.hosts[q] for q in range(n)}))
    try:
        host, port = config.hosts[pid]
        await peer.start_server(host, port)
        await peer.connect()
        await peer.measure()

        if leader:
            summaries = await _drain_control(peer, "envelope", n - 1, 30.0)
            for sender, body in summaries:
                # Followers report their span, not every sample; folding the
                # extremes in is exactly what the envelope derivation needs.
                peer.envelope.add(sender, pid, 0.0, float(body["min"]))
                peer.envelope.add(sender, pid, 0.0, float(body["max"]))
            params, envelope = peer.envelope.derive_parameters(
                n=n, f=config.f, rho=config.rho)
            rounds = _plan_rounds(params.round_length, config.duration,
                                  config.rounds)
            go_in = GO_LEAD + 2.0 * envelope.upper
            frame = _params_frame(params, rounds, go_in)
            for q in range(1, n):
                peer._post(q, frame)
        else:
            observed_min, observed_max = peer.envelope.observed_span()
            peer._post(0, {"type": "envelope", "pid": pid,
                           "count": len(peer.envelope),
                           "min": observed_min, "max": observed_max})
            frames = await _drain_control(peer, "params", 1, 60.0)
            body = frames[0][1]
            params = _params_from_frame(body)
            rounds = int(body["rounds"])
            go_in = float(body["go_in"])

        # Axis zero = the go time; every process aligns to within one
        # network delay of the leader (absorbed by the β/4 start budget).
        peer.axis.rebase(go_in)
        clock = make_net_clock(config.seed, pid, params, reference_time=0.0)
        lead = -peer.axis.now()
        if lead > 0:
            await asyncio.sleep(lead)
        await peer.run_sync(params, clock, rounds)

        if leader:
            # Post-run probe: estimate cross-process skew to ~ε accuracy.
            await asyncio.sleep(2.0 * params.collection_window())
            offsets = {pid: 0.0}
            for q in range(1, n):
                peer._post(q, {"type": "probe", "t0": peer.axis.now()})
            replies = await _drain_control(peer, "probe_reply", n - 1, 30.0)
            for sender, body in replies:
                t1 = peer.axis.now()
                t0 = float(body["t0"])
                midpoint = 0.5 * (t0 + t1)
                if body.get("local") is None:
                    continue
                offsets[sender] = float(body["local"]) \
                    - peer.local_time(midpoint)
            skew_estimate = max(offsets.values()) - min(offsets.values())
            report = _leader_report(config, params, rounds, skew_estimate,
                                    peer.frames_sent)
            print(json.dumps(report, sort_keys=True))
            for q in range(1, n):
                peer._post(q, {"type": "shutdown"})
            return 0 if report["passed"] else 1
        await _drain_control(peer, "shutdown", 1,
                             (config.duration or 30.0) + 60.0)
        print(json.dumps({"mode": "process", "pid": pid,
                          "rounds": peer.process.round_index,
                          "messages_sent": peer.frames_sent},
                         sort_keys=True))
        return 0
    finally:
        await peer.close()


def serve_peer(config: ServeConfig) -> int:
    """Run one serve-mode peer to completion (blocking); the exit code.

    Followers return 0.  The leader returns 1 when its post-run skew
    estimate exceeds γ plus the probe's accuracy, else 0.
    """
    if config.pid < 0 or config.pid >= config.n:
        raise ValueError(f"pid {config.pid} outside the {config.n}-entry "
                         f"host list")
    if config.n < 2:
        raise ValueError("serve mode needs at least 2 hosts")
    return asyncio.run(_serve(config))
