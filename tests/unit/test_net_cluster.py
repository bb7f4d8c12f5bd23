"""Tests for the real-socket backend: peers, spec routing, loopback runs.

The loopback cluster opens real TCP sockets on 127.0.0.1 and runs real
wall-clock rounds, so the integration tests here are rounds-capped (a
3-round run is ~1.5s of wall time) and assert the *contract* — skew within
the bound derived from the measured envelope, audits clean — rather than
bit-exact values, which real schedulers do not replay.
"""

import asyncio
import json
import math
import socket
import struct
import threading
import time

import pytest

from repro.core.bounds import agreement_bound
from repro.core.config import SyncParameters
from repro.core.maintenance import WelchLynchProcess
from repro.core.messages import RoundMessage
from repro.net import (
    MAX_FRAME,
    NetPeer,
    PeerConfig,
    ServeConfig,
    make_net_clock,
    pack_frame,
    run_loopback_cluster,
)
from repro.net import cluster
from repro.net.peer import REASON_CHARS
from repro.net.cluster import (
    _leader_report,
    _params_frame,
    _params_from_frame,
    _plan_rounds,
    execute_net_spec,
)
from repro.runner import RunSpec, execute
from repro.telemetry import Telemetry, activated


class TestNetSpec:
    def test_net_constructor_builds_valid_spec(self):
        spec = RunSpec.net(n=4, duration=2.0, seed=3)
        assert spec.kind == "net"
        assert spec.params.n == 4 and spec.params.f == 1
        assert spec.fault_kind is None
        assert spec.options_dict()["duration"] == 2.0

    def test_net_spec_rejects_topology(self):
        spec = RunSpec.net(n=4)
        with pytest.raises(ValueError, match="TCP mesh"):
            spec.replace(topology="ring")

    def test_net_spec_rejects_fault_kind(self):
        spec = RunSpec.net(n=4)
        with pytest.raises(ValueError, match="injects no process faults"):
            spec.replace(fault_kind="two_faced")

    def test_net_spec_rejects_streaming_knobs(self):
        spec = RunSpec.net(n=4)
        with pytest.raises(ValueError, match="streaming pipeline"):
            spec.replace(observers=("skew",))

    def test_net_spec_rejects_unknown_options(self):
        spec = RunSpec.net(n=4)
        with pytest.raises(ValueError, match="not supported by kind"):
            spec.replace(options=(("initial_spread", 1.0),))

    def test_net_spec_hashes_and_replaces(self):
        spec = RunSpec.net(n=4, duration=2.0)
        assert hash(spec) == hash(RunSpec.net(n=4, duration=2.0))
        assert spec.with_seed(5).seed == 5


class TestPlanRounds:
    def test_explicit_cap_wins(self):
        assert _plan_rounds(0.3, duration=60.0, rounds_cap=4) == 4

    def test_duration_fills_rounds_with_floor(self):
        assert _plan_rounds(0.3, duration=3.0, rounds_cap=None) == 10
        # floor of 3 so the audit window always contains samples
        assert _plan_rounds(0.3, duration=0.1, rounds_cap=None) == 3

    def test_needs_duration_or_cap(self):
        with pytest.raises(ValueError, match="duration"):
            _plan_rounds(0.3, duration=None, rounds_cap=None)


class TestNetClock:
    def params(self):
        return SyncParameters.derive(n=4, f=1, rho=1e-5, delta=1e-2,
                                     epsilon=5e-3)

    def test_deterministic_per_seed_and_pid(self):
        params = self.params()
        first = make_net_clock(7, 2, params, reference_time=3.0)
        second = make_net_clock(7, 2, params, reference_time=3.0)
        assert (first.offset, first.rate) == (second.offset, second.rate)
        other = make_net_clock(7, 3, params, reference_time=3.0)
        assert (first.offset, first.rate) != (other.offset, other.rate)

    def test_reads_within_beta_over_4_at_reference(self):
        params = self.params()
        for pid in range(8):
            clock = make_net_clock(11, pid, params, reference_time=2.0)
            offset = clock.read(2.0) - params.initial_round_time
            assert abs(offset) <= params.beta / 4.0 + 1e-12

    def test_rates_within_rho_band(self):
        from repro.clocks.base import rho_rate_bounds
        params = self.params()
        lo, hi = rho_rate_bounds(params.rho)
        for pid in range(8):
            clock = make_net_clock(1, pid, params)
            assert lo <= clock.rate <= hi


class TestServeProtocolFrames:
    def test_params_frame_roundtrips(self):
        params = SyncParameters.derive(n=4, f=1, rho=1e-5, delta=1e-2,
                                       epsilon=5e-3)
        frame = _params_frame(params, rounds=6, go_in=0.5)
        rebuilt = _params_from_frame(frame)
        assert rebuilt.n == params.n and rebuilt.f == params.f
        assert rebuilt.delta == params.delta
        assert rebuilt.epsilon == params.epsilon
        assert rebuilt.beta == params.beta
        assert rebuilt.round_length == params.round_length
        assert rebuilt.initial_round_time == 0.0
        assert frame["rounds"] == 6 and frame["go_in"] == 0.5

    def test_serve_config_validation(self):
        hosts = [("127.0.0.1", 9001), ("127.0.0.1", 9002)]
        with pytest.raises(ValueError, match="outside"):
            from repro.net import serve_peer
            serve_peer(ServeConfig(pid=2, hosts=hosts))
        with pytest.raises(ValueError, match="at least 2"):
            from repro.net import serve_peer
            serve_peer(ServeConfig(pid=0, hosts=hosts[:1]))


class TestLoopbackCluster:
    def test_cluster_validates_inputs(self):
        with pytest.raises(ValueError, match="3f\\+1"):
            run_loopback_cluster(n=3, f=1, rounds=2)
        with pytest.raises(ValueError, match="positive"):
            run_loopback_cluster(n=0, rounds=2)

    def test_deterministic_loopback_run_meets_measured_bound(self):
        # The PR's acceptance shape at test scale: n=3 peers over real
        # loopback TCP, fixed seed, rounds-capped.  The online max skew must
        # stay within the Theorem 16 bound computed from the *measured*
        # envelope, and the A1-A3 audits must pass on measured evidence.
        result = run_loopback_cluster(n=3, seed=42, rounds=3)
        assert result.mode == "asyncio"
        assert result.rounds == 3
        assert result.envelope.samples >= 3 * 3  # >= one ping volley/pair
        assert result.params.epsilon < result.params.delta  # A3 shape
        assert result.max_skew <= result.skew_bound
        assert result.audits["a1_rho_bounded"]
        assert result.audits["a2_quorum"]
        assert result.audits["a3_envelope"]
        assert result.validity["holds"]
        assert result.passed
        # The verdict reads the claim rows: conformance's A1-A3 names, then
        # Theorem 16 on the measured gamma and Theorem 19.
        assert [check.claim for check in result.report.checks] == [
            "axiom_a1_rate_bound", "axiom_a2_fault_threshold",
            "axiom_a3_delay_envelope", "theorem16_agreement",
            "theorem19_validity"]
        assert result.report.all_passed
        assert set(result.audits) == {"a1_rho_bounded", "a2_quorum",
                                      "a3_envelope", "a3_violations",
                                      "a3_records"}
        assert result.audits["a3_violations"] == 0
        assert result.audits["a3_records"] > result.envelope.samples
        assert result.messages_sent > 0 and result.msgs_per_second > 0
        data = result.as_dict()
        assert data["passed"] and data["agreement_holds"]
        assert data["delta_measured"] == result.params.delta

    def test_execute_routes_net_spec_to_cluster(self):
        spec = RunSpec.net(n=3, rounds=3, seed=42)
        result = execute(spec)
        assert result.spec == spec
        assert result.n == 3 and result.f == 0
        assert result.rounds == 3
        assert result.passed

    def test_execute_net_spec_honors_duration_option(self):
        spec = RunSpec.net(n=3, duration=1.0, seed=1)
        result = execute_net_spec(spec)
        # duration/P with a floor of 3; P is measured, so just the floor
        assert result.rounds >= 3
        assert result.passed


def _free_ports(count):
    sockets = [socket.socket() for _ in range(count)]
    for sock in sockets:
        sock.bind(("127.0.0.1", 0))
    ports = [sock.getsockname()[1] for sock in sockets]
    for sock in sockets:
        sock.close()
    return ports


class TestServeVerdict:
    """net serve's leader judges its skew probe as a Theorem 16 row."""

    CONFIG = ServeConfig(pid=0, hosts=[("127.0.0.1", 9001),
                                       ("127.0.0.1", 9002),
                                       ("127.0.0.1", 9003)])

    @staticmethod
    def params():
        return SyncParameters.derive(n=3, f=0, rho=1e-5, delta=1e-2,
                                     epsilon=5e-3)

    def test_estimate_within_gamma_plus_probe_accuracy_passes(self):
        params = self.params()
        gamma = agreement_bound(params)
        report = _leader_report(self.CONFIG, params, 3,
                                gamma + 0.5 * params.epsilon, 10)
        assert report["passed"] is True
        assert report["skew_bound"] == gamma
        assert report["probe_accuracy"] == params.epsilon

    def test_estimate_past_the_probe_accuracy_fails(self):
        params = self.params()
        estimate = agreement_bound(params) + 2.0 * params.epsilon
        report = _leader_report(self.CONFIG, params, 3, estimate, 10)
        assert report["passed"] is False
        assert report["skew_estimate"] == estimate

    def test_leader_exits_1_when_its_verdict_fails(self, monkeypatch,
                                                   capsys):
        # Two serve peers in one event loop over loopback TCP.  A negative
        # gamma fails every estimate, so the leader returns 1 and the
        # follower, which judges nothing, returns 0.
        monkeypatch.setattr(cluster, "agreement_bound", lambda params: -1.0)
        hosts = [("127.0.0.1", port) for port in _free_ports(2)]

        async def both():
            return await asyncio.gather(*(
                cluster._serve(ServeConfig(pid=pid, hosts=hosts, rounds=1,
                                           pings=1))
                for pid in range(2)))

        assert asyncio.run(both()) == [1, 0]
        lines = [json.loads(line)
                 for line in capsys.readouterr().out.splitlines()]
        leader = next(line for line in lines if "skew_estimate" in line)
        assert leader["passed"] is False and leader["skew_bound"] == -1.0


class TestPeerUnits:
    def test_peer_lifecycle_inside_event_loop(self):
        import asyncio

        async def scenario():
            # NetPeer builds an asyncio.Queue; constructing inside a
            # running loop is the supported pattern on 3.10+.
            peer = NetPeer(PeerConfig(pid=0, n=1))
            assert peer.frames_sent == 0
            await peer.close()

        asyncio.run(scenario())


async def _until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        await asyncio.sleep(0.01)


class TestHostedProcess:
    """The socket peer runs the simulator's WelchLynchProcess."""

    PARAMS = SyncParameters.derive(n=1, f=0, rho=1e-5, delta=2e-3,
                                   epsilon=1e-3)

    @staticmethod
    async def lone_peer():
        """A connected n=1 peer: its one stream is to itself."""
        peer = NetPeer(PeerConfig(pid=0, n=1))
        peer.config.peers[0] = await peer.start_server()
        await peer.connect()
        return peer

    def clock(self, peer, go_in):
        return make_net_clock(3, 0, self.PARAMS,
                              reference_time=peer.axis.now() + go_in)

    def test_run_sync_hosts_the_simulators_process(self):
        async def scenario():
            peer = await self.lone_peer()
            run = asyncio.ensure_future(
                peer.run_sync(self.PARAMS, self.clock(peer, 0.05), 2))
            await asyncio.sleep(0)
            hosted = peer.process
            await asyncio.wait_for(run, 5.0)
            await peer.close()
            return hosted, peer

        hosted, peer = asyncio.run(scenario())
        assert type(hosted) is WelchLynchProcess
        assert peer.process is hosted and hosted.round_index == 2
        assert peer.frames_sent == 1 + 2  # the hello, one frame per round

    def test_loopback_run_books_every_correction(self, monkeypatch):
        calls = []

        class Recording(cluster.OnlineSkew):
            def on_correction(self, pid, real_time, adjustment,
                              new_correction, round_index):
                calls.append((pid, round_index))
                super().on_correction(pid, real_time, adjustment,
                                      new_correction, round_index)

        monkeypatch.setattr(cluster, "OnlineSkew", Recording)
        telemetry = Telemetry()
        with activated(telemetry):
            run_loopback_cluster(n=3, seed=5, rounds=3)
        assert telemetry.registry.value("net.corrections") == 3 * 3
        assert telemetry.registry.value("net.rejected") == 0
        for pid in range(3):
            assert [index for p, index in calls if p == pid] == [0, 1, 2]

    def test_round_frame_after_run_sync_reaches_nobody(self):
        async def scenario():
            peer = await self.lone_peer()
            await asyncio.wait_for(
                peer.run_sync(self.PARAMS, self.clock(peer, 0.05), 1), 5.0)
            arr = dict(peer.process.arr)
            records, received = len(peer.sync_records), peer.frames_received
            peer.broadcast(RoundMessage(round_time=1.0))
            await _until(lambda: peer.frames_received > received)
            await peer.close()
            return arr, records, peer

        arr, records, peer = asyncio.run(scenario())
        assert peer.process.arr == arr
        assert len(peer.sync_records) == records

    def test_start_already_past_fires_at_once(self):
        async def scenario():
            peer = await self.lone_peer()
            called = peer.axis.now()
            # The logical clock read T0 a second before run_sync was called.
            await asyncio.wait_for(
                peer.run_sync(self.PARAMS, self.clock(peer, -1.0), 2), 5.0)
            await peer.close()
            return called, peer

        called, peer = asyncio.run(scenario())
        assert peer.sync_records[0].send_time - called < 0.1
        assert peer.process.round_index == 2

    def test_raising_step_fails_the_run(self, monkeypatch):
        def broken(process, ctx):
            raise RuntimeError("update failed")

        monkeypatch.setattr(WelchLynchProcess, "_update_phase", broken)
        outcome = {}

        def run():
            try:
                run_loopback_cluster(n=3, seed=1, rounds=3)
            except Exception as error:  # noqa: BLE001 - asserted below
                outcome["error"] = error

        # A thread, so that a hang fails the test instead of the suite.
        thread = threading.Thread(target=run, daemon=True)
        started = time.monotonic()
        thread.start()
        thread.join(30.0)
        assert not thread.is_alive(), "a raising step hung the run"
        assert isinstance(outcome.get("error"), RuntimeError)
        assert str(outcome["error"]) == "update failed"
        assert time.monotonic() - started < 10.0


def _frame(data):
    return struct.pack(">I", len(data)) + data


HELLO_1 = pack_frame({"type": "hello", "sender": 1})


class TestHostileInput:
    """A hostile client's frame closes its connection and is counted; the
    reader task ends cleanly, so the loop's exception handler sees nothing."""

    @staticmethod
    def probe(*connections, eof=False):
        """Send each byte string on its own connection to a lone n=2 peer
        (pid 1 is configured but never connects)."""
        async def scenario():
            seen = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: seen.append(context["message"]))
            peer = NetPeer(PeerConfig(pid=0, n=2))
            host, port = await peer.start_server()
            peer.config.peers.update({0: (host, port), 1: (host, port)})
            closed = []
            for data in connections:
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(data)
                if eof:
                    writer.write_eof()
                closed.append(await asyncio.wait_for(reader.read(), 5.0)
                              == b"")
                writer.close()
            await asyncio.wait_for(asyncio.gather(*peer._reader_tasks), 5.0)
            await asyncio.sleep(0.05)  # the task's done callbacks
            await peer.close()
            return closed, seen, peer

        telemetry = Telemetry()
        with activated(telemetry):
            closed, seen, peer = asyncio.run(scenario())
        return (closed, seen, peer,
                telemetry.registry.value("net.rejected"))

    @pytest.mark.parametrize("data, reason", [
        (pack_frame({"type": "hello", "sender": 5}), "configured peer"),
        (pack_frame({"type": "hello", "sender": "x"}), "configured peer"),
        (pack_frame({"type": "hello", "sender": True}), "configured peer"),
        (pack_frame({"type": "ping", "seq": 0, "t": 0.0}), "configured peer"),
        (HELLO_1 + pack_frame({"type": "msg"}), "msg frame needs a dict"),
        (struct.pack(">I", MAX_FRAME + 1), "MAX_FRAME"),
        (_frame(b"not json"), "undecodable"),
        (HELLO_1 + _frame(json.dumps({"type": "ping", "seq": 0,
                                      "t": math.nan}).encode()),
         "needs a float 't'"),
        (HELLO_1 + _frame(b'{"type":"probe","t0":' + b"1" * 5000 + b"}"),
         "undecodable"),
        (HELLO_1 + _frame(json.dumps({"type": "msg", "msg": {
            "kind": "ordinary", "sender": 1e400, "recipient": 0,
            "payload": None, "send_time": 0.0}}).encode()), "malformed"),
        (HELLO_1 + pack_frame({"type": "msg", "msg": {
            "kind": "x" * (MAX_FRAME - 100)}}), "malformed"),
    ], ids=["unknown-pid", "pid-str", "pid-bool", "not-a-hello",
            "msg-without-body", "oversize-prefix", "not-json", "nan-stamp",
            "5000-digit-int", "infinite-sender", "megabyte-body"])
    def test_rejected_frame_closes_and_counts(self, data, reason):
        closed, seen, peer, counted = self.probe(data)
        assert closed == [True]
        assert seen == []
        assert len(peer.rejected) == 1 and reason in peer.rejected[0]
        assert len(peer.rejected[0]) <= REASON_CHARS
        assert counted == 1

    def test_unknown_pids_do_not_complete_the_hello_quorum(self):
        closed, seen, peer, counted = self.probe(
            pack_frame({"type": "hello", "sender": 5}),
            pack_frame({"type": "hello", "sender": 6}))
        assert closed == [True, True] and seen == []
        assert not peer._hello.is_set() and counted == 2

    def test_unhashable_frame_type_reaches_the_control_queue(self):
        closed, seen, peer, counted = self.probe(
            HELLO_1 + pack_frame({"type": [1]}), eof=True)
        assert closed == [True] and seen == [] and counted == 0
        assert peer.control.get_nowait() == (1, {"type": [1]})

    def test_truncated_frame_just_closes(self):
        closed, seen, _, counted = self.probe(
            HELLO_1 + struct.pack(">I", 100) + b"{}", eof=True)
        assert closed == [True] and seen == [] and counted == 0
