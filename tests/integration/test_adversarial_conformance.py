"""Integration tests: the lower-bound certifier and the conformance matrix.

These carry the PR's acceptance criteria:

* for default LAN parameters at n ∈ {3, 5, 10}, the certifier produces a
  *verified* certificate whose achieved skew is at least 0.95·ε(1 − 1/n)
  (in fact ≥ the bound itself);
* the full conformance matrix (all 7 algorithms × 3 fault models) reports
  zero upper-bound violations on nonfaulty configurations and zero axiom
  violations anywhere;
* adversarial workloads run bit-identically serial vs ``jobs=2`` and via the
  streaming (``record_trace=False``) path, with the certifier consuming the
  online metrics.
"""

import os
import subprocess
import sys

import pytest

from repro.adversary import (
    certify_lower_bound,
    certify_run,
    run_conformance,
    verify_certificate,
)
from repro.analysis.experiments import default_parameters
from repro.analysis.metrics import measured_agreement
from repro.analysis.workloads import build_spec, get_workload
from repro.core.bounds import lower_bound, tightness_gap
from repro.runner import BatchRunner, RunSpec, execute


class TestCertifierAcceptance:
    @pytest.mark.parametrize("n", [3, 5, 10])
    def test_verified_certificate_reaches_the_bound(self, n):
        certificate = certify_lower_bound(n=n, rounds=5, seed=0)
        assert certificate.verified
        assert verify_certificate(certificate) == []
        # The acceptance floor is 0.95·ε(1 − 1/n); the chain construction
        # actually clears the bound itself with margin.
        assert certificate.achieved_skew >= 0.95 * certificate.bound
        assert certificate.meets_lower_bound
        params = default_parameters(n=n, f=0)
        assert certificate.bound == lower_bound(params)
        # Every shifted execution stays admissible and inside gamma.
        assert all(item.admissible for item in certificate.executions)
        assert certificate.achieved_skew <= certificate.gamma

    def test_certificates_position_inside_the_tightness_window(self):
        certificate = certify_lower_bound(n=5, rounds=5, seed=0)
        params = default_parameters(n=5, f=0)
        gap = tightness_gap(params, certificate.achieved_skew)
        assert gap.achieved_over_lower >= 1.0
        assert gap.achieved_over_gamma <= 1.0
        assert 0.0 <= gap.position <= 1.0


class TestConformanceAcceptance:
    def test_full_matrix_has_zero_violations(self):
        report = run_conformance(n=7, f=2, rounds=5, seed=0)
        algorithms = {o.case.algorithm for o in report.outcomes}
        fault_kinds = {o.case.fault_kind for o in report.outcomes}
        assert len(algorithms) >= 6 and len(fault_kinds) >= 3
        assert report.violations() == []
        assert report.passed
        # Axioms hold on every cell, faulty ones included.
        assert all(outcome.axioms_passed for outcome in report.outcomes)
        # Bounds hold on every nonfaulty cell.
        assert all(outcome.bounds_passed for outcome in report.outcomes
                   if outcome.case.nonfaulty)

    def test_matrix_under_adversarial_delays_still_conforms(self):
        """In-envelope adversaries cannot break any theorem bound."""
        report = run_conformance(n=5, f=1, rounds=4, seed=1,
                                 algorithms=["welch_lynch",
                                             "lamport_melliar_smith",
                                             "srikanth_toueg"],
                                 fault_kinds=[None], delay="per_pair")
        assert report.passed and report.violations() == []


class TestAdversarialBatchDeterminism:
    def _fingerprint(self, result):
        agreement = measured_agreement(result.trace, result.tmax0,
                                       result.end_time, samples=50)
        adjustments = tuple(tuple(result.trace.adjustments(pid))
                            for pid in result.trace.nonfaulty_ids)
        return (result.start_times, result.end_time,
                result.trace.stats.sent, result.trace.stats.delivered,
                agreement, adjustments)

    def test_adversarial_workloads_serial_vs_two_workers_bitwise(self):
        specs = [build_spec(get_workload(name), n=5, f=1, rounds=4, seed=seed)
                 for name in ("adversarial-lan", "tightness-sweep")
                 for seed in (0, 1)]
        serial = [execute(spec) for spec in specs]
        parallel = BatchRunner(jobs=2).run(specs)
        for spec, a, b in zip(specs, serial, parallel):
            assert b.spec == spec
            assert self._fingerprint(a) == self._fingerprint(b)

    def test_round_aware_spec_is_replayable(self):
        params = default_parameters(n=5, f=1)
        spec = RunSpec.maintenance(params, rounds=4, fault_kind="two_faced",
                                   delay="round_aware", seed=3)
        assert self._fingerprint(execute(spec)) \
            == self._fingerprint(execute(spec))


class TestStreamingCertifier:
    # 12 rounds outlast the bounded histories of a no-trace run, so the
    # shifted executions start from a trim horizon, not the initial CORR.
    @pytest.mark.parametrize("rounds", [5, 12])
    def test_certifier_consumes_online_metrics(self, rounds):
        """A no-trace run certifies from online observers + bounded state."""
        params = default_parameters(n=5, f=0)
        base = RunSpec.maintenance(params, rounds=rounds, fault_kind=None,
                                   delay="fixed", seed=0)
        streaming = base.replace(record_trace=False,
                                 observers=("skew", "validity", "network"))
        batch_result = execute(base.replace(observers=("network",)))
        stream_result = execute(streaming)
        batch_cert = certify_run(batch_result)
        stream_cert = certify_run(stream_result)
        assert stream_cert.verified and stream_cert.meets_lower_bound
        # The certifier read the online skew envelope, not a trace replay.
        assert stream_cert.base_max_skew \
            == stream_result.online("skew").max_skew
        # Streaming and batch certify the *same* execution: identical chain,
        # shift quantum, evidence and achieved skew, bit for bit.
        assert stream_cert.chain == batch_cert.chain
        assert stream_cert.unit == batch_cert.unit
        assert stream_cert.executions == batch_cert.executions
        assert stream_cert.achieved_skew == batch_cert.achieved_skew

    def test_streaming_certify_lower_bound_entry_point(self):
        certificate = certify_lower_bound(n=4, rounds=4, seed=1,
                                          record_trace=False)
        assert certificate.verified and certificate.meets_lower_bound


class TestBothBackends:
    def test_certifier_is_backend_independent(self):
        """REPRO_NO_NUMPY=1 (pure-python TraceIndex) certifies identically."""
        code = ("from repro.adversary import certify_lower_bound\n"
                "cert = certify_lower_bound(n=4, rounds=4, seed=0)\n"
                "print(repr((cert.achieved_skew, cert.unit, cert.chain, "
                "cert.verified)))\n")
        env = dict(os.environ,
                   PYTHONPATH="src" + os.pathsep
                   + os.environ.get("PYTHONPATH", ""))
        with_numpy = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=_repo_root(),
            capture_output=True, text=True, check=True)
        env["REPRO_NO_NUMPY"] = "1"
        without_numpy = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=_repo_root(),
            capture_output=True, text=True, check=True)
        assert with_numpy.stdout == without_numpy.stdout
        assert "True" in with_numpy.stdout


def _repo_root() -> str:
    return os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
