"""Integration tests: checkpoint/resume and the streaming runner path.

The headline guarantee: a run split at arbitrary snapshot points — with the
snapshot pickled, shipped, and restored — produces the *identical* trace and
metrics as an unsplit run, all the way up through the RunSpec layer.
"""

import pickle
import tracemalloc

import pytest

from repro.analysis import default_parameters, run_maintenance_scenario
from repro.analysis.online import build_observers
from repro.analysis.metrics import measured_agreement, validity_report
from repro.analysis.verification import check_maintenance_run
from repro.runner import BatchRunner, RunSpec, execute, replicate
from repro.sim import EventBudgetExceeded


def _fingerprint(result):
    trace = result.trace
    return (
        [(e.real_time, e.process_id, e.name, tuple(sorted(e.data.items())))
         for e in trace.events],
        {pid: tuple(trace.correction_history(pid).corrections)
         for pid in range(result.params.n)},
        (trace.stats.sent, trace.stats.delivered, trace.stats.dropped,
         trace.stats.timers_set, trace.stats.timers_fired),
    )


class TestCheckpointedRuns:
    def test_split_run_identical_to_unsplit(self, medium_params):
        plain = RunSpec.maintenance(medium_params, rounds=8, seed=13)
        unsplit = execute(plain)
        split = execute(plain.replace(checkpoint_every=0.61))
        assert split.checkpoints > 0
        assert _fingerprint(unsplit) == _fingerprint(split)
        # Metrics derived from the traces agree too.
        start = unsplit.tmax0 + medium_params.round_length
        assert measured_agreement(unsplit.trace, start, unsplit.end_time) \
            == measured_agreement(split.trace, start, split.end_time)
        report = check_maintenance_run(split)
        assert report.all_passed

    def test_checkpoint_period_choice_is_irrelevant(self, medium_params):
        spec = RunSpec.maintenance(medium_params, rounds=6, seed=3)
        fingerprints = [
            _fingerprint(execute(spec.replace(checkpoint_every=period)
                                 if period else spec))
            for period in (None, 0.3, 0.45, 1.7)
        ]
        assert all(fp == fingerprints[0] for fp in fingerprints[1:])

    def test_streaming_checkpointed_online_metrics_identical(self,
                                                             medium_params):
        spec = RunSpec.maintenance(medium_params, rounds=10, seed=21,
                                   record_trace=False,
                                   observers=("skew", "validity"))
        direct = execute(spec)
        split = execute(spec.replace(checkpoint_every=0.5))
        assert split.checkpoints > 0
        assert direct.online("skew").max_skew == \
            split.online("skew").max_skew
        assert direct.online("validity").report() == \
            split.online("validity").report()

    def test_caller_held_observers_survive_checkpointing(self, medium_params):
        # restore() swaps in pickled observer copies; the final state must be
        # synced back into the objects the caller passed (and kept).
        from repro.analysis.experiments import run_maintenance_scenario
        from repro.sim import NetworkRecorder

        recorder = NetworkRecorder()
        result = run_maintenance_scenario(medium_params, rounds=6, seed=1,
                                          observers=[recorder],
                                          checkpoint_every=0.5)
        assert result.checkpoints > 0
        assert result.online("network") is recorder
        plain = NetworkRecorder()
        run_maintenance_scenario(medium_params, rounds=6, seed=1,
                                 observers=[plain])
        assert len(recorder.records) == len(plain.records)

    def test_snapshot_survives_bytes_roundtrip_midstream(self, medium_params):
        # Arbitrary split point chosen inside a round, driven by hand.
        from repro.analysis.experiments import (
            make_delay_model, run_maintenance_scenario)
        unsplit = run_maintenance_scenario(medium_params, rounds=5, seed=8)

        from repro.clocks.drift import make_clock_ensemble
        from repro.core.maintenance import WelchLynchProcess
        from repro.analysis.experiments import make_fault_process
        from repro.sim import System

        params = medium_params
        processes = [WelchLynchProcess(params, max_rounds=5)
                     for _ in range(params.n - params.f)]
        for index in range(params.f):
            processes.append(make_fault_process("two_faced", params, 5,
                                                seed=8 + index))
        clocks = make_clock_ensemble(params.n, rho=params.rho,
                                     beta=params.beta, seed=8,
                                     kind="constant")
        system = System(processes, clocks,
                        delay_model=make_delay_model("uniform", params),
                        seed=8)
        system.schedule_all_starts_at_logical(params.initial_round_time)
        system.run_until(unsplit.end_time * 0.53)
        blob = pickle.dumps(system.snapshot())
        trace = system.restore(pickle.loads(blob)).run_until(unsplit.end_time)
        assert [e.real_time for e in trace.events] == \
            [e.real_time for e in unsplit.trace.events]


class TestRunnerSurface:
    def test_streaming_spec_through_batch_runner(self, medium_params):
        spec = RunSpec.maintenance(medium_params, rounds=6, seed=0,
                                   record_trace=False,
                                   observers=("skew", "validity"))
        results = BatchRunner(jobs=1).run([spec, spec.with_seed(1)])
        for result in results:
            assert len(result.trace.events) == 0
            assert result.online("skew").max_skew > 0.0
            assert result.online("validity").report().holds

    def test_streaming_replication_uses_online_metrics(self, medium_params):
        spec = RunSpec.maintenance(medium_params, rounds=6,
                                   record_trace=False,
                                   observers=("skew", "validity"))
        rep = replicate(spec, seeds=[0, 1, 2])
        assert len(rep.agreement_values) == 3
        assert all(value > 0.0 for value in rep.agreement_values)
        assert rep.validity_holds

    def test_streaming_replication_requires_observers(self, medium_params):
        spec = RunSpec.maintenance(medium_params, rounds=6,
                                   record_trace=False, observers=("skew",))
        with pytest.raises(ValueError, match="observers"):
            replicate(spec, seeds=[0, 1])

    def test_budget_exceeded_surfaces_spec(self, medium_params):
        spec = RunSpec.maintenance(medium_params, rounds=6, seed=0,
                                   max_events=40)
        with pytest.raises(EventBudgetExceeded) as excinfo:
            execute(spec)
        err = excinfo.value
        assert err.spec == spec
        assert err.processed > err.max_events == 40
        assert "stream" not in err.spec.describe()

    def test_budget_totals_cover_checkpointed_segments(self, medium_params):
        # Segments run on the remaining budget, but the surfaced counts must
        # describe the whole run, not the segment that tripped.
        spec = RunSpec.maintenance(medium_params, rounds=6, seed=0,
                                   max_events=60, checkpoint_every=0.4)
        with pytest.raises(EventBudgetExceeded) as excinfo:
            execute(spec)
        err = excinfo.value
        assert err.max_events == 60
        assert err.processed > 60

    def test_observer_samples_override(self, medium_params):
        coarse = execute(RunSpec.maintenance(medium_params, rounds=5, seed=0,
                                             record_trace=False,
                                             observers=("skew", "validity")))
        fine = execute(RunSpec.maintenance(medium_params, rounds=5, seed=0,
                                           record_trace=False,
                                           observers=("skew", "validity"),
                                           samples=400))
        assert coarse.online("skew").samples == 200
        assert fine.online("skew").samples == 400
        assert fine.online("validity").report().samples > \
            coarse.online("validity").report().samples

    def test_partition_heal_workload_rejects_streaming_overrides(self):
        from repro.analysis.workloads import build_spec, get_workload

        workload = get_workload("partition-heal")
        with pytest.raises(ValueError, match="streaming"):
            build_spec(workload, record_trace=False,
                       observers=("skew", "validity"))
        with pytest.raises(ValueError, match="streaming"):
            build_spec(workload, checkpoint_every=1.0)

    def test_budget_exceeded_through_worker_pool(self, medium_params):
        # The exception must reconstruct across the multiprocessing boundary
        # with counts and spec intact.
        spec = RunSpec.maintenance(medium_params, rounds=6, seed=0,
                                   max_events=40)
        runner = BatchRunner(jobs=2)
        with pytest.raises(EventBudgetExceeded) as excinfo:
            runner.run([spec, spec.with_seed(1)])
        assert excinfo.value.max_events == 40
        assert excinfo.value.spec is not None

    def test_streaming_fields_restricted_to_streaming_kinds(self,
                                                            medium_params):
        with pytest.raises(ValueError, match="streaming"):
            RunSpec.startup(medium_params).replace(record_trace=False)
        with pytest.raises(ValueError, match="streaming"):
            RunSpec.reintegration(medium_params).replace(horizon=100.0)

    def test_observer_names_validated(self, medium_params):
        with pytest.raises(ValueError, match="unknown observers"):
            RunSpec.maintenance(medium_params, observers=("nope",))

    def test_horizon_extends_the_run(self, medium_params):
        base = execute(RunSpec.maintenance(medium_params, rounds=4, seed=0))
        extended = execute(RunSpec.maintenance(medium_params, rounds=4,
                                               seed=0,
                                               horizon=base.end_time + 5.0))
        assert extended.end_time == base.end_time + 5.0

    def test_specs_hash_and_cache_with_streaming_fields(self, medium_params):
        spec = RunSpec.maintenance(medium_params, rounds=4,
                                   record_trace=False,
                                   observers=("skew", "validity"))
        first, second = BatchRunner(jobs=1).run([spec, spec])
        assert first is second  # equal specs run once per batch
        assert spec == spec.replace()
        assert spec != spec.replace(observers=("skew",))


class TestWorkloadPresets:
    def test_long_horizon_presets_stream_by_default(self):
        from repro.analysis.workloads import build_spec, get_workload

        for name in ("long-horizon-lan", "steady-state-wan"):
            workload = get_workload(name)
            assert workload.default_rounds >= 50
            spec = build_spec(workload)
            assert spec.rounds >= 50
            assert not spec.record_trace
            assert {"skew", "validity"} <= set(spec.observers)

    def test_long_horizon_lan_runs_bounded(self):
        from repro.analysis.workloads import build_spec, get_workload

        spec = build_spec(get_workload("long-horizon-lan"), n=7, f=2)
        result = execute(spec)
        assert result.rounds == 60
        assert len(result.trace.events) == 0
        assert result.online("skew").max_skew > 0.0
        assert result.online("validity").report().holds

    def test_preset_overrides_allow_recorded_runs(self):
        from repro.analysis.workloads import build_spec, get_workload

        spec = build_spec(get_workload("long-horizon-lan"), rounds=4,
                          record_trace=True, observers=())
        result = execute(spec)
        assert len(result.trace.events) > 0


def _skew_validity_observers(system, starts, end, params):
    return build_observers(("skew", "validity"), system, params, starts, end)


class TestStreamingContract:
    """The no-trace path keeps O(n) state yet matches the recorded path."""

    N = 24
    ROUNDS = 16

    def _run(self, **kwargs):
        params = default_parameters(n=self.N, f=2)
        return run_maintenance_scenario(params, rounds=self.ROUNDS,
                                        fault_kind="silent", seed=5, **kwargs)

    def test_streaming_peak_allocation_beats_batch(self):
        def peak(**kwargs):
            tracemalloc.start()
            try:
                result = self._run(**kwargs)
                if kwargs.get("record_trace", True):
                    start = result.tmax0 + result.params.round_length
                    measured_agreement(result.trace, start, result.end_time,
                                       samples=200)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        streaming = peak(record_trace=False, observers=_skew_validity_observers)
        assert streaming < peak()

    def test_streaming_metrics_match_batch_at_horizon(self):
        streamed = self._run(record_trace=False,
                             observers=_skew_validity_observers)
        recorded = self._run()
        stats = streamed.trace.stats
        assert stats.delivered + stats.timers_fired > 0
        assert streamed.online("validity").report().violations == 0
        start = recorded.tmax0 + recorded.params.round_length
        assert streamed.online("skew").max_skew == measured_agreement(
            recorded.trace, start, recorded.end_time, samples=200)
