"""Unit tests for repro.analysis.sweeps (the parameter sweep framework)."""

import pytest

from repro.analysis import (
    SweepAxis,
    SweepPoint,
    SweepResult,
    default_parameters,
    run_spec_sweep,
    sweep_epsilon,
    sweep_fault_count,
    sweep_round_length,
    sweep_system_size,
    sweep_topology,
)
from repro.runner import BatchRunner, RunSpec
from repro.telemetry import Telemetry, activated


class TestSweepAxis:
    def test_requires_name(self):
        with pytest.raises(ValueError):
            SweepAxis("", [1, 2])

    def test_requires_values(self):
        with pytest.raises(ValueError):
            SweepAxis("x", [])


class TestSweepResult:
    @staticmethod
    def _result(xs, outputs):
        result = SweepResult(axes=[SweepAxis("x", list(xs))])
        result.points = [SweepPoint(inputs={"x": x}, outputs=outputs(x))
                         for x in xs]
        return result

    def test_headers_and_rows_align(self):
        result = self._result([0, 5], lambda x: {"y": x + 1, "z": x + 2})
        assert result.headers() == ["x", "y", "z"]
        assert result.rows() == [[0, 1, 2], [5, 6, 7]]

    def test_best_point_minimizes_output(self):
        result = self._result([1, 2, 3], lambda x: {"loss": (x - 2) ** 2})
        assert result.best("loss").inputs["x"] == 2
        assert result.best("loss", minimize=False).inputs["x"] in (1, 3)

    def test_best_requires_known_output(self):
        result = self._result([1], lambda x: {"y": x})
        with pytest.raises(ValueError):
            result.best("missing")


class TestRunSpecSweep:
    def _build(self, seed):
        params = default_parameters(n=7, f=2)

        def build(rounds):
            return RunSpec.maintenance(params, rounds=rounds, fault_kind=None,
                                       seed=seed)
        return build

    @staticmethod
    def _measure(result, rounds):
        return {"end_time": result.end_time,
                "sent": float(result.trace.stats.sent)}

    def test_two_axes_take_cartesian_product_in_order(self):
        params = default_parameters(n=7, f=2)

        def build(seed, rounds):
            return RunSpec.maintenance(params, rounds=rounds, fault_kind=None,
                                       seed=seed)

        def measure(result, seed, rounds):
            return {"spec_seed": result.spec.seed,
                    "spec_rounds": result.spec.rounds}

        result = run_spec_sweep([SweepAxis("seed", [1, 2]),
                                 SweepAxis("rounds", [2, 3])], build, measure)
        order = [(1, 2), (1, 3), (2, 2), (2, 3)]
        assert list(zip(result.column("seed"), result.column("rounds"))) == order
        assert list(zip(result.column("spec_seed"),
                        result.column("spec_rounds"))) == order

    def test_requires_at_least_one_axis(self):
        with pytest.raises(ValueError):
            run_spec_sweep([], self._build(seed=0), self._measure)

    def test_parallel_equals_serial(self):
        axes = [SweepAxis("rounds", [2, 3, 4])]
        serial = run_spec_sweep(axes, self._build(seed=2), self._measure)
        parallel = run_spec_sweep(axes, self._build(seed=2), self._measure,
                                  runner=BatchRunner(jobs=2))
        assert serial.rows() == parallel.rows()

    def test_replication_adds_ci_columns(self):
        result = run_spec_sweep([SweepAxis("rounds", [3])],
                                self._build(seed=0), self._measure,
                                seeds=[0, 1, 2])
        assert result.headers() == ["rounds", "end_time", "sent",
                                    "end_time_ci95", "sent_ci95"]
        assert result.points[0].outputs["sent_ci95"] >= 0.0

    def test_shared_runner_caches_across_sweeps(self):
        telemetry = Telemetry()
        runner = BatchRunner(store=":memory:", resume=True)
        axes = [SweepAxis("rounds", [2, 3])]
        with activated(telemetry):
            first = run_spec_sweep(axes, self._build(seed=3), self._measure,
                                   runner=runner)
        assert telemetry.registry.value("resilient.store.hits") == 0
        with activated(telemetry):
            second = run_spec_sweep(axes, self._build(seed=3),
                                    self._measure, runner=runner)
        # the second sweep was pure store hits
        assert telemetry.registry.value("resilient.store.hits") == 2
        assert second.rows() == first.rows()

    def test_rejects_empty_seeds(self):
        with pytest.raises(ValueError):
            run_spec_sweep([SweepAxis("rounds", [2])], self._build(seed=0),
                           self._measure, seeds=[])

    def test_rejects_duplicate_seeds(self):
        with pytest.raises(ValueError, match="distinct"):
            run_spec_sweep([SweepAxis("rounds", [2])], self._build(seed=0),
                           self._measure, seeds=[0, 0, 1])


class TestReadyMadeSweeps:
    def test_epsilon_sweep_shape(self):
        result = sweep_epsilon([0.001, 0.002], rounds=5, seed=1)
        gammas = result.column("gamma")
        agreements = result.column("agreement")
        assert len(gammas) == 2
        # The bound grows with epsilon and the measurement respects it.
        assert gammas[1] > gammas[0]
        for gamma, agreement in zip(gammas, agreements):
            assert agreement <= gamma

    def test_system_size_sweep_respects_bound(self):
        result = sweep_system_size([7, 10], rounds=5, seed=2)
        for gamma, agreement in zip(result.column("gamma"),
                                    result.column("agreement")):
            assert agreement <= gamma

    def test_fault_count_sweep_shows_threshold(self):
        result = sweep_fault_count([0, 2, 3], rounds=6, seed=0)
        agreements = result.column("agreement")
        gamma = result.column("gamma")[0]
        # Within the threshold the bound holds; past it the skew blows up.
        assert agreements[0] <= gamma
        assert agreements[1] <= gamma
        assert agreements[2] > agreements[1]

    @pytest.mark.parametrize("sweep,values", [
        (sweep_epsilon, [0.002]),
        (sweep_round_length, [0.5]),
        (sweep_system_size, [7]),
        (sweep_fault_count, [1]),
        (sweep_topology, ["ring"]),
    ])
    def test_every_helper_exposes_seed_seeds_and_runner(self, sweep, values):
        """The uniform replication interface across all five ready-made sweeps."""
        single = sweep(values, rounds=3, seed=7)
        assert len(single.points) == 1
        replicated = sweep(values, rounds=3, seed=7, seeds=[0, 1],
                           runner=BatchRunner(jobs=2))
        outputs = replicated.points[0].outputs
        ci_names = [name for name in outputs if name.endswith("_ci95")]
        assert ci_names, "replication must add *_ci95 columns"
        for name in ci_names:
            assert outputs[name] >= 0.0

    def test_replicated_sweep_mean_brackets_single_seeds(self):
        singles = [sweep_epsilon([0.002], rounds=4, seed=seed)
                   .column("agreement")[0] for seed in (0, 1)]
        replicated = sweep_epsilon([0.002], rounds=4, seeds=[0, 1])
        mean = replicated.column("agreement")[0]
        assert min(singles) <= mean <= max(singles)
        assert mean == pytest.approx(sum(singles) / 2)
