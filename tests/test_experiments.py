import dataclasses
import inspect
import json

import numpy as np
import pytest

import ddstab.experiments

from ddstab import (ContinuousSystem, LtiSystem, MonteCarloConfig, build_data_matrices,
                    check_identification, is_controllable, is_schur, numerical_rank,
                    run_monte_carlo, simulate, spectral_radius, three_tank_model,
                    zoh_discretize)
from ddstab.data import TrajectoryData, consistency_residual, consistent_set
from ddstab.cli import EXIT_OK, main
from ddstab.experiments import (HORIZON, POISSON_LAMBDA, SCENARIO_CHUNK, THREE_TANK_INPUTS,
                                THREE_TANK_X0, _evaluate_scenarios, _scenario_draws,
                                demo_example2, demo_three_tank, example1_trajectory)
from ddstab.informativity import check_stabilizability_prior

from conftest import (THREE_TANK_A_REF, THREE_TANK_B_REF, THREE_TANK_TRAJ_REF,
                      scenario_trajectory)


class TestSimulate:
    def test_zero_system_freezes(self):
        traj = simulate(LtiSystem(A=np.zeros((2, 2)), B=np.zeros((2, 1))),
                        np.array([3.0, -1.0]), np.ones((4, 1)))
        assert np.allclose(traj.states[0], [3.0, -1.0])
        assert not traj.states[1:].any()

    def test_example1_member_reproduces_dataset(self):
        member = LtiSystem(A=[[1.0, 0.0], [0.0, 0.0]], B=[[1.0], [0.0]])
        traj = simulate(member, np.array([1.0, 0.0]), np.array([[1.0], [2.0], [-1.0]]))
        expected = example1_trajectory()
        assert np.array_equal(traj.states, expected.states)
        assert np.array_equal(traj.inputs, expected.inputs)

    def test_three_tank_matches_reference_trajectory(self):
        system = zoh_discretize(three_tank_model())
        traj = simulate(system, THREE_TANK_X0, THREE_TANK_INPUTS)
        assert np.abs(traj.states.T - THREE_TANK_TRAJ_REF).max() <= 1e-3

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_bitwise_equal_to_per_step_loop(self, m):
        # the stacked B u(t) rounds as the per-step product it replaced
        rng = np.random.default_rng(61 + m)
        for _ in range(50):
            n, T = int(rng.integers(1, 6)), int(rng.integers(1, 30))
            system = LtiSystem(A=rng.normal(size=(n, n)), B=rng.normal(size=(n, m)))
            x0, inputs = rng.normal(size=n), rng.normal(size=(T, m))
            states = np.empty((T + 1, n))
            states[0] = x0
            for t in range(T):
                states[t + 1] = system.A @ states[t] + system.B @ inputs[t]
            assert simulate(system, x0, inputs).states.tobytes() == states.tobytes()

    @pytest.mark.parametrize("m, shape", [(1, (3, 2)), (2, (4, 1)), (2, (4,)),
                                          (1, (2, 1, 1)), (1, ())],
                             ids=["3x2_for_m1", "4x1_for_m2", "flat_for_m2",
                                  "3d_for_m1", "scalar_for_m1"])
    def test_misshaped_inputs_rejected(self, m, shape):
        # a (3, 2) array is not 6 steps of a single input, nor a (4, 1) one
        # 2 steps of two inputs
        system = LtiSystem(A=np.eye(2), B=np.ones((2, m)))
        with pytest.raises(ValueError) as err:
            simulate(system, np.zeros(2), np.ones(shape))
        assert f"(T, {m})" in str(err.value) and str(shape) in str(err.value)

    def test_flat_inputs_of_a_single_input_system(self):
        system = LtiSystem(A=[[0.5, 1.0], [0.0, 2.0]], B=[[1.0], [-1.0]])
        u = np.array([1.0, -2.0, 0.5])
        flat = simulate(system, np.ones(2), u)
        column = simulate(system, np.ones(2), u[:, None])
        assert flat.inputs.shape == (3, 1)
        assert flat.states.tobytes() == column.states.tobytes()

    def test_round_trip_residual(self, cfg):
        rng = np.random.default_rng(60)
        for _ in range(25):
            n, m, T = rng.integers(1, 5), rng.integers(1, 3), rng.integers(1, 9)
            system = LtiSystem(A=rng.normal(size=(n, n)), B=rng.normal(size=(n, m)))
            traj = simulate(system, rng.normal(size=n), rng.normal(size=(T, m)))
            D = build_data_matrices(traj)
            assert consistency_residual(D, system) <= 1e-10


class TestZohDiscretize:
    def test_zero_dynamics(self):
        cs = ContinuousSystem(A=np.zeros((2, 2)), B=np.array([[1.0], [2.0]]),
                              sample_time=0.5)
        system = zoh_discretize(cs)
        assert np.allclose(system.A, np.eye(2))
        assert np.allclose(system.B, 0.5 * cs.B)

    def test_scalar_closed_form(self):
        cs = ContinuousSystem(A=np.array([[-1.0]]), B=np.array([[2.0]]), sample_time=0.1)
        system = zoh_discretize(cs)
        assert system.A[0, 0] == pytest.approx(np.exp(-0.1), rel=1e-12)
        assert system.B[0, 0] == pytest.approx(2.0 * (1.0 - np.exp(-0.1)), rel=1e-12)

    @pytest.mark.parametrize("sample_time", [0.0, -0.1, np.nan])
    def test_non_positive_sample_time_rejected(self, sample_time):
        with pytest.raises(ValueError, match="sample_time must be positive"):
            ContinuousSystem(A=np.zeros((1, 1)), B=np.ones((1, 1)), sample_time=sample_time)

    def test_three_tank_reference_matrices(self):
        system = zoh_discretize(three_tank_model())
        assert np.abs(system.A - THREE_TANK_A_REF).max() <= 1e-4
        assert np.abs(system.B - THREE_TANK_B_REF).max() <= 1e-4

    def test_hurwitz_gives_schur(self, cfg):
        rng = np.random.default_rng(61)
        for _ in range(25):
            n = int(rng.integers(1, 5))
            A = rng.normal(size=(n, n))
            A = A - (np.abs(np.linalg.eigvals(A).real).max() + 0.5) * np.eye(n)
            assert np.linalg.eigvals(A).real.max() < 0.0
            system = zoh_discretize(ContinuousSystem(
                A=A, B=rng.normal(size=(n, 1)), sample_time=float(rng.uniform(0.05, 2.0))))
            assert is_schur(system.A, cfg)


class TestThreeTankModel:
    def test_default_parameters(self):
        cs = three_tank_model()
        assert cs.A.tolist() == [[-0.6, 0.5, 0.0], [0.5, -0.5, 0.5], [0.0, 0.0, -0.5]]
        assert cs.B.tolist() == [[0.0], [1.0], [0.0]]
        assert cs.sample_time == 0.1

    def test_the_model_is_fixed(self):
        assert not inspect.signature(three_tank_model).parameters
        assert not hasattr(ddstab.experiments, "ThreeTankParams")
        with pytest.raises(ImportError):
            from ddstab import ThreeTankParams  # noqa: F401


class TestMonteCarlo:
    def _config(self, **kw):
        system = zoh_discretize(three_tank_model())
        defaults = dict(system=system, scenarios=40, t_list=(3, 4, 5, 10), seed=123)
        defaults.update(kw)
        return MonteCarloConfig(**defaults)

    def test_deterministic(self, cfg):
        r1 = run_monte_carlo(self._config(scenarios=5), cfg)
        r2 = run_monte_carlo(self._config(scenarios=5), cfg)
        assert r1.verdicts == r2.verdicts

    def test_chunks_decide_as_scenarios_alone(self, cfg):
        # two whole chunks and a partial one
        mc = self._config(scenarios=2 * SCENARIO_CHUNK + 3)
        alone = [v for index in range(mc.scenarios)
                 for v in _evaluate_scenarios(mc, [index], cfg)]
        assert run_monte_carlo(mc, cfg).verdicts == alone

    def test_runs_stop_at_longest_window(self, cfg, monkeypatch):
        # every input is still drawn, so each run is a byte-equal prefix of
        # its scenario simulated alone over the whole horizon, and each window
        # keeps the verdict of its unpadded report
        mc = self._config(scenarios=20, t_list=(1, 2, 3))
        alone = [scenario_trajectory(mc, index) for index in range(mc.scenarios)]
        simulated = []

        def recording(*args, _real=ddstab.experiments._simulate_runs):
            simulated.append(_real(*args))
            return simulated[-1]
        monkeypatch.setattr(ddstab.experiments, "_simulate_runs", recording)
        verdicts = run_monte_carlo(mc, cfg).verdicts
        states, = simulated
        assert states.shape == (4, mc.scenarios, 3)
        for index, traj in enumerate(alone):
            assert states[:, index].tobytes() == traj.states[:4].tobytes()
        for v in verdicts:
            traj = alone[v.scenario]
            report = check_stabilizability_prior(build_data_matrices(TrajectoryData(
                inputs=traj.inputs[:v.T], states=traj.states[:v.T + 1])), cfg)
            assert (v.identification, v.stabilization,
                    v.stabilization_stabilizability_prior) == (
                report.identification, report.stabilization,
                report.stabilization_stabilizability_prior)

    def test_t3_identification_structurally_zero(self, cfg):
        result = run_monte_carlo(self._config(), cfg)
        assert result.percentages()[3]["identification_pct"] == 0.0

    def test_monotone_in_prior_per_scenario(self, cfg):
        result = run_monte_carlo(self._config(), cfg)
        for v in result.verdicts:
            assert (not v.stabilization) or v.stabilization_stabilizability_prior

    def test_identification_monotone_in_horizon(self, cfg):
        result = run_monte_carlo(self._config(), cfg)
        by_scenario = {}
        for v in result.verdicts:
            by_scenario.setdefault(v.scenario, []).append((v.T, v.identification))
        for rows in by_scenario.values():
            rows.sort()
            flags = [f for _, f in rows]
            assert flags == sorted(flags)  # once identifiable, stays identifiable

    def test_no_solver_failures_at_desk_scale(self, cfg):
        result = run_monte_carlo(self._config(), cfg)
        assert result.solver_failures == 0

    def test_fields_are_the_runs_settings(self):
        # the horizon and the Poisson rate are the experiment's constants
        assert [f.name for f in dataclasses.fields(MonteCarloConfig)] == [
            "system", "scenarios", "t_list", "seed", "workers"]

    def test_draws_span_the_horizon(self):
        mc = self._config()
        x0, inputs = _scenario_draws(mc, 0)
        assert x0.shape == (3,) and inputs.shape == (HORIZON, 1) == (100, 1)
        assert POISSON_LAMBDA == 1.0

    def test_t_beyond_horizon_rejected(self):
        with pytest.raises(ValueError):
            self._config(t_list=(3, 200))

    def test_t_cap_is_the_horizon(self, cfg):
        result = run_monte_carlo(self._config(scenarios=1, t_list=(3, 100)), cfg)
        assert [v.T for v in result.verdicts] == [3, 100]
        with pytest.raises(ValueError, match="every T must be <= horizon"):
            self._config(t_list=(3, 101))

    @pytest.mark.parametrize("t_list", [(0, 3), (-1, 3), (-50, 3)])
    def test_t_below_one_rejected(self, t_list):
        with pytest.raises(ValueError, match="every T must be >= 1"):
            self._config(t_list=t_list)

    @pytest.mark.parametrize("t_list", [(3, 3), (3, 4, 3)])
    def test_repeated_t_rejected(self, t_list):
        with pytest.raises(ValueError, match="every T must appear once"):
            self._config(t_list=t_list)

    @pytest.mark.parametrize("scenarios", [0, -1])
    def test_no_scenarios_rejected(self, scenarios):
        with pytest.raises(ValueError, match="scenarios"):
            self._config(scenarios=scenarios)

    @pytest.mark.parametrize("workers", [0, -4, 2])
    def test_no_workers_rejected(self, workers):
        with pytest.raises(ValueError, match="workers must be 1"):
            self._config(workers=workers)

    @pytest.mark.parametrize("seed", [-1, -(2 ** 70)])
    def test_negative_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            self._config(seed=seed)

    @pytest.mark.parametrize("field,value", [
        ("scenarios", 2.5), ("scenarios", True), ("workers", 1.5), ("workers", True),
        ("seed", 3.0), ("seed", False)])
    def test_non_integer_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            self._config(**{field: value})

    @pytest.mark.parametrize("t_list", [(3.5,), (True,), (3, 4.0), (3, np.float64(4))])
    def test_non_integer_t_rejected(self, t_list):
        with pytest.raises(ValueError, match="every T must be an integer"):
            self._config(t_list=t_list)

    def test_numpy_integers_accepted(self, cfg):
        result = run_monte_carlo(self._config(scenarios=np.int64(2), seed=np.int32(20),
                                              t_list=(np.int64(3), 5)), cfg)
        assert [v.T for v in result.verdicts] == [3, 5, 3, 5]

    def test_seed_zero_runs(self, cfg):
        result = run_monte_carlo(self._config(scenarios=2, seed=0), cfg)
        assert len(result.verdicts) == 2 * 4

    def test_empty_t_list_rejected(self):
        with pytest.raises(ValueError, match="t_list must hold at least one T"):
            self._config(t_list=())


def demo_files(tmp_path, name: str) -> dict:
    """The JSON files of ``ddstab demo <name>``, read by stem."""
    out = tmp_path / name
    assert main(["demo", name, "--samples", "60", "--out", str(out)]) == EXIT_OK
    return {path.stem: json.loads(path.read_text()) for path in out.glob("*.json")}


class TestDemos:
    def test_example1_bundle(self, tmp_path):
        bundle = demo_files(tmp_path, "example1")
        assert not bundle["informativity"]["stabilization"]
        assert bundle["informativity"]["stabilization_stabilizability_prior"]
        assert bundle["verification"]["passed"]
        assert bundle["verification"]["max_spectral_radius"] < 1.0

    def test_example2_grid_flags_exactly_one_point(self, cfg):
        bundle = demo_example2(cfg=cfg)
        assert bundle["uncontrollable_points"] == [(1.0, 0.0, 0.0)]
        # the stacked verdicts are each point's own
        assert len(bundle["grid"]) == 41 * 41
        for a, b1, b2, ctrb in bundle["grid"]:
            assert all(type(x) is float for x in (a, b1, b2)) and type(ctrb) is bool
            assert ctrb == is_controllable(np.array([[a]]), np.array([[b1, b2]]), cfg)
        # every grid member really is consistent with the experiment
        D = build_data_matrices(bundle["trajectory"])
        rng = np.random.default_rng(62)
        for a, b1, b2, _ in [bundle["grid"][i] for i in rng.integers(0, len(bundle["grid"]), 20)]:
            member = LtiSystem(A=[[a]], B=[[b1, b2]])
            assert consistency_residual(D, member) <= 1e-12

    def test_three_tank_bundle(self, tmp_path):
        bundle = demo_files(tmp_path, "three-tank")
        assert bundle["informativity"]["rank_x_minus"] == 2
        assert bundle["informativity"]["stabilization_stabilizability_prior"]
        assert bundle["gain"]["theta"] is not None  # the solution is feasible
        assert bundle["spectrum"]["closed_loop_spectral_radius"] < 1.0
        assert bundle["verification"]["passed"]

    def test_three_tank_is_the_simulated_cascade(self):
        demo = demo_three_tank()
        assert sorted(demo) == ["continuous", "system", "trajectory"]
        assert np.array_equal(demo["system"].A, zoh_discretize(demo["continuous"]).A)
        expected = simulate(demo["system"], THREE_TANK_X0, THREE_TANK_INPUTS)
        assert np.array_equal(demo["trajectory"].states, expected.states)
