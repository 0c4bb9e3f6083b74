import ast
import inspect

import numpy as np
import pytest

import ddstab.experiments
import ddstab.informativity
from ddstab import (DataMatrices, LtiSystem, NumericalConfig, PreconditionError,
                    SolverFailure, TrajectoryData, build_data_matrices,
                    check_identification, check_stabilizability_prior, consistent_set, input_rank_condition,
                    numerical_rank, row_compress,
                    run_monte_carlo, simulate, solve_plain_lmi, verify_gain,
                    synthesize, synthesize_stab)
from ddstab.experiments import (MonteCarloConfig, _evaluate_scenarios, three_tank_model,
                                zoh_discretize)
from ddstab.informativity import Branch, decide_verdicts, require_prior_conditions
from ddstab.linalg import is_stabilizable, pencil_full_rank, subspace_contained
from ddstab.sdp import BarrierBackend
from ddstab.synthesis import FeedbackGain, GainProvenance, lmi_problem, sdp_solve

from conftest import (montecarlo_windows, projection_contained, random_dataset, scalar_full_rank,
                      scenario_trajectory)


def corrupted_example1():
    return build_data_matrices(TrajectoryData(
        inputs=np.array([[1.0], [2.0], [-1.0]]),
        states=np.array([[1.0, 0.0], [2.0, 0.0], [4.0, 0.0], [3.0, 1.0]])))


class TestIdentification:
    def test_example1_not_identifiable(self, cfg, example1):
        assert not check_identification(example1, cfg)

    def test_three_tank_not_identifiable(self, cfg):
        from ddstab.experiments import (THREE_TANK_INPUTS, THREE_TANK_X0,
                                        three_tank_model, zoh_discretize)
        system = zoh_discretize(three_tank_model())
        D = build_data_matrices(simulate(system, THREE_TANK_X0, THREE_TANK_INPUTS))
        assert not check_identification(D, cfg)

    def test_short_horizon_never_identifiable(self, cfg):
        rng = np.random.default_rng(40)
        for _ in range(20):
            ds = random_dataset(rng)
            if ds.D.T < ds.D.n + ds.D.m:
                assert not check_identification(ds.D, cfg)


class TestPlainAndControllabilityPrior:
    def test_example1_false(self, cfg, example1):
        sol = solve_plain_lmi(example1, cfg)
        assert not sol.feasible and sol.theta is None
        assert not check_stabilizability_prior(example1, cfg).stabilization_controllability_prior

    def test_wide_input_single_sample(self, cfg):
        # one sample, two inputs: full-rank state data but an unbounded
        # consistent family in the open-loop direction
        D = build_data_matrices(TrajectoryData(inputs=np.array([[1.0, -1.0]]),
                                               states=np.array([[-1.0], [-1.0]])))
        plain = solve_plain_lmi(D, cfg).feasible
        assert check_stabilizability_prior(D, cfg).stabilization_controllability_prior == plain

    def test_schur_singleton_with_zero_b(self, cfg):
        system = LtiSystem(A=[[0.5]], B=[[0.0]])
        D = build_data_matrices(simulate(system, np.ones(1), np.array([[1.0], [2.0]])))
        assert check_identification(D, cfg)
        sol = solve_plain_lmi(D, cfg)
        assert sol.feasible and sol.theta is not None

    @pytest.mark.parametrize("rank_rel_tol", [0.5, 0.2], ids=["rank_zero", "full_rank"])
    @pytest.mark.parametrize("x_minus", [[[1.0, 0.0]], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]],
                             ids=["one_row", "eye_and_zero_column"])
    def test_orthonormal_rows_at_coarse_tolerance(self, rank_rel_tol, x_minus):
        # a unit spectrum, ranked at the cutoff: 0 at 0.5 and n at 0.2, where
        # F = 0.5 I is Schur; the controllability-prior verdict is the report's
        cfg = NumericalConfig(rank_rel_tol=rank_rel_tol)
        X = np.array(x_minus)
        D = DataMatrices(u_minus=np.arange(1.0, X.shape[1] + 1)[None],
                         x_minus=X, x_plus=0.5 * X)
        report = check_stabilizability_prior(D, cfg)
        full = rank_rel_tol == 0.2
        assert report.rank_x_minus == (D.n if full else 0)
        assert report.stabilization is full
        assert report.stabilization_controllability_prior is full


class TestConditions:
    def test_example1_image_inclusion(self, cfg, example1):
        assert check_stabilizability_prior(example1, cfg).image_inclusion

    def test_corrupted_image_inclusion_fails(self, cfg):
        D = corrupted_example1()
        assert not check_stabilizability_prior(D, cfg).image_inclusion

    def test_zero_x_plus(self, cfg):
        D = build_data_matrices(TrajectoryData(inputs=[[1.0]], states=[[1.0], [0.0]]))
        assert check_stabilizability_prior(D, cfg).image_inclusion

    def test_example1_input_rank(self, cfg, example1):
        comp = row_compress(example1.x_minus, example1.x_plus, cfg)
        assert input_rank_condition(example1, comp.r, numerical_rank(example1.stacked(), cfg))

    def test_zero_input_fails_input_rank(self, cfg):
        D = build_data_matrices(TrajectoryData(
            inputs=np.zeros((3, 1)),
            states=np.array([[1.0, 0.0], [2.0, 0.0], [4.0, 0.0], [8.0, 0.0]])))
        comp = row_compress(D.x_minus, D.x_plus, cfg)
        assert not input_rank_condition(D, comp.r, numerical_rank(D.stacked(), cfg))



class TestStabilizabilityPriorReport:
    def test_example1(self, cfg, example1):
        report = check_stabilizability_prior(example1, cfg)
        assert report.branch is Branch.RANK_DEFICIENT
        assert report.rank_x_minus == 1
        assert not report.identification
        assert not report.stabilization
        assert report.stabilization_stabilizability_prior
        assert report.image_inclusion and report.input_rank_condition

    def test_three_tank(self, cfg):
        from ddstab.experiments import (THREE_TANK_INPUTS, THREE_TANK_X0,
                                        three_tank_model, zoh_discretize)
        system = zoh_discretize(three_tank_model())
        D = build_data_matrices(simulate(system, THREE_TANK_X0, THREE_TANK_INPUTS))
        report = check_stabilizability_prior(D, cfg)
        assert report.rank_x_minus == 2
        assert not report.identification
        assert not report.stabilization
        assert report.stabilization_stabilizability_prior

    def test_full_rank_infeasible_family(self, cfg):
        # x = (1, 1), u = (0): consistent family {(1, b)}; no single gain
        # stabilizes every member, and the full-rank branch must say so
        D = build_data_matrices(TrajectoryData(inputs=[[0.0]], states=[[1.0], [1.0]]))
        report = check_stabilizability_prior(D, cfg)
        assert report.branch is Branch.FULL_RANK
        assert not report.stabilization
        assert not report.stabilization_stabilizability_prior

    def test_serializes(self, cfg, example1):
        import json
        payload = check_stabilizability_prior(example1, cfg).to_dict()
        assert json.loads(json.dumps(payload)) == payload

    def test_marginal_rank_flagged(self, cfg):
        # singular values straddling the cutoff get reported, not guessed away
        D = build_data_matrices(TrajectoryData(
            inputs=np.array([[1.0], [1.0], [1.0]]),
            states=np.array([[1.0, 0.0], [1.0, 3e-9], [1.0, 0.0], [1.0, 0.0]])))
        report = check_stabilizability_prior(D, cfg)
        assert report.diagnostics["x_minus_rank_margin"]["marginal_rank"] is True

    def test_clean_rank_not_flagged(self, cfg, example1):
        report = check_stabilizability_prior(example1, cfg)
        assert report.diagnostics["x_minus_rank_margin"]["marginal_rank"] is False


class TestImageInclusionResidual:
    """The residual beside the verdict comes from the same rank cutoff."""

    def _outside(self, report, D, cfg):
        residual = report.diagnostics["image_inclusion_residual"]
        return bool(residual > cfg.subspace_tol * max(1.0, np.linalg.norm(D.x_plus, 2)))

    def test_direction_below_rank_cutoff_is_outside(self, cfg):
        # third singular value of X_minus at 1e-11 relative scale: below the
        # 1e-9 rank cutoff, so col(X_minus) is a plane that X_plus leaves
        rng = np.random.default_rng(48)
        U, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        V, _ = np.linalg.qr(rng.normal(size=(4, 3)))
        D = DataMatrices(u_minus=rng.normal(size=(1, 4)),
                         x_minus=U @ np.diag([1.0, 0.5, 1e-11]) @ V.T,
                         x_plus=rng.normal(size=(3, 4)))
        report = check_stabilizability_prior(D, cfg)
        assert report.rank_x_minus == 2
        assert not report.image_inclusion
        assert self._outside(report, D, cfg)

    def test_residual_agrees_with_verdict_on_random_suites(self, cfg):
        seen = set()
        for seed, count in ((43, 300), (44, 150)):
            rng = np.random.default_rng(seed)
            for _ in range(count):
                D = random_dataset(rng).D
                if row_compress(D.x_minus, D.x_plus, cfg).r == D.n:
                    continue  # no residual on the full-rank branch
                report = check_stabilizability_prior(D, cfg)
                assert self._outside(report, D, cfg) == (not report.image_inclusion)
                seen.add(report.image_inclusion)
        assert seen == {True, False}


class TestImageInclusionRoutes:
    """Two routes to image inclusion agree: ``subspace_contained``, read off
    the row compression, which the report calls, and
    ``projection_contained``, which factors X_minus itself. The report
    decides its dataset as a stack of one, and its residual and verdict
    equal, bit for bit, the kernel's and the formulas on the dataset alone:
    sigma_1(S[r:] X_plus) off the row compression (0 at full rank) and
    residual <= subspace_tol * max(1, ||X_plus||_2), with an all-zero
    X_plus contained and nothing nonzero inside an all-zero X_minus."""

    @staticmethod
    def _oracle(D, cfg) -> tuple[float, bool]:
        comp = row_compress(D.x_minus, D.x_plus, cfg)
        if comp.r == D.n:
            residual = 0.0
        else:
            residual = float(np.linalg.svd(comp.S[comp.r:] @ D.x_plus, compute_uv=False)[0])
        if not D.x_plus.any():
            return residual, True
        if not D.x_minus.any():
            return residual, False
        norm = float(np.linalg.svd(D.x_plus, compute_uv=False)[0])
        return residual, residual <= cfg.subspace_tol * max(1.0, norm)

    @classmethod
    def _agree(cls, D, cfg) -> bool:
        contained = projection_contained(D.x_plus, D.x_minus, cfg)
        comp = row_compress(D.x_minus, D.x_plus, cfg)
        ok, residual = subspace_contained(D.x_plus[None], D.x_minus[None], comp.S[None],
                                          np.array([comp.r]), cfg)
        report = check_stabilizability_prior(D, cfg)
        oracle_residual, oracle_contained = cls._oracle(D, cfg)
        assert report.image_inclusion is bool(ok[0]) is contained is oracle_contained
        assert float(residual[0]).hex() == oracle_residual.hex()
        if report.branch is Branch.FULL_RANK:
            assert "image_inclusion_residual" not in report.diagnostics
            assert oracle_residual == 0.0
        else:
            reported = report.diagnostics["image_inclusion_residual"]
            assert type(reported) is float and reported.hex() == oracle_residual.hex()
        return contained

    @pytest.mark.parametrize("seed", [101, 102, 103])
    def test_random_suites(self, cfg, seed):
        rng = np.random.default_rng(seed)
        seen = [self._agree(random_dataset(rng).D, cfg) for _ in range(500)]
        assert 0 < seen.count(False) < len(seen)

    def test_random_suite_at_coarse_rank_tolerance(self):
        cfg = NumericalConfig(rank_rel_tol=0.5)
        rng = np.random.default_rng(101)
        seen = [self._agree(random_dataset(rng).D, cfg) for _ in range(500)]
        assert 0 < seen.count(False) < len(seen)

    def test_montecarlo_windows(self, cfg):
        seen = [self._agree(D, cfg) for D in montecarlo_windows(3, 200)]
        assert 0 < seen.count(False) < len(seen)

    @staticmethod
    def _data(x_minus, x_plus):
        x_minus = np.asarray(x_minus, dtype=float)
        return DataMatrices(u_minus=np.ones((1, x_minus.shape[1])), x_minus=x_minus,
                            x_plus=np.asarray(x_plus, dtype=float))

    @pytest.mark.parametrize("x_minus", [[[1.0, 2.0], [0.0, 0.0]], np.zeros((2, 2))],
                             ids=["rank_one", "zero"])
    def test_zero_x_plus_is_contained(self, cfg, x_minus):
        assert self._agree(self._data(x_minus, np.zeros((2, 2))), cfg)

    def test_empty_x_plus_is_contained(self, cfg):
        # no samples: the empty X_plus is contained, as in the reference
        D = self._data(np.zeros((2, 0)), np.zeros((2, 0)))
        assert projection_contained(D.x_plus, D.x_minus, cfg)
        report = check_stabilizability_prior(D, cfg)
        assert report.image_inclusion and report.diagnostics["image_inclusion_residual"] == 0.0

    def test_tiny_x_plus_outside_zero_x_minus(self, cfg):
        # the residual 1e-10 is far below subspace_tol, yet nothing nonzero
        # lies in the span of a zero X_minus
        x_plus = np.array([[1e-10, 0.0], [0.0, 0.0]])
        assert np.linalg.norm(x_plus, 2) == 1e-10
        assert not self._agree(self._data(np.zeros((2, 2)), x_plus), cfg)

    @pytest.mark.parametrize("leak, contained", [(0.8e-6, True), (1.2e-6, False)])
    def test_residual_beside_the_scaled_tolerance(self, cfg, leak, contained):
        # ||X_plus||_2 = 100, so the bound is 1e-8 * 100 = 1e-6, and the
        # residual is the leak out of the first axis
        D = self._data([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]],
                       [[100.0, 0.0, 0.0], [0.0, leak, 0.0]])
        assert self._agree(D, cfg) is contained

    @pytest.mark.parametrize("scale, contained", [(1e-10, True), (1.0, False)])
    def test_nonzero_x_minus_ranked_zero(self, scale, contained):
        # at rank_rel_tol 0.5 the 2 x 2 cutoff is sigma_1 itself: rank 0,
        # so only X_plus's own size decides
        cfg = NumericalConfig(rank_rel_tol=0.5)
        D = self._data([[1.0, 0.0], [0.0, 0.5]], scale * np.ones((2, 2)))
        assert row_compress(D.x_minus, D.x_plus, cfg).r == 0
        assert self._agree(D, cfg) == contained


class TestGainRoutesRefuseWhatTheReportRejects:
    """``require_prior_conditions``, the guard of the gain routes, reads the
    report alone: it raises iff the report rejects rank-deficient data under
    the stabilizability prior, and names image inclusion iff the report finds
    it failing. The report's input-rank verdict, decided on its stack of one,
    equals the condition on the regressor [X_minus; U_minus] ranked as one
    matrix, the route the guard took before it read the report."""

    CONFIGS = {"default": NumericalConfig(),
               "coarse_rank": NumericalConfig(rank_rel_tol=0.5),
               "fine_rank_coarse_subspace": NumericalConfig(rank_rel_tol=1e-6,
                                                            subspace_tol=1e-4)}

    @staticmethod
    def _agree(D, cfg) -> str | None:
        report = check_stabilizability_prior(D, cfg)
        try:
            require_prior_conditions(report)
            message = None
        except PreconditionError as exc:
            message = str(exc)
        rejected = (report.branch is Branch.RANK_DEFICIENT
                    and not report.stabilization_stabilizability_prior)
        assert (message is not None) == rejected
        assert (message is not None and "image inclusion" in message) \
            == (not report.image_inclusion)
        assert report.input_rank_condition is bool(input_rank_condition(
            D, report.compression.r, numerical_rank(D.stacked(), cfg)))
        return message

    @staticmethod
    def _outcomes(messages) -> set:
        return {None if m is None else "image" if "image inclusion" in m else "input"
                for m in messages}

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    @pytest.mark.parametrize("seed", [101, 102, 103])
    def test_random_suites(self, seed, config):
        rng = np.random.default_rng(seed)
        cfg = self.CONFIGS[config]
        messages = [self._agree(random_dataset(rng).D, cfg) for _ in range(500)]
        assert self._outcomes(messages) == {None, "image", "input"}

    def test_montecarlo_windows(self, cfg):
        messages = [self._agree(D, cfg) for D in montecarlo_windows(3, 200)]
        assert self._outcomes(messages) == {None, "image", "input"}


def _padded(windows):
    """Zero-pad datasets to the longest T: one stacked DataMatrices and each T."""
    cols = np.array([D.T for D in windows])
    width = int(cols.max())

    def stack(name):
        return np.stack([np.pad(getattr(D, name), ((0, 0), (0, width - D.T)))
                         for D in windows])
    return DataMatrices(stack("u_minus"), stack("x_minus"), stack("x_plus")), cols


class TestStackedWindows:
    """Windows decided together from zero-padded stacks get the verdicts that
    ``check_stabilizability_prior`` gives each window alone: all four, the
    rank of X_minus and the branch."""

    @staticmethod
    def _agree(windows, verdicts, cfg):
        for k, D in enumerate(windows):
            report = check_stabilizability_prior(D, cfg)
            assert (report.rank_x_minus, report.branch is Branch.FULL_RANK,
                    report.identification, report.stabilization,
                    report.stabilization_controllability_prior,
                    report.stabilization_stabilizability_prior) == (
                int(verdicts.rank_x_minus[k]), bool(verdicts.rank_x_minus[k] == D.n),
                bool(verdicts.identification[k]), bool(verdicts.stabilization[k]),
                bool(verdicts.stabilization[k]),
                bool(verdicts.stabilization_stabilizability_prior[k]))

    def _decide(self, windows, cfg):
        stack, cols = _padded(windows)
        verdicts = decide_verdicts(stack, cfg, cols)
        self._agree(windows, verdicts, cfg)
        return verdicts

    def _scenarios(self, mc, cfg, monkeypatch):
        """Decide every scenario of ``mc`` as a chunk of one; check the stack
        decided is its windows zero-padded, and its verdicts."""
        decided = []

        def recording(D, cfg, cols, _real=decide_verdicts):
            decided.append((D, cols, _real(D, cfg, cols)))
            return decided[-1][2]
        monkeypatch.setattr(ddstab.experiments, "decide_verdicts", recording)
        seen = set()
        for index in range(mc.scenarios):
            traj = scenario_trajectory(mc, index)
            windows = [build_data_matrices(TrajectoryData(inputs=traj.inputs[:T],
                                                          states=traj.states[:T + 1]))
                       for T in mc.t_list]
            rows = _evaluate_scenarios(mc, [index], cfg)
            stack, cols, verdicts = decided.pop()
            padded, _ = _padded(windows)
            assert cols.tolist() == list(mc.t_list)
            for name in ("u_minus", "x_minus", "x_plus"):
                assert getattr(padded, name).tobytes() == getattr(stack, name).tobytes()
            self._agree(windows, verdicts, cfg)
            for k, (row, D) in enumerate(zip(rows, windows)):
                assert (row.scenario, row.T) == (index, D.T)
                assert (row.identification, row.stabilization,
                        row.stabilization_stabilizability_prior) == (
                    verdicts.identification[k], verdicts.stabilization[k],
                    verdicts.stabilization_stabilizability_prior[k])
                seen.add((int(verdicts.rank_x_minus[k]), row.stabilization,
                          row.stabilization_stabilizability_prior))
        return seen

    def test_montecarlo_windows(self, cfg, monkeypatch):
        mc = MonteCarloConfig(system=zoh_discretize(three_tank_model()),
                              scenarios=200, seed=3)
        seen = self._scenarios(mc, cfg, monkeypatch)
        # both branches, and each verdict both ways
        assert {r for r, _, _ in seen} >= {2, 3}
        assert {p for _, p, _ in seen} == {True, False}
        assert {q for _, _, q in seen} == {True, False}

    def test_windows_shorter_than_the_state(self, cfg, monkeypatch):
        # T = 1, 2 < n = 3: their padded members are wider than themselves,
        # and a T-list whose longest T is 2 takes the full SVD of the stack
        system = zoh_discretize(three_tank_model())
        for t_list in ((1, 2, 3, 4, 6, 10, 100), (2, 1)):
            mc = MonteCarloConfig(system=system, scenarios=60, seed=11, t_list=t_list)
            seen = self._scenarios(mc, cfg, monkeypatch)
            assert {r for r, _, _ in seen} >= {1, 2}

    def test_all_zero_prefix(self, cfg):
        # x0 = 0 under zero inputs: the first windows are all zero, later
        # ones are not; then X_minus = 0 with X_plus != 0 (T = 1 after a
        # nonzero first input)
        system = LtiSystem(A=[[0.9, 0.2], [0.0, 0.5]], B=[[1.0], [0.0]])
        quiet = simulate(system, np.zeros(2), np.array([[0.0], [0.0], [1.0], [-1.0], [2.0]]))
        kick = simulate(system, np.zeros(2), np.array([[1.0], [0.0], [2.0]]))
        windows = [build_data_matrices(TrajectoryData(inputs=traj.inputs[:T],
                                                      states=traj.states[:T + 1]))
                   for traj in (quiet, kick) for T in range(1, traj.T + 1)]
        assert not windows[0].x_plus.any() and not windows[1].stacked().any()
        assert not windows[5].x_minus.any() and windows[5].x_plus.any()
        verdicts = self._decide(windows, cfg)
        assert not verdicts.image_inclusion[5]
        assert verdicts.image_inclusion[0] and verdicts.rank_x_minus[0] == 0

    def test_all_zero_x_plus(self, cfg):
        # x+ = 0 whatever the data: X_plus is all zero, so contained in any
        # X_minus, including a rank-deficient one
        system = LtiSystem(A=np.zeros((3, 3)), B=np.zeros((3, 1)))
        traj = simulate(system, np.array([1.0, -2.0, 0.5]), np.ones((4, 1)))
        windows = [build_data_matrices(TrajectoryData(inputs=traj.inputs[:T],
                                                      states=traj.states[:T + 1]))
                   for T in range(1, 5)]
        assert not any(D.x_plus.any() for D in windows)
        verdicts = self._decide(windows, cfg)
        assert verdicts.image_inclusion.all()
        assert verdicts.rank_x_minus.tolist() == [1, 1, 1, 1]

    def test_unit_spectrum_ranked_zero_beside_a_full_member(self):
        # at rank_rel_tol 0.5 the cutoff of X_minus = [1 0] is sigma_1
        # itself, so it is ranked 0; the full-rank window [2] sends the
        # stack to the Hautus kernel, which reads the ranks handed to it, so
        # [1 0]'s plain verdict follows rank 0
        cfg = NumericalConfig(rank_rel_tol=0.5)
        windows = [build_data_matrices(TrajectoryData(inputs=[[1.0], [1.0]],
                                                      states=[[1.0], [0.0], [1.0]])),
                   build_data_matrices(TrajectoryData(inputs=[[1.0]], states=[[2.0], [0.5]]))]
        verdicts = self._decide(windows, cfg)
        assert verdicts.rank_x_minus.tolist() == [0, 1]
        assert verdicts.stabilization.tolist() == [False, True]

    def test_one_window_of_full_length(self, cfg, monkeypatch):
        # T = T_max alone: nothing is padded, so the stack holds the window's
        # own bytes and its verdicts are the report's
        mc = MonteCarloConfig(system=zoh_discretize(three_tank_model()),
                              scenarios=20, seed=3, t_list=(100,))
        seen = self._scenarios(mc, cfg, monkeypatch)
        assert {r for r, _, _ in seen} == {2, 3}


class TestVerdictEquivalences:
    """Verdict identities over random suites (the full 500-dataset versions
    run in the acceptance gate; these are the fast per-module versions)."""

    def _suite(self, seed, count, **kwargs):
        rng = np.random.default_rng(seed)
        return [random_dataset(rng, **kwargs) for _ in range(count)]

    def test_controllability_prior_equals_plain(self, cfg):
        for ds in self._suite(42, 150):
            plain = solve_plain_lmi(ds.D, cfg).feasible
            assert check_stabilizability_prior(ds.D, cfg).stabilization_controllability_prior \
                == plain

    def test_full_rank_prior_equals_plain(self, cfg):
        checked = 0
        for ds in self._suite(43, 300):
            report = check_stabilizability_prior(ds.D, cfg)
            if report.branch is Branch.FULL_RANK:
                assert report.stabilization_stabilizability_prior == report.stabilization
                checked += 1
        assert checked >= 100

    def test_plain_implies_prior(self, cfg):
        for ds in self._suite(44, 150):
            report = check_stabilizability_prior(ds.D, cfg)
            assert (not report.stabilization) or report.stabilization_stabilizability_prior


class TestPencilAgainstSdp:
    """Two routes to the plain verdict: the pencil test the report takes and
    the LMI the gain step solves agree on every dataset. The report, which
    reads X_minus^+ off its row compression, agrees with the pencil test
    that factors X_minus itself."""

    @staticmethod
    def _disagreements(datasets, cfg):
        decided = disagree = 0
        for D in datasets:
            if row_compress(D.x_minus, D.x_plus, cfg).r < D.n:
                continue  # both routes exit on the rank of X_minus
            pencil = pencil_full_rank(D.x_minus, D.x_plus, cfg)
            assert check_stabilizability_prior(D, cfg).stabilization == pencil
            disagree += pencil != sdp_solve(lmi_problem(D), cfg).feasible
            decided += 1
        return decided, disagree

    @pytest.mark.parametrize("seed", [101, 102, 103])
    def test_random_suites(self, cfg, seed):
        rng = np.random.default_rng(seed)
        decided, disagree = self._disagreements(
            (random_dataset(rng).D for _ in range(500)), cfg)
        assert decided >= 300 and disagree == 0

    def test_montecarlo_windows(self, cfg):
        decided, disagree = self._disagreements(montecarlo_windows(3, 200), cfg)
        assert decided >= 500 and disagree == 0


class TestVerdictsSolveNothing:
    """The report, the controllability-prior verdict and the Monte Carlo
    decide without reaching the barrier."""

    @pytest.fixture
    def no_solve(self, monkeypatch):
        def refuse(backend, problem):
            raise AssertionError("a verdict reached the barrier")
        monkeypatch.setattr(BarrierBackend, "solve", refuse)

    def test_reports(self, cfg, no_solve):
        rng = np.random.default_rng(48)
        verdicts = set()
        for _ in range(150):
            D = random_dataset(rng).D
            report = check_stabilizability_prior(D, cfg)
            # the pencil test that factors X_minus itself is the reference
            plain = pencil_full_rank(D.x_minus, D.x_plus, cfg)
            assert report.stabilization == plain
            assert report.stabilization_controllability_prior == plain
            verdicts.add((report.branch, report.stabilization))
        assert (Branch.FULL_RANK, True) in verdicts
        assert (Branch.FULL_RANK, False) in verdicts

    def test_synthesize_refuses_before_a_solve(self, cfg, no_solve):
        # every dataset the report rejects, full-rank ones included, is
        # refused by synthesize without a barrier solve
        rng = np.random.default_rng(48)
        refused = set()
        for _ in range(150):
            D = random_dataset(rng).D
            report = check_stabilizability_prior(D, cfg)
            if report.stabilization_stabilizability_prior:
                continue
            with pytest.raises(PreconditionError):
                synthesize(D, cfg)
            refused.add(report.branch)
        assert refused == {Branch.FULL_RANK, Branch.RANK_DEFICIENT}

    @pytest.mark.parametrize("seed", [101, 102, 103])
    def test_synthesize_stab_refuses_before_a_solve(self, cfg, no_solve, seed):
        # synthesize_stab builds its own report and refuses what it rejects,
        # full-rank data with synthesize's message
        rng = np.random.default_rng(seed)
        refused = set()
        for _ in range(500):
            D = random_dataset(rng).D
            report = check_stabilizability_prior(D, cfg)
            if report.stabilization_stabilizability_prior:
                continue
            with pytest.raises(PreconditionError) as exc:
                synthesize_stab(D, cfg)
            if report.branch is Branch.FULL_RANK:
                assert str(exc.value) == "the data are not informative for stabilization"
            refused.add(report.branch)
        assert refused == {Branch.FULL_RANK, Branch.RANK_DEFICIENT}

    def test_monte_carlo(self, cfg, no_solve):
        from ddstab.experiments import MonteCarloConfig, three_tank_model, zoh_discretize
        result = run_monte_carlo(MonteCarloConfig(
            system=zoh_discretize(three_tank_model()), scenarios=20, seed=3), cfg)
        assert result.solver_failures == 0
        assert any(v.stabilization for v in result.verdicts)


class TestScaleInvariance:
    """Each pencil is ranked against ||P||_F, whose plain sum of squares
    overflows once the entries pass about 1.3e154; the verdicts do not
    depend on the data's scale."""

    VERDICTS = ("rank_x_minus", "identification", "stabilization",
                "stabilization_stabilizability_prior", "branch")

    @staticmethod
    def _scaled(D, scale):
        return DataMatrices(scale * D.u_minus, scale * D.x_minus, scale * D.x_plus)

    @pytest.mark.parametrize("scale", [1.0, 1e155, 1e250])
    def test_scalar_data(self, cfg, scale):
        # x = (1, 1.5, 3.25), u = (0, 1): a = 1.5 and b = 1, informative
        D = build_data_matrices(TrajectoryData(inputs=[[0.0], [1.0]],
                                               states=[[1.0], [1.5], [3.25]]))
        report = check_stabilizability_prior(self._scaled(D, scale), cfg)
        assert (report.rank_x_minus, report.stabilization) == (1, True)
        assert is_stabilizable(scale * np.array([[1.5]]), scale * np.array([[1.0]]), cfg)
        # the mode 2 * scale is unreachable, so the pair is not stabilizable
        assert not is_stabilizable(scale * np.diag([1.5, 2.0]), scale * np.array([[1.0], [0.0]]),
                                   cfg)

    def test_stack_mixing_scales(self, cfg):
        A = np.array([[[1.5]], [[1.5e155]], [[1.5e250]]])
        B = np.array([[[1.0]], [[0.0]], [[1e250]]])
        assert is_stabilizable(A, B, cfg).tolist() == [True, False, True]

    def test_random_suite(self, cfg):
        rng = np.random.default_rng(101)
        seen = set()
        for _ in range(300):
            D = random_dataset(rng).D
            report = check_stabilizability_prior(D, cfg)
            expected = [getattr(report, name) for name in self.VERDICTS]
            for scale in (1e160, 1e250):
                scaled = check_stabilizability_prior(self._scaled(D, scale), cfg)
                assert [getattr(scaled, name) for name in self.VERDICTS] == expected
            seen.add(report.stabilization)
        assert seen == {True, False}


class TestRankDeficientSoundness:
    def test_informative_implies_synthesizable_and_verified(self, cfg):
        # constructive direction: a positive rank-deficient verdict must be
        # backed by an actual gain that survives sampled verification
        rng = np.random.default_rng(45)
        checked = 0
        while checked < 25:
            ds = random_dataset(rng, stabilizable_only=True)
            report = check_stabilizability_prior(ds.D, cfg)
            if report.branch is not Branch.RANK_DEFICIENT:
                continue
            if not report.stabilization_stabilizability_prior:
                continue
            gain, sol, comp = synthesize_stab(ds.D, cfg)
            vr = verify_gain(consistent_set(ds.D, cfg), gain, n_samples=100,
                             seed=checked, cfg=cfg)
            assert vr.passed, (ds.true_system, gain.K, vr.max_spectral_radius)
            if vr.structural_residuals:
                assert max(vr.structural_residuals) <= 1e-6
            checked += 1

    def test_not_informative_gains_get_falsified(self, cfg):
        # statistical necessity: when the verdict is negative, every candidate
        # gain is destabilized by some sampled stabilizable member
        rng = np.random.default_rng(46)
        checked = 0
        while checked < 5:
            ds = random_dataset(rng, stabilizable_only=True)
            report = check_stabilizability_prior(ds.D, cfg)
            if report.branch is not Branch.RANK_DEFICIENT:
                continue
            if report.stabilization_stabilizability_prior:
                continue
            cs = consistent_set(ds.D, cfg)
            for k_trial in range(10):
                K = rng.normal(size=(ds.D.m, ds.D.n))
                gain = FeedbackGain(K=K, provenance=GainProvenance.STAB_PRIOR)
                vr = verify_gain(cs, gain, n_samples=120,
                                 scales=(0.1, 1.0, 10.0, 100.0, 1000.0),
                                 seed=k_trial, cfg=cfg, compute_structural=False)
                assert vr.samples_tested > 0
                assert not vr.passed
                assert vr.max_spectral_radius >= 1.0 - cfg.schur_margin
            checked += 1


def closed_loop_two_steps():
    # x = (1, 0.3) driven by u = K x: full-rank X_minus, but U_minus = K X_minus
    # adds no rank, so rank [X_minus; U_minus] = 2 < r + m = 3
    A = np.array([[1.2, 0.3], [0.0, 0.7]])
    B = np.array([[1.0], [0.5]])
    K = np.array([[-0.9, -0.1]])
    states, inputs = [np.array([1.0, 0.3])], []
    for _ in range(2):
        inputs.append(K @ states[-1])
        states.append(A @ states[-1] + B @ inputs[-1])
    return build_data_matrices(TrajectoryData(inputs=np.array(inputs),
                                              states=np.array(states)))


class TestInputRankAtFullRank:
    """The input-rank condition applies only when rank X_minus < n; at full
    rank the report states it as vacuously true."""

    @pytest.mark.parametrize("name", ["closed_loop", "one_sample_two_inputs"])
    def test_reports_agree(self, cfg, name):
        D = closed_loop_two_steps() if name == "closed_loop" else build_data_matrices(
            TrajectoryData(inputs=[[1.0, -1.0]], states=[[-1.0], [-1.0]]))
        report = check_stabilizability_prior(D, cfg)
        assert report.branch is Branch.FULL_RANK
        assert report.diagnostics["rank_stacked"] < report.rank_x_minus + D.m
        assert report.input_rank_condition is True

    def test_closed_loop_data_informative(self, cfg):
        report = check_stabilizability_prior(closed_loop_two_steps(), cfg)
        assert report.stabilization_stabilizability_prior
        assert report.image_inclusion and report.input_rank_condition


def test_solver_failure_propagates_through_report(cfg, broken_backend):
    # the functions that return Theta solve, and a breakdown raises there;
    # the report decides the same data by the pencil test and never solves
    D = scalar_full_rank()
    with pytest.raises(SolverFailure):
        solve_plain_lmi(D, cfg)
    with pytest.raises(SolverFailure):
        synthesize(D, cfg)
    report = check_stabilizability_prior(D, cfg)
    assert report.branch is Branch.FULL_RANK
    assert report.stabilization and report.stabilization_stabilizability_prior
    assert report.stabilization_controllability_prior


def test_informativity_does_not_import_synthesis():
    # the report decides and synthesis consumes it: the dependency runs one way
    imported = set()
    for node in ast.walk(ast.parse(inspect.getsource(ddstab.informativity))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            imported.add(base)
            imported.update(f"{base}.{alias.name}" for alias in node.names)
    assert imported
    assert not [name for name in imported if "synthesis" in name.split(".")]
