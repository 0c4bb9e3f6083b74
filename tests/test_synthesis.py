import dataclasses
import json

import numpy as np
import pytest

from ddstab import (GainProvenance, LtiSystem, NumericalConfig, PreconditionError,
                    SolverFailure, TrajectoryData, build_data_matrices,
                    check_stabilizability_prior, gain_from_plain, sdp_solve, simulate,
                    solve_plain_lmi, solve_stab_lmi, spectral_radius, synthesize,
                    synthesize_stab, row_compress)
from ddstab.informativity import Branch
from ddstab.linalg import RowCompression
from ddstab.sdp import BarrierBackend
from ddstab.synthesis import LmiFeasibilityProblem, lmi_problem, problem_to_json

from conftest import (barrier_slack, random_dataset, reference_coefficients, scalar_full_rank,
                      scalar_near_margin, scenario_trajectory, three_tank_compressed,
                      zero_point_solve)


def identity_compression_example1() -> RowCompression:
    # valid by hand: the second state row is identically zero
    return RowCompression(S=np.eye(2), r=1,
                          x_hat_minus=np.array([[1.0, 2.0, 4.0]]),
                          x_hat_plus=np.array([[2.0, 4.0, 3.0]]))


def assembled_block(problem: LmiFeasibilityProblem, theta: np.ndarray) -> np.ndarray:
    """[[L Theta, P Theta], [(P Theta)^T, L Theta]] with (L, P) the problem's
    diagonal and off-diagonal coefficients."""
    G, H = problem.diag_coeff @ theta, problem.offdiag_coeff @ theta
    return np.block([[G, H], [H.T, G]])


def symmetry_residual(problem: LmiFeasibilityProblem, theta: np.ndarray) -> float:
    """max |L Theta - (L Theta)^T|, 0 for an empty Theta."""
    G = problem.diag_coeff @ theta
    return float(np.abs(G - G.T).max()) if G.size else 0.0


class TestSdpSolve:
    def test_scalar_toy_feasible(self, cfg):
        problem = LmiFeasibilityProblem(diag_coeff=np.array([[1.0, 0.0, 0.0]]),
                                        offdiag_coeff=np.array([[0.0, 0.0, 0.0]]))
        sol = sdp_solve(problem, cfg)
        assert sol.feasible
        theta = sol.theta
        block = assembled_block(problem, theta)
        assert np.linalg.eigvalsh(block).min() >= cfg.psd_margin
        assert symmetry_residual(problem, theta) <= cfg.equality_tol

    def test_example1_reduced_feasible_with_hand_witness(self, cfg):
        problem = LmiFeasibilityProblem(diag_coeff=np.array([[1.0, 2.0, 4.0]]),
                                        offdiag_coeff=np.array([[2.0, 4.0, 3.0]]))
        witness = np.array([[0.0], [0.0], [1.0]])
        block = assembled_block(problem, witness)
        assert np.allclose(block, [[4.0, 3.0], [3.0, 4.0]])
        assert np.allclose(sorted(np.linalg.eigvalsh(block)), [1.0, 7.0])
        sol = sdp_solve(problem, cfg)
        assert sol.feasible
        assert np.linalg.eigvalsh(assembled_block(problem, sol.theta)).min() >= cfg.psd_margin

    def test_scalar_infeasible(self, cfg):
        # block [[t, 2t], [2t, t]] can never be positive definite
        problem = LmiFeasibilityProblem(diag_coeff=np.array([[1.0]]),
                                        offdiag_coeff=np.array([[2.0]]))
        sol = sdp_solve(problem, cfg)
        assert not sol.feasible
        assert sol.theta is None

    def test_empty_variable(self, cfg):
        problem = LmiFeasibilityProblem(diag_coeff=np.zeros((0, 4)),
                                        offdiag_coeff=np.zeros((0, 4)))
        sol = sdp_solve(problem, cfg)
        assert sol.feasible
        assert sol.theta.shape == (4, 0)

    def test_scale_invariance_of_slack(self, cfg):
        rng = np.random.default_rng(30)
        L, P = rng.normal(size=(2, 6)), rng.normal(size=(2, 6))
        s1 = sdp_solve(LmiFeasibilityProblem(diag_coeff=L, offdiag_coeff=P), cfg)
        s2 = sdp_solve(LmiFeasibilityProblem(diag_coeff=1e6 * L, offdiag_coeff=1e6 * P), cfg)
        assert s1.slack == pytest.approx(s2.slack, rel=1e-6)

    def test_margin_monotonicity(self):
        # shrinking the acceptance margin never flips feasible -> infeasible
        rng = np.random.default_rng(31)
        for _ in range(10):
            L, P = rng.normal(size=(2, 5)), rng.normal(size=(2, 5))
            problem = LmiFeasibilityProblem(diag_coeff=L, offdiag_coeff=P)
            loose = sdp_solve(problem, NumericalConfig(psd_margin=1e-7))
            tight = sdp_solve(problem, NumericalConfig(psd_margin=1e-9))
            if loose.feasible:
                assert tight.feasible


class TestPlainLmi:
    def test_example1_infeasible(self, cfg, example1):
        sol = solve_plain_lmi(example1, cfg)
        assert not sol.feasible

    def test_three_tank_infeasible(self, cfg):
        from ddstab.experiments import (THREE_TANK_INPUTS, THREE_TANK_X0,
                                        three_tank_model, zoh_discretize)
        system = zoh_discretize(three_tank_model())
        D = build_data_matrices(simulate(system, THREE_TANK_X0, THREE_TANK_INPUTS))
        assert not solve_plain_lmi(D, cfg).feasible

    def test_scalar_feasible_and_gain(self, cfg):
        D = build_data_matrices(simulate(LtiSystem(A=[[0.5]], B=[[1.0]]),
                                         np.array([1.0]), np.array([[0.0]])))
        sol = solve_plain_lmi(D, cfg)
        assert sol.feasible
        gain = gain_from_plain(D, sol)
        assert gain.K == pytest.approx(np.zeros((1, 1)))
        assert spectral_radius(np.array([[0.5]]) + np.array([[1.0]]) @ gain.K) == 0.5

    def test_rank_shortcut_agrees_with_solver(self, cfg, example1):
        # rank-deficient data is infeasible both by the shortcut and by the
        # barrier run on the LMI's coefficients
        assert barrier_slack(reference_coefficients(lmi_problem(example1), cfg)) \
            < cfg.psd_margin
        assert not solve_plain_lmi(example1, cfg).feasible

    def test_gain_needs_feasible_solution(self, cfg, example1):
        sol = solve_plain_lmi(example1, cfg)
        with pytest.raises(PreconditionError):
            gain_from_plain(example1, sol)

    def test_plain_gain_stabilizes_true_system(self, cfg):
        rng = np.random.default_rng(32)
        system = LtiSystem(A=np.array([[1.2, 0.3], [0.1, 0.8]]),
                           B=np.array([[1.0], [0.5]]))
        D = build_data_matrices(simulate(system, rng.normal(size=2),
                                         rng.normal(size=(6, 1))))
        sol = solve_plain_lmi(D, cfg)
        assert sol.feasible
        gain = gain_from_plain(D, sol)
        assert spectral_radius(system.A + system.B @ gain.K) < 1.0 - cfg.schur_margin


class TestStabLmi:
    def test_example1_feasible(self, cfg, example1):
        comp = identity_compression_example1()
        sol = solve_stab_lmi(example1, comp, cfg)
        assert sol.feasible

    def test_example1_hand_theta_contract(self, cfg, example1):
        # with Theta = e3 the gain contract gives K1 = -1/4
        comp = identity_compression_example1()
        theta = np.array([[0.0], [0.0], [1.0]])
        K1 = (example1.u_minus @ theta).item() / (comp.x_hat_minus @ theta).item()
        assert K1 == -0.25
        # closed loop of any consistent member (alpha, beta) under K = [K1, 0]
        # is [[0.75, alpha], [0, beta]]: reachable eigenvalue 0.75
        member = LtiSystem(A=np.array([[1.0, 5.0], [0.0, 0.4]]), B=np.array([[1.0], [0.0]]))
        K = np.array([[K1, 0.0]])
        cl = member.A + member.B @ K
        assert np.allclose(sorted(np.abs(np.linalg.eigvals(cl))), [0.4, 0.75])

    def test_synthesized_gain_contract(self, cfg, example1):
        report = dataclasses.replace(check_stabilizability_prior(example1, cfg),
                                     compression=identity_compression_example1())
        gain, sol, comp = synthesize_stab(example1, cfg, report)
        assert comp is report.compression
        assert sol.feasible
        K1, K2 = gain.K[0, 0], gain.K[0, 1]
        assert abs(1.0 + K1) < 1.0
        assert K2 == 0.0

    def test_rank_zero_gain_is_policy_output(self, cfg):
        D = build_data_matrices(simulate(LtiSystem(A=[[0.5]], B=[[0.0]]),
                                         np.zeros(1), np.array([[1.0], [-2.0]])))
        gain, sol, comp = synthesize_stab(D, cfg)
        assert comp.r == 0
        assert sol.feasible
        assert np.allclose(gain.K, [[0.0]])

    def test_infeasible_raises_precondition(self, cfg):
        # violating the image condition: last state jumps out of the span
        traj = TrajectoryData(
            inputs=np.array([[1.0], [2.0], [-1.0]]),
            states=np.array([[1.0, 0.0], [2.0, 0.0], [4.0, 0.0], [3.0, 1.0]]))
        D = build_data_matrices(traj)
        with pytest.raises(PreconditionError):
            synthesize_stab(D, cfg)


class TestNoNewtonStall:
    """A line-search step lost to rounding ends the barrier stage instead of
    being retaken until the Newton budget runs out."""

    def test_three_tank_compressed_solve(self, cfg, newton_steps):
        D, comp = three_tank_compressed()
        newton_steps.clear()
        assert solve_stab_lmi(D, comp, cfg).feasible
        assert len(newton_steps) < 100

    def test_monte_carlo_window(self, cfg, newton_steps):
        # scenario 4 of the default-seed stream at T = 3 spent all MAX_NEWTON
        # steps in one solve when the rounding no-op was retaken; the verdict
        # no longer solves, so the window's plain LMI is solved here
        from ddstab.experiments import (MonteCarloConfig, ScenarioVerdict,
                                        _evaluate_scenarios, three_tank_model,
                                        zoh_discretize)
        from ddstab.sdp import MAX_NEWTON
        mc = MonteCarloConfig(system=zoh_discretize(three_tank_model()),
                              scenarios=5, t_list=(3,))
        traj = scenario_trajectory(mc, 4)
        window = build_data_matrices(TrajectoryData(inputs=traj.inputs[:3],
                                                    states=traj.states[:4]))
        assert not solve_plain_lmi(window, cfg).feasible
        assert 0 < len(newton_steps) < MAX_NEWTON
        verdicts = _evaluate_scenarios(mc, [4], cfg)
        assert verdicts == [ScenarioVerdict(scenario=4, T=3, identification=False,
                                            stabilization=False,
                                            stabilization_stabilizability_prior=False)]


class TestNewtonBudget:
    """Every barrier stage centers to one tolerance, and a solve that spends
    the whole Newton budget raises in every stage, the last included."""

    @pytest.mark.parametrize("seed, index, dim, feasible", [
        (102, 20, 14, False), (102, 311, 18, True),
        (103, 112, 20, False), (103, 279, 20, False)])
    def test_criterion_5_plain_solves_end_within_budget(self, cfg, newton_steps,
                                                        seed, index, dim, feasible):
        # the half-decrement of these full-rank criterion-5 solves plateaus at
        # 1e-9 to 7e-9 near the optimum, so a stage that had to center below
        # that would take steps until the budget ran out
        from ddstab.sdp import MAX_NEWTON
        rng = np.random.default_rng(seed)
        D = [random_dataset(rng) for _ in range(index + 1)][index].D
        newton_steps.clear()
        sol = solve_plain_lmi(D, cfg)
        assert set(newton_steps) == {dim}
        assert len(newton_steps) < MAX_NEWTON
        assert sol.feasible is feasible

    def test_spent_budget_raises_in_the_last_stage(self, cfg, newton_steps, monkeypatch):
        from ddstab import sdp
        D, comp = three_tank_compressed()
        assert solve_stab_lmi(D, comp, cfg).feasible
        steps = len(newton_steps)
        monkeypatch.setattr(sdp, "MAX_NEWTON", steps)
        assert solve_stab_lmi(D, comp, cfg).feasible
        monkeypatch.setattr(sdp, "MAX_NEWTON", steps - 1)
        with pytest.raises(SolverFailure, match="budget exhausted"):
            solve_stab_lmi(D, comp, cfg)


class TestThreeTankReferenceTheta:
    def test_reference_theta_is_near_feasible_on_rounded_data(self, cfg):
        # both the trajectory and this certificate are 4-decimal rounded, so
        # the witness is checked at a loosened tolerance and never used as
        # synthesis ground truth
        from conftest import THREE_TANK_THETA_REF, THREE_TANK_TRAJ_REF, THREE_TANK_U
        x_minus = THREE_TANK_TRAJ_REF[:, :5]
        x_plus = THREE_TANK_TRAJ_REF[:, 1:]
        # identity compression is valid: the third state row is identically zero
        xh_minus, xh_plus = x_minus[:2], x_plus[:2]
        G = xh_minus @ THREE_TANK_THETA_REF
        assert np.abs(G - G.T).max() <= 1e-2
        H = xh_plus @ THREE_TANK_THETA_REF
        block = np.block([[G, H], [H.T, G]])
        assert np.linalg.eigvalsh(0.5 * (block + block.T)).min() > 0.0
        # and the gain formula applied to it reproduces the reference gain
        K1 = (THREE_TANK_U[None, :] @ THREE_TANK_THETA_REF) @ np.linalg.inv(
            0.5 * (G + G.T))
        from conftest import THREE_TANK_K_REF
        assert np.abs(K1 - THREE_TANK_K_REF[:, :2]).max() <= 1e-2


class TestCertificateIdentities:
    def _check_feasible_certificates(self, D, comp, sol, cfg):
        from ddstab import reachable_part
        if comp.r == 0:
            return
        theta = sol.theta
        G = comp.x_hat_minus @ theta
        assert np.abs(G - G.T).max() <= 1e-8
        block = np.block([[G, comp.x_hat_plus @ theta],
                          [(comp.x_hat_plus @ theta).T, G]])
        assert np.linalg.eigvalsh(0.5 * (block + block.T)).min() >= 1e-7
        K1 = (D.u_minus @ theta) @ np.linalg.inv(G)
        A11, B1 = reachable_part(D, comp, cfg)
        closed = A11 + B1 @ K1
        via_theta = (comp.x_hat_plus @ theta) @ np.linalg.inv(G)
        assert np.abs(closed - via_theta).max() <= 1e-6
        assert spectral_radius(via_theta) < 1.0
        # the diagonal block is a decrease certificate for the closed loop
        P = G
        decrease = P - closed @ P @ closed.T
        assert np.linalg.eigvalsh(0.5 * (decrease + decrease.T)).min() > 0.0

    def test_identities_on_random_rank_deficient_data(self, cfg):
        rng = np.random.default_rng(33)
        checked = 0
        while checked < 25:
            ds = random_dataset(rng, stabilizable_only=True)
            report = check_stabilizability_prior(ds.D, cfg)
            comp = report.compression
            if comp.r >= ds.D.n:
                continue
            if not (report.image_inclusion and report.input_rank_condition):
                continue
            sol = solve_stab_lmi(ds.D, comp, cfg)
            if not sol.feasible:
                continue
            self._check_feasible_certificates(ds.D, comp, sol, cfg)
            checked += 1

    def test_plain_stab_coincide_on_full_rank_data(self, cfg):
        # with r = n the compressed problem is the raw one in rotated
        # coordinates, so feasibility must agree
        rng = np.random.default_rng(34)
        seen_feasible = seen_infeasible = 0
        for _ in range(60):
            ds = random_dataset(rng)
            comp = row_compress(ds.D.x_minus, ds.D.x_plus, cfg)
            if comp.r < ds.D.n:
                continue
            plain = solve_plain_lmi(ds.D, cfg)
            stab = solve_stab_lmi(ds.D, comp, cfg)
            assert plain.feasible == stab.feasible
            seen_feasible += plain.feasible
            seen_infeasible += not plain.feasible
        assert seen_feasible and seen_infeasible


class TestBackendParityOnDatasets:
    def test_feasibility_decisions_agree(self, cfg):
        pytest.importorskip("cvxpy")
        from ddstab.sdp import CvxpyBackend
        rng = np.random.default_rng(36)
        external = CvxpyBackend()
        plain = stab = 0
        for _ in range(40):
            ds = random_dataset(rng)
            comp = row_compress(ds.D.x_minus, ds.D.x_plus, cfg)
            if comp.r == ds.D.n:
                a = solve_plain_lmi(ds.D, cfg)
                b = sdp_solve(lmi_problem(ds.D), cfg, backend=external)
                plain += 1
            else:
                a = solve_stab_lmi(ds.D, comp, cfg)
                b = sdp_solve(lmi_problem(ds.D, comp), cfg, backend=external)
                stab += 1
            if a.feasible != b.feasible:
                # both certified slacks hugging the acceptance threshold is
                # the one legitimate way for the decisions to split
                assert max(abs(a.slack), abs(b.slack)) <= 1e-5, \
                    (ds.true_system, a.slack, b.slack)
        assert plain and stab


class TestUniqueInputMatrixRecovery:
    def test_recovered_b_matches_generator(self, cfg):
        # on rank-deficient informative data every consistent system shares
        # one input matrix, so recovery must reproduce the generator's B
        from ddstab import recover_input_matrix
        rng = np.random.default_rng(37)
        checked = 0
        while checked < 20:
            ds = random_dataset(rng, stabilizable_only=True)
            report = check_stabilizability_prior(ds.D, cfg)
            comp = report.compression
            if comp.r >= ds.D.n:
                continue
            if not (report.image_inclusion and report.input_rank_condition):
                continue
            B = recover_input_matrix(ds.D, comp, cfg)
            scale = max(1.0, np.abs(ds.true_system.B).max())
            assert np.abs(B - ds.true_system.B).max() <= 1e-7 * scale
            checked += 1


def test_problem_json_round_trip():
    rng = np.random.default_rng(35)
    problem = LmiFeasibilityProblem(diag_coeff=rng.normal(size=(2, 5)),
                                    offdiag_coeff=rng.normal(size=(2, 5)))
    back = json.loads(problem_to_json(problem))
    assert np.array_equal(np.array(back["diag_coeff"]), problem.diag_coeff)
    assert np.array_equal(np.array(back["offdiag_coeff"]), problem.offdiag_coeff)


class TestSynthesize:
    """The library dispatch gives the gain of the route its branch names, and
    refuses exactly the data the stabilizability-prior report rejects."""

    def _check(self, D, cfg):
        report = check_stabilizability_prior(D, cfg)
        if not report.stabilization_stabilizability_prior:
            with pytest.raises(PreconditionError):
                synthesize(D, cfg)
            return report.branch, False
        gain, sol, comp = synthesize(D, cfg)
        assert sol.feasible
        assert comp.r == report.rank_x_minus
        if report.branch is Branch.FULL_RANK:
            assert gain.provenance is GainProvenance.PLAIN
            reference = gain_from_plain(D, solve_plain_lmi(D, cfg))
        else:
            assert gain.provenance is GainProvenance.STAB_PRIOR
            reference, _, _ = synthesize_stab(D, cfg)
        assert gain.K.shape == reference.K.shape
        assert gain.K.tobytes() == reference.K.tobytes()
        return report.branch, True

    def test_example1(self, cfg, example1):
        assert self._check(example1, cfg) == (Branch.RANK_DEFICIENT, True)

    def test_three_tank(self, cfg):
        from ddstab.experiments import (THREE_TANK_INPUTS, THREE_TANK_X0,
                                        three_tank_model, zoh_discretize)
        system = zoh_discretize(three_tank_model())
        D = build_data_matrices(simulate(system, THREE_TANK_X0, THREE_TANK_INPUTS))
        assert self._check(D, cfg) == (Branch.RANK_DEFICIENT, True)

    def test_random_suite(self, cfg):
        rng = np.random.default_rng(44)
        outcomes = {self._check(random_dataset(rng).D, cfg) for _ in range(150)}
        # every branch meets both verdicts, so each path of the dispatch ran
        assert len(outcomes) == 4

    @pytest.mark.parametrize("gap", [5e-7, 9e-7])
    def test_report_decides_where_the_lmi_is_feasible(self, cfg, gap):
        # the pencil says no; the plain LMI alone would return a gain
        D = build_data_matrices(scalar_near_margin(gap))
        assert solve_plain_lmi(D, cfg).feasible
        assert self._check(D, cfg) == (Branch.FULL_RANK, False)

    def test_given_report_is_used(self, cfg, example1):
        report = check_stabilizability_prior(example1, cfg)
        gain, _, comp = synthesize(example1, cfg, report)
        assert comp is report.compression
        assert gain.K.tobytes() == synthesize(example1, cfg)[0].K.tobytes()


class TestSolverFailurePropagates:
    """A breakdown is an exception at every layer, never an infeasible verdict."""

    def test_solve_plain_lmi(self, cfg, broken_backend):
        with pytest.raises(SolverFailure):
            solve_plain_lmi(scalar_full_rank(), cfg)

    def test_solve_stab_lmi(self, cfg, example1, broken_backend):
        with pytest.raises(SolverFailure):
            solve_stab_lmi(example1, identity_compression_example1(), cfg)

    @pytest.mark.parametrize("branch", ["rank_deficient", "full_rank"])
    def test_synthesize(self, cfg, example1, broken_backend, branch):
        D = example1 if branch == "rank_deficient" else scalar_full_rank()
        with pytest.raises(SolverFailure):
            synthesize(D, cfg)

    @pytest.mark.parametrize("branch", ["rank_deficient", "full_rank"])
    def test_informative_data_without_a_feasible_theta(self, cfg, example1, monkeypatch,
                                                       branch):
        # the report and the solver disagree, and neither answer is returned
        D = example1 if branch == "rank_deficient" else scalar_full_rank()
        assert check_stabilizability_prior(D, cfg).stabilization_stabilizability_prior
        monkeypatch.setattr(BarrierBackend, "solve", zero_point_solve)
        with pytest.raises(SolverFailure, match="informative"):
            synthesize(D, cfg)

    def test_common_lyapunov(self, cfg, broken_backend):
        from ddstab import common_lyapunov
        with pytest.raises(SolverFailure):
            common_lyapunov([np.array([[0.5]])], cfg)
