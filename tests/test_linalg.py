import json

import numpy as np
import pytest

import ddstab.informativity
import ddstab.linalg
from ddstab import (NumericalConfig, is_controllable, is_schur, is_stabilizable,
                    matrix_exponential, numerical_rank, pencil_full_rank,
                    row_compress, spectral_radius, subspace_contained)
from ddstab import (DataMatrices, LtiSystem, MonteCarloConfig, build_data_matrices,
                    check_stabilizability_prior, consistent_set, reachable_part,
                    sdp_solve, simulate, solve_plain_lmi, synthesize,
                    three_tank_model, zoh_discretize)
from ddstab.cli import main
from ddstab.data import trajectory_to_json
from ddstab.experiments import _evaluate_scenarios, example1_trajectory
from ddstab.informativity import Branch
from ddstab.linalg import controllability_matrix, rank_cutoff
from ddstab.synthesis import LmiFeasibilityProblem

from conftest import (THREE_TANK_A_REF, THREE_TANK_B_REF, THREE_TANK_K_REF,
                      example1_matrices, projection_contained, scenario_trajectory,
                      three_tank_compressed)


class TestNumericalRank:
    def test_identity(self, cfg):
        assert numerical_rank(np.eye(3), cfg) == 3

    def test_one_nonzero_row(self, cfg):
        assert numerical_rank(np.array([[1.0, 2.0, 4.0], [0.0, 0.0, 0.0]]), cfg) == 1

    def test_zero_matrix(self, cfg):
        assert numerical_rank(np.zeros((2, 3)), cfg) == 0

    def test_transpose_invariant(self, cfg):
        rng = np.random.default_rng(0)
        for _ in range(50):
            M = rng.normal(size=(rng.integers(1, 6), rng.integers(1, 6)))
            assert numerical_rank(M, cfg) == numerical_rank(M.T, cfg)

    def test_constructed_rank(self, cfg):
        rng = np.random.default_rng(1)
        for _ in range(50):
            p, q = rng.integers(2, 7, size=2)
            r = int(rng.integers(0, min(p, q) + 1))
            M = rng.normal(size=(p, r)) @ rng.normal(size=(r, q)) if r else np.zeros((p, q))
            assert numerical_rank(M, cfg) == r


class TestRowCompress:
    def test_unequal_shapes_rejected(self, cfg):
        with pytest.raises(ValueError, match=r"shape mismatch: \(2, 3\) vs \(2, 2\)"):
            row_compress(np.ones((2, 3)), np.ones((2, 2)), cfg)

    def test_example1_values(self, cfg, example1):
        comp = row_compress(example1.x_minus, example1.x_plus, cfg)
        assert comp.r == 1
        # any valid S is accepted; check the defining identity instead
        lifted = np.vstack([comp.x_hat_minus, np.zeros((1, 3))])
        assert np.abs(comp.S @ example1.x_minus - lifted).max() <= cfg.equality_tol
        assert np.abs(comp.S @ comp.S.T - np.eye(2)).max() <= 1e-10
        # the compressed rows span the same data, up to sign of S
        assert numerical_rank(comp.x_hat_minus, cfg) == 1

    def test_full_rank_case(self, cfg):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(3, 5))
        comp = row_compress(X, rng.normal(size=(3, 5)), cfg)
        assert comp.r == 3
        assert np.allclose(comp.x_hat_minus, comp.S @ X)

    def test_invariants_random(self, cfg):
        rng = np.random.default_rng(3)
        for _ in range(60):
            n, T = rng.integers(1, 6), rng.integers(1, 8)
            r_true = int(rng.integers(0, min(n, T) + 1))
            X = (rng.normal(size=(n, r_true)) @ rng.normal(size=(r_true, T))
                 if r_true else np.zeros((n, T)))
            Xp = rng.normal(size=(n, T))
            comp = row_compress(X, Xp, cfg)
            assert comp.r == r_true
            lifted = np.vstack([comp.x_hat_minus, np.zeros((n - comp.r, T))])
            assert np.abs(comp.S @ X - lifted).max() <= cfg.equality_tol * max(1, abs(X).max())
            assert np.abs(comp.S @ comp.S.T - np.eye(n)).max() <= 1e-10
            assert numerical_rank(comp.x_hat_minus, cfg) == comp.r
            assert np.allclose(comp.x_hat_plus, (comp.S @ Xp)[:comp.r])
            # economy SVD unless n > T; Vt signed as S's rows
            k = min(n, T)
            assert comp.sv.shape == (k,) and comp.Vt.shape == (k, T)
            assert np.abs(comp.S[:k].T @ (comp.sv[:, None] * comp.Vt) - X).max() \
                <= 1e-12 * max(1, abs(X).max())
            # the report's route: X^+ read off the compression
            assert pencil_full_rank(X, Xp, cfg, (comp.S, comp.sv, comp.Vt, comp.r)) \
                == pencil_full_rank(X, Xp, cfg)

    @pytest.mark.parametrize("shape", [(2, 3), (2, 2), (3, 2)], ids=["wide", "square", "tall"])
    def test_zero_state_data_take_the_general_route(self, cfg, shape):
        # numpy factors a zero matrix with U = I, so S keeps np.eye's bytes
        n, T = shape
        comp = row_compress(np.zeros(shape), np.ones(shape), cfg)
        assert comp.S.tobytes() == np.eye(n).tobytes()
        assert comp.r == 0
        k = min(n, T)
        assert comp.sv.tobytes() == np.zeros(k).tobytes()
        assert comp.Vt.shape == (k, T)
        assert comp.x_hat_minus.shape == comp.x_hat_plus.shape == (0, T)

    @staticmethod
    def _per_row_signs(X, cfg):
        """Oracle: S and Vt signed one row at a time, the leading entry of
        each compressed row (each row of S past the rank) made positive."""
        n = X.shape[0]
        U, sv, Vt = np.linalg.svd(X, full_matrices=n > X.shape[1])
        r = int(np.count_nonzero(sv > rank_cutoff(sv, X.shape, cfg)))
        S = U.T.copy()
        compressed = S @ X
        for i in range(n):
            row = compressed[i] if i < r else S[i]
            if row[np.argmax(np.abs(row))] < 0:
                S[i] = -S[i]
                if i < len(Vt):
                    Vt[i] = -Vt[i]
        return S, Vt, r

    @pytest.mark.parametrize("rank_rel_tol", [1e-9, 0.5], ids=["default", "rank_zero"])
    def test_signs_bitwise_equal_to_per_row_loop(self, rank_rel_tol):
        # wide and tall shapes (n > T takes the full SVD), ranks below n, and
        # at rank_rel_tol 0.5 rank 0 for every nonzero matrix of max(shape) >= 2
        cfg = NumericalConfig(rank_rel_tol=rank_rel_tol)
        rng = np.random.default_rng(71)
        ranks, inputs = set(), []
        for _ in range(200):
            n, T = int(rng.integers(1, 7)), int(rng.integers(1, 9))
            r_true = int(rng.integers(1, min(n, T) + 1))
            X = rng.normal(size=(n, r_true)) @ rng.normal(size=(r_true, T))
            if rng.random() < 0.2:
                X = np.round(X)  # ties in modulus: the first entry decides
            inputs.append(X)
        # zero matrices, wide, square and tall, take the same route
        inputs += [np.zeros(shape) for shape in ((2, 3), (2, 2), (3, 2))]
        for X in inputs:
            n, T = X.shape
            comp = row_compress(X, rng.normal(size=(n, T)), cfg)
            S, Vt, r = self._per_row_signs(X, cfg)
            assert comp.r == r
            assert comp.S.tobytes() == S.tobytes()
            assert comp.Vt.tobytes() == Vt.tobytes()
            ranks.add((r == 0, r < n, n > T))
        expected = {(True, True, False), (True, True, True)} if rank_rel_tol == 0.5 \
            else {(False, True, False), (False, True, True), (False, False, False),
                  (True, True, False), (True, True, True)}
        assert expected <= ranks


class TestSpectra:
    def test_zero(self, cfg):
        assert spectral_radius(np.zeros((2, 2))) == 0.0
        assert is_schur(np.zeros((2, 2)), cfg)

    def test_boundary_not_schur(self, cfg):
        assert spectral_radius(np.diag([1.0, 0.5])) == 1.0
        assert not is_schur(np.diag([1.0, 0.5]), cfg)

    def test_three_tank_closed_loop(self):
        M = THREE_TANK_A_REF + THREE_TANK_B_REF @ THREE_TANK_K_REF
        rho = spectral_radius(M)
        assert rho == pytest.approx(0.9512, abs=1e-3)
        assert rho < 1.0

    def test_empty(self):
        assert spectral_radius(np.zeros((0, 0))) == 0.0


class TestSystemPredicates:
    def test_example1_member_alpha0_beta05(self, cfg):
        A = np.array([[1.0, 0.0], [0.0, 0.5]])
        B = np.array([[1.0], [0.0]])
        assert not is_controllable(A, B, cfg)
        assert is_stabilizable(A, B, cfg)

    def test_example1_member_beta2_not_stabilizable(self, cfg):
        A = np.array([[1.0, 0.0], [0.0, 2.0]])
        B = np.array([[1.0], [0.0]])
        assert not is_stabilizable(A, B, cfg)

    def test_identity_pair(self, cfg):
        assert is_controllable(np.eye(2), np.eye(2), cfg)

    def test_controllable_implies_stabilizable(self, cfg):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            n, m = rng.integers(1, 5), rng.integers(1, 3)
            A = rng.normal(size=(n, n))
            B = rng.normal(size=(n, m))
            if is_controllable(A, B, cfg):
                assert is_stabilizable(A, B, cfg)


def _contained(M, N, cfg) -> bool:
    """``subspace_contained`` on one pair, handed N's row compression."""
    comp = row_compress(N, N, cfg)
    ok, _ = subspace_contained(M[None], N[None], comp.S[None], np.array([comp.r]), cfg)
    return bool(ok[0])


class TestSubspaceContained:
    def test_example1_images(self, cfg, example1):
        assert _contained(example1.x_plus, example1.x_minus, cfg)

    def test_e2_not_in_e1(self, cfg):
        assert not _contained(np.array([[0.0], [1.0]]), np.array([[1.0], [0.0]]), cfg)

    def test_anything_in_identity(self, cfg):
        rng = np.random.default_rng(5)
        assert _contained(rng.normal(size=(3, 4)), np.eye(3), cfg)

    def test_agrees_with_lstsq_oracle(self, cfg):
        rng = np.random.default_rng(6)
        for _ in range(100):
            M = rng.normal(size=(4, 6))
            rank_n = int(rng.integers(1, 5))
            N = rng.normal(size=(4, rank_n)) @ rng.normal(size=(rank_n, 6))
            if rng.random() < 0.5:
                # force containment by projecting M into col(N)
                Q, _ = np.linalg.qr(N)
                Q = Q[:, :np.linalg.matrix_rank(N)]
                M = Q @ (Q.T @ M)
            resid_cols = [np.linalg.norm(M[:, j] - N @ np.linalg.lstsq(N, M[:, j], rcond=None)[0])
                          for j in range(M.shape[1])]
            oracle = max(resid_cols) <= 1e-7 * max(1.0, np.linalg.norm(M, 2))
            assert _contained(M, N, cfg) == oracle

    def test_stack_decides_each_member_alone(self, cfg):
        # one call on a stack gives each member's verdict and residual
        rng = np.random.default_rng(7)
        Ms, Ns = rng.normal(size=(30, 3, 4)), rng.normal(size=(30, 3, 4))
        for i in range(30):
            rank_n = i % 4
            Ns[i] = rng.normal(size=(3, rank_n)) @ rng.normal(size=(rank_n, 4))
            if i % 2:
                Ms[i] = Ns[i] @ rng.normal(size=(4, 4))
        comps = [row_compress(N, N, cfg) for N in Ns]
        S, r = np.stack([c.S for c in comps]), np.array([c.r for c in comps])
        ok, residual = subspace_contained(Ms, Ns, S, r, cfg)
        for i in range(30):
            alone, one = subspace_contained(Ms[i:i + 1], Ns[i:i + 1], S[i:i + 1], r[i:i + 1], cfg)
            assert (ok[i], residual[i]) == (alone[0], one[0])
            assert ok[i] == projection_contained(Ms[i], Ns[i], cfg)
        assert set(ok.tolist()) == {True, False}


@pytest.fixture
def factorizations(monkeypatch):
    """Copies of the matrices handed to np.linalg.svd and np.linalg.pinv."""
    calls = {"svd": [], "pinv": []}
    for name, log in calls.items():
        def counting(M, *args, _real=getattr(np.linalg, name), _log=log, **kwargs):
            _log.append(np.array(M, copy=True))
            return _real(M, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counting)
    return calls


def _count(calls, M):
    """How many of ``calls`` factored M, a stack of one counting as its matrix."""
    def squeeze(A):
        return A[0] if A.ndim == 3 and len(A) == 1 else A
    M = squeeze(M)
    return sum(C.shape == M.shape and C.tobytes() == M.tobytes() for C in map(squeeze, calls))


class TestOneFactorizationPerMatrix:
    """Each rank, basis and pseudoinverse of a matrix is read off one SVD."""

    def test_consistent_set(self, cfg, factorizations):
        consistent_set(example1_matrices(), cfg)
        assert len(factorizations["svd"]) == 1
        assert not factorizations["pinv"]

    def test_reachable_part(self, cfg, factorizations):
        D = example1_matrices()
        comp = row_compress(D.x_minus, D.x_plus, cfg)
        factorizations["svd"].clear()
        reachable_part(D, comp, cfg)
        assert len(factorizations["svd"]) == 1
        assert not factorizations["pinv"]

    def test_sdp_solve_lifts_theta_from_the_svd_of_V(self, cfg, factorizations):
        L, P = np.array([[1.0, 2.0, 4.0]]), np.array([[2.0, 4.0, 3.0]])
        assert sdp_solve(LmiFeasibilityProblem(diag_coeff=L, offdiag_coeff=P), cfg).feasible
        assert _count(factorizations["svd"], np.vstack([L, P])) == 1
        assert not factorizations["pinv"]

    def test_plain_lmi_factors_x_minus_once(self, cfg, factorizations):
        # the rank test and the pseudoinverse of the symmetry squeeze share it
        D = build_data_matrices(simulate(
            LtiSystem(A=[[1.2, 0.5], [0.0, 0.8]], B=[[0.0], [1.0]]),
            np.array([1.0, -1.0]), np.array([[1.0], [-2.0], [0.5], [3.0]])))
        assert solve_plain_lmi(D, cfg).feasible
        assert _count(factorizations["svd"], D.x_minus) == 1
        assert not factorizations["pinv"]

    def test_stabilizability_prior_report(self, cfg, factorizations):
        D = example1_matrices()
        report = check_stabilizability_prior(D, cfg)
        # rank deficient: image inclusion is read off row_compress's S, and
        # check_identification takes the report's rank of the stack
        assert _count(factorizations["svd"], D.x_minus) == 1
        assert _count(factorizations["svd"], D.stacked()) == 1
        margin = report.diagnostics["x_minus_rank_margin"]["singular_values"]
        assert margin == row_compress(D.x_minus, D.x_plus, cfg).sv.tolist()

    def test_full_rank_report_factors_x_minus_once(self, cfg, factorizations):
        # the pencil reads X_minus^+ off the row compression's SVD
        D = build_data_matrices(simulate(
            LtiSystem(A=[[1.2, 0.5], [0.0, 0.8]], B=[[0.0], [1.0]]),
            np.array([1.0, -1.0]), np.array([[1.0], [-2.0], [0.5], [3.0]])))
        report = check_stabilizability_prior(D, cfg)
        assert report.rank_x_minus == D.n and report.stabilization
        assert _count(factorizations["svd"], D.x_minus) == 1
        assert _count(factorizations["svd"], D.stacked()) == 1
        assert not factorizations["pinv"]

    @pytest.mark.parametrize("kind", ["rank_deficient", "mixed", "chunk"])
    def test_montecarlo_scenario(self, cfg, factorizations, monkeypatch, kind):
        # a chunk of three-tank Monte Carlo scenarios factors the zero-padded
        # X_minus windows of all its scenarios once and their [X_minus; U_minus]
        # windows once, whichever branch each window takes, and factors no
        # window alone; image inclusion is decided by one subspace_contained
        # call on all the X_plus windows, read off the stack's compression.
        # T = 1, 2 are rank deficient in
        # every scenario; the longer windows are full rank unless the third
        # tank starts empty
        mc = MonteCarloConfig(system=zoh_discretize(three_tank_model()),
                              scenarios=10, seed=3, t_list=(1, 2, 3, 4, 10, 100))
        runs = [build_data_matrices(scenario_trajectory(mc, i)) for i in range(mc.scenarios)]
        full_rank = [numerical_rank(run.x_minus, cfg) == run.n for run in runs]
        assert set(full_rank) == {False, True}
        indices = {"rank_deficient": [full_rank.index(False)],
                   "mixed": [full_rank.index(True)], "chunk": range(mc.scenarios)}[kind]

        def windows(matrices):
            return np.stack([np.where(np.arange(100) < T, M, 0.0)
                             for M in matrices for T in mc.t_list])
        contained = []

        def recording(M, *args, _real=subspace_contained):
            contained.append(M)
            return _real(M, *args)
        monkeypatch.setattr(ddstab.linalg, "subspace_contained", recording)
        monkeypatch.setattr(ddstab.informativity, "subspace_contained", recording)
        factorizations["svd"].clear()
        verdicts = _evaluate_scenarios(mc, indices, cfg)
        assert [(v.scenario, v.T) for v in verdicts] == [(i, T) for i in indices
                                                          for T in mc.t_list]
        assert _count(factorizations["svd"], windows(runs[i].x_minus for i in indices)) == 1
        assert _count(factorizations["svd"], windows(runs[i].stacked() for i in indices)) == 1
        assert all(M.ndim == 3 for M in factorizations["svd"])
        assert len(contained) == 1
        assert _count(contained, windows(runs[i].x_plus for i in indices)) == 1
        assert not factorizations["pinv"]

    def test_pencils_only_outside_the_margin(self, cfg, factorizations):
        # a Schur A leaves no eigenvalue to test, so no pencil is factored;
        # in a stack, only the members with one on or outside the margin
        B = np.array([[0.0], [1.0]])
        assert is_stabilizable(np.diag([0.5, -0.3]), B, cfg)
        assert not factorizations["svd"]
        A = np.stack([np.diag([0.5, -0.3]), np.diag([1.5, 0.2])])
        assert is_stabilizable(A, np.stack([B, B]), cfg).tolist() == [True, False]
        assert [M.shape for M in factorizations["svd"]] == [(1, 2, 3)]

    @pytest.mark.parametrize("data", ["example1", "three_tank"])
    def test_synthesize_reads_the_report(self, cfg, factorizations, data):
        # the gain step reads the report's compression and verdicts, so it
        # factors neither X_minus nor [X_minus; U_minus] nor S[r:] X_plus
        # again: the report's three SVDs and the solve's three are all
        D = example1_matrices() if data == "example1" else three_tank_compressed()[0]
        factorizations["svd"].clear()
        report = check_stabilizability_prior(D, cfg)
        assert report.branch is Branch.RANK_DEFICIENT
        built = len(factorizations["svd"])
        factorizations["svd"].clear()
        synthesize(D, cfg, report)
        S, r = report.compression.S, report.rank_x_minus
        for M in (D.x_minus, D.stacked(), S[None, r:] @ D.x_plus[None]):
            assert not _count(factorizations["svd"], M)
        assert built + len(factorizations["svd"]) == 6

    def test_verify_builds_one_report(self, factorizations, tmp_path):
        # the decomposition check reads the report that cmd_verify builds
        D = example1_matrices()
        data, gain = tmp_path / "data.json", tmp_path / "gain.json"
        data.write_text(trajectory_to_json(example1_trajectory()))
        gain.write_text(json.dumps({"K": [[-1.0, 0.0]], "provenance": "stabilizability_prior"}))
        assert main(["verify", str(data), str(gain), "--samples", "2",
                     "--out", str(tmp_path / "v")]) == 0
        assert _count(factorizations["svd"], D.x_minus) == 1


class TestMatrixExponential:
    def test_zero(self):
        assert np.allclose(matrix_exponential(np.zeros((3, 3))), np.eye(3))

    def test_scalar(self):
        assert matrix_exponential(np.array([[-0.05]]))[0, 0] == pytest.approx(np.exp(-0.05), rel=1e-12)

    def test_three_tank(self):
        Ac = np.array([[-0.6, 0.5, 0.0], [0.5, -0.5, 0.5], [0.0, 0.0, -0.5]])
        assert np.abs(matrix_exponential(0.1 * Ac) - THREE_TANK_A_REF).max() <= 1e-4

    # 1-norms in each Pade branch: degree 3, 5, 7 and 9 up to theta_9 = 2.1,
    # then degree 13 unscaled up to theta_13 = 5.4 and scaled beyond, with
    # the largest relative Frobenius distance to scipy's expm allowed there
    @pytest.mark.parametrize("norm, bound", [
        (1e-3, 1e-14), (1e-2, 1e-14), (0.2, 1e-14), (0.9, 1e-14), (2.0, 1e-14),
        (5.0, 4e-12), (10.0, 1e-11), (100.0, 1e-10), (1e3, 1e-10)])
    def test_matches_scipy(self, norm, bound):
        expm = pytest.importorskip("scipy.linalg").expm
        rng = np.random.default_rng(int(1e3 * norm))
        # past 1-norm 100, a skew-symmetric matrix less a small nonnegative
        # diagonal: M + M^T <= 0 keeps e^M within norm 1, and the small
        # diagonal keeps it off zero
        for n in range(1 if norm <= 100.0 else 2, 7):
            for _ in range(10):
                G = rng.normal(size=(n, n))
                if norm > 100.0:
                    G = G - G.T - 0.1 * np.diag(np.abs(rng.normal(size=n)))
                M = norm * G / np.abs(G).sum(axis=0).max()
                E = expm(M)
                assert 0.0 < np.linalg.norm(E) < np.inf
                assert np.linalg.norm(matrix_exponential(M) - E) <= bound * np.linalg.norm(E)

    @pytest.mark.parametrize("M", [np.ones((2, 3)), np.array([[0.0, np.nan], [1.0, 0.0]]),
                                   np.array([[np.inf]])])
    def test_not_square_or_not_finite(self, M):
        with pytest.raises(ValueError):
            matrix_exponential(M)

    def test_empty(self):
        assert matrix_exponential(np.zeros((0, 0))).shape == (0, 0)


def test_config_invariants():
    with pytest.raises(ValueError):
        NumericalConfig(schur_margin=1.5)
    with pytest.raises(ValueError):
        NumericalConfig(psd_margin=0.0)
    with pytest.raises(ValueError):
        NumericalConfig(rank_rel_tol=-1e-9)
    for name in ("rank_rel_tol", "subspace_tol", "schur_margin", "psd_margin", "equality_tol"):
        for value in (np.inf, np.nan):
            with pytest.raises(ValueError, match=name):
                NumericalConfig(**{name: value})
    # rank_rel_tol 5 would rank I_3 as 0; subspace_tol 1e10 would call
    # [0; 1] contained in span([1; 0])
    for name in ("rank_rel_tol", "subspace_tol", "schur_margin"):
        for value in (1.0, 5.0, 1e10):
            with pytest.raises(ValueError, match=f"{name} must be < 1"):
                NumericalConfig(**{name: value})
        assert getattr(NumericalConfig(**{name: 0.999}), name) == 0.999


def test_controllability_matrix_shape():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([[0.0], [1.0]])
    C = controllability_matrix(A, B)
    assert C.shape == (2, 2)
    assert np.allclose(C, [[0.0, 1.0], [1.0, 0.0]])


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def per_eigenvalue_stabilizable(A, B, cfg) -> bool:
    """Oracle: the Hautus test one eigenvalue and one pencil at a time, each
    pencil ranked relative to ||[A B]||_F + |lambda|."""
    n = A.shape[0]
    size = np.linalg.norm(np.hstack([A, B]))
    for lam in np.linalg.eigvals(A):
        if abs(lam) >= 1.0 - cfg.schur_margin:
            pencil = np.hstack([A - lam * np.eye(n), B.astype(complex)])
            cutoff = cfg.rank_rel_tol * max(pencil.shape) * (size + abs(lam))
            if np.count_nonzero(np.linalg.svd(pencil, compute_uv=False) > cutoff) < n:
                return False
    return True


def concatenated_pencils(A, B, cfg):
    """Oracle: the stacked Hautus pencils as np.concatenate builds them, with
    the verdicts read off their singular values, and the eigenvalues kept."""
    n = A.shape[-1]
    lams = np.linalg.eigvals(A)
    k, j = np.nonzero(np.hypot(lams.real, lams.imag) >= 1.0 - cfg.schur_margin)
    lam = lams[k, j][:, None, None]
    pencils = np.concatenate([A[k] - lam * np.eye(n), B[k].astype(complex)], axis=-1)
    sv = np.linalg.svd(pencils, compute_uv=False)
    size = np.linalg.norm(np.concatenate([A, B], axis=-1), axis=(1, 2))
    cutoff = cfg.rank_rel_tol * max(pencils.shape[1:]) * (size[k] + np.abs(lams[k, j]))
    ok = np.ones(len(A), dtype=bool)
    ok[k[np.count_nonzero(sv > cutoff[:, None], axis=-1) < n]] = False
    return pencils, ok, lams[k, j]


def _rotation(radius, angle):
    c, s = radius * np.cos(angle), radius * np.sin(angle)
    return np.array([[c, -s], [s, c]])


class TestStackedKernels:
    """An (N, k, k) stack gives each member's own result, bit for bit."""

    @staticmethod
    def stacks(rng, N, n, m):
        A = rng.normal(size=(N, n, n))
        B = rng.normal(size=(N, n, m))
        if n >= 2:  # a rotation block: complex eigenvalues in some members only
            A[::3, :2, :2] = [[0.0, -1.2], [1.2, 0.0]]
        return A, B

    def test_spectral_radius(self):
        rng = np.random.default_rng(60)
        for n in range(1, 6):
            A, _ = self.stacks(rng, 7, n, 1)
            rho = spectral_radius(A)
            assert rho.shape == (7,)
            for i in range(7):
                single = spectral_radius(A[i])
                assert type(single) is float
                assert _bits(rho[i]) == _bits(single)

    def test_controllability_matrix(self):
        rng = np.random.default_rng(61)
        for n in range(1, 6):
            for m in (1, 2):
                A, B = self.stacks(rng, 5, n, m)
                C = controllability_matrix(A, B)
                assert C.shape == (5, n, n * m)
                for i in range(5):
                    assert _bits(C[i]) == _bits(controllability_matrix(A[i], B[i]))

    def test_empty_matrices(self):
        assert type(spectral_radius(np.zeros((0, 0)))) is float
        rho = spectral_radius(np.zeros((3, 0, 0)))
        assert rho.shape == (3,) and not rho.any()
        assert controllability_matrix(np.zeros((0, 0)), np.zeros((0, 1))).shape == (0, 0)
        assert controllability_matrix(np.zeros((3, 0, 0)),
                                      np.zeros((3, 0, 1))).shape == (3, 0, 0)

    def test_empty_stack(self):
        assert spectral_radius(np.zeros((0, 3, 3))).shape == (0,)
        assert controllability_matrix(np.zeros((0, 3, 3)),
                                      np.zeros((0, 3, 2))).shape == (0, 3, 6)

    def check_is_stabilizable(self, A, B, cfg):
        ok = is_stabilizable(A, B, cfg)
        assert ok.dtype == bool and ok.shape == (len(A),)
        for i in range(len(A)):
            single = is_stabilizable(A[i], B[i], cfg)
            assert type(single) is bool
            assert ok[i] == single == per_eigenvalue_stabilizable(A[i], B[i], cfg)
        return ok

    def test_is_stabilizable(self, cfg):
        rng = np.random.default_rng(62)
        verdicts = []
        for n in range(1, 6):
            for m in (1, 2):
                A, B = self.stacks(rng, 9, n, m)
                # every other member hides an uncontrollable mode in its last
                # state: marginal, unstable or stable
                for i in range(1, 9, 2):
                    A[i, -1] = 0.0
                    A[i, -1, -1] = rng.choice([1.0 - cfg.schur_margin, 1.0, -1.0,
                                               1.5, 0.5])
                    B[i, -1] = 0.0
                verdicts.extend(self.check_is_stabilizable(A, B, cfg))
        assert any(verdicts) and not all(verdicts)

    def test_is_stabilizable_at_the_margin(self, cfg):
        edge = 1.0 - cfg.schur_margin
        inside = np.nextafter(edge, 0.0)
        A = np.array([np.diag([edge, 0.5]), np.diag([inside, 0.5]),
                      np.diag([-edge, 0.5]), np.diag([0.5, edge])])
        B = np.array([[[0.0], [1.0]]] * 3 + [[[1.0], [0.0]]])
        assert np.linalg.eigvals(A[0])[0] == edge
        ok = self.check_is_stabilizable(A, B, cfg)
        assert ok.tolist() == [False, True, False, False]

    def test_is_stabilizable_complex_pairs(self, cfg):
        # an unstable rotation: its conjugate pair is uncontrollable from
        # [0; 0; 1], controllable from [1; 0; 1]
        A = np.zeros((4, 3, 3))
        A[:, :2, :2] = _rotation(1.1, 0.7)
        A[:, 2, 2] = 0.4
        # a pair inside the margin band is tested as if it were on the circle
        A[2:, :2, :2] = _rotation(1.0 - cfg.schur_margin / 2, 2.1)
        B = np.array([[[0.0], [0.0], [1.0]], [[1.0], [0.0], [1.0]]] * 2)
        lams = np.linalg.eigvals(A[0])
        assert np.count_nonzero(lams.imag) == 2
        ok = self.check_is_stabilizable(A, B, cfg)
        assert ok.tolist() == [False, True, False, True]

    def test_is_stabilizable_cutoff_per_pencil(self, cfg):
        # a large member next to one whose pencil has a small but clear
        # singular value: the cutoff must come from each pencil's own member
        A = np.array([np.diag([1e6, 0.5]), np.diag([2.0, 0.5])])
        B = np.array([[[1.0], [0.0]], [[1e-4], [0.0]]])
        ok = self.check_is_stabilizable(A, B, cfg)
        assert ok.tolist() == [True, True]

    def test_is_stabilizable_pencils_match_concatenate(self, cfg, factorizations):
        # the pencils built in place equal the concatenation of A - lambda*I
        # and B byte for byte, and so do the verdicts read off them (these
        # A hold no -0.0, which lambda times the identity's zeros could make
        # +0.0 in the concatenated pencil)
        rng = np.random.default_rng(64)
        edge = 1.0 - cfg.schur_margin
        at_edge = 0
        for n in range(1, 6):
            for m in (1, 2):
                A, B = self.stacks(rng, 40, n, m)
                for i in range(1, 40, 2):
                    A[i, -1] = 0.0
                    A[i, -1, -1] = rng.choice([edge, 1.0, -1.0, 1.5, 0.5])
                    B[i, -1] = 0.0
                factorizations["svd"].clear()
                ok = is_stabilizable(A, B, cfg)
                (pencils,) = factorizations["svd"]
                want_pencils, want_ok, lams = concatenated_pencils(A, B, cfg)
                assert pencils.shape == want_pencils.shape
                assert pencils.tobytes() == want_pencils.tobytes()
                assert ok.tobytes() == want_ok.tobytes()
                at_edge += np.count_nonzero(lams == edge)
                if n >= 2:
                    assert np.count_nonzero(lams.imag) > 0
        assert at_edge > 0

    def test_negligible_input_leaves_an_unstable_mode(self, cfg):
        # a one-row pencil [a - lambda, b] is ranked against |a| + |b| + |lambda|,
        # not against its own largest singular value |b|
        assert not is_stabilizable([[2.0]], [[1e-17]], cfg)
        assert not is_stabilizable([[-1.5]], [[0.0, 1e-14]], cfg)
        assert not is_stabilizable(np.diag([2.0, 0.5]), [[1e-17], [1.0]], cfg)
        assert is_stabilizable([[2.0]], [[1e-6]], cfg)
        assert is_stabilizable([[0.5]], [[1e-17]], cfg)
        A = np.array([[[2.0]], [[2.0]], [[0.5]]])
        B = np.array([[[1e-17]], [[1.0]], [[1e-17]]])
        assert self.check_is_stabilizable(A, B, cfg).tolist() == [False, True, True]

    def test_is_stabilizable_with_shrunk_inputs(self, cfg):
        # B scaled by 10^-20 .. 1 puts pencils on both sides of the cutoff;
        # the stacked verdicts equal the per-eigenvalue loop on every member
        rng = np.random.default_rng(65)
        for n in range(1, 6):
            for m in (1, 2):
                A, B = self.stacks(rng, 60, n, m)
                A *= 1.5 / np.abs(np.linalg.eigvals(A)).max(axis=-1)[:, None, None]
                B *= 10.0 ** rng.uniform(-20, 0, size=(60, 1, 1))
                ok = self.check_is_stabilizable(A, B, cfg)
                if n == 1:  # an unstable scalar with |b| below the cutoff
                    tiny = np.abs(B[:, 0]).max(axis=-1) < 1e-12
                    assert tiny.any() and not ok[tiny].any()

    def test_is_stabilizable_empty(self, cfg):
        ok = is_stabilizable(np.zeros((0, 3, 3)), np.zeros((0, 3, 2)), cfg)
        assert ok.dtype == bool and ok.shape == (0,)
        assert is_stabilizable(np.zeros((0, 0)), np.zeros((0, 1)), cfg) is True
        assert is_stabilizable(np.zeros((2, 0, 0)), np.zeros((2, 0, 1)), cfg).all()

    def test_rank_cutoff_of_a_stack(self, cfg):
        # zero and empty spectra are cut at 0, which no singular value exceeds
        rng = np.random.default_rng(63)
        for k in range(5):
            sv = np.sort(np.abs(rng.normal(size=(6, k))), axis=1)[:, ::-1].copy()
            sv[2] = 0.0
            cut = rank_cutoff(sv, (k, 5), cfg)
            assert cut.shape == (6,)
            for row, c in zip(sv, cut):
                assert _bits(c) == _bits(rank_cutoff(row, (k, 5), cfg))
                assert (c == 0.0) == (not row.any())

    def test_rank_cutoff_with_member_column_counts(self, cfg):
        # zero-padded members are ranked at their own shape, not the padded one
        rng = np.random.default_rng(64)
        sv = np.sort(np.abs(rng.normal(size=(8, 3))), axis=1)[:, ::-1].copy()
        sv[5] = 0.0
        cols = np.array([1, 2, 3, 4, 7, 9, 2, 30])
        cut = rank_cutoff(sv, (3, cols), cfg)
        assert cut.shape == (8,)
        for row, T, c in zip(sv, cols, cut):
            assert _bits(c) == _bits(rank_cutoff(row, (3, int(T)), cfg))
            assert _bits(c) == _bits(rank_cutoff(row[None], (3, int(T)), cfg)[0])


def per_eigenvalue_pencil(L, P, cfg) -> bool:
    """Oracle: the rank of L from its SVD, F = P pinv(L), then one eigenvalue
    and one pencil P - lambda*L at a time, each ranked relative to
    ||P||_F + |lambda| sigma_1(L)."""
    k, T = L.shape
    sv = np.linalg.svd(L, compute_uv=False)
    if np.count_nonzero(sv > cfg.rank_rel_tol * max(k, T) * sv[0]) < k or not sv[0]:
        return False
    size = np.linalg.norm(P)
    for lam in np.linalg.eigvals(P @ np.linalg.pinv(L)):
        if abs(lam) >= 1.0 - cfg.schur_margin:
            pencil = P - lam * L
            cutoff = cfg.rank_rel_tol * max(k, T) * (size + abs(lam) * sv[0])
            if np.count_nonzero(np.linalg.svd(pencil, compute_uv=False) > cutoff) < k:
                return False
    return True


class TestPencilFullRank:
    """An (N, k, T) stack of data pencils gives each member's own verdict,
    and that verdict is the per-eigenvalue loop's."""

    @staticmethod
    def data(rng, N, n, m, T, cfg):
        """(X_minus, X_plus) of N runs; every other system hides its last
        state from the input, at a mode inside, on or outside the circle, and
        every fifth run starts with that state at 0, so X_minus drops rank."""
        L, P = np.empty((N, n, T)), np.empty((N, n, T))
        for i in range(N):
            A = rng.normal(size=(n, n))
            A *= rng.uniform(0.5, 1.5) / np.abs(np.linalg.eigvals(A)).max()
            B = rng.normal(size=(n, m))
            x = rng.normal(size=n)
            if i % 2 and n >= 2:
                A[-1, :-1] = 0.0
                A[-1, -1] = rng.choice([1.0 - 2 * cfg.schur_margin, 1.0, -1.0, 1.5, 0.5])
                B[-1] = 0.0
                if i % 5 == 1:
                    x[-1] = 0.0
            states = [x]
            for _ in range(T):
                states.append(A @ states[-1] + B @ rng.normal(size=m))
            L[i] = np.array(states[:-1]).T
            P[i] = np.array(states[1:]).T
        return L, P

    def check(self, L, P, cfg):
        ok = pencil_full_rank(L, P, cfg)
        assert ok.dtype == bool and ok.shape == (len(L),)
        for i in range(len(L)):
            single = pencil_full_rank(L[i], P[i], cfg)
            assert type(single) is bool
            assert ok[i] == single == per_eigenvalue_pencil(L[i], P[i], cfg)
        return ok

    def test_stacks_match_single_members_and_the_loop(self, cfg):
        rng = np.random.default_rng(66)
        verdicts = []
        for n in range(1, 6):
            for m in (1, 2):
                for T in (n, n + m, 2 * (n + m) + 2):
                    L, P = self.data(rng, 20, n, m, T, cfg)
                    verdicts.extend(self.check(L, P, cfg))
        assert any(verdicts) and not all(verdicts)

    def test_orthonormal_rows(self, cfg):
        # ([I 0], [A B]) with its columns permuted and negated: L keeps
        # orthonormal rows, F is still A, and the verdict is (A, B)'s
        rng = np.random.default_rng(67)
        for n in range(1, 5):
            for m in (1, 2):
                A, B = TestStackedKernels.stacks(rng, 12, n, m)
                A[1::2, -1] = 0.0
                A[1::2, -1, -1] = rng.choice([1.0, -1.5, 0.5], size=6)
                B[1::2, -1] = 0.0
                mix = np.eye(n + m)[rng.permutation(n + m)] * rng.choice([-1.0, 1.0], n + m)
                L = np.hstack([np.eye(n), np.zeros((n, m))]) @ mix
                ok = self.check(np.broadcast_to(L, (12, n, n + m)),
                                np.concatenate([A, B], axis=-1) @ mix, cfg)
                assert ok.tolist() == is_stabilizable(A, B, cfg).tolist()

    @staticmethod
    def padded(M, width):
        return np.concatenate([M, np.zeros(M.shape[:-1] + (width - M.shape[-1],))], axis=-1)

    def check_padded(self, L, P, cols, cfg):
        """Members i of (L, P) cut to cols[i] columns and zero-padded back to
        the common width: each padded verdict is the unpadded member's."""
        width = L.shape[-1]
        Lp = np.stack([self.padded(L[i, :, :T], width) for i, T in enumerate(cols)])
        Pp = np.stack([self.padded(P[i, :, :T], width) for i, T in enumerate(cols)])
        ok = pencil_full_rank(Lp, Pp, cfg, cols=cols)
        assert ok.dtype == bool and ok.shape == (len(L),)
        for i, T in enumerate(cols):
            assert ok[i] == pencil_full_rank(L[i, :, :T], P[i, :, :T], cfg)
        # with the padded stack's own thin SVD and ranks handed in, as
        # decide_verdicts does
        U, sv, Vt = np.linalg.svd(Lp, full_matrices=False)
        r = (sv > rank_cutoff(sv, (L.shape[1], cols), cfg)[:, None]).sum(axis=1)
        factors = (U.transpose(0, 2, 1), sv, Vt, r)
        assert ok.tolist() == pencil_full_rank(Lp, Pp, cfg, factors, cols).tolist()
        return ok

    def test_zero_padded_stacks_match_unpadded_members(self, cfg):
        rng = np.random.default_rng(68)
        verdicts = []
        for n in range(1, 5):
            for m in (1, 2):
                width = 3 * (n + m) + 2
                L, P = self.data(rng, 24, n, m, width, cfg)
                cols = rng.integers(max(n - 1, 1), width + 1, size=24)
                verdicts.extend(self.check_padded(L, P, cols, cfg))
        assert any(verdicts) and not all(verdicts)

    def test_zero_padded_stabilizability_pencils(self, cfg):
        # ([I 0], [A B]) padded with zero columns: the verdict is still (A, B)'s
        rng = np.random.default_rng(69)
        for n in range(1, 5):
            for m in (1, 2):
                A, B = TestStackedKernels.stacks(rng, 12, n, m)
                A[1::2, -1] = 0.0
                A[1::2, -1, -1] = rng.choice([1.0, -1.5, 0.5], size=6)
                B[1::2, -1] = 0.0
                L = np.broadcast_to(np.hstack([np.eye(n), np.zeros((n, m))]), (12, n, n + m))
                P = np.concatenate([A, B], axis=-1)
                width = n + m + 3
                ok = self.check_padded(self.padded(L, width), self.padded(P, width),
                                       np.full(12, n + m), cfg)
                assert ok.tolist() == is_stabilizable(A, B, cfg).tolist()

    def test_rank_deficient_l_fails(self, cfg):
        L = np.array([[[1.0, 2.0, 4.0], [0.0, 0.0, 0.0]], np.zeros((2, 3))])
        P = np.array([[[2.0, 4.0, 3.0], [0.0, 0.0, 0.0]], np.zeros((2, 3))])
        assert self.check(L, P, cfg).tolist() == [False, False]
        # fewer samples than states: L cannot have full row rank
        assert not pencil_full_rank(np.ones((2, 1)), np.ones((2, 1)), cfg)
        assert pencil_full_rank(np.ones((3, 2, 1)), np.ones((3, 2, 1)), cfg).tolist() \
            == [False] * 3

    @pytest.mark.parametrize("rank_rel_tol", [0.5, 0.2], ids=["rank_zero", "full_rank"])
    def test_unit_spectrum_ranked_at_the_cutoff(self, rank_rel_tol):
        # X_minus with orthonormal rows is ranked at the shared cutoff, as the
        # report ranks it: 0 at 0.5, full at 0.2 (where F = 0.5 I is Schur)
        cfg = NumericalConfig(rank_rel_tol=rank_rel_tol)
        cases = [DataMatrices(u_minus=np.array([[0.0, 1.0]]),
                              x_minus=np.array([[1.0, 0.0]]), x_plus=np.array([[0.5, 0.0]])),
                 DataMatrices(u_minus=np.array([[1.0, 2.0]]),
                              x_minus=np.eye(2), x_plus=0.5 * np.eye(2))]
        expected = rank_rel_tol == 0.2
        for D in cases:
            report = check_stabilizability_prior(D, cfg)
            assert report.rank_x_minus == (D.n if expected else 0)
            assert report.stabilization is expected
            assert pencil_full_rank(D.x_minus, D.x_plus, cfg) is expected
            # one stack, beside a zero member that no tolerance ranks full
            L = np.stack([D.x_minus, np.zeros_like(D.x_minus), D.x_minus])
            assert pencil_full_rank(L, 0.5 * L, cfg).tolist() == [expected, False, expected]

    def test_empty(self, cfg):
        assert pencil_full_rank(np.zeros((0, 3)), np.zeros((0, 3)), cfg) is True
        ok = pencil_full_rank(np.zeros((0, 2, 3)), np.zeros((0, 2, 3)), cfg)
        assert ok.dtype == bool and ok.shape == (0,)


class TestOneBodyPerPredicate:
    """Each rank and spectral predicate decides a matrix as a stack of one: a
    stack's answers equal its members' single-matrix answers, zero and empty
    members included."""

    @staticmethod
    def zero_members(rng, M):
        M = M.copy()
        M[rng.choice(len(M), size=len(M) // 4 + 1, replace=False)] = 0.0
        return M

    def test_numerical_rank(self, cfg):
        rng = np.random.default_rng(70)
        for k in range(1, 5):
            for T in range(1, 7):
                ranks = rng.integers(0, min(k, T) + 1, size=12)
                M = np.stack([rng.normal(size=(k, q)) @ rng.normal(size=(q, T)) for q in ranks])
                M = self.zero_members(rng, M)
                got = numerical_rank(M, cfg)
                assert got.shape == (12,)
                for i in range(12):
                    single = numerical_rank(M[i], cfg)
                    assert type(single) is int
                    assert got[i] == single
                assert (got <= ranks).all() and (got < ranks).any()

    def test_numerical_rank_with_member_column_counts(self, cfg):
        rng = np.random.default_rng(71)
        for k in range(1, 5):
            width = 2 * k + 3
            M = self.zero_members(rng, rng.normal(size=(16, k, width)))
            M[1::3, -1] = M[1::3, 0]  # rank-deficient members
            cols = rng.integers(0, width + 1, size=16)
            padded = np.stack([TestPencilFullRank.padded(M[i, :, :T], width)
                               for i, T in enumerate(cols)])
            got = numerical_rank(padded, cfg, cols)
            assert got.shape == (16,)
            for i, T in enumerate(cols):
                assert got[i] == numerical_rank(M[i, :, :T], cfg)

    def test_is_schur(self, cfg):
        rng = np.random.default_rng(73)
        edge = 1.0 - cfg.schur_margin
        for n in range(5):
            A = self.zero_members(rng, rng.normal(size=(12, n, n)))
            rho = spectral_radius(A)
            A *= (rng.uniform(0.5, 1.5, size=12) / np.where(rho > 0.0, rho, 1.0))[:, None, None]
            if n:
                A[1] = np.diag([edge] + [0.5] * (n - 1))
                A[2] = np.diag([np.nextafter(edge, 2.0)] + [0.5] * (n - 1))
            got = is_schur(A, cfg)
            assert got.dtype == bool and got.shape == (12,)
            for i in range(12):
                single = is_schur(A[i], cfg)
                assert type(single) is bool
                assert got[i] == single
            if n:
                assert got[1] and not got[2]

    def test_is_controllable(self, cfg):
        rng = np.random.default_rng(74)
        verdicts = []
        for n in range(1, 5):
            for m in (1, 2):
                A, B = TestStackedKernels.stacks(rng, 12, n, m)
                A = self.zero_members(rng, A)
                A[1::3, -1, :-1] = 0.0  # the last state is then unreachable
                B[1::3, -1] = 0.0
                got = is_controllable(A, B, cfg)
                assert got.dtype == bool and got.shape == (12,)
                for i in range(12):
                    single = is_controllable(A[i], B[i], cfg)
                    assert type(single) is bool
                    assert got[i] == single
                verdicts.extend(got)
        assert any(verdicts) and not all(verdicts)

    def test_is_controllable_compares_ranks_with_the_state_dimension(self, cfg):
        # five controllable 2-state pairs: each rank is n = 2, not the stack length
        A = np.broadcast_to([[0.0, 1.0], [0.0, 0.0]], (5, 2, 2))
        B = np.broadcast_to([[0.0], [1.0]], (5, 2, 1))
        assert is_controllable(A, B, cfg).tolist() == [True] * 5
        A = np.array([[[0.0, 1.0], [0.0, 0.0]], np.diag([1.0, 0.5]), np.eye(2),
                      np.diag([0.5, 2.0])])
        B = np.array([[[0.0], [1.0]], [[1.0], [0.0]], [[1.0], [1.0]], [[1.0], [1.0]]])
        single = [is_controllable(a, b, cfg) for a, b in zip(A, B)]
        assert single == [True, False, False, True]
        assert is_controllable(A, B, cfg).tolist() == single

    def test_is_stabilizable_agrees_with_the_own_svd_route(self, cfg):
        # the factors is_stabilizable hands in, those of [I 0], give the
        # verdicts pencil_full_rank reaches through its own SVD of [I 0];
        # every third member has B = 0, and others hide a mode within 1e-7
        # of the margin, on either side of it
        rng = np.random.default_rng(75)
        edge = 1.0 - cfg.schur_margin
        verdicts = []
        for n in range(1, 5):
            for m in (1, 2):
                A, B = TestStackedKernels.stacks(rng, 24, n, m)
                A = self.zero_members(rng, A)
                B[::3] = 0.0
                A[1::3, -1, :-1] = 0.0
                A[1::3, -1, -1] = rng.choice([-1.0, 1.0], size=8) * (
                    edge + rng.uniform(-1e-7, 1e-7, size=8))
                B[1::3, -1] = 0.0
                L = np.concatenate([np.broadcast_to(np.eye(n), A.shape), np.zeros(B.shape)],
                                   axis=-1)
                P = np.concatenate([A, B], axis=-1)
                got = is_stabilizable(A, B, cfg)
                assert got.tolist() == pencil_full_rank(L, P, cfg).tolist()
                for i in range(24):
                    single = is_stabilizable(A[i], B[i], cfg)
                    assert type(single) is bool
                    assert got[i] == single == pencil_full_rank(L[i], P[i], cfg)
                verdicts.extend(got[1::3])
        assert any(verdicts) and not all(verdicts)

    @pytest.mark.parametrize("rank_rel_tol", [0.5, 0.2])
    def test_is_stabilizable_at_coarse_rank_tolerance(self, rank_rel_tol):
        # is_stabilizable hands the kernel [I 0] with its exact rank n, so
        # every verdict is the per-eigenvalue oracle's however coarse the
        # tolerance. The kernel's own SVD ranks [I 0] at the shared cutoff,
        # which reaches its unit singular values from n + m = 2 on at 0.5
        # and at n + m = 5 at 0.2: there that route finds L rank-deficient
        cfg = NumericalConfig(rank_rel_tol=rank_rel_tol)
        assert is_stabilizable(np.array([[0.5]]), np.array([[0.0]]), cfg) is True
        rng = np.random.default_rng(76)
        verdicts = []
        for n in range(1, 5):
            for m in (1, 2):
                A, B = TestStackedKernels.stacks(rng, 24, n, m)
                # Schur even members, stabilizable whatever B is
                A[::2] *= (rng.uniform(0.1, 0.9, size=12) / spectral_radius(A[::2]))[:, None, None]
                B[::3] = 0.0
                L = np.concatenate([np.broadcast_to(np.eye(n), A.shape), np.zeros(B.shape)],
                                   axis=-1)
                P = np.concatenate([A, B], axis=-1)
                got = is_stabilizable(A, B, cfg)
                for i in range(24):
                    single = is_stabilizable(A[i], B[i], cfg)
                    assert type(single) is bool
                    assert got[i] == single == per_eigenvalue_stabilizable(A[i], B[i], cfg)
                assert got[::2].all()
                verdicts.extend(got)
                full = rank_rel_tol * (n + m) < 1.0
                assert numerical_rank(L[0], cfg) == (n if full else 0)
                assert pencil_full_rank(L, P, cfg).tolist() == (got & full).tolist()
        assert not all(verdicts)

    def test_empty_inputs_have_rank_zero(self, cfg):
        for shape in ((0, 4), (3, 0), (0, 0)):
            r = numerical_rank(np.zeros(shape), cfg)
            assert type(r) is int and r == 0
        for shape in ((5, 0, 4), (5, 3, 0), (0, 3, 4)):
            r = numerical_rank(np.zeros(shape), cfg)
            assert r.shape == shape[:1] and not r.any()
        r = numerical_rank(np.zeros((3, 0, 4)), cfg, np.array([4, 2, 0]))
        assert r.shape == (3,) and not r.any()
        assert rank_cutoff(np.zeros(0), (0, 4), cfg) == 0.0
        assert rank_cutoff(np.zeros((3, 0)), (3, 0), cfg).tolist() == [0.0] * 3
        assert is_controllable(np.zeros((0, 0)), np.zeros((0, 2)), cfg) is True
        assert is_controllable(np.zeros((3, 0, 0)), np.zeros((3, 0, 2)), cfg).all()
