import numpy as np
import pytest

from ddstab import (NumericalConfig, is_controllable, is_schur, is_stabilizable,
                    matrix_exponential, numerical_rank, pinv, row_compress,
                    spectral_radius, subspace_contained)
from ddstab import (LtiSystem, build_data_matrices, check_stabilizability_prior,
                    consistent_set, reachable_part, sdp_solve, simulate, solve_plain_lmi)
from ddstab.linalg import controllability_matrix, rank_cutoff
from ddstab.synthesis import LmiFeasibilityProblem

from conftest import (THREE_TANK_A_REF, THREE_TANK_B_REF, THREE_TANK_K_REF,
                      example1_matrices)


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


class TestSubspaceContained:
    def test_example1_images(self, cfg, example1):
        assert subspace_contained(example1.x_plus, example1.x_minus, cfg)

    def test_e2_not_in_e1(self, cfg):
        assert not subspace_contained(np.array([[0.0], [1.0]]), np.array([[1.0], [0.0]]), cfg)

    def test_anything_in_identity(self, cfg):
        rng = np.random.default_rng(5)
        assert subspace_contained(rng.normal(size=(3, 4)), np.eye(3), cfg)

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
            assert subspace_contained(M, N, cfg) == oracle


class TestPinv:
    def test_identity(self, cfg):
        assert np.allclose(pinv(np.eye(3), cfg), np.eye(3))

    def test_zero(self, cfg):
        assert pinv(np.zeros((2, 3)), cfg).shape == (3, 2)
        assert not pinv(np.zeros((2, 3)), cfg).any()

    def test_example1_normal_equations(self, cfg):
        # stacked [x_hat_minus; u_minus] from the two-state demo dataset
        M = np.array([[1.0, 2.0, 4.0], [1.0, 2.0, -1.0]])
        x_hat_plus = np.array([[2.0, 4.0, 3.0]])
        assert np.allclose(M @ M.T, [[21.0, 1.0], [1.0, 6.0]])
        assert np.allclose(x_hat_plus @ M.T, [[22.0, 7.0]])
        assert np.allclose(x_hat_plus @ pinv(M, cfg), [[1.0, 1.0]])

    def test_penrose_identities(self, cfg):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p, q = rng.integers(1, 6, size=2)
            r = int(rng.integers(0, min(p, q) + 1))
            M = rng.normal(size=(p, r)) @ rng.normal(size=(r, q)) if r else np.zeros((p, q))
            Mp = pinv(M, cfg)
            assert np.abs(M @ Mp @ M - M).max() <= 1e-8
            assert np.abs(Mp @ M @ Mp - Mp).max() <= 1e-8
            assert np.abs((M @ Mp) - (M @ Mp).T).max() <= 1e-8
            assert np.abs((Mp @ M) - (Mp @ M).T).max() <= 1e-8


    def test_matches_numpy_at_the_shared_cutoff(self, cfg):
        rng = np.random.default_rng(8)
        for _ in range(30):
            p, q = rng.integers(1, 7, size=2)
            r = int(rng.integers(1, min(p, q) + 1))
            M = rng.normal(size=(p, r)) @ rng.normal(size=(r, q))
            expected = np.linalg.pinv(M, rcond=cfg.rank_rel_tol * max(M.shape))
            assert np.abs(pinv(M, cfg) - expected).max() <= 1e-10 * max(
                1.0, np.abs(expected).max())


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
    return sum(C.shape == M.shape and np.array_equal(C, M) for C in calls)


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
        # row_compress and check_image_inclusion factor X_minus; rank_stacked
        # and check_identification factor [X_minus; U_minus]
        assert _count(factorizations["svd"], D.x_minus) <= 2
        assert _count(factorizations["svd"], D.stacked()) <= 2
        margin = report.diagnostics["x_minus_rank_margin"]["singular_values"]
        assert margin == row_compress(D.x_minus, D.x_plus, cfg).sv.tolist()


class TestMatrixExponential:
    def test_zero(self):
        assert np.allclose(matrix_exponential(np.zeros((3, 3))), np.eye(3))

    def test_scalar(self):
        assert matrix_exponential(np.array([[-0.05]]))[0, 0] == pytest.approx(np.exp(-0.05), rel=1e-12)

    def test_three_tank(self):
        Ac = np.array([[-0.6, 0.5, 0.0], [0.5, -0.5, 0.5], [0.0, 0.0, -0.5]])
        assert np.abs(matrix_exponential(0.1 * Ac) - THREE_TANK_A_REF).max() <= 1e-4


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
        rng = np.random.default_rng(63)
        sv = np.sort(np.abs(rng.normal(size=(6, 3))), axis=1)[:, ::-1].copy()
        sv[2] = 0.0
        cut = rank_cutoff(sv, (3, 5), cfg)
        assert cut.shape == (6,)
        for row, c in zip(sv, cut):
            assert _bits(c) == _bits(rank_cutoff(row, (3, 5), cfg))
