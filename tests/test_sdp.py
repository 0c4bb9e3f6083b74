import functools
import importlib
import inspect
import pkgutil

import numpy as np
import pytest
import scipy.linalg

import ddstab
from ddstab import (NumericalConfig, SolverFailure, common_lyapunov,
                    row_compress, sdp, solve_plain_lmi, solve_stab_lmi)
from ddstab.linalg import rank_revealing_svd
from ddstab.sdp import AffineLmiFeasibility, BarrierBackend, BackendResult, CvxpyBackend
from ddstab.synthesis import (LmiFeasibilityProblem, _symmetry_nullspace, lmi_problem,
                              sdp_solve)

from conftest import (barrier_slack, example1_matrices, montecarlo_windows, random_dataset,
                      reference_coefficients, three_tank_compressed)

try:
    import cvxpy  # noqa: F401
    HAVE_CVXPY = True
except ImportError:
    HAVE_CVXPY = False


def _random_problem(rng, d=None, size=None, n_blocks=1):
    d = d or int(rng.integers(1, 8))
    size = size or int(rng.integers(1, 5))
    blocks = []
    for _ in range(n_blocks):
        G = rng.normal(size=(d, size, size))
        G = 0.5 * (G + np.transpose(G, (0, 2, 1)))
        blocks.append((np.zeros((size, size)), G))
    return AffineLmiFeasibility(dim=d, blocks=tuple(blocks))


class TestBarrierBackend:
    def test_single_coefficient_identity(self):
        # F(x) = x * I on the unit ball: optimum slack 1 at x = 1
        problem = AffineLmiFeasibility(dim=1, blocks=((np.zeros((2, 2)),
                                                       np.eye(2)[None, :, :]),))
        result = BarrierBackend().solve(problem)
        assert result.t == pytest.approx(1.0, abs=1e-7)

    def test_shifted_constant(self):
        # F(x) = diag(2, 3) + x*0: slack = 2 regardless of x
        problem = AffineLmiFeasibility(
            dim=1, blocks=((np.diag([2.0, 3.0]), np.zeros((1, 2, 2))),))
        result = BarrierBackend().solve(problem)
        assert result.t == pytest.approx(2.0, abs=1e-7)

    def test_empty_dim(self):
        problem = AffineLmiFeasibility(dim=0, blocks=((np.diag([0.5, 4.0]),
                                                       np.zeros((0, 2, 2))),))
        result = BarrierBackend().solve(problem)
        assert result.t == pytest.approx(0.5, abs=1e-12)

    def test_two_blocks_couple(self):
        # x must serve both blocks: F1 = x*I, F2 = -x*I -> best is x = 0, t = 0
        I = np.eye(2)[None, :, :]
        problem = AffineLmiFeasibility(dim=1, blocks=((np.zeros((2, 2)), I),
                                                      (np.zeros((2, 2)), -I)))
        result = BarrierBackend().solve(problem)
        assert abs(result.t) <= 1e-7

    def test_deterministic(self):
        rng = np.random.default_rng(20)
        problem = _random_problem(rng, d=5, size=3, n_blocks=2)
        r1 = BarrierBackend().solve(problem)
        r2 = BarrierBackend().solve(problem)
        assert r1.t == r2.t
        assert np.array_equal(r1.x, r2.x)

    def test_certified_lower_bound(self):
        # reported t is the slack actually achieved at the returned point
        rng = np.random.default_rng(21)
        for _ in range(20):
            problem = _random_problem(rng)
            result = BarrierBackend().solve(problem)
            achieved = min(np.linalg.eigvalsh(C + np.tensordot(result.x, G, axes=1)).min()
                           for C, G in problem.blocks)
            assert result.t == pytest.approx(achieved, abs=1e-12)
            assert np.linalg.norm(result.x) <= 1.0 + 1e-12


@pytest.mark.skipif(not HAVE_CVXPY, reason="cvxpy not installed")
class TestCrossBackend:
    def test_agreement_on_random_problems(self):
        rng = np.random.default_rng(22)
        builtin, external = BarrierBackend(), CvxpyBackend()
        for _ in range(15):
            problem = _random_problem(rng, n_blocks=int(rng.integers(1, 3)))
            t_builtin = builtin.solve(problem).t
            t_external = external.solve(problem).t
            # external solver default accuracy is the looser of the two
            assert t_builtin == pytest.approx(t_external, abs=5e-5)


def test_only_the_lmi_builders_take_a_backend():
    """Every solve runs the barrier, except where a test hands one of the two
    functions that build an ``AffineLmiFeasibility`` a fake or the oracle."""
    takers = set()
    for info in pkgutil.iter_modules(ddstab.__path__):
        module = importlib.import_module(f"ddstab.{info.name}")
        for name, value in vars(module).items():
            if inspect.isfunction(value) and value.__module__ == module.__name__ \
                    and "backend" in inspect.signature(value).parameters:
                takers.add(f"{info.name}.{name}")
    assert takers == {"synthesis.sdp_solve", "verification.common_lyapunov"}


def test_no_blocks_leave_the_slack_unbounded():
    problem = AffineLmiFeasibility(dim=2, blocks=())
    result = BarrierBackend().solve(problem)
    assert result.t == np.inf
    assert np.array_equal(result.x, np.zeros(2))


class TestNonFiniteNewtonSystem:
    """A Newton system with a nan or inf entry ends in SolverFailure."""

    def test_nan_in_hessian(self):
        H = 2.0 * np.eye(3)
        H[1, 1] = np.nan
        with pytest.raises(SolverFailure, match="could not factor the Newton system"):
            BarrierBackend._newton_step(H, np.ones(3), 2)

    def test_inf_in_gradient(self):
        with pytest.raises(SolverFailure, match="could not factor the Newton system"):
            BarrierBackend._newton_step(2.0 * np.eye(3), np.array([1.0, np.inf, 0.0]), 2)


# -- bitwise oracles ----------------------------------------------------------
# The reference functions below take the Newton step through scipy's
# cho_factor/cho_solve wrappers and build the LMI coefficients one np.block
# at a time. The solver must reproduce both bit for bit.

def _reference_newton_step(H, g, d):
    Hs = 0.5 * (H + H.T)
    scale = max(np.trace(Hs) / (d + 1), 1.0)
    for jitter in (0.0, 1e-14, 1e-11, 1e-8, 1e-5):
        try:
            factor = scipy.linalg.cho_factor(Hs + jitter * scale * np.eye(d + 1))
        except (np.linalg.LinAlgError, scipy.linalg.LinAlgError):
            continue
        step = -scipy.linalg.cho_solve(factor, g)
        decrement = float(-g @ step)
        if np.isfinite(decrement) and (decrement >= 0 or jitter > 0):
            return step, decrement
    raise SolverFailure("could not factor the Newton system")


@functools.cache
def _criterion_5_dataset(seed, index):
    rng = np.random.default_rng(seed)
    return [random_dataset(rng) for _ in range(index + 1)][index].D


@pytest.fixture(scope="module")
def recorded():
    """Newton systems and block Cholesky factors of real barrier solves: the
    three-tank compressed solve, random datasets and the four criterion-5
    plain solves whose last stage reaches the rounding floor."""
    cfg = NumericalConfig()
    systems, factors = [], []
    real_step = BarrierBackend._newton_step
    real_cholesky = np.linalg.cholesky

    def recording_step(H, g, d):
        systems.append((H.copy(), g.copy(), d))
        return real_step(H, g, d)

    def recording_cholesky(M):
        L = real_cholesky(M)
        factors.append(L.copy())
        return L

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(BarrierBackend, "_newton_step", staticmethod(recording_step))
        mp.setattr(np.linalg, "cholesky", recording_cholesky)
        D, comp = three_tank_compressed()
        solve_stab_lmi(D, comp, cfg)
        rng = np.random.default_rng(31)
        for _ in range(20):
            solve_plain_lmi(random_dataset(rng).D, cfg)
        for seed, index in ((102, 20), (102, 311), (103, 112), (103, 279)):
            solve_plain_lmi(_criterion_5_dataset(seed, index), cfg)
    return systems, factors


class TestNewtonStepOracle:
    def test_recorded_systems_match_the_reference_bitwise(self, recorded):
        systems, _ = recorded
        assert len(systems) > 500
        assert {d for _, _, d in systems} >= {14, 18, 20}
        for H, g, d in systems:
            step, decrement = BarrierBackend._newton_step(H, g, d)
            ref_step, ref_decrement = _reference_newton_step(H, g, d)
            assert step.tobytes() == ref_step.tobytes()
            assert decrement == ref_decrement

    @pytest.mark.parametrize("H", [np.zeros((3, 3)), np.diag([1.0, 0.0, 1.0]),
                                   np.ones((4, 4))], ids=["zero", "rank_2", "rank_1"])
    def test_jittered_systems_match_the_reference_bitwise(self, H):
        # singular systems factor only after Tikhonov jitter
        d = H.shape[0] - 1
        g = np.linspace(-1.0, 2.0, d + 1)
        step, decrement = BarrierBackend._newton_step(H, g, d)
        ref_step, ref_decrement = _reference_newton_step(H, g, d)
        assert step.tobytes() == ref_step.tobytes()
        assert decrement == ref_decrement

    def test_block_inverse_matches_cho_solve_bitwise(self, recorded):
        _, factors = recorded
        assert len(factors) > 500
        for L in factors:
            s = L.shape[0]
            Minv = sdp._potrs()(L, sdp._identity(s), lower=True)[0]
            assert Minv.tobytes() == scipy.linalg.cho_solve((L, True), np.eye(s)).tobytes()


def _reference_solve(problem, counts=None):
    """The barrier as it was when every step rebuilt its Newton system and
    every line search evaluated the barrier at its starting point; block
    inverses through ``cho_solve``. ``counts`` gets its Newton steps and mu
    increases."""
    counts = {} if counts is None else counts
    counts.update(steps=0, mu_increases=0)
    d = problem.dim
    blocks = [(np.asarray(C, dtype=float), np.asarray(G, dtype=float))
              for C, G in problem.blocks]
    t0 = min(np.linalg.eigvalsh(C).min() for C, _ in blocks) - 1.0
    flats = [(C, G.reshape(d, -1)) for C, G in blocks]

    def chol_all(x, t):
        if x @ x >= 1.0:
            return None
        chs = []
        for C, Gf in flats:
            s = C.shape[0]
            M = C + (x @ Gf).reshape(s, s)
            M.flat[:: s + 1] -= t
            try:
                chs.append(np.linalg.cholesky(M))
            except np.linalg.LinAlgError:
                return None
        return chs

    def barrier_value(x, t, mu, chs):
        val = -mu * t - np.log(1.0 - x @ x)
        for L in chs:
            val -= 2.0 * np.log(L.diagonal()).sum()
        return val

    nu = sum(C.shape[0] for C, _ in blocks) + 2.0
    x, t = np.zeros(d), t0
    chs = chol_all(x, t)
    mu = sdp.MU0
    for _ in range(sdp.MAX_NEWTON):
        counts["steps"] += 1
        g = np.zeros(d + 1)
        H = np.zeros((d + 1, d + 1))
        g[d] -= mu
        for (C, G), L in zip(blocks, chs):
            s = C.shape[0]
            Minv = scipy.linalg.cho_solve((L, True), np.eye(s))
            V = G @ Minv
            W = Minv @ Minv
            g[:d] -= np.einsum("iaa->i", V)
            g[d] += np.trace(Minv)
            Vm = V.reshape(d, s * s)
            VTm = np.transpose(V, (0, 2, 1)).reshape(d, s * s)
            H[:d, :d] += Vm @ VTm.T
            H[:d, d] -= G.reshape(d, s * s) @ W.T.ravel()
            H[d, d] += np.trace(W)
        H[d, :d] = H[:d, d]
        q = 1.0 - x @ x
        g[:d] += 2.0 * x / q
        H[:d, :d] += 2.0 * np.eye(d) / q + 4.0 * (x[:, None] * x[None, :]) / q**2
        step, decrement = _reference_newton_step(H, g, d)
        moved = False
        if decrement / 2.0 > 0.25:
            val = barrier_value(x, t, mu, chs)
            alpha = 1.0
            short = 1.0 / (1.0 + np.sqrt(decrement))
            while alpha > 1e-14:
                xn, tn = x + alpha * step[:d], t + alpha * step[d]
                chn = chol_all(xn, tn)
                if chn is not None and \
                        barrier_value(xn, tn, mu, chn) <= val + 0.01 * alpha * (g @ step):
                    moved = not (tn == t and np.array_equal(xn, x))
                    x, t, chs = xn, tn, chn
                    break
                alpha = short if alpha > short else alpha * 0.5
        if not moved:
            if nu / mu < sdp.GAP_TOL:
                return sdp._certified(blocks, x)
            mu *= sdp.MU_FACTOR
            counts["mu_increases"] += 1
    raise SolverFailure("Newton iteration budget exhausted")


@pytest.fixture(scope="module")
def barrier_problems():
    """The problems handed to the barrier by the three-tank compressed solve,
    the plain LMIs of random datasets until 20 have reached it, the four
    criterion-5 plain solves and the plain LMIs of the montecarlo windows of
    scenarios 0-9 at seed 3, then two-block random problems and one common
    Lyapunov problem."""
    cfg = NumericalConfig()
    problems = {}
    real_solve = BarrierBackend.solve

    def recording_solve(self, problem):
        problems.setdefault(label, []).append(problem)
        return real_solve(self, problem)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(BarrierBackend, "solve", recording_solve)
        label = "three_tank_compressed"
        D, comp = three_tank_compressed()
        solve_stab_lmi(D, comp, cfg)
        label = "random_datasets"
        rng = np.random.default_rng(31)
        while len(problems.get(label, ())) < 20:
            solve_plain_lmi(random_dataset(rng).D, cfg)
        label = "criterion_5"
        for seed, index in ((102, 20), (102, 311), (103, 112), (103, 279)):
            solve_plain_lmi(_criterion_5_dataset(seed, index), cfg)
        label = "montecarlo"
        for D in montecarlo_windows(3, 10):
            solve_plain_lmi(D, cfg)
    rng = np.random.default_rng(38)
    problems["two_blocks"] = [_random_problem(rng, n_blocks=2) for _ in range(6)]
    recorder = _Recorder()
    common_lyapunov([0.5 * np.eye(2), np.array([[0.3, 0.1], [0.0, 0.4]]),
                     np.array([[0.2, -0.6], [0.1, 0.5]])], cfg, backend=recorder)
    problems["common_lyapunov"] = recorder.problems
    return problems


class TestSolveOracle:
    """The barrier reaches the reference loop's point bit for bit: building
    each Newton system once per iterate and keeping the accepted trial's
    barrier value change no iterate."""

    @pytest.mark.parametrize("label,count", [
        ("three_tank_compressed", 1), ("random_datasets", 20), ("criterion_5", 4),
        ("montecarlo", 10), ("two_blocks", 6), ("common_lyapunov", 1)])
    def test_solves_match_the_reference_bitwise(self, barrier_problems, label, count):
        problems = barrier_problems[label]
        assert len(problems) >= count
        for problem in problems:
            result = BarrierBackend().solve(problem)
            reference = _reference_solve(problem)
            assert result.t == reference.t
            assert result.x.tobytes() == reference.x.tobytes()

    def test_multi_block_problems_are_covered(self, barrier_problems):
        for label in ("two_blocks", "common_lyapunov"):
            assert all(len(p.blocks) >= 2 for p in barrier_problems[label])

    @pytest.mark.parametrize("label", ["three_tank_compressed", "montecarlo"])
    def test_one_newton_system_per_iterate(self, barrier_problems, monkeypatch, label):
        # a mu increase leaves (x, t) where it is, so its step reuses the system
        problem = barrier_problems[label][0]
        counts = {}
        _reference_solve(problem, counts)
        assert counts["mu_increases"] > 0
        calls = {"system": 0, "step": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(sdp, "_newton_system", counted("system", sdp._newton_system))
        monkeypatch.setattr(BarrierBackend, "_newton_step",
                            staticmethod(counted("step", BarrierBackend._newton_step)))
        BarrierBackend().solve(problem)
        assert calls["step"] == counts["steps"]
        assert calls["system"] == counts["steps"] - counts["mu_increases"]


class _Recorder:
    """Keeps the problem handed to the backend and skips the solve."""

    def __init__(self):
        self.problems = []

    def solve(self, problem):
        self.problems.append(problem)
        return BackendResult(t=-1.0, x=np.zeros(problem.dim))


@functools.cache
def _coefficient_problems():
    rng = np.random.default_rng(32)
    problems = {
        "k1": LmiFeasibilityProblem(diag_coeff=rng.normal(size=(1, 4)),
                                    offdiag_coeff=rng.normal(size=(1, 4))),
        "k1_T1": LmiFeasibilityProblem(diag_coeff=np.array([[2.0]]),
                                       offdiag_coeff=np.array([[-0.5]])),
        "rho1_d1": LmiFeasibilityProblem(diag_coeff=np.array([[1.0, 2.0], [2.0, 4.0]]),
                                         offdiag_coeff=np.array([[0.5, 1.0], [-1.0, -2.0]])),
        "wide": LmiFeasibilityProblem(diag_coeff=rng.normal(size=(3, 12)),
                                      offdiag_coeff=rng.normal(size=(3, 12))),
    }
    D, comp = three_tank_compressed()
    problems["three_tank_compressed"] = LmiFeasibilityProblem(
        diag_coeff=comp.x_hat_minus, offdiag_coeff=comp.x_hat_plus)
    for seed, index in ((102, 20), (103, 279)):
        D = _criterion_5_dataset(seed, index)
        problems[f"criterion_5_{seed}_{index}"] = LmiFeasibilityProblem(
            diag_coeff=D.x_minus, offdiag_coeff=D.x_plus)
    for i in range(12):
        D = random_dataset(rng).D
        problems[f"random_{i}"] = LmiFeasibilityProblem(
            diag_coeff=D.x_minus, offdiag_coeff=D.x_plus)
    return problems


class TestCoefficientOracle:
    @pytest.mark.parametrize("name", ["k1", "k1_T1", "rho1_d1", "wide", "three_tank_compressed",
                                      "criterion_5_102_20", "criterion_5_103_279"]
                             + [f"random_{i}" for i in range(12)])
    def test_backend_problem_matches_the_block_loop_bitwise(self, cfg, name):
        problem = _coefficient_problems()[name]
        recorder = _Recorder()
        sdp_solve(problem, cfg, backend=recorder)
        reference = reference_coefficients(problem, cfg)
        L = problem.diag_coeff  # no unknowns, or rank L < k: decided without the backend
        if reference.shape[0] == 0 or rank_revealing_svd(L, cfg)[3] < L.shape[0]:
            assert recorder.problems == []
            return
        (handed,) = recorder.problems
        (C, G), = handed.blocks
        assert handed.dim == reference.shape[0]
        assert C.tobytes() == np.zeros(C.shape).tobytes()
        assert G.shape == reference.shape
        assert G.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("name", ["rho1_d1", "random_0"])
    def test_l_below_full_row_rank_never_reaches_the_backend(self, cfg, name):
        problem = _coefficient_problems()[name]
        L = problem.diag_coeff
        assert rank_revealing_svd(L, cfg)[3] < L.shape[0]
        recorder = _Recorder()
        sol = sdp_solve(problem, cfg, backend=recorder)
        assert recorder.problems == []
        assert sol.theta is None
        assert sol.slack == 0.0

    @pytest.mark.parametrize("name", ["rho1_d1", "random_0", "random_2", "random_4",
                                      "random_6", "random_8", "example1"])
    def test_barrier_finds_l_below_full_row_rank_infeasible(self, cfg, name):
        # sdp_solve decides these without the backend; the barrier, handed the
        # same coefficients, must find no slack either
        problem = lmi_problem(example1_matrices()) if name == "example1" \
            else _coefficient_problems()[name]
        L = problem.diag_coeff
        assert rank_revealing_svd(L, cfg)[3] < L.shape[0]
        coeffs = reference_coefficients(problem, cfg)
        assert coeffs.shape[0] > 0
        assert barrier_slack(coeffs) < cfg.psd_margin

    def test_edge_shapes_are_covered(self, cfg):
        shapes = set()
        for problem in _coefficient_problems().values():
            k = problem.diag_coeff.shape[0]
            rho = rank_revealing_svd(np.vstack([problem.diag_coeff,
                                                problem.offdiag_coeff]), cfg)[3]
            d = reference_coefficients(problem, cfg).shape[0]
            shapes.update({("k", k), ("rho", rho), ("d", d)})
        assert {("k", 1), ("rho", 1), ("d", 1)} <= shapes


def _reference_nullspace(QG, k, rho):
    """scipy's null space of the symmetry constraints, at scipy's own cutoff."""
    C = np.zeros((k * (k - 1) // 2, rho * k))
    row = 0
    for i in range(k):
        for j in range(i + 1, k):
            for a in range(rho):
                C[row, a * k + j] += QG[i, a]
                C[row, a * k + i] -= QG[j, a]
            row += 1
    return scipy.linalg.null_space(C)


def _suite_problems(cfg):
    """Every problem ``solve_plain_lmi`` and ``solve_stab_lmi`` hand ``sdp_solve``
    on the acceptance suites' datasets: the plain LMI where X_minus has rank n,
    the compressed one where 0 < r < n.

    The plain LMI of rank-deficient data is left out: the rank test decides it
    without a solve, and on 3 of those 490 problems scipy's cutoff
    (eps * max(shape) * sigma_max) keeps a singular value that the shared one
    discards.
    """
    for seed in (101, 102, 103):
        rng = np.random.default_rng(seed)
        for _ in range(500):
            D = random_dataset(rng).D
            comp = row_compress(D.x_minus, D.x_plus, cfg)
            if comp.r == D.n:
                yield LmiFeasibilityProblem(diag_coeff=D.x_minus, offdiag_coeff=D.x_plus)
            elif comp.r > 0:
                yield LmiFeasibilityProblem(diag_coeff=comp.x_hat_minus,
                                            offdiag_coeff=comp.x_hat_plus)


class TestSymmetryNullspaceOracle:
    """The null space read off the shared rank cutoff equals scipy's
    ``null_space`` bit for bit, and so does the Theta-image ``N @ x``."""

    @staticmethod
    def check(problem, cfg, rng):
        k = problem.diag_coeff.shape[0]
        U, _, _, rho = rank_revealing_svd(np.vstack([problem.diag_coeff,
                                                     problem.offdiag_coeff]), cfg)
        QG = U[:k, :rho]
        N = _symmetry_nullspace(QG, k, rho, cfg)
        reference = _reference_nullspace(QG, k, rho)
        assert N.shape == reference.shape
        assert N.tobytes() == reference.tobytes()
        x = rng.normal(size=N.shape[1])
        assert (N @ x).tobytes() == (reference @ x).tobytes()

    def test_coefficient_problems(self, cfg):
        rng = np.random.default_rng(36)
        for problem in _coefficient_problems().values():
            self.check(problem, cfg, rng)

    def test_suite_datasets(self, cfg):
        problems = list(_suite_problems(cfg))
        assert len(problems) > 1000
        rng = np.random.default_rng(37)
        for problem in problems:
            self.check(problem, cfg, rng)


class TestKernelCounters:
    """Every barrier solve goes through scipy.linalg.cho_factor and
    numpy.linalg.cholesky, the two kernels the benchmark counts per solve."""

    def test_each_solve_calls_both_kernels(self, monkeypatch):
        counts = {"cho_factor": 0, "cholesky": 0}
        per_solve = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(scipy.linalg, "cho_factor",
                            counted("cho_factor", scipy.linalg.cho_factor))
        monkeypatch.setattr(np.linalg, "cholesky", counted("cholesky", np.linalg.cholesky))
        real_solve = BarrierBackend.solve

        def solve(self, problem):
            before = dict(counts)
            result = real_solve(self, problem)
            per_solve.append({name: counts[name] - before[name] for name in counts})
            return result

        monkeypatch.setattr(BarrierBackend, "solve", solve)
        rng = np.random.default_rng(33)
        for _ in range(5):
            BarrierBackend().solve(_random_problem(rng, n_blocks=2))
        D, comp = three_tank_compressed()
        solve_stab_lmi(D, comp, NumericalConfig())
        assert len(per_solve) == 6
        for calls in per_solve:
            assert calls["cho_factor"] > 0 and calls["cholesky"] > 0
