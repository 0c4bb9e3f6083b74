import numpy as np
import pytest

from ddstab.sdp import (AffineLmiFeasibility, BarrierBackend, BackendResult,
                        CvxpyBackend, get_backend)

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


def test_get_backend():
    assert isinstance(get_backend("builtin"), BarrierBackend)
    assert isinstance(get_backend("cvxpy"), CvxpyBackend)
    with pytest.raises(ValueError):
        get_backend("nope")


def test_no_blocks_leave_the_slack_unbounded():
    problem = AffineLmiFeasibility(dim=2, blocks=())
    result = BarrierBackend().solve(problem)
    assert result.t == np.inf
    assert np.array_equal(result.x, np.zeros(2))
