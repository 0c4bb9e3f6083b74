"""Small dense semidefinite feasibility solves.

The shared problem shape is

    maximize  t
    s.t.      F_j(x) = C_j + sum_i x_i G_{j,i}  >=  t * I   for every block j,
              ||x|| <= 1,

with symmetric C_j, G_{j,i}. The norm ball makes the value finite: the
feasibility questions handled here are homogeneous in x (all C_j = 0), so
without it the slack could be scaled arbitrarily. With coefficient matrices
built from orthonormal bases the optimal ``t`` is a scale-free margin in
[0, sqrt(2)] and the verdict "t >= psd_margin" does not depend on the
scaling of the raw data.

The solver is a log-det barrier path-following method. Problems here are
tiny (a few dozen unknowns, blocks of order <= 2n), so a dense Newton
iteration is both faster and lighter than an external conic solver.
``CvxpyBackend`` solves the same problem through cvxpy. It serves only as
the barrier's test oracle: tests hand it to ``sdp_solve`` or to the
test-side ``common_lyapunov`` when cvxpy is installed. ``GAP_TOL``, ``MU0``,
``MU_FACTOR`` and ``MAX_NEWTON`` fix the barrier's schedule. Every barrier
stage follows one rule: it ends when its half Newton decrement is within
0.25 or when the line search finds no point other than the current one,
and a solve that spends ``MAX_NEWTON`` steps raises SolverFailure,
whatever its stage. The objective ``-mu*t`` is linear, so the Newton
Hessian does not depend on mu: ``_newton_system`` builds the system once
per iterate, a mu increase changes only the gradient's ``t`` entry, and
the line search starts from the barrier value of the point it last
accepted. Each Newton step factors the
system with ``scipy.linalg.cho_factor`` (no finiteness check) and solves
with LAPACK ``potrs`` on that factor; each block inverse is ``potrs`` on
the block's ``numpy.linalg.cholesky`` factor against a cached identity. A
Newton system with a nan or inf entry yields no finite step at any jitter
and ends in SolverFailure. Both backends return through ``_certified``, so
a solve yields the slack achieved at its final point or raises
SolverFailure.

This module has one importer in the package, ``synthesis.sdp_solve``,
which imports it at its first solve, and scipy is imported by the first
Newton step, not by this module: a process that never solves loads
neither. scipy is the solver's alone; no other module imports it.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import SolverFailure

GAP_TOL = 1e-9
MU0 = 1.0
MU_FACTOR = 100.0
MAX_NEWTON = 400
CVXPY_SOLVER = "CLARABEL"


@functools.cache
def _potrs():
    """LAPACK's Cholesky solve (float64: dpotrs), called without scipy's
    per-call input checks; looked up on first use."""
    import scipy.linalg
    potrs, = scipy.linalg.get_lapack_funcs(("potrs",))
    return potrs


@functools.cache
def _identity(s: int) -> np.ndarray:
    """The s x s identity, built once per size and read-only."""
    eye = np.eye(s)
    eye.flags.writeable = False
    return eye


@dataclass(frozen=True)
class AffineLmiFeasibility:
    """One PSD block per entry: (constant C, coefficients G of shape (d, s, s))."""

    dim: int
    blocks: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __post_init__(self):
        for C, G in self.blocks:
            if G.shape[0] != self.dim or C.shape != G.shape[1:]:
                raise ValueError("inconsistent block shapes")


@dataclass(frozen=True)
class BackendResult:
    """Certified slack lower bound and the maximizing point."""

    t: float
    x: np.ndarray


def _certified(blocks, x: np.ndarray) -> BackendResult:
    """The least eigenvalue over the blocks at ``x`` (``inf`` without blocks);
    a non-finite ``x`` (eigvalsh can return finite values on nan) or slack raises."""
    if not np.isfinite(x).all():
        raise SolverFailure("the solve ended at a non-finite point")
    t = min((float(np.linalg.eigvalsh(C + (x @ G.reshape(x.size, C.size)).reshape(C.shape)).min())
             for C, G in blocks), default=np.inf)
    if np.isnan(t):
        raise SolverFailure("the solve ended at a non-finite slack")
    return BackendResult(t=t, x=x)


class BarrierBackend:
    """Interior-point solve of the slack-maximization problem.

    Follows the central path of
        -mu*t - sum_j logdet(F_j(x) - t I) - log(1 - x.x)
    with damped Newton steps from mu = ``MU0``, multiplying mu by ``MU_FACTOR``
    until the duality gap bound nu/mu is below ``GAP_TOL``. Every stage ends
    when its half decrement is within 0.25 or when the line search finds no
    point other than the current one (no trial is accepted, or the accepted
    one rounds back to the current iterate). The gap, not how tightly the
    last stage centers, sets the accuracy, and ``_certified`` measures the
    slack at the returned point, so the last stage centers like the others.
    A solve that spends ``MAX_NEWTON`` steps raises SolverFailure.
    The Newton system is built once per iterate: the Hessian and the
    mu-free gradient are rebuilt only after the line search moves, and mu
    enters only the gradient's ``t`` entry. The barrier value of an
    accepted trial serves the next Armijo test at the same mu.
    Deterministic: no randomness, fixed schedule; ``_certified`` reports t.
    """

    @staticmethod
    def _newton_step(H: np.ndarray, g: np.ndarray, d: int) -> tuple[np.ndarray, float]:
        """Descent direction for the (mathematically PD) Newton system.

        The symmetrized system is factored by ``scipy.linalg.cho_factor``
        with ``check_finite=False`` and solved by LAPACK ``potrs`` on that
        factor. scipy is imported here, not at module load, and
        ``cho_factor`` is read off ``scipy.linalg`` at every call, so a
        counter patched onto that module sees each one. Near the central
        path's endgame the Hessian condition number can exceed 1/eps;
        escalating Tikhonov jitter keeps the factorization alive and every
        jittered step is still descent. A system that fails to factor or
        gives a non-finite decrement at every jitter, as one with a nan or
        inf entry does, raises SolverFailure.
        """
        import scipy.linalg
        potrs = _potrs()
        Hs = 0.5 * (H + H.T)
        scale = max(np.trace(Hs) / (d + 1), 1.0)
        for jitter in (0.0, 1e-14, 1e-11, 1e-8, 1e-5):
            try:  # through the module attribute: bench/ counts these calls per solve
                c, lower = scipy.linalg.cho_factor(
                    Hs + jitter * scale * _identity(d + 1), check_finite=False)
            except np.linalg.LinAlgError:  # scipy.linalg.LinAlgError is this class
                continue
            step = -potrs(c, g, lower=lower)[0]
            decrement = float(-g @ step)
            if np.isfinite(decrement) and (decrement >= 0 or jitter > 0):
                return step, decrement
        raise SolverFailure("could not factor the Newton system")

    def solve(self, problem: AffineLmiFeasibility) -> BackendResult:
        d = problem.dim
        blocks = [(np.asarray(C, dtype=float), np.asarray(G, dtype=float))
                  for C, G in problem.blocks]
        if not blocks or d == 0:
            return _certified(blocks, np.zeros(d))
        t0 = min(np.linalg.eigvalsh(C).min() for C, _ in blocks) - 1.0

        coeffs = [(C, G, G.reshape(d, -1), _identity(C.shape[0])) for C, G in blocks]
        two_eye = 2.0 * _identity(d)

        def chol_all(x, t, xx):
            """Cholesky factors of every block, or None outside the domain."""
            if xx >= 1.0:
                return None
            chs = []
            for C, _, Gf, _ in coeffs:
                s = C.shape[0]
                M = C + (x @ Gf).reshape(s, s)
                M.flat[:: s + 1] -= t
                try:
                    chs.append(np.linalg.cholesky(M))
                except np.linalg.LinAlgError:
                    return None
            return chs

        def barrier_value(t, xx, mu, chs):
            val = -mu * t - np.log(1.0 - xx)
            for L in chs:
                val -= 2.0 * np.log(L.diagonal()).sum()
            return val

        nu = sum(C.shape[0] for C, _ in blocks) + 2.0
        x, t = np.zeros(d), t0
        xx = x @ x
        chs = chol_all(x, t, xx)
        if chs is None:
            raise SolverFailure("could not construct a strictly feasible start")
        mu = MU0
        # the Newton system of (x, t) without mu, and the barrier value there
        # at the current mu; each is None until needed again
        system = val = None
        for _ in range(MAX_NEWTON):
            if system is None:
                system = _newton_system(coeffs, chs, x, 1.0 - xx, two_eye)
            H, g_x, traces = system
            g = g_x.copy()
            g[d] = -mu
            for tr in traces:
                g[d] += tr
            step, decrement = self._newton_step(H, g, d)
            # a half-decrement within 0.25 (tiny negative values included:
            # centered to rounding noise) ends the stage without a step
            moved = False
            if decrement / 2.0 > 0.25:
                # full step when it works, else the short step 1/(1+lambda)
                # that self-concordance guarantees feasible, then halve
                if val is None:
                    val = barrier_value(t, xx, mu, chs)
                alpha = 1.0
                short = 1.0 / (1.0 + np.sqrt(decrement))
                while alpha > 1e-14:
                    xn, tn = x + alpha * step[:d], t + alpha * step[d]
                    xxn = xn @ xn
                    chn = chol_all(xn, tn, xxn)
                    if chn is not None:
                        valn = barrier_value(tn, xxn, mu, chn)
                        if valn <= val + 0.01 * alpha * (g @ step):
                            # a step lost to rounding lands on (x, t) itself,
                            # bit for bit (x and t never hold -0.0); the
                            # next step would be the same, so that ends the
                            # stage too and (x, t) keeps its system
                            moved = not (tn == t and np.array_equal(xn, x))
                            if moved:
                                x, t, xx, chs, val = xn, tn, xxn, chn, valn
                                system = None
                            break
                    alpha = short if alpha > short else alpha * 0.5
            if not moved:
                # centered, or at numerical precision, for this mu
                if nu / mu < GAP_TOL:
                    return _certified(blocks, x)
                mu *= MU_FACTOR
                val = None
        raise SolverFailure("Newton iteration budget exhausted")


def _newton_system(coeffs, chs, x: np.ndarray, q: float,
                   two_eye: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Hessian and gradient of the barrier at ``(x, t)`` without its ``-mu*t``.

    ``coeffs`` holds ``(C, G, G flattened to (d, s*s), I_s)`` per block,
    ``chs`` the blocks' Cholesky factors at ``(x, t)`` and ``q`` is
    ``1 - x.x``. The objective is linear, so the Hessian does not depend on
    mu and mu enters the gradient only in its ``t`` entry: that entry is
    returned as 0, with the blocks' inverse traces to be added to ``-mu``
    in block order.
    """
    d = x.size
    potrs = _potrs()
    g = np.zeros(d + 1)
    H = np.zeros((d + 1, d + 1))
    traces = []
    for (C, G, Gf, eye), L in zip(coeffs, chs):
        s = C.shape[0]
        Minv = potrs(L, eye, lower=True)[0]
        V = G @ Minv
        W = Minv @ Minv
        g[:d] -= np.einsum("iaa->i", V)
        traces.append(Minv.trace())
        Vm = V.reshape(d, s * s)
        VTm = np.transpose(V, (0, 2, 1)).reshape(d, s * s)
        H[:d, :d] += Vm @ VTm.T
        H[:d, d] -= Gf @ W.T.ravel()
        H[d, d] += W.trace()
    H[d, :d] = H[:d, d]
    g[:d] += 2.0 * x / q
    H[:d, :d] += two_eye / q + 4.0 * (x[:, None] * x[None, :]) / q**2
    return H, g, traces


class CvxpyBackend:
    """Same contract, modeled through cvxpy: the barrier's test oracle, which
    no command or verdict selects.

    The slack comes from ``_certified`` at the returned point, not from the
    solver objective (solver feasibility tolerances can otherwise overstate
    the objective on marginal problems).
    """

    def solve(self, problem: AffineLmiFeasibility) -> BackendResult:
        try:
            import cvxpy as cp
        except ImportError as exc:  # pragma: no cover
            raise SolverFailure("cvxpy is not installed") from exc
        d = problem.dim
        if not problem.blocks or d == 0:
            return _certified(problem.blocks, np.zeros(d))
        x = cp.Variable(d)
        t = cp.Variable()
        cons = [cp.norm(x) <= 1]
        for C, G in problem.blocks:
            s = C.shape[0]
            expr = cp.Constant(C) + cp.sum([x[i] * G[i] for i in range(d)])
            cons.append(expr >> t * np.eye(s))
        prob = cp.Problem(cp.Maximize(t), cons)
        try:
            prob.solve(solver=CVXPY_SOLVER)
        except cp.SolverError as exc:
            raise SolverFailure(str(exc)) from exc
        if prob.status not in ("optimal", "optimal_inaccurate"):
            raise SolverFailure(f"cvxpy status {prob.status}")
        x_val = np.asarray(x.value).reshape(d)
        norm = np.linalg.norm(x_val)
        if norm > 1.0:
            x_val = x_val / norm
        return _certified(problem.blocks, x_val)
