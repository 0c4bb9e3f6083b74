"""Structured LMI feasibility problems and the feedback gains they certify.

Both synthesis routes share one template: find Theta (T x k) such that

    L @ Theta is symmetric  and  [[L Theta, P Theta], [(P Theta)^T, L Theta]] > 0,

where (L, P) = (X_minus, X_plus) for the no-prior route (k = n) and
(x_hat_minus, x_hat_plus) for the stabilizability-prior route (k = r).
Feasibility yields K = U_minus Theta (L Theta)^{-1} on the corresponding
coordinates.

The solve reduces the T*k unknowns to the image of V = [L; P]: the block
depends on Theta only through (G, H) = (L Theta, P Theta), whose columns
range over col(V). Working in an orthonormal basis of col(V) intersected
with the symmetry constraint keeps the problem at most 2k^2-dimensional
regardless of T and makes the maximized slack a scale-free margin.

The LMI is solved only where its certificate Theta is returned. Whether a
gain exists is the informativity report's verdict, decided by rank, subspace
and pencil tests: ``synthesize`` and ``synthesize_stab`` take the report, or
build it, and solve on its compression only for data it finds informative,
once per dataset. Every solve runs the built-in barrier, ``sdp.BarrierBackend``.
"""
from __future__ import annotations

import enum
import json
from dataclasses import dataclass

import numpy as np

from .data import DataMatrices
from .errors import PreconditionError, SolverFailure
from .informativity import (Branch, InformativityReport, check_stabilizability_prior,
                            require_prior_conditions)
from .linalg import DEFAULT_CONFIG, NumericalConfig, RowCompression, rank_revealing_svd


class GainProvenance(enum.Enum):
    PLAIN = "plain"
    STAB_PRIOR = "stabilizability_prior"


@dataclass(frozen=True)
class LmiFeasibilityProblem:
    """Solver-neutral statement of the block-PSD feasibility problem.

    ``diag_coeff`` (k x T) multiplies Theta into the diagonal blocks and
    carries the symmetry constraint; ``offdiag_coeff`` (k x T) fills the
    off-diagonal blocks. Objective: maximize the slack t with the assembled
    block >= t*I.
    """

    diag_coeff: np.ndarray
    offdiag_coeff: np.ndarray

    def __post_init__(self):
        if self.diag_coeff.shape != self.offdiag_coeff.shape:
            raise ValueError("coefficient matrices must have equal shapes")


@dataclass(frozen=True)
class LmiSolution:
    """Feasible iff ``theta`` holds a witness (the (T, 0) one when k = 0)."""

    theta: np.ndarray | None
    slack: float

    @property
    def feasible(self) -> bool:
        return self.theta is not None


@dataclass(frozen=True)
class FeedbackGain:
    K: np.ndarray
    provenance: GainProvenance
    k2: np.ndarray | None = None
    k2_policy: str | None = None


def _symmetry_nullspace(QG: np.ndarray, k: int, rho: int,
                        cfg: NumericalConfig) -> np.ndarray:
    """Orthonormal basis of {Z in R^(rho x k) : QG @ Z symmetric}, row-major vec,
    from the SVD of the constraints at the shared cutoff (the identity if k = 1)."""
    C = np.zeros((k * (k - 1) // 2, rho * k))
    row = 0
    for i in range(k):
        for j in range(i + 1, k):
            for a in range(rho):
                C[row, a * k + j] += QG[i, a]
                C[row, a * k + i] -= QG[j, a]
            row += 1
    _, _, Vt, r = rank_revealing_svd(C, cfg)
    return Vt[r:].T.copy()  # C order: the transposed view rounds N @ x differently


def sdp_solve(problem: LmiFeasibilityProblem,
              cfg: NumericalConfig = DEFAULT_CONFIG,
              backend=None) -> LmiSolution:
    """Maximize the block slack; Feasible iff the margin reaches psd_margin.

    An ``L`` below full row rank k forces L @ Theta singular, so the block
    can never be positive definite: that case is Infeasible with slack 0.0
    and no backend call. Its rank is read off the one SVD of ``L`` that also
    gives the pseudoinverse of the symmetry squeeze.

    A feasible Theta is returned scaled so the assembled block has minimum
    eigenvalue ~1 (the problem is homogeneous in Theta, so any positive
    scaling of a witness is a witness). ``slack`` is the slack achieved
    at the point the backend returns: the least block eigenvalue there on
    the normalized image ball, a scale-free conditioning measure in
    (0, sqrt(2)] (clamped at 0 when infeasible), not a solver objective. A solver
    breakdown raises SolverFailure. ``backend`` defaults to the barrier; tests
    hand in a fake or the cvxpy oracle ``sdp.CvxpyBackend()``. ``sdp`` is
    imported here, so a process that never solves never loads it.
    """
    from .sdp import AffineLmiFeasibility, BarrierBackend
    backend = backend or BarrierBackend()
    L, P = problem.diag_coeff, problem.offdiag_coeff
    k, T = L.shape
    if k == 0:
        return LmiSolution(theta=np.zeros((T, 0)), slack=np.inf)
    U_L, sv_L, Vt_L, rank_L = rank_revealing_svd(L, cfg)
    if rank_L < k:
        return LmiSolution(theta=None, slack=0.0)
    V = np.vstack([L, P])
    U, sv, Vt, rho = rank_revealing_svd(V, cfg)
    Qv = U[:, :rho]
    QG, QH = Qv[:k, :], Qv[k:, :]
    N = _symmetry_nullspace(QG, k, rho, cfg)
    d = N.shape[1]
    if d == 0:
        return LmiSolution(theta=None, slack=0.0)
    # coefficient i is the block at Theta-image Z_i = N[:, i] as a rho x k matrix
    Zs = N.T.reshape(d, rho, k)
    G, H = QG @ Zs, QH @ Zs
    blk = np.empty((d, 2 * k, 2 * k))
    blk[:, :k, :k] = G
    blk[:, :k, k:] = H
    blk[:, k:, :k] = H.transpose(0, 2, 1)
    blk[:, k:, k:] = G
    coeffs = 0.5 * (blk + blk.transpose(0, 2, 1))
    result = backend.solve(AffineLmiFeasibility(
        dim=d, blocks=((np.zeros((2 * k, 2 * k)), coeffs),)))
    if result.t < cfg.psd_margin:
        return LmiSolution(theta=None, slack=max(result.t, 0.0))
    Z = (N @ result.x).reshape(rho, k)
    theta = Vt[:rho].T @ (Z / sv[:rho, None])  # pinv(V) @ Qv @ Z
    # squeeze out the round-off so L @ theta is symmetric to working precision
    G = L @ theta
    pinv_L = (Vt_L[:k].T / sv_L[:k]) @ U_L[:, :k].T
    theta = theta - pinv_L @ (0.5 * (G - G.T))
    theta = theta / result.t
    return LmiSolution(theta=theta, slack=result.t)


def lmi_problem(D: DataMatrices, comp: RowCompression | None = None) -> LmiFeasibilityProblem:
    """The LMI ``solve_plain_lmi`` solves, or given ``comp`` the one ``solve_stab_lmi`` solves."""
    if comp is None:
        return LmiFeasibilityProblem(diag_coeff=D.x_minus, offdiag_coeff=D.x_plus)
    return LmiFeasibilityProblem(diag_coeff=comp.x_hat_minus, offdiag_coeff=comp.x_hat_plus)


def solve_plain_lmi(D: DataMatrices, cfg: NumericalConfig = DEFAULT_CONFIG) -> LmiSolution:
    """Feasibility of the no-prior synthesis LMI on (X_minus, X_plus), k = n;
    ``sdp_solve`` decides rank-deficient X_minus Infeasible without a solve."""
    return sdp_solve(lmi_problem(D), cfg)


def _gain(D: DataMatrices, L: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """U_minus Theta (L Theta)^{-1}, the gain on the coordinates of L."""
    return np.linalg.solve((L @ theta).T, (D.u_minus @ theta).T).T


def gain_from_plain(D: DataMatrices, sol: LmiSolution) -> FeedbackGain:
    """K = U_minus Theta (X_minus Theta)^{-1} from a feasible no-prior solve."""
    if not sol.feasible:
        raise PreconditionError("gain extraction needs a feasible solution")
    G = D.x_minus @ sol.theta
    if np.linalg.eigvalsh(0.5 * (G + G.T)).min() <= 0.0:
        raise PreconditionError("X_minus @ Theta is not positive definite")
    return FeedbackGain(K=_gain(D, D.x_minus, sol.theta), provenance=GainProvenance.PLAIN)


def solve_stab_lmi(D: DataMatrices, comp: RowCompression,
                   cfg: NumericalConfig = DEFAULT_CONFIG) -> LmiSolution:
    """Feasibility of the compressed LMI on (x_hat_minus, x_hat_plus), k = r."""
    return sdp_solve(lmi_problem(D, comp), cfg)


def synthesize_stab(D: DataMatrices, cfg: NumericalConfig = DEFAULT_CONFIG,
                    report: InformativityReport | None = None
                    ) -> tuple[FeedbackGain, LmiSolution, RowCompression]:
    """Gain for the stabilizability-prior route: K = [K1 K2] @ S on the
    compression of ``report`` (default ``check_stabilizability_prior(D, cfg)``).

    K1 = U_minus Theta (x_hat_minus Theta)^{-1}; K2 acts only on the
    directions the data leave free, where any value would do, and is zero.
    """
    report = report if report is not None else check_stabilizability_prior(D, cfg)
    # the compressed LMI cannot see the discarded rows; the informativity
    # conditions are what make its gain valid for the whole family
    require_prior_conditions(report)
    if not report.stabilization_stabilizability_prior:  # full-rank data it rejects
        raise PreconditionError("the data are not informative for stabilization")
    comp = report.compression
    sol = solve_stab_lmi(D, comp, cfg)
    if not sol.feasible:
        raise PreconditionError("stabilizability-prior LMI is infeasible for this data")
    K2 = np.zeros((D.m, D.n - comp.r))
    K = np.hstack([_gain(D, comp.x_hat_minus, sol.theta), K2]) @ comp.S
    return FeedbackGain(K=K, provenance=GainProvenance.STAB_PRIOR,
                        k2=K2, k2_policy="zero"), sol, comp


def synthesize(D: DataMatrices, cfg: NumericalConfig = DEFAULT_CONFIG,
               report: InformativityReport | None = None
               ) -> tuple[FeedbackGain, LmiSolution, RowCompression]:
    """Gain from the branch the data select, for data the report finds informative.

    ``report`` defaults to ``check_stabilizability_prior(D, cfg)``; data it
    rejects raise PreconditionError before any solve. Full-rank state data go
    through ``solve_plain_lmi`` then ``gain_from_plain``, rank-deficient data
    through ``synthesize_stab`` on the report. No feasible Theta
    for informative data, like a solver breakdown, raises SolverFailure.
    """
    report = report if report is not None else check_stabilizability_prior(D, cfg)
    if not report.stabilization_stabilizability_prior:
        raise PreconditionError("the data are not informative for stabilization")
    try:
        if report.branch is Branch.RANK_DEFICIENT:
            return synthesize_stab(D, cfg, report)
        sol = solve_plain_lmi(D, cfg)
        return gain_from_plain(D, sol), sol, report.compression
    except PreconditionError as exc:
        raise SolverFailure(f"the data are informative, yet no gain: {exc}") from exc


def problem_to_json(problem: LmiFeasibilityProblem) -> str:
    """Debug dump; floats use shortest round-trip decimal form."""
    payload = {
        "var_rows": problem.diag_coeff.shape[1],
        "var_cols": problem.diag_coeff.shape[0],
        "diag_coeff": problem.diag_coeff.tolist(),
        "offdiag_coeff": problem.offdiag_coeff.tolist(),
        "objective": "maximize slack t with assembled block >= t*I",
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
