"""Certify a candidate gain against the whole consistent family.

Sampling the affine family can only ever falsify ("Schur for all members"
is not decidable from finitely many draws), so a passing report is
evidence while a failing one is proof and carries the offending member.
The structural checks (nullity of the homogeneous directions on the
reachable subspace, block decomposition under the informativity report's
compression, for data the report finds informative) are the constructive
complement: they hold exactly for gains produced by the synthesis route.

Each verification scale draws from one NumPy generator of its own,
``default_rng((seed, scale index))``, one member after another.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import (ConsistentSet, DataMatrices, LtiSystem, consistency_residual,
                   reachable_part, sample_consistent)
from .errors import PreconditionError
from .informativity import InformativityReport, require_prior_conditions
from .linalg import (DEFAULT_CONFIG, NumericalConfig, controllability_matrix,
                     is_controllable, is_schur, is_stabilizable, spectral_radius)
from .synthesis import FeedbackGain, GainProvenance


@dataclass(frozen=True)
class VerificationReport:
    samples_tested: int
    rejected_unstabilizable: int
    max_spectral_radius: float
    worst_member: LtiSystem | None
    structural_residuals: list[float]
    passed: bool
    seed: int
    scales: tuple[float, ...]

    def to_dict(self) -> dict:
        return {
            "samples_tested": self.samples_tested,
            "rejected_unstabilizable": self.rejected_unstabilizable,
            "max_spectral_radius": self.max_spectral_radius,
            "worst_member": None if self.worst_member is None else {
                "A": self.worst_member.A.tolist(),
                "B": self.worst_member.B.tolist(),
            },
            "max_structural_residual": (max(self.structural_residuals)
                                        if self.structural_residuals else 0.0),
            "passed": self.passed,
            "seed": self.seed,
            "scales": list(self.scales),
        }


@dataclass(frozen=True)
class LyapunovCertificate:
    P: np.ndarray
    decrease_margins: list[float]


# Draws whose members are evaluated together in one stacked pass; bounds
# the stacks that verify_gain holds at once.
VERIFY_CHUNK = 256

def _draws(n: int, d: int, scales: tuple[float, ...], n_samples: int, seed: int):
    """Each chunk's scale and stacked (k, n, d) coefficient matrices W, in draw order.

    A chunk holds up to ``VERIFY_CHUNK`` consecutive draws of one scale.
    Scale ``i_scale`` draws from its own generator,
    ``np.random.default_rng((seed, i_scale))``, and its draws are
    ``scale * normal(size=(n, d))`` in turn: one ``normal`` call per chunk
    reads the same numbers as one call per draw, so the draws do not depend
    on the chunk size, and the first N of a scale are the same for any
    ``n_samples >= N``. A run with no draws builds no generator.
    """
    if n_samples == 0:
        return
    for i_scale, scale in enumerate(scales):
        rng = np.random.default_rng((seed, i_scale))
        for start in range(0, n_samples, VERIFY_CHUNK):
            k = min(VERIFY_CHUNK, n_samples - start)
            yield scale, scale * rng.normal(size=(k, n, d))


def verify_gain(cs: ConsistentSet, gain: FeedbackGain, n_samples: int = 200,
                scales: tuple[float, ...] = (0.1, 1.0, 10.0), seed: int = 0,
                cfg: NumericalConfig = DEFAULT_CONFIG,
                compute_structural: bool = True) -> VerificationReport:
    """Spectral radii of A + B K over Gaussian draws from the consistent family.

    Gains carrying the stabilizability prior are only required to stabilize
    the stabilizable members, so non-stabilizable draws are rejected (and
    counted); plain gains face every member. Each scale draws from its own
    generator, ``np.random.default_rng((seed, scale index))``, one member
    after another; a seed NumPy refuses raises NumPy's own error, and a run
    with no draws seeds nothing. Draws are taken in chunks of up to
    ``VERIFY_CHUNK`` of one scale: each chunk is sampled, filtered and
    evaluated as one stack, and the report is deterministic, does not depend
    on ``VERIFY_CHUNK`` and equals a draw-by-draw evaluation bit for bit, the
    worst member being the first maximum in draw order. The first N draws of
    a scale are the same for any ``n_samples >= N``. A report with no tested
    draw does not pass. Raises PreconditionError when ``n_samples`` is
    negative, or when a scale is not positive or puts a member outside the
    floating-point range.
    """
    for scale in scales:
        if not scale > 0:
            raise PreconditionError(f"scale {scale!r} is not positive")
    if n_samples < 0:
        raise PreconditionError(f"n_samples {n_samples!r} is negative")
    filter_stabilizable = gain.provenance is GainProvenance.STAB_PRIOR
    tested = rejected = 0
    worst_rho, worst = -1.0, None
    structural: list[float] = []
    # a draw that overflows raises below, so numpy need not warn of it
    with np.errstate(over="ignore", invalid="ignore"):
        for scale, W in _draws(cs.particular.n, cs.d, scales, n_samples, seed):
            stack = sample_consistent(cs, W)
            finite = (np.isfinite(stack.A).all(axis=(1, 2))
                      & np.isfinite(stack.B).all(axis=(1, 2)))
            if not finite.all():
                raise PreconditionError(f"scale {scale!r} draws members that are not finite")
            if filter_stabilizable:
                keep = is_stabilizable(stack.A, stack.B, cfg)
                stack = LtiSystem(A=stack.A[keep], B=stack.B[keep])
            rejected += len(W) - len(stack.A)
            if not len(stack.A):
                continue
            tested += len(stack.A)
            rho = spectral_radius(stack.A + stack.B @ gain.K)
            i = int(np.argmax(rho))
            if rho[i] > worst_rho:  # strict: an earlier chunk keeps a tie
                # copies, so the report does not hold the chunk's stacks
                worst_rho = float(rho[i])
                worst = LtiSystem(A=stack.A[i].copy(), B=stack.B[i].copy())
            if compute_structural:
                structural.extend(structural_nullity(cs, gain, stack).tolist())
    passed = tested > 0 and worst_rho <= 1.0 - cfg.schur_margin
    return VerificationReport(samples_tested=tested,
                              rejected_unstabilizable=rejected,
                              max_spectral_radius=worst_rho,
                              worst_member=worst,
                              structural_residuals=structural,
                              passed=passed, seed=seed, scales=tuple(scales))


def structural_nullity(cs: ConsistentSet, gain: FeedbackGain,
                       system: LtiSystem) -> float | np.ndarray:
    """How far the homogeneous directions are from vanishing on the reachable span.

    For each basis column q = [a; b] of the homogeneous space, every
    direction (A0, B0) = (y a^T, y b^T) gives (A0 + B0 K) C = y (a^T + b^T K) C
    with C the controllability matrix of ``system``; the max row residual
    over basis columns, normalized by ||C||, is returned (0 means the
    whole family acts trivially on the reachable subspace). A ``system``
    holding stacks (N, n, n) and (N, n, m) gives an array of N residuals,
    each equal to its member's own.
    """
    C = controllability_matrix(system.A, system.B)
    c_norm = np.linalg.norm(C, 2, axis=(-2, -1))
    # a zero C gives zero rows v below; divided by inf they stay 0.0
    c_norm = np.where(c_norm == 0.0, np.inf, c_norm)
    worst = np.zeros(c_norm.shape)
    n = cs.particular.n
    for j in range(cs.d):
        q = cs.Q[:, j]
        row = q[:n] + q[n:] @ gain.K
        v = row @ C
        # v @ v per member: the dot product np.linalg.norm takes of one row
        norm = np.sqrt(v[..., None, :] @ v[..., :, None])[..., 0, 0]
        worst = np.fmax(worst, norm / c_norm)
    return float(worst) if C.ndim == 2 else worst


@dataclass(frozen=True)
class DecompositionDiagnostics:
    a21_norm: float
    b2_norm: float
    a22_spectral_radius: float
    a22_schur: bool
    a11_b1_stabilizable: bool
    reachable_match_error: float
    ok: bool


def decomposition_check(D: DataMatrices, report: InformativityReport, system: LtiSystem,
                        cfg: NumericalConfig = DEFAULT_CONFIG) -> DecompositionDiagnostics:
    """Block-triangular structure of a stabilizable member under the compression.

    In the compressed coordinates a consistent stabilizable member must
    split into (A11, B1) shared with `reachable_part`, zero lower-left
    blocks, and a Schur autonomous block A22. Preconditions: the member is
    consistent and stabilizable, and (for rank-deficient data) the report
    finds the image inclusion and input-rank conditions holding.
    """
    if consistency_residual(D, system) > cfg.equality_tol * 10.0:
        raise PreconditionError("system is not consistent with the data")
    if not is_stabilizable(system.A, system.B, cfg):
        raise PreconditionError("system is not stabilizable")
    require_prior_conditions(report)
    comp = report.compression
    r, n = comp.r, D.n
    A_c = comp.S @ system.A @ np.linalg.inv(comp.S)
    B_c = comp.S @ system.B
    A21, A22, B2 = A_c[r:, :r], A_c[r:, r:], B_c[r:, :]
    A11, B1 = A_c[:r, :r], B_c[:r, :]
    scale = max(1.0, np.linalg.norm(A_c, 2), np.linalg.norm(B_c, 2))
    tol = cfg.equality_tol * 10.0 * scale
    a21_norm = float(np.linalg.norm(A21, 2)) if A21.size else 0.0
    b2_norm = float(np.linalg.norm(B2, 2)) if B2.size else 0.0
    a22_schur = is_schur(A22, cfg)
    stab = is_stabilizable(A11, B1, cfg)
    match = 0.0
    if 0 < r < n:
        A11_data, B1_data = reachable_part(D, comp, cfg)
        match = float(np.linalg.norm(np.hstack([A11 - A11_data, B1 - B1_data]), 2))
    # plain bools: the norms compare as numpy scalars, which JSON rejects
    ok = bool(a21_norm <= tol and b2_norm <= tol and a22_schur and stab and match <= tol)
    return DecompositionDiagnostics(a21_norm=a21_norm, b2_norm=b2_norm,
                                    a22_spectral_radius=spectral_radius(A22),
                                    a22_schur=a22_schur,
                                    a11_b1_stabilizable=stab,
                                    reachable_match_error=match, ok=ok)


def _symmetric_basis(n: int) -> np.ndarray:
    """Frobenius-orthonormal basis of symmetric n x n matrices, shape (d, n, n)."""
    basis = []
    for i in range(n):
        E = np.zeros((n, n))
        E[i, i] = 1.0
        basis.append(E)
    for i in range(n):
        for j in range(i + 1, n):
            E = np.zeros((n, n))
            E[i, j] = E[j, i] = 1.0 / np.sqrt(2.0)
            basis.append(E)
    return np.array(basis)


def common_lyapunov(systems: list[np.ndarray], cfg: NumericalConfig = DEFAULT_CONFIG,
                    backend=None) -> LyapunovCertificate | None:
    """One P > 0 with P - M P M^T > 0 for every closed-loop matrix M.

    Returns None when the joint feasibility problem has no solution at the
    configured margin. Raises SolverFailure on numerical breakdown. ``sdp``
    is imported here: sampled verification never solves.
    """
    from .sdp import AffineLmiFeasibility, BarrierBackend
    backend = backend or BarrierBackend()
    mats = [np.atleast_2d(np.asarray(M, dtype=float)) for M in systems]
    if not mats:
        raise PreconditionError("need at least one closed-loop matrix")
    n = mats[0].shape[0]
    if any(M.shape != (n, n) for M in mats):
        raise PreconditionError("all closed-loop matrices must share one square shape")
    basis = _symmetric_basis(n)
    d = len(basis)
    blocks = [(np.zeros((n, n)), basis)]
    for M in mats:
        coeffs = np.array([E - M @ E @ M.T for E in basis])
        coeffs = 0.5 * (coeffs + np.transpose(coeffs, (0, 2, 1)))
        blocks.append((np.zeros((n, n)), coeffs))
    result = backend.solve(AffineLmiFeasibility(dim=d, blocks=tuple(blocks)))
    if result.t < cfg.psd_margin:
        return None
    P = np.tensordot(result.x, basis, axes=1)
    P = 0.5 * (P + P.T)
    margins = [float(np.linalg.eigvalsh(P - M @ P @ M.T).min()) for M in mats]
    return LyapunovCertificate(P=P, decrease_margins=margins)


def genericity_probe(M: np.ndarray, N: np.ndarray, M0: np.ndarray, N0: np.ndarray,
                     alphas, cfg: NumericalConfig = DEFAULT_CONFIG) -> int:
    """Count alphas where (M + a*M0, N + a*N0) loses controllability.

    Along any line through a controllable pair the uncontrollable set is
    finite (at most n^2 points), so for generic probe values the count is 0.
    ``alphas``, any iterable of numbers, is decided as one stack of pairs.
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    N = np.atleast_2d(np.asarray(N, dtype=float))
    if not is_controllable(M, N, cfg):
        raise PreconditionError("base pair must be controllable")
    a = np.fromiter(alphas, dtype=float)[:, None, None]
    return int(np.count_nonzero(~is_controllable(M + a * np.asarray(M0),
                                                 N + a * np.asarray(N0), cfg)))
