"""Dense matrix numerics shared by every other module.

Rank decisions, row compression, spectra, subspace inclusion, and the
system-theoretic predicates (Schur / controllable / stabilizable). All
functions are pure and operate on plain 2-D numpy arrays;
``spectral_radius``, ``controllability_matrix`` and ``is_stabilizable``
also take (N, ., .) stacks and treat each member as if it were passed
alone, and ``rank_cutoff`` takes an (N, k) stack of spectra.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np


@dataclass(frozen=True)
class NumericalConfig:
    """Tolerances that turn exact-arithmetic statements into float decisions.

    rank_rel_tol is scaled internally by max(rows, cols) of the matrix under
    test, so the effective singular-value cutoff is
    ``rank_rel_tol * max(shape) * sigma_max``.

    Every field is finite and positive. ``rank_rel_tol``, ``subspace_tol``
    and ``schur_margin`` are also below 1: at ``rank_rel_tol >= 1`` every
    rank is 0, at ``subspace_tol >= 1`` every containment holds (the
    residual never exceeds ``max(1, ||M||)``), and at ``schur_margin >= 1``
    no nonzero spectral radius passes.
    """

    rank_rel_tol: float = 1e-9
    subspace_tol: float = 1e-8
    schur_margin: float = 1e-6
    psd_margin: float = 1e-7
    equality_tol: float = 1e-8

    def __post_init__(self):
        for f in fields(self):
            if not 0.0 < getattr(self, f.name) < np.inf:
                raise ValueError(f"{f.name} must be finite and strictly positive")
        for name in ("rank_rel_tol", "subspace_tol", "schur_margin"):
            if not getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be < 1")


DEFAULT_CONFIG = NumericalConfig()


@dataclass(frozen=True)
class RowCompression:
    """Orthogonal change of coordinates S sending X_minus to [X_hat_minus; 0].

    ``S`` is n x n orthogonal, ``r`` the numerical rank of X_minus,
    ``x_hat_minus`` the full-row-rank top block of S @ X_minus and
    ``x_hat_plus`` the first r rows of S @ X_plus, ``sv`` the singular values
    r was decided from (None where no SVD was taken).
    """

    S: np.ndarray
    r: int
    x_hat_minus: np.ndarray
    x_hat_plus: np.ndarray
    sv: np.ndarray | None = None


def rank_cutoff(sv: np.ndarray, shape: tuple[int, int],
                cfg: NumericalConfig) -> float | np.ndarray:
    """Singular-value cutoff of every rank decision (inf for a zero spectrum).

    ``sv`` is a descending spectrum of a matrix of the given shape (or a
    bound on its leading value alone, as ``is_stabilizable`` passes); an
    (N, k) stack of spectra of N such matrices gives the N cutoffs, each
    from its own row's leading value.
    """
    if sv.ndim == 2:
        lead = sv[:, 0] if sv.shape[1] else np.zeros(len(sv))
        return np.where(lead == 0.0, np.inf, cfg.rank_rel_tol * max(shape) * lead)
    if sv.size == 0 or sv[0] == 0.0:
        return np.inf
    return cfg.rank_rel_tol * max(shape) * sv[0]


def numerical_rank(M: np.ndarray, cfg: NumericalConfig = DEFAULT_CONFIG) -> int:
    """Number of singular values above the relative cutoff (0 for a zero matrix)."""
    M = np.atleast_2d(M)
    if M.size == 0:
        return 0
    sv = np.linalg.svd(M, compute_uv=False)
    return int(np.count_nonzero(sv > rank_cutoff(sv, M.shape, cfg)))


def rank_revealing_svd(M: np.ndarray, cfg: NumericalConfig = DEFAULT_CONFIG
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Full SVD M = U diag(sv) Vt and numerical rank r: U[:, :r] spans col(M),
    U[:, r:] its left null space, and pinv(M) = Vt[:r].T diag(1/sv[:r]) U[:, :r].T."""
    U, sv, Vt = np.linalg.svd(M)
    return U, sv, Vt, int(np.count_nonzero(sv > rank_cutoff(sv, M.shape, cfg)))


def row_compress(x_minus: np.ndarray, x_plus: np.ndarray,
                 cfg: NumericalConfig = DEFAULT_CONFIG) -> RowCompression:
    """Compress the state data: S @ x_minus = [x_hat_minus; ~0] with S orthogonal.

    Any nonsingular S satisfying the identity would do; an orthogonal one
    (left singular vectors of x_minus) keeps downstream products well
    conditioned. x_minus and x_plus must have equal shape.
    """
    x_minus = np.atleast_2d(np.asarray(x_minus, dtype=float))
    x_plus = np.atleast_2d(np.asarray(x_plus, dtype=float))
    if x_minus.shape != x_plus.shape:
        raise ValueError(f"shape mismatch: {x_minus.shape} vs {x_plus.shape}")
    n = x_minus.shape[0]
    if x_minus.size == 0 or not x_minus.any():
        return RowCompression(S=np.eye(n), r=0,
                              x_hat_minus=x_minus[:0],
                              x_hat_plus=x_plus[:0])
    U, sv, _, r = rank_revealing_svd(x_minus, cfg)
    S = U.T.copy()
    # fix the sign ambiguity of the singular vectors so results are
    # deterministic: leading entry of each compressed row made positive
    compressed = S @ x_minus
    for i in range(n):
        row = compressed[i] if i < r else S[i]
        if row[np.argmax(np.abs(row))] < 0:
            S[i] = -S[i]
    return RowCompression(S=S, r=r,
                          x_hat_minus=S[:r] @ x_minus,
                          x_hat_plus=S[:r] @ x_plus, sv=sv)


def spectral_radius(M: np.ndarray) -> float | np.ndarray:
    """max |eigenvalue|; 0.0 for the empty 0 x 0 matrix.

    An (N, k, k) stack gives the N radii as an array, each equal to the
    radius of its matrix taken alone.
    """
    M = np.atleast_2d(M)
    if M.shape[-1] == 0:
        rho = np.zeros(M.shape[:-2])
    else:
        rho = np.abs(np.linalg.eigvals(M)).max(axis=-1)
    return float(rho) if M.ndim == 2 else rho


def is_schur(M: np.ndarray, cfg: NumericalConfig = DEFAULT_CONFIG) -> bool:
    return spectral_radius(M) <= 1.0 - cfg.schur_margin


def controllability_matrix(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """[B, AB, ..., A^(n-1) B]; for stacks (N, n, n) and (N, n, m), one per member."""
    A = np.atleast_2d(A)
    B = np.atleast_2d(B)
    n = A.shape[-1]
    blocks = []
    col = B
    for _ in range(n):
        blocks.append(col)
        col = A @ col
    if not blocks:
        return np.zeros(A.shape[:-2] + (0, 0))
    return np.concatenate(blocks, axis=-1)


def is_controllable(A: np.ndarray, B: np.ndarray,
                    cfg: NumericalConfig = DEFAULT_CONFIG) -> bool:
    return numerical_rank(controllability_matrix(A, B), cfg) == np.atleast_2d(A).shape[0]


def is_stabilizable(A: np.ndarray, B: np.ndarray,
                    cfg: NumericalConfig = DEFAULT_CONFIG) -> bool | np.ndarray:
    """Eigenvalue test: rank [A - lambda*I, B] = n at every |lambda| >= 1 - margin.

    Stacks (N, n, n) and (N, n, m) give the N verdicts as a boolean array,
    each equal to its member's own: one stacked ``eigvals``, then one
    stacked SVD over the pencils of every (member, eigenvalue) pair on or
    outside the margin. Each pencil is ranked at the shared cutoff taken
    relative to ``||[A B]||_F + |lambda|``, a bound on the size of its two
    terms, not to its own largest singular value: a one-row pencil would
    then drop rank only when it is exactly zero, so a negligible B would
    stabilize any scalar system.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    stacked = A.ndim == 3
    if not stacked:
        A, B = A[None], B[None]
    n = A.shape[-1]
    AB = np.concatenate([A, B], axis=-1)
    lams = np.linalg.eigvals(A)
    # hypot, not np.abs: it rounds |lambda| as abs() does on one eigenvalue
    modulus = np.hypot(lams.real, lams.imag)
    k, j = np.nonzero(modulus >= 1.0 - cfg.schur_margin)
    pencils = AB[k].astype(complex)
    diagonal = np.arange(n)
    pencils[:, diagonal, diagonal] -= lams[k, j][:, None]
    scale = np.sqrt(np.square(AB).sum(axis=(1, 2)))[k] + modulus[k, j]
    sv = np.linalg.svd(pencils, compute_uv=False)
    cutoff = rank_cutoff(scale[:, None], pencils.shape[1:], cfg)
    ok = np.ones(len(A), dtype=bool)
    ok[k[np.count_nonzero(sv > cutoff[:, None], axis=-1) < n]] = False
    return ok if stacked else bool(ok[0])


def subspace_contained(M: np.ndarray, N: np.ndarray,
                       cfg: NumericalConfig = DEFAULT_CONFIG) -> bool:
    """True iff the column space of M lies in the column space of N.

    Decided by projecting M onto an orthonormal basis of col(N):
    ||(I - P_N) M|| <= subspace_tol * max(1, ||M||) in the spectral norm.
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    N = np.atleast_2d(np.asarray(N, dtype=float))
    if M.shape[0] != N.shape[0]:
        raise ValueError("M and N must have the same number of rows")
    if M.size == 0 or not M.any():
        return True
    if N.size == 0 or not N.any():
        return False
    U, _, _, r = rank_revealing_svd(N, cfg)
    Q = U[:, :r]
    resid = M - Q @ (Q.T @ M)
    return bool(np.linalg.norm(resid, 2) <= cfg.subspace_tol * max(1.0, np.linalg.norm(M, 2)))


def pinv(M: np.ndarray, cfg: NumericalConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Moore-Penrose pseudoinverse with the shared rank cutoff."""
    U, sv, Vt, r = rank_revealing_svd(np.atleast_2d(np.asarray(M, dtype=float)), cfg)
    return (Vt[:r].T / sv[:r]) @ U[:, :r].T


def matrix_exponential(M: np.ndarray) -> np.ndarray:
    """e^M (scaling-and-squaring Pade, via scipy)."""
    # imported here: only zoh_discretize reaches this, and a process that
    # never discretizes then never loads scipy
    import scipy.linalg
    return scipy.linalg.expm(np.atleast_2d(np.asarray(M, dtype=float)))
