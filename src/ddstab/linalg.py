"""Dense matrix numerics shared by every other module.

Rank decisions, row compression, spectra, subspace inclusion, the Hautus
test of a pencil and the system-theoretic predicates (Schur / controllable
/ stabilizable). All functions are pure. Every rank and spectral predicate
has one body that takes a matrix or an (N, ., .) stack (an (N, k) stack of
spectra for ``rank_cutoff``), decides each member as if it were passed
alone and a matrix as a stack of one; ``rank_cutoff``, ``numerical_rank``
and ``pencil_full_rank`` also take each member's own column count, so a
stack zero-padded to one width is decided as its unpadded members would be.
``row_compress`` and ``rank_revealing_svd`` each take one matrix;
``subspace_contained`` takes (N, ., .) stacks and reads the row
compression of the spanning stack instead of factoring it.
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
    r was decided from and ``Vt`` the matching right singular vectors, signed
    as the rows of S, so that X_minus = S[:len(sv)].T @ diag(sv) @ Vt.
    ``row_compress`` always fills both; they stay None only in a compression
    built by hand.
    """

    S: np.ndarray
    r: int
    x_hat_minus: np.ndarray
    x_hat_plus: np.ndarray
    sv: np.ndarray | None = None
    Vt: np.ndarray | None = None


def rank_cutoff(sv: np.ndarray, shape: tuple, cfg: NumericalConfig) -> float | np.ndarray:
    """Cutoff ``rank_rel_tol * max(shape) * sv[0]`` of every rank decision
    (0, which no singular value exceeds, for a zero or empty spectrum).

    ``sv`` is a descending spectrum of a matrix of the given shape (or a bound
    on its leading value alone, as ``pencil_full_rank`` passes for its
    pencils), or an (N, k) stack of spectra of N such matrices, each cut from
    its own leading value. For a stack, either entry of ``shape`` may be an
    (N,) array of each member's own count: a zero-padded member is ranked at
    its unpadded shape.
    """
    # sv.T[0]: a scalar for one spectrum, the leading column of a stack
    lead = sv.T[0] if sv.shape[-1] else np.zeros(sv.shape[:-1])
    return np.maximum(*shape) * cfg.rank_rel_tol * lead


def numerical_rank(M: np.ndarray, cfg: NumericalConfig = DEFAULT_CONFIG,
                   cols: np.ndarray | None = None) -> int | np.ndarray:
    """Number of singular values above the relative cutoff (0 for a zero or empty matrix).

    An (N, k, T) stack gives the N ranks from one values-only SVD; members
    zero-padded to one T pass their own column counts as ``cols``.
    """
    M = np.atleast_2d(M)
    sv = np.linalg.svd(M, compute_uv=False)
    cutoff = rank_cutoff(sv, (M.shape[-2], M.shape[-1] if cols is None else cols), cfg)
    r = (sv.T > cutoff).sum(axis=0)
    return int(r) if M.ndim == 2 else r


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

    The SVD is the economy one whenever that still gives all n left singular
    vectors (n <= T), so no T x T factor is built; its ``Vt`` lets
    ``pencil_full_rank`` read L^+ off this compression. Zero and empty
    x_minus take the same route: numpy factors a zero matrix with U = I, so
    S = I, r = 0 and sv is zero.
    """
    x_minus = np.atleast_2d(np.asarray(x_minus, dtype=float))
    x_plus = np.atleast_2d(np.asarray(x_plus, dtype=float))
    if x_minus.shape != x_plus.shape:
        raise ValueError(f"shape mismatch: {x_minus.shape} vs {x_plus.shape}")
    n = x_minus.shape[0]
    U, sv, Vt = np.linalg.svd(x_minus, full_matrices=n > x_minus.shape[1])
    r = int(np.count_nonzero(sv > rank_cutoff(sv, x_minus.shape, cfg)))
    S = U.T.copy()
    # fix the sign ambiguity of the singular vectors so results are
    # deterministic: leading entry of each compressed row made positive.
    # Array methods and in-place negation (exact) keep each row to a few
    # numpy calls; a vectorized form costs more at these sizes
    compressed = S @ x_minus
    for i in range(n):
        row = compressed[i] if i < r else S[i]
        if row[abs(row).argmax()] < 0:
            S[i] *= -1.0
            if i < len(Vt):
                Vt[i] *= -1.0
    return RowCompression(S=S, r=r,
                          x_hat_minus=S[:r] @ x_minus,
                          x_hat_plus=S[:r] @ x_plus, sv=sv, Vt=Vt)


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
                    cfg: NumericalConfig = DEFAULT_CONFIG) -> bool | np.ndarray:
    return numerical_rank(controllability_matrix(A, B), cfg) == np.atleast_2d(A).shape[-1]


def pencil_full_rank(L: np.ndarray, P: np.ndarray,
                     cfg: NumericalConfig = DEFAULT_CONFIG,
                     svd: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
                     cols: np.ndarray | None = None) -> bool | np.ndarray:
    """Hautus test of the k x T pencil P - lambda*L: L has full row rank k and
    rank(P - lambda*L) = k at every eigenvalue lambda of F = P L^+ with
    |lambda| >= 1 - schur_margin.

    With (L, P) = (X_minus, X_plus) this decides whether the data are
    informative for stabilization (van Waarde, Eising, Camlibel & Trentelman,
    "Data informativity", IEEE TAC 2020); with (L, P) = ([I 0], [A B]), where
    F = A, it is the stabilizability of (A, B).

    L's rank, at the shared cutoff, and its pseudoinverse are read off one
    thin SVD of L (a unit spectrum, as [I 0]'s, is full at any tolerance); a
    caller that holds one passes it as ``svd = (S, sv, Vt)`` with S = U^T,
    stacked as L is, and it is read instead of taking another (the rows of S
    and Vt may carry matching signs, which cancel in L^+). Each pencil is
    ranked at the shared cutoff taken relative to ||P||_F + |lambda|
    sigma_1(L), a bound on the size of its two terms, not to its own largest
    singular value: a one-row pencil would then drop rank only when it is
    exactly zero, so a negligible B would stabilize any scalar system.

    Stacks (N, k, T) give the N verdicts as a boolean array, each equal to its
    member's own: one stacked ``eigvals``, then one stacked SVD over the
    pencils of every (member, eigenvalue) pair on or outside the margin, or
    none when no pair lies there; a single pencil is decided as a stack of
    one. Members zero-padded to a common T pass their own column counts as
    ``cols``: zero columns change neither L^+'s action nor any pencil rank,
    and every cutoff is taken at the member's own shape.
    """
    L = np.atleast_2d(np.asarray(L, dtype=float))
    P = np.atleast_2d(np.asarray(P, dtype=float))
    stacked = L.ndim == 3
    if not stacked:
        L, P = L[None], P[None]
        svd = None if svd is None else tuple(f[None] for f in svd)
    k, T = L.shape[1:]
    if k == 0 or T < k or not len(L):
        # no eigenvalue to test: rank k = 0 is full, a wide L^T is not
        ok = np.full(len(L), k == 0)
        return ok if stacked else bool(ok[0])
    if svd is None:
        U, sv, Vt = np.linalg.svd(L, full_matrices=False)
        svd = U.transpose(0, 2, 1), sv, Vt
    S, sv, Vt = svd
    full = np.flatnonzero((sv[:, k - 1] > rank_cutoff(sv, (k, T if cols is None else cols), cfg))
                          | (sv == 1.0).all(axis=1))
    # views, not copies, where every member has full rank
    keep = full if len(full) < len(L) else slice(None)
    F = P[keep] @ (Vt[keep].transpose(0, 2, 1) / sv[keep, None, :]) @ S[keep]
    ok = np.zeros(len(L), dtype=bool)
    ok[full] = True
    lams = np.linalg.eigvals(F)
    # hypot, not np.abs: it rounds |lambda| as abs() does on one eigenvalue
    modulus = np.hypot(lams.real, lams.imag)
    i, j = np.nonzero(modulus >= 1.0 - cfg.schur_margin)
    if not len(i):  # every eigenvalue inside the margin: no pencil to rank
        return ok if stacked else bool(ok[0])
    members = full[i]
    pencils = np.multiply(L[members], lams[i, j][:, None, None], dtype=complex)
    np.subtract(P[members], pencils, out=pencils)
    scale = np.sqrt(np.square(P).sum(axis=(1, 2)))[members] + modulus[i, j] * sv[members, 0]
    pencil_sv = np.linalg.svd(pencils, compute_uv=False)
    cutoff = rank_cutoff(scale[:, None], (k, T if cols is None else cols[members]), cfg)
    ok[members[np.count_nonzero(pencil_sv > cutoff[:, None], axis=-1) < k]] = False
    return ok if stacked else bool(ok[0])


def is_stabilizable(A: np.ndarray, B: np.ndarray,
                    cfg: NumericalConfig = DEFAULT_CONFIG) -> bool | np.ndarray:
    """Eigenvalue test: rank [A - lambda*I, B] = n at every |lambda| >= 1 - margin.

    The pencil test of ``pencil_full_rank`` with (L, P) = ([I 0], [A B]),
    handed the thin SVD of L = [I 0] as its factors: S = I, sv = 1 (full at
    any tolerance) and Vt = [I 0]. There F = A and sigma_1(L) = 1, so each
    pencil [A - lambda*I, B] is ranked relative to ||[A B]||_F + |lambda|.
    Stacks (N, n, n) and (N, n, m) give the N verdicts as a boolean array,
    each equal to its member's own.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    n = A.shape[-1]
    L = np.zeros(B.shape[:-2] + (n, n + B.shape[-1]))
    L[..., :n] = np.eye(n)
    svd = L[..., :n], np.ones(L.shape[:-1]), L
    return pencil_full_rank(L, np.concatenate([A, B], axis=-1), cfg, svd)


def subspace_contained(M: np.ndarray, N: np.ndarray, S: np.ndarray, r: np.ndarray,
                       cfg: NumericalConfig = DEFAULT_CONFIG) -> tuple[np.ndarray, np.ndarray]:
    """Whether the column space of M lies in that of N, for each member of
    (K, n, T) stacks, given the row compressions of N: (K, n, n) orthogonal
    S and (K,) ranks r, each S[r:] spanning the left null space of its N at
    the rank cutoff (``row_compress``'s S and r, stacked).

    Returns the verdicts and the residuals ||S[r:] M||_2, the part of M
    outside col(N): residual <= subspace_tol * max(1, ||M||_2). One
    values-only SVD per rank below n that occurs; a member of rank n, or
    with an all-zero M, has residual 0. An all-zero M is contained, and a
    nonzero one is not contained in an all-zero N.
    """
    residual = np.zeros(len(r))
    m_nonzero = M.any(axis=(1, 2))
    outside = m_nonzero & (r < N.shape[1])
    for rank in set(r[outside].tolist()):
        idx = np.flatnonzero(outside & (r == rank))
        residual[idx] = np.linalg.svd(S[idx, rank:] @ M[idx], compute_uv=False)[:, 0]
    # tol * max(1, ||M||) is max(tol, tol * ||M||) exactly, so the norm of M
    # is taken only where the residual exceeds tol itself
    n_nonzero = N.any(axis=(1, 2))
    ok = ~m_nonzero | (n_nonzero & (residual <= cfg.subspace_tol))
    wide = np.flatnonzero(~ok & n_nonzero)
    if len(wide):
        norms = np.linalg.svd(M[wide], compute_uv=False)[:, 0]
        ok[wide] = residual[wide] <= cfg.subspace_tol * norms
    return ok, residual


# (theta_m, Pade coefficients b_0..b_m) of degree m = 3, 5, 7, 9: up to
# 1-norm theta_m that degree is accurate to unit roundoff without scaling
# (Higham, "The scaling and squaring method for the matrix exponential
# revisited", SIAM J. Matrix Anal. Appl. 26(4), 2005); degree 13 beyond
_PADE = (
    (1.495585217958292e-2, (120.0, 60.0, 12.0, 1.0)),
    (2.539398330063230e-1, (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0)),
    (9.504178996162932e-1, (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0,
                            1512.0, 56.0, 1.0)),
    (2.097847961257068e0, (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0,
                           30270240.0, 2162160.0, 110880.0, 3960.0, 90.0, 1.0)),
)
_THETA_13 = 5.371920351148152e0
_PADE_13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
            1187353796428800.0, 129060195264000.0, 10559470521600.0,
            670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
            16380.0, 182.0, 1.0)


def matrix_exponential(M: np.ndarray) -> np.ndarray:
    """e^M by Higham's scaling and squaring Pade method (SIAM J. Matrix Anal.
    Appl. 2005), in numpy alone.

    The least Pade degree 3, 5, 7 or 9 whose threshold theta_m bounds
    ||M||_1 is used unscaled; past theta_9, degree 13 on M / 2^s with the
    least s that brings the norm within theta_13, then s squarings. The
    approximant r_m = (V - U)^{-1} (V + U), with U odd and V even in M, is
    one ``np.linalg.solve``. A non-square or non-finite M raises ValueError.
    """
    A = np.atleast_2d(np.asarray(M, dtype=float))
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    n = len(A)
    if n == 0:
        return A.copy()
    norm = np.abs(A).sum(axis=0).max()
    if not np.isfinite(norm):
        raise ValueError("expected a finite matrix")
    eye = np.eye(n)
    A2 = A @ A
    for theta, b in _PADE:
        if norm <= theta:
            powers = [eye, A2]
            while len(powers) < len(b) // 2:
                powers.append(powers[-1] @ A2)
            U = A @ sum(c * P for c, P in zip(b[1::2], powers))
            V = sum(c * P for c, P in zip(b[::2], powers))
            return np.linalg.solve(V - U, V + U)
    s = max(0, int(np.ceil(np.log2(norm / _THETA_13))))
    A = A / 2.0**s
    A2 = A2 / 4.0**s
    A4 = A2 @ A2
    A6 = A4 @ A2
    b = _PADE_13
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye)
    V = A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2) \
        + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * eye
    E = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        E = E @ E
    return E
