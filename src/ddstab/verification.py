"""Certify a candidate gain against the whole consistent family.

Sampling the affine family can only ever falsify ("Schur for all members"
is not decidable from finitely many draws), so a passing report is
evidence while a failing one is proof and carries the offending member.
The structural checks (nullity of the homogeneous directions on the
reachable subspace, block decomposition under the compression) are the
constructive complement: they hold exactly for gains produced by the
synthesis route.

Each sampled draw reads NumPy's stream for ``default_rng((seed, scale
index, draw index))``. Only the seeding is vectorized: SeedSequence's hash
and PCG64's seeding are integer arithmetic, computed here for a whole
chunk of draws at once, and each scale's first state is checked against
NumPy's own seeding.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .data import (ConsistentSet, DataMatrices, LtiSystem, consistency_residual,
                   reachable_part, require_prior_conditions, sample_consistent)
from .errors import PreconditionError
from .linalg import (DEFAULT_CONFIG, NumericalConfig, RowCompression,
                     controllability_matrix, is_controllable, is_schur,
                     is_stabilizable, spectral_radius)
from .sdp import AffineLmiFeasibility, BarrierBackend
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

# NumPy's SeedSequence: a pool of four 32-bit words and its hash constants;
# PCG64 seeds its 128-bit LCG with this multiplier.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = (1 << 32) - 1
_MASK128 = (1 << 128) - 1


def _words(value: int) -> list[int]:
    """The little-endian 32-bit words SeedSequence reads off a non-negative int."""
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _hasher(hash_const: int, mult: int):
    """SeedSequence's hashmix on uint32 arrays, which wrap as its C code does;
    the multiplier advances call by call."""
    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * mult & _MASK32
        value = value * hash_const
        return value ^ (value >> 16)
    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> 16)


def _pcg64_seeding(entropy: list[np.ndarray]) -> list[tuple[int, int]]:
    """PCG64's (state, inc) for each column of the uint32 entropy rows.

    SeedSequence's pool and its ``generate_state(4, uint64)`` run on every
    column at once; PCG64's ``srandom`` then runs on Python ints.
    """
    hashmix = _hasher(_INIT_A, _MULT_A)
    zeros = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zeros) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = _mix(pool[i_dst], hashmix(word))
    hashmix = _hasher(_INIT_B, _MULT_B)
    out = [hashmix(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(8)]
    # generate_state pairs the words little-endian into four uint64; PCG64
    # takes the first two as its initial state, the last two as its sequence
    state_hi, state_lo, seq_hi, seq_lo = ((out[2 * k] | out[2 * k + 1] << 32).tolist()
                                          for k in range(4))
    seeded = []
    for s_hi, s_lo, q_hi, q_lo in zip(state_hi, state_lo, seq_hi, seq_lo):
        inc = ((q_hi << 64 | q_lo) << 1 | 1) & _MASK128
        seeded.append((((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128, inc))
    return seeded


def _pcg64_states(seed: int, i_scale: int, start: int, stop: int) -> list[tuple[int, int]]:
    """(state, inc) of ``np.random.default_rng((seed, i_scale, i))``'s PCG64
    for every i in range(start, stop), seeded in one vectorized pass.

    ``seed``, ``i_scale`` and the draw indices are non-negative ints of any
    size; the indices with as many 32-bit words as each other share a pass.
    """
    prefix = _words(operator.index(seed)) + _words(i_scale)
    seeded = []
    lo = start
    while lo < stop:
        lo_words = _words(lo)
        hi = min(stop, 1 << 32 * len(lo_words))
        # the words of lo + offset, the carry running from word to word
        carry = np.arange(hi - lo, dtype=np.uint64)
        index_words = []
        for word in lo_words:
            total = carry + word
            index_words.append((total & _MASK32).astype(np.uint32))
            carry = total >> 32
        seeded += _pcg64_seeding([np.full(hi - lo, w, dtype=np.uint32) for w in prefix]
                                 + index_words)
        lo = hi
    return seeded


def _draws(n: int, d: int, scales: tuple[float, ...], n_samples: int, seed: int):
    """The stacked (k, n, d) coefficient matrices W of each chunk, in draw order.

    A chunk holds up to ``VERIFY_CHUNK`` consecutive draws of one scale.
    Draw ``i_draw`` of scale ``i_scale`` is, bit for bit,
    ``scale * np.random.default_rng((seed, i_scale, i_draw)).normal(size=(n, d))``:
    the stream is NumPy's, only its seeding is vectorized. The PCG64 states
    of a chunk are computed in one pass, and one generator draws from each
    in turn. Each scale's first state is checked against NumPy's own
    seeding, which also raises NumPy's errors for a seed it refuses; a
    mismatch raises RuntimeError.
    """
    rng = None
    for i_scale, scale in enumerate(scales):
        for start in range(0, n_samples, VERIFY_CHUNK):
            if start == 0:
                reference = np.random.PCG64(np.random.SeedSequence((seed, i_scale, 0)))
                expected = reference.state["state"]
                if rng is None:
                    rng = np.random.Generator(reference)
            seeded = _pcg64_states(seed, i_scale, start, min(n_samples, start + VERIFY_CHUNK))
            if start == 0 and seeded[0] != (expected["state"], expected["inc"]):
                raise RuntimeError("vectorized seeding disagrees with NumPy's PCG64 "
                                   f"seeding for seed {seed!r}, scale index {i_scale}")
            W = np.empty((len(seeded), n, d))
            for W_i, (state, inc) in zip(W, seeded):
                rng.bit_generator.state = {"bit_generator": "PCG64",
                                           "state": {"state": state, "inc": inc},
                                           "has_uint32": 0, "uinteger": 0}
                W_i[...] = rng.normal(size=(n, d))
            W *= scale
            yield W


def verify_gain(cs: ConsistentSet, gain: FeedbackGain, n_samples: int = 200,
                scales: tuple[float, ...] = (0.1, 1.0, 10.0), seed: int = 0,
                cfg: NumericalConfig = DEFAULT_CONFIG,
                compute_structural: bool = True) -> VerificationReport:
    """Spectral radii of A + B K over Gaussian draws from the consistent family.

    Gains carrying the stabilizability prior are only required to stabilize
    the stabilizable members, so non-stabilizable draws are rejected (and
    counted); plain gains face every member. Each draw owns its own RNG
    stream, ``np.random.default_rng((seed, scale index, draw index))``, so
    the report is reproducible under any evaluation order. The stream is
    unchanged; only its seeding is vectorized, and each scale's first state
    is checked against NumPy's (RuntimeError if they differ; a seed NumPy
    refuses raises NumPy's own error). Draws are taken in chunks of up to
    ``VERIFY_CHUNK`` of one scale: each chunk is seeded, sampled, filtered
    and evaluated as one stack, and the report equals a draw-by-draw
    evaluation bit for bit, the worst member being the first maximum in
    draw order. A report with no tested draw does not pass. Raises
    PreconditionError when a scale is not positive or puts a member outside
    the floating-point range.
    """
    for scale in scales:
        if not scale > 0:
            raise PreconditionError(f"scale {scale!r} is not positive")
    filter_stabilizable = gain.provenance is GainProvenance.STAB_PRIOR
    drawn = tested = rejected = 0
    worst_rho, worst = -1.0, None
    structural: list[float] = []
    # a draw that overflows raises below, so numpy need not warn of it
    with np.errstate(over="ignore", invalid="ignore"):
        for W in _draws(cs.particular.n, cs.d, scales, n_samples, seed):
            stack = sample_consistent(cs, W)
            finite = (np.isfinite(stack.A).all(axis=(1, 2))
                      & np.isfinite(stack.B).all(axis=(1, 2)))
            if not finite.all():
                scale = scales[(drawn + int(np.argmin(finite))) // n_samples]
                raise PreconditionError(f"scale {scale!r} draws members that are not finite")
            drawn += len(W)
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


def decomposition_check(D: DataMatrices, comp: RowCompression, system: LtiSystem,
                        cfg: NumericalConfig = DEFAULT_CONFIG) -> DecompositionDiagnostics:
    """Block-triangular structure of a stabilizable member under the compression.

    In the compressed coordinates a consistent stabilizable member must
    split into (A11, B1) shared with `reachable_part`, zero lower-left
    blocks, and a Schur autonomous block A22. Preconditions: the member is
    consistent and stabilizable, and (for rank-deficient data) the image
    inclusion and input-rank conditions hold.
    """
    if consistency_residual(D, system) > cfg.equality_tol * 10.0:
        raise PreconditionError("system is not consistent with the data")
    if not is_stabilizable(system.A, system.B, cfg):
        raise PreconditionError("system is not stabilizable")
    require_prior_conditions(D, comp, cfg)
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
    configured margin. Raises SolverFailure on numerical breakdown.
    """
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
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    N = np.atleast_2d(np.asarray(N, dtype=float))
    if not is_controllable(M, N, cfg):
        raise PreconditionError("base pair must be controllable")
    return sum(1 for a in alphas
               if not is_controllable(M + a * np.asarray(M0), N + a * np.asarray(N0), cfg))
