"""Test-side oracles: certificates the package itself never computes.

``common_lyapunov`` asks the barrier for one quadratic Lyapunov function
shared by a family of closed loops. Acceptance criterion 7 uses it to show
that no common certificate survives the free direction of the consistent
family; the package decides every verdict without it, and its gain routes
call the barrier only through ``synthesis.sdp_solve``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ddstab.errors import PreconditionError
from ddstab.linalg import DEFAULT_CONFIG, NumericalConfig
from ddstab.sdp import AffineLmiFeasibility, BarrierBackend


@dataclass(frozen=True)
class LyapunovCertificate:
    P: np.ndarray
    decrease_margins: list[float]


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
