"""Shared fixtures: canned datasets and the random dataset generator."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from ddstab import (DataMatrices, LtiSystem, NumericalConfig, SolverFailure,
                    TrajectoryData, build_data_matrices, row_compress, sdp, simulate)
from ddstab.linalg import rank_revealing_svd
from ddstab.synthesis import _symmetry_nullspace


@dataclass(frozen=True)
class Dataset:
    traj: TrajectoryData
    D: DataMatrices
    true_system: LtiSystem
    true_stabilizable: bool


@pytest.fixture
def cfg() -> NumericalConfig:
    return NumericalConfig()


def raising_solve(backend, problem):
    """A barrier solve that breaks down."""
    raise SolverFailure("fake breakdown")


def nan_point_solve(backend, problem):
    """A barrier solve that ends at a point with a nan entry and returns it
    through the certification every solver shares."""
    x = np.zeros(problem.dim)
    x[0] = np.nan
    return sdp._certified(problem.blocks, x)


def zero_point_solve(backend, problem):
    """A barrier solve that ends at the origin, where every block is zero:
    slack 0, so the LMI reads Infeasible."""
    return sdp._certified(problem.blocks, np.zeros(problem.dim))


@pytest.fixture(params=[raising_solve, nan_point_solve], ids=["raises", "nan_point"])
def broken_backend(request, monkeypatch):
    """Every barrier solve of the test breaks down."""
    monkeypatch.setattr(sdp.BarrierBackend, "solve", request.param)


@pytest.fixture
def newton_steps(monkeypatch):
    """The dimension of every Newton system the barrier backend factors, one
    entry per Newton step."""
    steps = []

    def counting(H, g, d, _real=sdp.BarrierBackend._newton_step):
        steps.append(d)
        return _real(H, g, d)
    monkeypatch.setattr(sdp.BarrierBackend, "_newton_step", staticmethod(counting))
    return steps


def reference_coefficients(problem, cfg):
    """The (d, 2k, 2k) coefficients of the LMI block of ``problem``, built one
    null-space direction at a time."""
    L, P = problem.diag_coeff, problem.offdiag_coeff
    k = L.shape[0]
    U, _, _, rho = rank_revealing_svd(np.vstack([L, P]), cfg)
    QG, QH = U[:k, :rho], U[k:, :rho]
    N = _symmetry_nullspace(QG, k, rho, cfg)
    d = N.shape[1]
    coeffs = np.zeros((d, 2 * k, 2 * k))
    for i in range(d):
        Z = N[:, i].reshape(rho, k)
        G, H = QG @ Z, QH @ Z
        blk = np.block([[G, H], [H.T, G]])
        coeffs[i] = 0.5 * (blk + blk.T)
    return coeffs


def projection_contained(M: np.ndarray, N: np.ndarray, cfg: NumericalConfig) -> bool:
    """col(M) inside col(N), decided by projection onto N's own SVD: with Q
    the left singular vectors of N above the rank cutoff,
    ||(I - QQ^T) M||_2 <= subspace_tol * max(1, ||M||_2). An all-zero or
    empty M is contained, and a nonzero one is not contained in an all-zero
    N. The reference for ``linalg.subspace_contained``, which reads N's row
    compression instead of factoring N."""
    if M.size == 0 or not M.any():
        return True
    if not N.any():
        return False
    U, _, _, r = rank_revealing_svd(N, cfg)
    Q = U[:, :r]
    resid = M - Q @ (Q.T @ M)
    return bool(np.linalg.norm(resid, 2) <= cfg.subspace_tol * max(1.0, np.linalg.norm(M, 2)))


def barrier_slack(coeffs) -> float:
    """The barrier backend's slack t on the LMI block with coefficients
    ``coeffs``, solved directly, past every exit ``sdp_solve`` takes first."""
    s = coeffs.shape[1]
    problem = sdp.AffineLmiFeasibility(dim=coeffs.shape[0], blocks=((np.zeros((s, s)), coeffs),))
    return sdp.BarrierBackend().solve(problem).t


def three_tank_compressed():
    """The three-tank run's data and row compression (a rank-deficient,
    compressed-LMI case)."""
    from ddstab.experiments import (THREE_TANK_INPUTS, THREE_TANK_X0,
                                    three_tank_model, zoh_discretize)
    system = zoh_discretize(three_tank_model())
    D = build_data_matrices(simulate(system, THREE_TANK_X0, THREE_TANK_INPUTS))
    return D, row_compress(D.x_minus, D.x_plus, NumericalConfig())


def scenario_trajectory(mc, index: int) -> TrajectoryData:
    """Monte Carlo scenario ``index`` of ``mc`` simulated alone over the whole
    horizon, step by step: the reference for the stacked, shortened runs
    that ``run_monte_carlo`` decides."""
    from ddstab.experiments import _scenario_draws
    return simulate(mc.system, *_scenario_draws(mc, index))


def montecarlo_windows(seed: int, scenarios: int):
    """The data of every window (T in the default list) of the first
    ``scenarios`` three-tank Monte Carlo runs at ``seed``."""
    from ddstab.experiments import MonteCarloConfig, three_tank_model, zoh_discretize
    mc = MonteCarloConfig(system=zoh_discretize(three_tank_model()),
                          scenarios=scenarios, seed=seed)
    for index in range(scenarios):
        traj = scenario_trajectory(mc, index)
        for T in mc.t_list:
            yield build_data_matrices(TrajectoryData(inputs=traj.inputs[:T],
                                                     states=traj.states[:T + 1]))


def scalar_full_rank() -> DataMatrices:
    """x = 1 -> 0.5 under u = 0: full-rank state data, so verdicts solve the plain LMI."""
    return build_data_matrices(simulate(LtiSystem(A=[[0.5]], B=[[1.0]]),
                                        np.array([1.0]), np.array([[0.0]])))


def scalar_near_margin(gap: float) -> TrajectoryData:
    """x+ = (1 - gap) x with b = 0, from x = 1 under u = (1, -1, 2).

    At gap 5e-7 or 9e-7 the uncontrollable mode lies within schur_margin of
    the unit circle, so the pencil test finds the data not informative, while
    the plain LMI still reaches psd_margin: the two routes disagree there.
    """
    return simulate(LtiSystem(A=[[1.0 - gap]], B=[[0.0]]), np.array([1.0]),
                    np.array([[1.0], [-1.0], [2.0]]))


def example1_matrices() -> DataMatrices:
    traj = TrajectoryData(
        inputs=np.array([[1.0], [2.0], [-1.0]]),
        states=np.array([[1.0, 0.0], [2.0, 0.0], [4.0, 0.0], [3.0, 0.0]]))
    return build_data_matrices(traj)


@pytest.fixture
def example1() -> DataMatrices:
    return example1_matrices()


def random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return Q


def random_system(rng: np.random.Generator, n: int, m: int,
                  uncontrollable: bool, stable_tail: bool) -> tuple[LtiSystem, np.ndarray]:
    """Random system plus a basis change T with A = T^-1 [blocks] T.

    ``uncontrollable`` forces an unreachable block of positive dimension;
    ``stable_tail`` makes that block Schur (so the pair stays stabilizable).
    Returns the system and the matrix T (identity for the dense case).
    """
    if not uncontrollable or n == 1:
        A = rng.normal(size=(n, n))
        radius = max(np.abs(np.linalg.eigvals(A)).max(), 1e-3)
        A *= rng.uniform(0.3, 1.4) / radius
        return LtiSystem(A=A, B=rng.normal(size=(n, m))), np.eye(n)
    n2 = int(rng.integers(1, n))
    n1 = n - n2
    A11 = rng.normal(size=(n1, n1))
    if n1:
        radius = max(np.abs(np.linalg.eigvals(A11)).max(), 1e-3)
        A11 *= rng.uniform(0.3, 1.4) / radius
    A22 = rng.normal(size=(n2, n2))
    radius = max(np.abs(np.linalg.eigvals(A22)).max(), 1e-3)
    A22 *= (rng.uniform(0.2, 0.9) if stable_tail else rng.uniform(1.05, 1.5)) / radius
    blocks = np.zeros((n, n))
    blocks[:n1, :n1] = A11
    blocks[:n1, n1:] = rng.normal(size=(n1, n2))
    blocks[n1:, n1:] = A22
    B = np.vstack([rng.normal(size=(n1, m)), np.zeros((n2, m))])
    T = random_orthogonal(rng, n)
    return LtiSystem(A=T.T @ blocks @ T, B=T.T @ B), T


def random_dataset(rng: np.random.Generator, n_max: int = 5, m_max: int = 2,
                   stabilizable_only: bool = False) -> Dataset:
    """Mixed draw: dense and uncontrollable systems, varied horizons and starts."""
    from ddstab import is_stabilizable

    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    uncontrollable = bool(rng.random() < 0.5)
    stable_tail = stabilizable_only or bool(rng.random() < 0.7)
    system, T = random_system(rng, n, m, uncontrollable, stable_tail)
    T_len = int(rng.integers(1, 2 * (n + m) + 3))
    start_kind = rng.random()
    if start_kind < 0.25:
        x0 = np.zeros(n)
    elif start_kind < 0.6 and uncontrollable and n > 1:
        # start inside the reachable block so the state data stay rank deficient
        lifted = rng.normal(size=n)
        lifted[-1] = 0.0
        x0 = T.T @ lifted
    else:
        x0 = rng.normal(size=n)
    inputs = rng.normal(size=(T_len, m))
    if rng.random() < 0.1:
        inputs[:] = 0.0
    traj = simulate(system, x0, inputs)
    return Dataset(traj=traj, D=build_data_matrices(traj), true_system=system,
                   true_stabilizable=is_stabilizable(system.A, system.B))


# reference values for the three-tank benchmark, rounded to 4 decimals:
# discretized matrices, the length-5 run from x0 = (1, 2, 0), a known
# stabilizing gain, and one feasible certificate for the compressed solve
THREE_TANK_A_REF = np.array([
    [0.9429, 0.0473, 0.0012],
    [0.0473, 0.9524, 0.0476],
    [0.0, 0.0, 0.9512],
])
THREE_TANK_B_REF = np.array([[0.0024], [0.0976], [0.0]])
THREE_TANK_TRAJ_REF = np.array([
    [1.0, 1.04, 1.0778, 1.1086, 1.1334, 1.1575],
    [2.0, 2.0498, 2.0015, 1.8597, 1.8237, 1.8881],
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
])
THREE_TANK_U = np.array([1.0, 0.0, -1.0, 0.0, 1.0])
THREE_TANK_K_REF = np.array([[-2.7728, -9.7123, 0.0]])
THREE_TANK_THETA_REF = np.array([
    [-47.4426, -0.9001],
    [-30.3733, 17.7153],
    [-1.5964, 32.3315],
    [49.2034, 20.4120],
    [36.0139, -68.9591],
])


# CSV trajectory files whose header or time column the reader must refuse:
# each is example1 (or, for the inputs, a two-input scalar run) with its
# columns swapped, misnamed or permuted, or its rows out of time order
MISREAD_CSV = {
    "states_swapped": "t,u_1,x_2,x_1\n0,1.0,1.0,0.0\n1,2.0,2.0,0.0\n2,-1.0,4.0,0.0\n3,,3.0,0.0\n",
    "state_misnamed": "t,u_1,x_1,x_3\n0,1.0,1.0,0.0\n1,2.0,2.0,0.0\n2,-1.0,4.0,0.0\n3,,3.0,0.0\n",
    "inputs_permuted": ("t,u_2,u_1,x_1\n0,1.0,0.0,1.0\n1,0.0,1.0,0.5\n2,1.0,1.0,2.0\n"
                        "3,-1.0,0.5,1.0\n4,,,0.3\n"),
    "time_out_of_order": "t,u_1,x_1,x_2\n2,1.0,1.0,0.0\n0,2.0,2.0,0.0\n1,-1.0,4.0,0.0\n3,,3.0,0.0\n",
}
