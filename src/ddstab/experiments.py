"""Simulation, the three-tank benchmark, the demos' data, and the Monte Carlo study.

The paper's experiment is fixed: the three-tank cascade sampled every 0.1,
runs of ``HORIZON`` steps from a Poisson(``POISSON_LAMBDA``) initial state
under Poisson(``POISSON_LAMBDA``) inputs. These are constants, not options.

A synthesis demo here is only its data: Example 1's trajectory, or the
discretized three-tank cascade and its experiment. ``ddstab demo`` runs the
steps of ``synthesize`` and ``verify`` on it.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .data import DataMatrices, LtiSystem, TrajectoryData
from .informativity import decide_verdicts
from .linalg import DEFAULT_CONFIG, NumericalConfig, is_controllable, matrix_exponential


@dataclass(frozen=True)
class ContinuousSystem:
    """xdot = A x + B u, sampled every ``sample_time`` time units."""

    A: np.ndarray
    B: np.ndarray
    sample_time: float

    def __post_init__(self):
        if not self.sample_time > 0:
            raise ValueError("sample_time must be positive")


def _simulate_runs(system: LtiSystem, x0: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """The states (T+1, N, n) of N runs from ``x0`` (N, n) under ``inputs`` (T, N, m).

    Every B u(t), then each step's A x(t) of all runs, is one stacked product
    whose members round as each product alone (A x(t) is one gemv per run:
    ``A.dot`` of a lone run's (n, 1) state, the cheaper call, or ``A @`` of a
    stack), so a run's bytes do not depend on the runs simulated with it.
    """
    states = np.empty((len(inputs) + 1, *x0.shape, 1))
    states[0, ..., 0] = x0
    states[1:] = system.B @ inputs[..., None]
    single = len(x0) == 1
    steps = list(states[:, 0] if single else states)  # views into states
    step = system.A.dot if single else system.A.__matmul__
    for x, x_next in zip(steps, steps[1:]):
        x_next += step(x)
    return states[..., 0]


def simulate(system: LtiSystem, x0: np.ndarray, inputs: np.ndarray) -> TrajectoryData:
    """Iterate x(t+1) = A x(t) + B u(t) over the given input sequence.

    ``inputs`` has shape (T, m), or (T,) for a single-input system; any other
    shape raises ValueError rather than being reshaped into other steps.
    """
    x0 = np.asarray(x0, dtype=float).reshape(system.n)
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim == 1 and system.m == 1:
        inputs = inputs[:, None]
    if inputs.ndim != 2 or inputs.shape[1] != system.m:
        raise ValueError(f"inputs must have shape (T, {system.m})"
                         + (" or (T,)" if system.m == 1 else "")
                         + f", got {inputs.shape}")
    states = _simulate_runs(system, x0[None], inputs[:, None])[:, 0]
    return TrajectoryData(inputs=inputs, states=states)


def zoh_discretize(cs: ContinuousSystem) -> LtiSystem:
    """Exact sampling under piecewise-constant input, via the augmented exponential."""
    n, m = cs.A.shape[0], cs.B.shape[1]
    aug = np.zeros((n + m, n + m))
    aug[:n, :n] = cs.A
    aug[:n, n:] = cs.B
    E = matrix_exponential(cs.sample_time * aug)
    return LtiSystem(A=E[:n, :n], B=E[:n, n:])


def three_tank_model() -> ContinuousSystem:
    """Mass balance of three unit-area tanks, sampled every 0.1: tank 1 drains
    to the basin through flow coefficient 0.1, tanks 1-2 and 2-3 couple through
    0.5, and the inflow is actuated at tank 2. Tank 3 only feeds forward, so it
    is unreachable from the input."""
    A = np.array([[-0.6, 0.5, 0.0],
                  [0.5, -0.5, 0.5],
                  [0.0, 0.0, -0.5]])
    B = np.array([[0.0], [1.0], [0.0]])
    return ContinuousSystem(A=A, B=B, sample_time=0.1)


# ---------------------------------------------------------------------------
# Monte Carlo study

HORIZON = 100  # steps of every run; the longest T a window may take
POISSON_LAMBDA = 1.0  # rate of the initial state's and the inputs' draws
SCENARIO_CHUNK = 64  # scenarios whose windows are decided in one stacked pass


def _is_integer(value) -> bool:
    """True for a Python or numpy integer; a bool, a float or a string is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class MonteCarloConfig:
    system: LtiSystem
    scenarios: int = 1000
    t_list: tuple[int, ...] = (3, 4, 5, 10, 100)
    seed: int = 3
    workers: int = 1  # one process decides every scenario; kept for callers passing 1

    def __post_init__(self):
        for name in ("scenarios", "seed", "workers"):
            if not _is_integer(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not all(map(_is_integer, self.t_list)):
            raise ValueError(f"every T must be an integer, got t_list={self.t_list!r}")
        if self.scenarios < 1:
            raise ValueError("scenarios must be >= 1")
        if self.workers != 1:
            raise ValueError("workers must be 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not self.t_list:
            raise ValueError("t_list must hold at least one T")
        if any(T < 1 for T in self.t_list):
            raise ValueError("every T must be >= 1")
        if any(T > HORIZON for T in self.t_list):
            raise ValueError("every T must be <= horizon")
        if len(set(self.t_list)) != len(self.t_list):
            raise ValueError("every T must appear once")


@dataclass(frozen=True)
class ScenarioVerdict:
    scenario: int
    T: int
    identification: bool
    stabilization: bool
    stabilization_stabilizability_prior: bool


@dataclass(frozen=True)
class MonteCarloResult:
    """Every window's verdicts, in scenario order.

    ``solver_failures`` is 0 by construction: ``decide_verdicts`` decides
    every verdict by rank, subspace and pencil tests and calls no solver. It stays
    in the result and in ``montecarlo.json`` for the readers of that file.
    """

    config: MonteCarloConfig
    verdicts: list[ScenarioVerdict]
    solver_failures: int

    def percentages(self) -> dict[int, dict[str, float]]:
        out: dict[int, dict[str, float]] = {}
        for T in self.config.t_list:
            rows = [v for v in self.verdicts if v.T == T]
            total = max(len(rows), 1)
            out[T] = {
                "identification_pct": 100.0 * sum(v.identification for v in rows) / total,
                "stabilization_pct": 100.0 * sum(v.stabilization for v in rows) / total,
                "stabilizability_prior_pct":
                    100.0 * sum(v.stabilization_stabilizability_prior for v in rows) / total,
            }
        return out


def _scenario_draws(mc: MonteCarloConfig, index: int) -> tuple[np.ndarray, np.ndarray]:
    """The initial state (n,) and the whole input sequence (HORIZON, m) of
    scenario ``index``."""
    # per-scenario counter-based stream: bitwise reproducible regardless of
    # scheduling; x0 entries are drawn first, then the whole input sequence
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((mc.seed, index))))
    n, m = mc.system.n, mc.system.m
    return (rng.poisson(POISSON_LAMBDA, size=n).astype(float),
            rng.poisson(POISSON_LAMBDA, size=(HORIZON, m)).astype(float))


def _evaluate_scenarios(mc: MonteCarloConfig, indices: range | list[int],
                        cfg: NumericalConfig) -> list[ScenarioVerdict]:
    """The verdicts of every window of the scenarios ``indices``, in scenario
    then ``mc.t_list`` order.

    The runs are simulated as one stack up to the longest T, which is all a
    window reads (each stream still draws every input, so keeps its bytes).
    Window T is the first T columns of its run's data matrices; all windows
    are zero-padded to the longest T and decided in one ``decide_verdicts``
    pass, each at its own T and alone, as in a chunk of one.
    """
    width = max(mc.t_list)
    x0, inputs = map(np.array, zip(*(_scenario_draws(mc, index) for index in indices)))
    inputs = inputs[:, :width]
    states = _simulate_runs(mc.system, x0, inputs.transpose(1, 0, 2))
    states = np.ascontiguousarray(states.transpose(1, 2, 0))  # (N, n, T+1), rows contiguous
    kept = np.arange(width) < np.array(mc.t_list)[:, None, None]

    def windows(M: np.ndarray) -> np.ndarray:
        return np.where(kept, M[:, None], 0.0).reshape(-1, *M.shape[1:])
    runs = (inputs.transpose(0, 2, 1), states[..., :-1], states[..., 1:])
    verdicts = decide_verdicts(DataMatrices(*map(windows, runs)), cfg,
                               np.array(mc.t_list * len(indices)))
    return [ScenarioVerdict(scenario=index, T=T, identification=ident,
                            stabilization=plain, stabilization_stabilizability_prior=prior)
            for (index, T), ident, plain, prior in zip(
                product(indices, mc.t_list), verdicts.identification.tolist(),
                verdicts.stabilization.tolist(),
                verdicts.stabilization_stabilizability_prior.tolist())]


def run_monte_carlo(mc: MonteCarloConfig,
                    cfg: NumericalConfig = DEFAULT_CONFIG) -> MonteCarloResult:
    """Informativity rates over randomly excited runs of ``mc.system``.

    Deterministic given ``mc.seed``. The scenarios are decided in chunks of
    ``SCENARIO_CHUNK`` in this process; the chunking changes the wall time,
    never the result.
    """
    verdicts: list[ScenarioVerdict] = []
    for start in range(0, mc.scenarios, SCENARIO_CHUNK):
        verdicts += _evaluate_scenarios(
            mc, range(start, min(start + SCENARIO_CHUNK, mc.scenarios)), cfg)
    return MonteCarloResult(config=mc, verdicts=verdicts, solver_failures=0)


# ---------------------------------------------------------------------------
# demo data

def example1_trajectory() -> TrajectoryData:
    """Two-state experiment whose second state never moves."""
    return TrajectoryData(
        inputs=np.array([[1.0], [2.0], [-1.0]]),
        states=np.array([[1.0, 0.0], [2.0, 0.0], [4.0, 0.0], [3.0, 0.0]]))


def demo_example2(cfg: NumericalConfig = DEFAULT_CONFIG) -> dict:
    """Grid over the plane of scalar systems consistent with one sample.

    The experiment x(1) = a x(0) + b1 u1 + b2 u2 with x(0) = -1,
    u = (1, -1), x(1) = -1 pins b2 = b1 - a + 1. Exactly one grid point is
    uncontrollable (zero input matrix, which forces a = 1); the emitted rows
    are (a, b1, b2, controllable).
    """
    traj = TrajectoryData(inputs=np.array([[1.0, -1.0]]),
                          states=np.array([[-1.0], [-1.0]]))
    # 0.1 steps over a in [-1, 3] and b1 in [-2, 2], rounded so the
    # uncontrollable point (a, b1) = (1, 0) is hit exactly; the 1,681 pairs
    # are decided as one stack
    a, b1 = np.meshgrid(np.round(np.linspace(-1.0, 3.0, 41), 12),
                        np.round(np.linspace(-2.0, 2.0, 41), 12), indexing="ij")
    a, b1 = a.ravel(), b1.ravel()
    b2 = b1 - a + 1.0
    ctrb = is_controllable(a[:, None, None], np.stack([b1, b2], axis=-1)[:, None], cfg)
    rows = list(zip(a.tolist(), b1.tolist(), b2.tolist(), ctrb.tolist()))
    flagged = [row[:3] for row in rows if not row[3]]
    return {"trajectory": traj, "grid": rows, "uncontrollable_points": flagged}


THREE_TANK_X0 = np.array([1.0, 2.0, 0.0])
THREE_TANK_INPUTS = np.array([[1.0], [0.0], [-1.0], [0.0], [1.0]])


def demo_three_tank() -> dict:
    """The discretized cascade and its length-5 experiment."""
    continuous = three_tank_model()
    system = zoh_discretize(continuous)
    return {"continuous": continuous, "system": system,
            "trajectory": simulate(system, THREE_TANK_X0, THREE_TANK_INPUTS)}
