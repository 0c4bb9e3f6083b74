"""Trajectory ingestion and the affine family of systems consistent with it.

A length-T experiment yields matrices (U_minus, X_minus, X_plus). Every
system (A, B) with X_plus = A X_minus + B U_minus is consistent with the
data; the set of all of them is an affine subspace, represented here by a
minimum-norm particular solution plus an orthonormal basis of the
homogeneous directions. Given a row compression of X_minus,
``reachable_part`` and ``recover_input_matrix`` read off the blocks that
every consistent stabilizable system shares. No condition of the paper is
decided here: ``informativity`` decides them.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, PreconditionError
from .linalg import DEFAULT_CONFIG, NumericalConfig, RowCompression, rank_revealing_svd


@dataclass(frozen=True)
class TrajectoryData:
    """One input-state experiment: T inputs and T+1 states, time-major.

    ``inputs`` has shape (T, m), ``states`` shape (T+1, n).
    """

    inputs: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        inputs = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        states = np.atleast_2d(np.asarray(self.states, dtype=float))
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "states", states)
        if len(states) != len(inputs) + 1:
            raise DataFormatError(
                f"need one more state than inputs, got {len(states)} states "
                f"for {len(inputs)} inputs")
        if len(inputs) < 1:
            raise DataFormatError("need at least one input sample")
        if not (np.isfinite(inputs).all() and np.isfinite(states).all()):
            raise DataFormatError("trajectory contains non-finite values")

    @property
    def T(self) -> int:
        return len(self.inputs)

    @property
    def n(self) -> int:
        return self.states.shape[1]

    @property
    def m(self) -> int:
        return self.inputs.shape[1]


@dataclass(frozen=True)
class DataMatrices:
    """U_minus (m x T), X_minus (n x T), X_plus (n x T), columns indexed by time;
    each may also be an (N, ., T) stack of N datasets zero-padded to one T."""

    u_minus: np.ndarray
    x_minus: np.ndarray
    x_plus: np.ndarray

    @property
    def n(self) -> int:
        return self.x_minus.shape[-2]

    @property
    def m(self) -> int:
        return self.u_minus.shape[-2]

    @property
    def T(self) -> int:
        return self.x_minus.shape[-1]

    def stacked(self) -> np.ndarray:
        """[X_minus; U_minus], the (n+m) x T regressor matrix."""
        return np.concatenate([self.x_minus, self.u_minus], axis=-2)


@dataclass(frozen=True)
class LtiSystem:
    """x(t+1) = A x(t) + B u(t); A and B may also be (N, n, n) and (N, n, m)
    stacks of N members."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "A", np.atleast_2d(np.asarray(self.A, dtype=float)))
        object.__setattr__(self, "B", np.atleast_2d(np.asarray(self.B, dtype=float)))

    @property
    def n(self) -> int:
        return self.A.shape[-1]

    @property
    def m(self) -> int:
        return self.B.shape[-1]


@dataclass(frozen=True)
class ConsistentSet:
    """Affine parametrization of all systems consistent with the data.

    ``Q`` is an orthonormal basis of the left null space of [X_minus; U_minus].
    Rows of any homogeneous direction [A0 B0] are combinations of Q's
    columns, so A0 X_minus + B0 U_minus = 0 by construction.
    """

    particular: LtiSystem
    Q: np.ndarray

    @property
    def d(self) -> int:
        return self.Q.shape[1]


def build_data_matrices(traj: TrajectoryData) -> DataMatrices:
    """Slice the trajectory into the three data matrices."""
    return DataMatrices(u_minus=traj.inputs.T.copy(),
                        x_minus=traj.states[:-1].T.copy(),
                        x_plus=traj.states[1:].T.copy())


def _split_ab(M: np.ndarray, n: int) -> LtiSystem:
    return LtiSystem(A=M[..., :n], B=M[..., n:])


def consistent_set(D: DataMatrices, cfg: NumericalConfig = DEFAULT_CONFIG) -> ConsistentSet:
    """Minimum-norm particular solution plus null-space basis.

    particular = X_plus @ pinv([X_minus; U_minus]) split into (A, B); the
    basis spans all [A0 B0] with A0 X_minus + B0 U_minus = 0.
    """
    U, sv, Vt, r = rank_revealing_svd(D.stacked(), cfg)
    particular = _split_ab((D.x_plus @ Vt[:r].T / sv[:r]) @ U[:, :r].T, D.n)
    return ConsistentSet(particular=particular, Q=U[:, r:])


def sample_consistent(cs: ConsistentSet, W: np.ndarray) -> LtiSystem:
    """Member particular + split(W @ Q^T), unfiltered.

    ``W`` of shape (N, n, d) gives one system of (N, n, n) and (N, n, m)
    stacks, each member equal to its own draw's, in draw order; a caller
    that needs stabilizable members tests the stacks with ``is_stabilizable``.
    """
    n = cs.particular.n
    W = np.asarray(W, dtype=float)
    if W.ndim != 3:
        W = W.reshape(n, cs.d)
    offset = _split_ab(W @ cs.Q.T, n)
    return LtiSystem(A=cs.particular.A + offset.A, B=cs.particular.B + offset.B)


def consistency_residual(D: DataMatrices, system: LtiSystem) -> float:
    """||X_plus - A X_minus - B U_minus|| / max(1, ||X_plus||), spectral norms."""
    resid = D.x_plus - system.A @ D.x_minus - system.B @ D.u_minus
    return float(np.linalg.norm(resid, 2) / max(1.0, np.linalg.norm(D.x_plus, 2)))


def reachable_part(D: DataMatrices, comp: RowCompression,
                   cfg: NumericalConfig = DEFAULT_CONFIG) -> tuple[np.ndarray, np.ndarray]:
    """Recover the (A11, B1) blocks shared by every consistent stabilizable system.

    [A11 B1] = x_hat_plus @ pinv([x_hat_minus; U_minus]); exact when the
    stacked matrix has full row rank r+m, which is required here.
    """
    U, sv, Vt, rank = rank_revealing_svd(np.vstack([comp.x_hat_minus, D.u_minus]), cfg)
    if rank < comp.r + D.m:
        raise PreconditionError(
            "[x_hat_minus; u_minus] must have full row rank r+m to recover the "
            "reachable-part blocks")
    AB = (comp.x_hat_plus @ Vt[:rank].T / sv[:rank]) @ U.T
    return AB[:, :comp.r], AB[:, comp.r:]


def recover_input_matrix(D: DataMatrices, comp: RowCompression,
                         cfg: NumericalConfig = DEFAULT_CONFIG) -> np.ndarray:
    """The unique B shared by all consistent systems when rank X_minus < n."""
    _, B1 = reachable_part(D, comp, cfg)
    lifted = np.vstack([B1, np.zeros((D.n - comp.r, D.m))])
    return np.linalg.solve(comp.S, lifted)


# ---------------------------------------------------------------------------
# trajectory file formats

def trajectory_to_json(traj: TrajectoryData) -> str:
    payload = {
        "n": traj.n,
        "m": traj.m,
        "inputs": traj.inputs.tolist(),
        "states": traj.states.tolist(),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def is_number(value) -> bool:
    """True for a JSON number; a string, a boolean or a list is not one."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def trajectory_from_json(text: str) -> TrajectoryData:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise DataFormatError(f"expected a JSON object, got {type(payload).__name__}")
    for key in ("n", "m", "inputs", "states"):
        if key not in payload:
            raise DataFormatError(f"missing field '{key}'")
    n, m = payload["n"], payload["m"]
    inputs, states = payload["inputs"], payload["states"]
    if any(isinstance(v, bool) or not isinstance(v, int) or v < 1 for v in (n, m)):
        raise DataFormatError(f"'n' and 'm' must be positive integers, got {n!r}, {m!r}")
    for name, rows, width in (("inputs", inputs, m), ("states", states, n)):
        if not isinstance(rows, list):
            raise DataFormatError(f"'{name}' must be a list of vectors")
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != width:
                raise DataFormatError(
                    f"{name}[{i}] must be a list of {width} numbers, got {row!r}")
            for v in row:
                if not is_number(v):
                    raise DataFormatError(f"{name}[{i}] must hold numbers, got {v!r}")
    try:
        inputs = np.array(inputs, dtype=float).reshape(len(inputs), m)
        states = np.array(states, dtype=float).reshape(len(states), n)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataFormatError(f"'inputs' and 'states' must hold numbers: {exc}") from exc
    return TrajectoryData(inputs=inputs, states=states)


def trajectory_to_csv(traj: TrajectoryData) -> str:
    """Columns t, u_1..u_m, x_1..x_n; the final row carries empty input cells."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t"] + [f"u_{j + 1}" for j in range(traj.m)]
                    + [f"x_{j + 1}" for j in range(traj.n)])
    for t in range(traj.T + 1):
        u_cells = [repr(float(v)) for v in traj.inputs[t]] if t < traj.T else [""] * traj.m
        writer.writerow([t] + u_cells + [repr(float(v)) for v in traj.states[t]])
    return buf.getvalue()


def trajectory_from_csv(text: str) -> TrajectoryData:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise DataFormatError("empty CSV")
    header = rows[0]
    m = sum(1 for c in header if c.startswith("u_"))
    n = len(header) - 1 - m
    if m == 0 or n < 1 or header != (["t"] + [f"u_{j + 1}" for j in range(m)]
                                     + [f"x_{j + 1}" for j in range(n)]):
        raise DataFormatError(f"header must be t,u_1..u_m,x_1..x_n, got {header!r}")
    inputs, states = [], []
    for i, row in enumerate(rows[1:]):
        if len(row) != len(header):
            raise DataFormatError(f"row {i + 1}: expected {len(header)} cells, got {len(row)}")
        if row[0].strip() != str(i):
            raise DataFormatError(f"row {i + 1}: t must read {i}, got {row[0]!r}")
        u_cells, x_cells = row[1:1 + m], row[1 + m:]
        try:
            states.append([float(v) for v in x_cells])
            last = all(v.strip() == "" for v in u_cells)
            if not last:
                inputs.append([float(v) for v in u_cells])
        except ValueError as exc:
            raise DataFormatError(f"row {i + 1}: {exc}") from exc
        if last and i + 2 != len(rows):
            raise DataFormatError(f"row {i + 1}: empty input cells are only valid "
                                  "in the final row")
    return TrajectoryData(inputs=np.array(inputs, dtype=float).reshape(len(inputs), m),
                          states=np.array(states, dtype=float).reshape(len(states), n))


def load_trajectory(path: str) -> TrajectoryData:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{path} is not UTF-8 text: {exc}") from exc
    if path.endswith(".csv"):
        return trajectory_from_csv(text)
    return trajectory_from_json(text)
