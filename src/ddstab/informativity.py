"""Decision procedures: what do the data license us to conclude?

Four questions about one dataset, each decided exactly by rank, subspace
and pencil tests:

  * identification: is the consistent set a single system?
  * stabilization: does one gain stabilize every consistent system?
  * with a controllability prior: the same question restricted to
    controllable members; provably the same verdict as plain stabilization.
  * with a stabilizability prior: restricted to stabilizable members; on
    full-rank state data this again equals the plain verdict, on
    rank-deficient data it reduces to two checkable subspace conditions.

Every condition of the paper is decided by one owner: ``check_identification``;
``Branch.of`` for the branch; the Hautus test of the data pencil for plain
stabilization; and ``linalg.subspace_contained`` and ``input_rank_condition``
for the two subspace conditions. Two kernels live in ``linalg``: the Hautus
test, ``linalg.pencil_full_rank``, because ``linalg.is_stabilizable`` shares
it, and image inclusion, ``linalg.subspace_contained``, which reads the row
compression the caller holds.
The plain verdict needs no LMI solve: the data are informative iff X_minus
has full row rank and X_plus - lambda*X_minus keeps full row rank at every
eigenvalue on or outside the margin (van Waarde et al., 2020). Nothing here
solves an LMI; ``synthesis.synthesize`` takes the report, refuses the data
its stabilizability-prior verdict rejects, and solves only for the Theta of
the gain.
``decide_verdicts`` calls those owners for every verdict on a stack of
datasets zero-padded to one T, each at its own shape: one economy SVD of the
X_minus stack gives every rank, X_minus^+ and S, one values-only SVD of the
regressor stack every rank of [X_minus; U_minus], and the pencil and residual
SVDs are stacked too. The Monte Carlo windows of a run are such a stack; the
report (``check_stabilizability_prior``) decides its one dataset as a stack
of one, from the ``row_compress`` compression it keeps for the gain step
(all-zero state data included: S = I and a zero spectrum), and also reports
the residual ||S[r:] X_plus||_2 that image inclusion is read off.
``check_controllability_prior`` returns the report's verdict and takes no
route of its own. The gain routes, ``synthesis.synthesize_stab`` and
``verification.decomposition_check``, take the report, and their guard
``require_prior_conditions`` reads its branch and its two subspace verdicts.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .data import DataMatrices
from .errors import PreconditionError
from .linalg import (DEFAULT_CONFIG, NumericalConfig, RowCompression, numerical_rank,
                     pencil_full_rank, rank_cutoff, row_compress, subspace_contained)


class Branch(enum.Enum):
    FULL_RANK = "full_rank"
    RANK_DEFICIENT = "rank_deficient"

    @classmethod
    def of(cls, D: DataMatrices, comp: RowCompression) -> "Branch":
        """Full rank iff X_minus has rank n; only then does the plain verdict
        decide the stabilizability-prior one."""
        return cls.FULL_RANK if comp.r == D.n else cls.RANK_DEFICIENT


def input_rank_condition(D: DataMatrices, r: int | np.ndarray,
                         rank_stacked: int | np.ndarray) -> bool | np.ndarray:
    """rank [X_minus; U_minus] = r + m, given r = rank X_minus and that rank
    as ``rank_stacked``; vacuously True on full-rank state data. Arrays of
    ranks of a stack give one verdict each.

    The stacked image always sits inside col(X_minus) x R^m, so equality of
    the two sets is just this dimension count.
    """
    return (r == D.n) | (rank_stacked == r + D.m)


@dataclass(frozen=True)
class InformativityReport:
    rank_x_minus: int
    identification: bool
    stabilization: bool
    stabilization_controllability_prior: bool
    stabilization_stabilizability_prior: bool
    branch: Branch
    image_inclusion: bool
    input_rank_condition: bool
    compression: RowCompression = field(compare=False)
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        fields = {**vars(self), "branch": self.branch.value}
        del fields["compression"]  # the gain step's input, not part of the report file
        return fields


def require_prior_conditions(report: InformativityReport) -> None:
    """Raise PreconditionError when the report finds rank-deficient data failing
    either condition; under the stabilizability prior they are informative
    iff both hold."""
    if report.branch is Branch.FULL_RANK:
        return
    if not report.image_inclusion:
        raise PreconditionError("image inclusion condition fails for this data")
    if not report.input_rank_condition:
        raise PreconditionError("input-rank condition fails for this data")


def check_identification(D: DataMatrices, cfg: NumericalConfig = DEFAULT_CONFIG,
                         rank_stacked: int | np.ndarray | None = None) -> bool | np.ndarray:
    """True iff [X_minus; U_minus] has full row rank n+m (unique (A, B)); a
    caller that has ranked the stack already passes that rank, or the ranks
    of a stack of datasets for one verdict each."""
    if rank_stacked is None:
        rank_stacked = numerical_rank(D.stacked(), cfg)
    return rank_stacked == D.n + D.m


def check_controllability_prior(D: DataMatrices, cfg: NumericalConfig = DEFAULT_CONFIG) -> bool:
    """Controllability prior knowledge never changes the plain verdict: the
    report's ``stabilization_controllability_prior``."""
    return check_stabilizability_prior(D, cfg).stabilization_controllability_prior


def _rank_margin_diagnostics(sv: np.ndarray, shape, cfg: NumericalConfig) -> dict:
    """Flag singular values within two decades of the rank cutoff (none on zero data)."""
    cutoff = rank_cutoff(sv, shape, cfg)
    marginal = bool(np.any((sv > cutoff / 100.0) & (sv < cutoff * 100.0)))
    return {"marginal_rank": marginal, "singular_values": sv.tolist()}


@dataclass(frozen=True)
class Verdicts:
    """The verdicts of a stack of datasets, one array entry per member; the
    controllability-prior verdict is ``stabilization``, and rank n of X_minus
    names the full-rank branch. ``image_inclusion_residual`` is 0 on that
    branch."""

    rank_x_minus: np.ndarray
    rank_stacked: np.ndarray
    identification: np.ndarray
    stabilization: np.ndarray
    stabilization_stabilizability_prior: np.ndarray
    image_inclusion: np.ndarray
    input_rank_condition: np.ndarray
    image_inclusion_residual: np.ndarray


def decide_verdicts(D: DataMatrices, cfg: NumericalConfig = DEFAULT_CONFIG,
                    cols: np.ndarray | None = None,
                    comp: RowCompression | None = None) -> Verdicts:
    """Decide an (N, ., T) stack of datasets zero-padded to one T whose own
    column counts are ``cols``, or one dataset, given its ``comp =
    row_compress(X_minus, X_plus, cfg)``, as a stack of one.

    Zero columns change no rank and no column space, and leave F = X_plus
    X_minus^+ and every pencil rank as they are; every cutoff is taken at the
    member's own shape, so only rounding moves. A stack is decided with one
    economy SVD of X_minus, one values-only SVD of [X_minus; U_minus], one
    stacked pencil test over the full-rank members, reading X_minus^+ off
    that SVD, and one values-only SVD of S[r:] X_plus per rank of the
    rank-deficient members. A stack of one reads its S, rank and SVD off
    ``comp`` instead of taking another.
    """
    n = D.n
    if comp is None:
        U, sv, Vt = np.linalg.svd(D.x_minus, full_matrices=n > D.T)
        S = U.transpose(0, 2, 1)
        r = (sv > rank_cutoff(sv, (n, D.T if cols is None else cols), cfg)[:, None]).sum(axis=1)
    else:
        D = DataMatrices(D.u_minus[None], D.x_minus[None], D.x_plus[None])
        S, sv, Vt, r = comp.S[None], comp.sv[None], comp.Vt[None], np.array([comp.r])
    rank_stacked = numerical_rank(D.stacked(), cfg, cols)
    full = r == n
    # nothing to test without a full-rank member; r, not the kernel, decides
    plain = pencil_full_rank(D.x_minus, D.x_plus, cfg, (S, sv, Vt), cols) & full \
        if np.count_nonzero(full) else full
    image_ok, residual = subspace_contained(D.x_plus, D.x_minus, S, r, cfg)
    input_ok = input_rank_condition(D, r, rank_stacked)
    return Verdicts(
        rank_x_minus=r, rank_stacked=rank_stacked,
        identification=check_identification(D, cfg, rank_stacked),
        stabilization=plain,
        stabilization_stabilizability_prior=np.where(full, plain, image_ok & input_ok),
        image_inclusion=image_ok, input_rank_condition=input_ok,
        image_inclusion_residual=residual)


def check_stabilizability_prior(D: DataMatrices, cfg: NumericalConfig = DEFAULT_CONFIG
                                ) -> InformativityReport:
    """Full report with the stabilizability-prior verdict and its ingredients.

    Verdicts presume the generating system actually satisfies the assumed
    prior knowledge, as prior knowledge must. Every field is a Python
    ``bool``, ``int`` or ``float``, so the report serializes as JSON.
    """
    comp = row_compress(D.x_minus, D.x_plus, cfg)
    branch = Branch.of(D, comp)
    verdicts = decide_verdicts(D, cfg, comp=comp)
    stabilization = bool(verdicts.stabilization[0])
    diagnostics: dict = {
        "n": D.n, "m": D.m, "T": D.T,
        "rank_stacked": int(verdicts.rank_stacked[0]),
        "x_minus_rank_margin": _rank_margin_diagnostics(comp.sv, D.x_minus.shape, cfg),
    }
    if branch is Branch.RANK_DEFICIENT:
        diagnostics["image_inclusion_residual"] = float(verdicts.image_inclusion_residual[0])
    return InformativityReport(
        rank_x_minus=comp.r,
        identification=bool(verdicts.identification[0]),
        stabilization=stabilization,
        stabilization_controllability_prior=stabilization,
        stabilization_stabilizability_prior=bool(
            verdicts.stabilization_stabilizability_prior[0]),
        branch=branch,
        image_inclusion=bool(verdicts.image_inclusion[0]),
        input_rank_condition=bool(verdicts.input_rank_condition[0]),
        compression=comp,
        diagnostics=diagnostics,
    )
