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

Each condition has one owner: ``check_identification``, the Hautus test of
the data pencil ``linalg.pencil_full_rank`` for plain stabilization, and in
``data`` ``check_image_inclusion``, ``input_rank_condition`` and their guard
``require_prior_conditions``; ``Branch.of`` names the branch.
The plain verdict needs no LMI solve: the data are informative iff X_minus
has full row rank and X_plus - lambda*X_minus keeps full row rank at every
eigenvalue on or outside the margin (van Waarde et al., 2020). Nothing here
solves an LMI; ``synthesis.synthesize`` takes the report, refuses the data
its stabilizability-prior verdict rejects, and solves only for the Theta of
the gain.
The report ranks [X_minus; U_minus] once and hands that rank to
``check_identification``; on full-rank data the pencil reads X_minus^+ off
the SVD of the row compression, so X_minus is factored once too. On
rank-deficient data ``check_image_inclusion`` decides from the same
compression: the residual ||S[r:] X_plus||_2, taken once and also reported,
against subspace_tol * max(1, ||X_plus||_2), at the rank cutoff the other
verdicts use, so X_minus is factored once on either branch. Only callers
without a compression, as ``require_prior_conditions``, decide it through
``linalg.subspace_contained``. The report keeps that compression for the
gain step.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import (Branch, DataMatrices, check_image_inclusion, consistent_set,
                   image_inclusion_residual, input_rank_condition, sample_consistent)
from .linalg import (DEFAULT_CONFIG, NumericalConfig, RowCompression, numerical_rank,
                     pencil_full_rank, rank_cutoff, row_compress, subspace_contained)


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


def check_identification(D: DataMatrices, cfg: NumericalConfig = DEFAULT_CONFIG,
                         rank_stacked: int | None = None) -> bool:
    """True iff [X_minus; U_minus] has full row rank n+m (unique (A, B)); a
    caller that has ranked the stack already passes that rank."""
    if rank_stacked is None:
        rank_stacked = numerical_rank(D.stacked(), cfg)
    return rank_stacked == D.n + D.m


def check_controllability_prior(D: DataMatrices, cfg: NumericalConfig = DEFAULT_CONFIG) -> bool:
    """Controllability prior knowledge never changes the plain verdict, which
    the pencil test decides without a solve."""
    return pencil_full_rank(D.x_minus, D.x_plus, cfg)


def _rank_margin_diagnostics(sv: np.ndarray | None, shape, cfg: NumericalConfig) -> dict:
    """Flag singular values within two decades of the rank cutoff (none: zero data)."""
    if sv is None:
        return {"marginal_rank": False, "singular_values": []}
    cutoff = rank_cutoff(sv, shape, cfg)
    marginal = bool(np.any((sv > cutoff / 100.0) & (sv < cutoff * 100.0)))
    return {"marginal_rank": marginal, "singular_values": sv.tolist()}


def check_stabilizability_prior(D: DataMatrices, cfg: NumericalConfig = DEFAULT_CONFIG
                                ) -> InformativityReport:
    """Full report with the stabilizability-prior verdict and its ingredients.

    Verdicts presume the generating system actually satisfies the assumed
    prior knowledge, as prior knowledge must.
    """
    comp = row_compress(D.x_minus, D.x_plus, cfg)
    branch = Branch.of(D, comp)
    rank_stacked = numerical_rank(D.stacked(), cfg)
    diagnostics: dict = {
        "n": D.n, "m": D.m, "T": D.T,
        "rank_stacked": rank_stacked,
        "x_minus_rank_margin": _rank_margin_diagnostics(comp.sv, D.x_minus.shape, cfg),
    }
    input_ok = input_rank_condition(D, comp, rank_stacked)
    if branch is Branch.FULL_RANK:
        plain = pencil_full_rank(D.x_minus, D.x_plus, cfg, comp)
        image_ok = True  # col(X_minus) is the whole state space
        prior = plain
    else:
        plain = False
        residual = image_inclusion_residual(D, comp)
        diagnostics["image_inclusion_residual"] = residual
        image_ok = check_image_inclusion(D, cfg, comp, residual)
        prior = image_ok and input_ok
    return InformativityReport(
        rank_x_minus=comp.r,
        identification=check_identification(D, cfg, rank_stacked),
        stabilization=plain,
        stabilization_controllability_prior=plain,
        stabilization_stabilizability_prior=prior,
        branch=branch,
        image_inclusion=image_ok,
        input_rank_condition=input_ok,
        compression=comp,
        diagnostics=diagnostics,
    )


def necessary_conditions_report(D: DataMatrices, cfg: NumericalConfig = DEFAULT_CONFIG,
                                n_samples: int = 10, seed: int = 0) -> dict:
    """Structural conditions any stabilizability-prior-informative dataset obeys.

    Checks the image inclusion and input-rank conditions, then invariance of
    col(X_minus) under A and containment of col(B), on the minimum-norm
    member and on ``n_samples`` random consistent members.
    """
    comp = row_compress(D.x_minus, D.x_plus, cfg)
    cs = consistent_set(D, cfg)
    rng = np.random.default_rng(seed)
    members = [cs.particular]
    for _ in range(n_samples):
        member = sample_consistent(cs, rng.normal(size=(D.n, cs.d)))
        members.append(member)
    invariance = [bool(subspace_contained(mem.A @ D.x_minus, D.x_minus, cfg))
                  for mem in members]
    containment = [bool(subspace_contained(mem.B, D.x_minus, cfg)) for mem in members]
    return {
        "image_inclusion": check_image_inclusion(D, cfg),
        "input_rank_condition": input_rank_condition(
            D, comp, numerical_rank(D.stacked(), cfg)),
        "x_minus_invariant_under_A": invariance,
        "x_minus_contains_B_image": containment,
        "members_checked": len(members),
    }
