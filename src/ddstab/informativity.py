"""Decision procedures: what do the data license us to conclude?

Four questions about one dataset, each decided exactly (rank / subspace
tests) or via an LMI feasibility solve:

  * identification: is the consistent set a single system?
  * stabilization: does one gain stabilize every consistent system?
  * with a controllability prior: the same question restricted to
    controllable members; provably the same verdict as plain stabilization.
  * with a stabilizability prior: restricted to stabilizable members; on
    full-rank state data this again equals the plain verdict, on
    rank-deficient data it reduces to two checkable subspace conditions.

Each condition has one owner: ``check_identification``,
``check_plain_stabilization``, and in ``data`` ``check_image_inclusion``,
``input_rank_condition`` and their guard ``require_prior_conditions``;
``Branch.of`` names the branch.
The plain verdict's LMI solution is kept for the gain step: a verdict
followed by ``synthesize`` or ``solve_plain_lmi`` on the same data and
config solves once. Every solve runs the built-in barrier.
The report reads the image-inclusion residual off its row compression, at
the rank cutoff the verdict uses. A solver breakdown raises SolverFailure.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import (Branch, DataMatrices, check_image_inclusion, consistent_set,
                   input_rank_condition, sample_consistent)
from .linalg import (DEFAULT_CONFIG, NumericalConfig, numerical_rank, rank_cutoff,
                     row_compress, subspace_contained)
from .synthesis import _keep_verdict_solution, solve_plain_lmi


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
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {**vars(self), "branch": self.branch.value}


def check_identification(D: DataMatrices, cfg: NumericalConfig = DEFAULT_CONFIG) -> bool:
    """True iff [X_minus; U_minus] has full row rank n+m (unique (A, B))."""
    return numerical_rank(D.stacked(), cfg) == D.n + D.m


def check_plain_stabilization(D: DataMatrices, cfg: NumericalConfig = DEFAULT_CONFIG
                              ) -> tuple[bool, np.ndarray | None]:
    """LMI feasibility on the raw data; returns the witness Theta when feasible.

    The solution is kept for the gain step: a ``solve_plain_lmi`` on the
    same data and config returns it unsolved.
    """
    sol = solve_plain_lmi(D, cfg)
    _keep_verdict_solution(D, cfg, sol)
    return sol.feasible, sol.theta


def check_controllability_prior(D: DataMatrices, cfg: NumericalConfig = DEFAULT_CONFIG) -> bool:
    """Controllability prior knowledge never changes the verdict; delegate."""
    verdict, _ = check_plain_stabilization(D, cfg)
    return verdict


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
        plain, _ = check_plain_stabilization(D, cfg)
        image_ok = True  # col(X_minus) is the whole state space
        prior = plain
    else:
        plain = False
        image_ok = check_image_inclusion(D, cfg)
        # S[r:] spans the complement of col(X_minus) at the same rank cutoff
        diagnostics["image_inclusion_residual"] = float(
            np.linalg.norm(comp.S[comp.r:] @ D.x_plus, 2))
        prior = image_ok and input_ok
    return InformativityReport(
        rank_x_minus=comp.r,
        identification=check_identification(D, cfg),
        stabilization=plain,
        stabilization_controllability_prior=plain,
        stabilization_stabilizability_prior=prior,
        branch=branch,
        image_inclusion=image_ok,
        input_rank_condition=input_ok,
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
