"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `criterion N (...): PASS/FAIL` line; run with
``pytest -s tests/test_acceptance.py`` to see them live.
"""
import functools
import time

import numpy as np
import pytest

from ddstab import (NumericalConfig, build_data_matrices, check_identification,
                    check_stabilizability_prior, consistent_set, genericity_probe,
                    is_controllable, reachable_part, recover_input_matrix,
                    row_compress, simulate, solve_plain_lmi, solve_stab_lmi,
                    spectral_radius, synthesize_stab, verify_gain,
                    MonteCarloConfig, run_monte_carlo, three_tank_model,
                    zoh_discretize)
from ddstab.experiments import (THREE_TANK_INPUTS, THREE_TANK_X0,
                                example1_trajectory)
from ddstab.informativity import Branch
from ddstab.synthesis import FeedbackGain, GainProvenance

from conftest import (THREE_TANK_A_REF, THREE_TANK_B_REF,
                      THREE_TANK_K_REF, THREE_TANK_TRAJ_REF, random_dataset)
from oracles import common_lyapunov

CFG = NumericalConfig()


def criterion(num, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.time()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\ncriterion {num} ({name}): FAIL [{time.time() - start:.1f}s]")
                raise
            print(f"\ncriterion {num} ({name}): PASS [{time.time() - start:.1f}s]")
        return wrapper
    return decorate


def _stab_gain(K):
    return FeedbackGain(K=np.atleast_2d(np.asarray(K, dtype=float)),
                        provenance=GainProvenance.STAB_PRIOR)


def _example1_data():
    return build_data_matrices(example1_trajectory())


def _three_tank_data():
    system = zoh_discretize(three_tank_model())
    return system, build_data_matrices(simulate(system, THREE_TANK_X0,
                                                THREE_TANK_INPUTS))


@criterion(1, "two-state demo end to end")
def test_criterion_1_example1_end_to_end():
    start = time.time()
    D = _example1_data()
    report = check_stabilizability_prior(D, CFG)
    assert report.stabilization is False
    assert report.stabilization_stabilizability_prior is True

    gain, sol, comp = synthesize_stab(D, CFG)
    assert gain.k2_policy == "zero"
    cs = consistent_set(D, CFG)
    vr = verify_gain(cs, gain, n_samples=200, scales=(0.1, 1.0, 10.0), seed=0, cfg=CFG)
    assert vr.samples_tested + vr.rejected_unstabilizable == 600
    assert vr.passed
    assert vr.max_spectral_radius < 1.0 - 1e-6

    vr_known = verify_gain(cs, _stab_gain([[-1.0, 0.0]]), n_samples=200,
                           scales=(0.1, 1.0, 10.0), seed=0, cfg=CFG)
    assert vr_known.passed
    assert vr_known.max_spectral_radius < 1.0 - 1e-6
    assert time.time() - start < 5.0


@criterion(2, "reachable-part recovery")
def test_criterion_2_reachable_part():
    D = _example1_data()
    comp = row_compress(D.x_minus, D.x_plus, CFG)
    A11, B1 = reachable_part(D, comp, CFG)
    assert np.abs(np.hstack([A11, B1]) - np.array([[1.0, 1.0]])).max() <= 1e-8
    B = recover_input_matrix(D, comp, CFG)
    assert np.abs(B - np.array([[1.0], [0.0]])).max() <= 1e-8


@criterion(3, "three-tank pipeline")
def test_criterion_3_three_tank():
    start = time.time()
    system, D = _three_tank_data()
    assert np.abs(system.A - THREE_TANK_A_REF).max() <= 1e-4
    assert np.abs(system.B - THREE_TANK_B_REF).max() <= 1e-4

    traj = simulate(system, THREE_TANK_X0, THREE_TANK_INPUTS)
    assert np.abs(traj.states.T - THREE_TANK_TRAJ_REF).max() <= 1e-3

    comp = row_compress(D.x_minus, D.x_plus, CFG)
    assert comp.r == 2
    report = check_stabilizability_prior(D, CFG)
    assert report.stabilization_stabilizability_prior is True
    sol = solve_stab_lmi(D, comp, CFG)
    assert sol.feasible

    gain, _, _ = synthesize_stab(D, CFG, report)
    assert spectral_radius(system.A + system.B @ gain.K) < 1.0
    vr = verify_gain(consistent_set(D, CFG), gain, n_samples=200,
                     scales=(0.1, 1.0, 10.0), seed=0, cfg=CFG)
    assert vr.samples_tested + vr.rejected_unstabilizable == 600
    assert vr.passed

    rho_ref = spectral_radius(THREE_TANK_A_REF
                                + THREE_TANK_B_REF @ THREE_TANK_K_REF)
    assert abs(rho_ref - 0.9512) <= 1e-3
    assert time.time() - start < 10.0


@criterion(4, "Monte Carlo informativity rates")
def test_criterion_4_monte_carlo_table():
    expected = {
        3: (0.0, 8.1, 42.0),
        4: (62.4, 63.2, 99.4),
        5: (62.8, 63.2, 99.8),
        10: (63.2, 63.2, 100.0),
        100: (63.2, 63.2, 100.0),
    }
    start = time.time()
    # the reference table's generator seed is unknown; ours is pinned, and
    # the +-4-point tolerance absorbs the binomial noise of 1000 scenarios
    mc = MonteCarloConfig(system=zoh_discretize(three_tank_model()),
                          scenarios=1000, t_list=(3, 4, 5, 10, 100), seed=3)
    result = run_monte_carlo(mc, CFG)
    elapsed = time.time() - start
    assert result.solver_failures == 0
    pct = result.percentages()
    for T, (ident, plain, prior) in expected.items():
        row = pct[T]
        print(f"  T={T}: ident {row['identification_pct']:.1f} (ref {ident}), "
              f"plain {row['stabilization_pct']:.1f} (ref {plain}), "
              f"prior {row['stabilizability_prior_pct']:.1f} (ref {prior})")
        assert abs(row["identification_pct"] - ident) <= 4.0
        assert abs(row["stabilization_pct"] - plain) <= 4.0
        assert abs(row["stabilizability_prior_pct"] - prior) <= 4.0
    assert pct[3]["identification_pct"] == 0.0
    assert elapsed < 600.0


def _suite(seed, count=500):
    rng = np.random.default_rng(seed)
    return [random_dataset(rng) for _ in range(count)]


@criterion(5, "verdict equivalences on random suites")
def test_criterion_5_verdict_equivalences():
    for ds in _suite(101):
        plain = solve_plain_lmi(ds.D, CFG).feasible
        assert check_stabilizability_prior(ds.D, CFG).stabilization_controllability_prior \
            == plain

    full_rank_seen = 0
    for ds in _suite(102):
        report = check_stabilizability_prior(ds.D, CFG)
        if report.branch is Branch.FULL_RANK:
            assert report.stabilization_stabilizability_prior == report.stabilization
            full_rank_seen += 1
    assert full_rank_seen >= 100

    for ds in _suite(103):
        report = check_stabilizability_prior(ds.D, CFG)
        assert (not report.stabilization) or report.stabilization_stabilizability_prior


@criterion(6, "compressed-solve certificate identities")
def test_criterion_6_certificate_identities():
    solves = []
    D1 = _example1_data()
    solves.append((D1, row_compress(D1.x_minus, D1.x_plus, CFG)))
    _, D3 = _three_tank_data()
    solves.append((D3, row_compress(D3.x_minus, D3.x_plus, CFG)))
    for seed in (101, 102, 103):
        for ds in _suite(seed, count=120):
            comp = row_compress(ds.D.x_minus, ds.D.x_plus, CFG)
            if comp.r >= ds.D.n or comp.r == 0:
                continue
            report = check_stabilizability_prior(ds.D, CFG)
            if report.stabilization_stabilizability_prior:
                solves.append((ds.D, comp))

    feasible_checked = 0
    for D, comp in solves:
        sol = solve_stab_lmi(D, comp, CFG)
        if not sol.feasible:
            continue
        theta = sol.theta
        G = comp.x_hat_minus @ theta
        assert np.abs(G - G.T).max() <= 1e-8
        H = comp.x_hat_plus @ theta
        block = np.block([[G, H], [H.T, G]])
        assert np.linalg.eigvalsh(0.5 * (block + block.T)).min() >= 1e-7
        A11, B1 = reachable_part(D, comp, CFG)
        K1 = (D.u_minus @ theta) @ np.linalg.inv(G)
        closed_direct = A11 + B1 @ K1
        closed_theta = H @ np.linalg.inv(G)
        assert np.abs(closed_direct - closed_theta).max() <= 1e-6
        assert spectral_radius(closed_theta) < 1.0
        decrease = G - closed_direct @ G @ closed_direct.T
        assert np.linalg.eigvalsh(0.5 * (decrease + decrease.T)).min() > 0.0
        feasible_checked += 1
    print(f"  checked {feasible_checked} feasible compressed solves")
    assert feasible_checked >= 30


@criterion(7, "no common quadratic certificate across the free direction")
def test_criterion_7_common_lyapunov_counterexample():
    ratios = []
    for alpha_max in (10.0, 100.0, 1000.0):
        family = [np.array([[0.0, a], [0.0, 0.0]]) for a in (0.0, 1.0, alpha_max)]
        cert = common_lyapunov(family, CFG)
        assert cert is not None
        P = cert.P
        assert np.linalg.eigvalsh(P).min() > 0.0
        assert P[0, 0] > alpha_max**2 * P[1, 1]
        ratios.append(P[0, 0] / P[1, 1])
    assert ratios[0] < ratios[1] < ratios[2]


@criterion(8, "controllability is generic along random lines")
def test_criterion_8_genericity():
    rng = np.random.default_rng(104)
    nonzero_trials = 0
    for _ in range(100):
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 3))
        while True:
            M, N = rng.normal(size=(n, n)), rng.normal(size=(n, m))
            if is_controllable(M, N, CFG):
                break
        M0, N0 = rng.normal(size=(n, n)), rng.normal(size=(n, m))
        alphas = rng.uniform(-10.0, 10.0, size=100)
        count = genericity_probe(M, N, M0, N0, alphas, CFG)
        assert count <= n**2
        nonzero_trials += count > 0
    assert nonzero_trials <= 1
