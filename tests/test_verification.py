import dataclasses

import numpy as np
import pytest

from ddstab import (LtiSystem, NumericalConfig, PreconditionError, TrajectoryData,
                    build_data_matrices, check_stabilizability_prior,
                    consistent_set, decomposition_check, genericity_probe, is_schur,
                    simulate, spectral_radius, structural_nullity, verify_gain)
from ddstab import verification
from ddstab.data import sample_consistent
from ddstab.linalg import RowCompression, is_stabilizable
from ddstab.synthesis import FeedbackGain, GainProvenance
from ddstab.verification import VerificationReport

from conftest import (THREE_TANK_A_REF, THREE_TANK_B_REF, random_dataset)
from oracles import common_lyapunov


def stab_gain(K) -> FeedbackGain:
    return FeedbackGain(K=np.atleast_2d(np.asarray(K, dtype=float)),
                        provenance=GainProvenance.STAB_PRIOR)


class TestVerifyGain:
    def test_example1_known_good_gain(self, cfg, example1):
        cs = consistent_set(example1, cfg)
        report = verify_gain(cs, stab_gain([[-1.0, 0.0]]), n_samples=200, seed=0, cfg=cfg)
        assert report.passed
        assert report.samples_tested > 0
        assert report.max_spectral_radius < 1.0

    def test_schur_member_kept_at_coarse_rank_tolerance(self):
        # the stabilizability filter tests [A - lambda I, B] beside [I 0],
        # handed to the kernel with its exact rank n, not ranked at the
        # cutoff (at 0.5 the shared cutoff of the 1 x 2 [I 0] is its unit
        # singular value): the one consistent member, Schur with B = 0, is
        # tested in every draw
        D = build_data_matrices(TrajectoryData(inputs=np.array([[1.0], [-1.0], [2.0]]),
                                               states=np.array([[1.0], [0.5], [0.25], [0.125]])))
        cs = consistent_set(D)
        assert cs.d == 0
        cfg = NumericalConfig(rank_rel_tol=0.5)
        gain = stab_gain([[0.0]])
        report = verify_gain(cs, gain, n_samples=20, seed=0, cfg=cfg)
        assert report.samples_tested == 20 * len(report.scales)
        assert report.rejected_unstabilizable == 0 and report.passed
        assert_bitwise_equal(report, per_draw_verify(cs, gain, 20, report.scales, 0, cfg))

    def test_example1_zero_gain_fails(self, cfg, example1):
        # every consistent member keeps its open-loop eigenvalue at 1
        cs = consistent_set(example1, cfg)
        report = verify_gain(cs, stab_gain([[0.0, 0.0]]), n_samples=50, seed=0, cfg=cfg)
        assert not report.passed
        assert report.worst_member is not None
        # the reported worst member is recomputable by the caller
        A, B = report.worst_member.A, report.worst_member.B
        rho = spectral_radius(A + B @ np.array([[0.0, 0.0]]))
        assert rho == pytest.approx(report.max_spectral_radius, rel=1e-12)
        assert rho >= 1.0 - cfg.schur_margin

    def test_singleton_family(self, cfg):
        rng = np.random.default_rng(50)
        system = LtiSystem(A=[[0.3, 0.0], [0.1, 0.2]], B=[[1.0], [0.0]])
        D = build_data_matrices(simulate(system, rng.normal(size=2),
                                         rng.normal(size=(7, 1))))
        cs = consistent_set(D, cfg)
        assert cs.d == 0
        gain = FeedbackGain(K=np.zeros((1, 2)), provenance=GainProvenance.PLAIN)
        report = verify_gain(cs, gain, n_samples=30, seed=0, cfg=cfg)
        assert report.passed
        assert report.max_spectral_radius == pytest.approx(
            spectral_radius(system.A), rel=1e-12)

    def test_deterministic_given_seed(self, cfg, example1):
        cs = consistent_set(example1, cfg)
        r1 = verify_gain(cs, stab_gain([[-1.0, 0.0]]), n_samples=40, seed=7, cfg=cfg)
        r2 = verify_gain(cs, stab_gain([[-1.0, 0.0]]), n_samples=40, seed=7, cfg=cfg)
        assert r1.to_dict() == r2.to_dict()

    def test_plain_gains_face_every_member(self, cfg, example1):
        cs = consistent_set(example1, cfg)
        plain = FeedbackGain(K=np.array([[-1.0, 0.0]]), provenance=GainProvenance.PLAIN)
        report = verify_gain(cs, plain, n_samples=60, seed=0, cfg=cfg)
        assert report.rejected_unstabilizable == 0
        assert not report.passed  # members with |beta| > 1 stay unstable

    def test_plain_synthesis_verifies_whole_family(self, cfg):
        # gains from the no-prior route must cover every consistent member,
        # with no stabilizability filter applied
        from ddstab import gain_from_plain, solve_plain_lmi
        rng = np.random.default_rng(54)
        checked = 0
        while checked < 10:
            ds = random_dataset(rng)
            sol = solve_plain_lmi(ds.D, cfg)
            if not sol.feasible:
                continue
            gain = gain_from_plain(ds.D, sol)
            report = verify_gain(consistent_set(ds.D, cfg), gain, n_samples=100,
                                 seed=checked, cfg=cfg)
            assert report.rejected_unstabilizable == 0
            assert report.passed
            checked += 1


def unstabilizable_identifiable(cfg):
    """Identifiable data of x+ = diag(0.5, 2) x + [1; 0] u: a one-member family
    that the stabilizability filter rejects at every draw."""
    rng = np.random.default_rng(55)
    system = LtiSystem(A=np.diag([0.5, 2.0]), B=[[1.0], [0.0]])
    D = build_data_matrices(simulate(system, rng.normal(size=2),
                                     rng.normal(size=(6, 1))))
    cs = consistent_set(D, cfg)
    assert cs.d == 0
    return cs


class TestNoDrawTested:
    def test_all_rejected_does_not_pass(self, cfg):
        cs = unstabilizable_identifiable(cfg)
        report = verify_gain(cs, stab_gain([[-0.5, 0.0]]), n_samples=200, seed=0, cfg=cfg)
        assert report.samples_tested == 0
        assert report.rejected_unstabilizable == 600
        assert report.worst_member is None
        assert not report.passed

    def test_no_draws_requested_does_not_pass(self, cfg, example1):
        report = verify_gain(consistent_set(example1, cfg), stab_gain([[-1.0, 0.0]]),
                             n_samples=0, seed=0, cfg=cfg)
        assert report.samples_tested == 0
        assert not report.passed

    @pytest.mark.parametrize("n_samples", [-1, -5])
    def test_negative_draw_count_is_refused(self, cfg, example1, n_samples):
        with pytest.raises(PreconditionError, match=rf"n_samples {n_samples} is negative"):
            verify_gain(consistent_set(example1, cfg), stab_gain([[-1.0, 0.0]]),
                        n_samples=n_samples, seed=0, cfg=cfg)


def per_member_nullity(cs, gain, system):
    """structural_nullity of one member, as a scalar loop."""
    blocks, col = [], system.B
    for _ in range(system.n):
        blocks.append(col)
        col = system.A @ col
    C = np.hstack(blocks)
    c_norm = np.linalg.norm(C, 2)
    if c_norm == 0.0 or cs.d == 0:
        return 0.0
    n = cs.particular.n
    worst = 0.0
    for j in range(cs.d):
        q = cs.Q[:, j]
        row = q[:n] + q[n:] @ gain.K
        worst = max(worst, float(np.linalg.norm(row @ C) / c_norm))
    return worst


def per_draw_coefficients(n, d, n_samples, scales, seed):
    """Each draw's W, one at a time from its scale's own generator."""
    for i_scale, scale in enumerate(scales):
        rng = np.random.default_rng((seed, i_scale)) if n_samples else None
        for _ in range(n_samples):
            yield scale * rng.normal(size=(n, d))


def per_draw_verify(cs, gain, n_samples, scales, seed, cfg):
    """Oracle: verify_gain evaluated one draw at a time."""
    filter_stabilizable = gain.provenance is GainProvenance.STAB_PRIOR
    tested = rejected = 0
    worst_rho, worst = -1.0, None
    structural = []
    for W in per_draw_coefficients(cs.particular.n, cs.d, n_samples, scales, seed):
        member = sample_consistent(cs, W)
        if filter_stabilizable and not is_stabilizable(member.A, member.B, cfg):
            rejected += 1
            continue
        tested += 1
        closed = member.A + member.B @ gain.K
        rho = float(np.max(np.abs(np.linalg.eigvals(closed))))
        if rho > worst_rho:
            worst_rho, worst = rho, member
        structural.append(per_member_nullity(cs, gain, member))
    return VerificationReport(
        samples_tested=tested, rejected_unstabilizable=rejected,
        max_spectral_radius=worst_rho, worst_member=worst,
        structural_residuals=structural,
        passed=tested > 0 and worst_rho <= 1.0 - cfg.schur_margin,
        seed=seed, scales=tuple(scales))


def per_draw_members(cs, gain, n_samples, scales, seed, cfg):
    """Each draw's member in draw order, None where the filter rejects it."""
    filter_stabilizable = gain.provenance is GainProvenance.STAB_PRIOR
    for W in per_draw_coefficients(cs.particular.n, cs.d, n_samples, scales, seed):
        member = sample_consistent(cs, W)
        keep = not filter_stabilizable or is_stabilizable(member.A, member.B, cfg)
        yield member if keep else None


def bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def assert_bitwise_equal(got: VerificationReport, want: VerificationReport):
    assert (got.samples_tested, got.rejected_unstabilizable, got.passed,
            got.seed, got.scales) == (want.samples_tested, want.rejected_unstabilizable,
                                      want.passed, want.seed, want.scales)
    assert type(got.max_spectral_radius) is float
    assert bits(got.max_spectral_radius) == bits(want.max_spectral_radius)
    if want.worst_member is None:
        assert got.worst_member is None
    else:
        for name in ("A", "B"):
            g, w = getattr(got.worst_member, name), getattr(want.worst_member, name)
            assert g.shape == w.shape and bits(g) == bits(w)
    assert all(type(r) is float for r in got.structural_residuals)
    assert bits(got.structural_residuals) == bits(want.structural_residuals)
    assert got.to_dict() == want.to_dict()


class TestStackedEqualsPerDraw:
    """verify_gain's stacked chunks reproduce the draw-by-draw loop bit for bit."""

    def check(self, cs, gain, n_samples, cfg, scales=(0.1, 1.0, 10.0), seed=3):
        report = verify_gain(cs, gain, n_samples=n_samples, scales=scales,
                             seed=seed, cfg=cfg)
        assert_bitwise_equal(report, per_draw_verify(cs, gain, n_samples, scales,
                                                     seed, cfg))
        return report

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_random_datasets_both_provenances(self, cfg, monkeypatch, chunk):
        monkeypatch.setattr(verification, "VERIFY_CHUNK", chunk)
        rng = np.random.default_rng(56)
        rejected = 0
        for _ in range(12):
            ds = random_dataset(rng)
            cs = consistent_set(ds.D, cfg)
            K = rng.normal(size=(ds.D.m, ds.D.n))
            for provenance in GainProvenance:
                gain = FeedbackGain(K=K, provenance=provenance)
                rejected += self.check(cs, gain, 10, cfg).rejected_unstabilizable
        assert rejected > 0

    def test_singleton_family(self, cfg):
        rng = np.random.default_rng(57)
        system = LtiSystem(A=[[0.3, 0.0], [0.1, 0.2]], B=[[1.0], [0.0]])
        D = build_data_matrices(simulate(system, rng.normal(size=2),
                                         rng.normal(size=(7, 1))))
        cs = consistent_set(D, cfg)
        assert cs.d == 0
        report = self.check(cs, stab_gain([[0.1, 0.0]]), 100, cfg)
        assert report.passed and report.structural_residuals == [0.0] * 300

    def test_all_rejected(self, cfg):
        cs = unstabilizable_identifiable(cfg)
        assert self.check(cs, stab_gain([[-0.5, 0.0]]), 100, cfg).samples_tested == 0

    def test_tie_keeps_first_maximum_across_chunks(self, cfg, example1):
        # A + B K = [[a11 + 1, alpha], [0, beta]] with a11 fixed by the data:
        # every accepted member (|beta| < 1) has the same spectral radius
        cs = consistent_set(example1, cfg)
        gain = stab_gain([[1.0, 0.0]])
        n_samples = verification.VERIFY_CHUNK + 50
        report = self.check(cs, gain, n_samples, cfg)
        members = [m for m in per_draw_members(cs, gain, n_samples, (0.1, 1.0, 10.0),
                                               3, cfg) if m is not None]
        rho = spectral_radius(np.stack([m.A for m in members])
                              + np.stack([m.B for m in members]) @ gain.K)
        ties = np.flatnonzero(rho == report.max_spectral_radius)
        assert len(ties) > 1 and ties[-1] >= verification.VERIFY_CHUNK
        assert bits(report.worst_member.A) == bits(members[ties[0]].A)

    def test_structural_nullity_of_a_stack(self, cfg):
        rng = np.random.default_rng(58)
        for _ in range(10):
            ds = random_dataset(rng)
            cs = consistent_set(ds.D, cfg)
            gain = stab_gain(rng.normal(size=(ds.D.m, ds.D.n)))
            members = [sample_consistent(cs, rng.normal(size=(ds.D.n, cs.d)))
                       for _ in range(6)]
            stack = LtiSystem(A=np.stack([m.A for m in members]),
                              B=np.stack([m.B for m in members]))
            residuals = structural_nullity(cs, gain, stack)
            assert residuals.shape == (6,)
            for r, m in zip(residuals, members):
                single = structural_nullity(cs, gain, m)
                assert type(single) is float
                assert bits(r) == bits(single) == bits(per_member_nullity(cs, gain, m))
            empty = LtiSystem(A=np.zeros((0, ds.D.n, ds.D.n)),
                              B=np.zeros((0, ds.D.n, ds.D.m)))
            assert structural_nullity(cs, gain, empty).shape == (0,)


class TestNonFiniteDraws:
    @pytest.mark.parametrize("scales", [(1e308,), (1.0, 1e308)])
    def test_overflowing_scale_is_named(self, cfg, example1, scales):
        cs = consistent_set(example1, cfg)
        with pytest.raises(PreconditionError, match=r"scale 1e\+308 "):
            verify_gain(cs, stab_gain([[-1.0, 0.0]]), n_samples=50, scales=scales,
                        seed=0, cfg=cfg)

    @pytest.mark.parametrize("scales", [(0.0,), (1.0, -1.0)])
    def test_non_positive_scale_is_named(self, cfg, example1, scales):
        cs = consistent_set(example1, cfg)
        with pytest.raises(PreconditionError, match=rf"scale {scales[-1]!r} is not positive"):
            verify_gain(cs, stab_gain([[-1.0, 0.0]]), n_samples=50, scales=scales,
                        seed=0, cfg=cfg)

    def test_finite_large_scale_still_verifies(self, cfg, example1):
        cs = consistent_set(example1, cfg)
        report = verify_gain(cs, stab_gain([[-1.0, 0.0]]), n_samples=50,
                             scales=(1e150,), seed=0, cfg=cfg)
        assert report.samples_tested + report.rejected_unstabilizable == 50


LARGE_SEED = 2**70 + 1


class TestVectorizedSeeding:
    """Each scale's draws come from one generator, default_rng((seed, scale
    index)), read in draw order whatever the chunk size."""

    @pytest.mark.parametrize("seed", [0, LARGE_SEED])
    def test_reports_do_not_depend_on_chunk_size(self, cfg, monkeypatch, seed):
        rng = np.random.default_rng(60)
        for _ in range(2):
            ds = random_dataset(rng)
            cs = consistent_set(ds.D, cfg)
            K = rng.normal(size=(ds.D.m, ds.D.n))
            for provenance in GainProvenance:
                gain = FeedbackGain(K=K, provenance=provenance)
                reports = []
                for chunk in (1, 7, 256):
                    monkeypatch.setattr(verification, "VERIFY_CHUNK", chunk)
                    reports.append(verify_gain(cs, gain, n_samples=300, seed=seed, cfg=cfg))
                for report in reports[1:]:
                    assert_bitwise_equal(report, reports[0])

    @pytest.mark.parametrize("chunk", [7, 256])
    @pytest.mark.parametrize("seed", [0, LARGE_SEED])
    def test_first_draws_do_not_depend_on_n_samples(self, monkeypatch, chunk, seed):
        monkeypatch.setattr(verification, "VERIFY_CHUNK", chunk)
        scales = (0.1, 1.0, 10.0)

        def per_scale(n_samples):
            chunks = list(verification._draws(3, 2, scales, n_samples, seed))
            return [np.concatenate([W for s, W in chunks if s == scale]) for scale in scales]

        for short, long in zip(per_scale(150), per_scale(300)):
            assert short.shape == (150, 3, 2) and long.shape == (300, 3, 2)
            assert bits(short) == bits(long[:150])

    @pytest.mark.parametrize("chunk", [1, 7])
    @pytest.mark.parametrize("seed", [0, LARGE_SEED])
    def test_verify_gain_equals_per_draw(self, cfg, monkeypatch, chunk, seed):
        monkeypatch.setattr(verification, "VERIFY_CHUNK", chunk)
        rng = np.random.default_rng(59)
        for _ in range(4):
            ds = random_dataset(rng)
            cs = consistent_set(ds.D, cfg)
            K = rng.normal(size=(ds.D.m, ds.D.n))
            for provenance in GainProvenance:
                gain = FeedbackGain(K=K, provenance=provenance)
                report = verify_gain(cs, gain, n_samples=10, seed=seed, cfg=cfg)
                assert_bitwise_equal(report, per_draw_verify(
                    cs, gain, 10, (0.1, 1.0, 10.0), seed, cfg))

    @pytest.mark.parametrize("n_samples, scales", [(0, (0.1, 1.0, 10.0)), (20, ())])
    @pytest.mark.parametrize("seed", [0, -1])
    def test_no_draws(self, cfg, example1, n_samples, scales, seed):
        # no draw, no seeding: even a seed NumPy refuses gives the empty report
        cs = consistent_set(example1, cfg)
        gain = stab_gain([[-1.0, 0.0]])
        report = verify_gain(cs, gain, n_samples=n_samples, scales=scales, seed=seed, cfg=cfg)
        assert_bitwise_equal(report, per_draw_verify(cs, gain, n_samples, scales, seed, cfg))
        assert report.samples_tested == 0 and report.worst_member is None

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_refused_seed_raises_numpys_error(self, cfg, example1, seed):
        with pytest.raises((TypeError, ValueError)) as numpy_error:
            np.random.default_rng((seed, 0))
        with pytest.raises(type(numpy_error.value)) as error:
            verify_gain(consistent_set(example1, cfg), stab_gain([[-1.0, 0.0]]),
                        n_samples=5, seed=seed, cfg=cfg)
        assert str(error.value) == str(numpy_error.value)

    def test_one_default_rng_per_scale(self, cfg, example1, monkeypatch):
        real, calls = np.random.default_rng, []

        def counting(seed):
            calls.append(seed)
            return real(seed)
        monkeypatch.setattr(np.random, "default_rng", counting)
        # 300 draws are two chunks per scale, and still one generator each
        scales = (0.1, 1.0, 10.0)
        report = verify_gain(consistent_set(example1, cfg), stab_gain([[-1.0, 0.0]]),
                             n_samples=300, scales=scales, seed=3, cfg=cfg)
        assert report.samples_tested + report.rejected_unstabilizable == 900
        assert calls == [(3, i_scale) for i_scale in range(len(scales))]


class TestStructuralNullity:
    def test_example1_directions_annihilate(self, cfg, example1):
        cs = consistent_set(example1, cfg)
        member = LtiSystem(A=[[1.0, 0.5], [0.0, 0.3]], B=[[1.0], [0.0]])
        for K in ([[-1.0, 0.0]], [[0.7, 2.0]], [[0.0, 0.0]]):
            assert structural_nullity(cs, stab_gain(K), member) <= 1e-12

    def test_full_rank_informative_data_zero_residual(self, cfg):
        from ddstab import gain_from_plain, solve_plain_lmi
        rng = np.random.default_rng(51)
        system = LtiSystem(A=np.array([[1.1, 0.2], [0.0, 0.7]]),
                           B=np.array([[1.0], [0.4]]))
        D = build_data_matrices(simulate(system, rng.normal(size=2),
                                         rng.normal(size=(5, 1))))
        sol = solve_plain_lmi(D, cfg)
        assert sol.feasible
        gain = gain_from_plain(D, sol)
        cs = consistent_set(D, cfg)
        assert structural_nullity(cs, gain, system) <= 1e-8

    def test_misaligned_gain_positive_residual(self, cfg):
        # family with free input-matrix directions; pick a member whose
        # reachable span meets them and a gain that does not cancel them
        D = build_data_matrices(TrajectoryData(
            inputs=np.array([[1.0], [1.0]]),
            states=np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])))
        cs = consistent_set(D, cfg)
        member = LtiSystem(A=[[0.5, 0.0], [1.0, 0.5]], B=[[0.5], [-1.0]])
        from ddstab.data import consistency_residual
        assert consistency_residual(D, member) <= cfg.equality_tol
        gain = stab_gain([[1.0, 1.0]])
        assert structural_nullity(cs, gain, member) > 1e-3


class TestDecompositionCheck:
    def test_example1_member(self, cfg, example1):
        report = dataclasses.replace(
            check_stabilizability_prior(example1, cfg),
            compression=RowCompression(S=np.eye(2), r=1,
                                       x_hat_minus=np.array([[1.0, 2.0, 4.0]]),
                                       x_hat_plus=np.array([[2.0, 4.0, 3.0]])))
        member = LtiSystem(A=[[1.0, 2.0], [0.0, 0.4]], B=[[1.0], [0.0]])
        diag = decomposition_check(example1, report, member, cfg)
        assert diag.ok
        assert diag.a21_norm == 0.0
        assert diag.b2_norm == 0.0
        assert diag.a22_spectral_radius == pytest.approx(0.4)
        assert diag.a11_b1_stabilizable

    def test_three_tank_true_system(self, cfg):
        from ddstab.experiments import (THREE_TANK_INPUTS, THREE_TANK_X0,
                                        three_tank_model, zoh_discretize)
        system = zoh_discretize(three_tank_model())
        D = build_data_matrices(simulate(system, THREE_TANK_X0, THREE_TANK_INPUTS))
        # identity S is valid here: the third state row is identically zero
        report = dataclasses.replace(
            check_stabilizability_prior(D, cfg),
            compression=RowCompression(S=np.eye(3), r=2, x_hat_minus=D.x_minus[:2],
                                       x_hat_plus=D.x_plus[:2]))
        diag = decomposition_check(D, report, system, cfg)
        assert diag.ok
        assert diag.a22_spectral_radius == pytest.approx(0.9512, abs=1e-3)
        assert diag.a22_schur

    def test_full_rank_degenerates_to_stabilizability(self, cfg):
        rng = np.random.default_rng(52)
        system = LtiSystem(A=np.array([[1.2, 0.1], [0.0, 0.5]]), B=np.array([[1.0], [0.3]]))
        D = build_data_matrices(simulate(system, rng.normal(size=2),
                                         rng.normal(size=(6, 1))))
        report = check_stabilizability_prior(D, cfg)
        assert report.compression.r == 2
        diag = decomposition_check(D, report, system, cfg)
        assert diag.ok
        assert diag.a22_spectral_radius == 0.0  # empty block

    def test_rejects_non_member(self, cfg, example1):
        report = check_stabilizability_prior(example1, cfg)
        impostor = LtiSystem(A=np.eye(2), B=[[0.0], [1.0]])
        with pytest.raises(PreconditionError):
            decomposition_check(example1, report, impostor, cfg)

    def test_rejects_unstabilizable_member(self, cfg, example1):
        report = check_stabilizability_prior(example1, cfg)
        member = LtiSystem(A=[[1.0, 0.0], [0.0, 2.0]], B=[[1.0], [0.0]])
        with pytest.raises(PreconditionError):
            decomposition_check(example1, report, member, cfg)

    def test_matches_reachable_part_across_members(self, cfg, example1):
        report = check_stabilizability_prior(example1, cfg)
        for alpha, beta in ((0.0, 0.0), (3.0, 0.9), (-7.0, -0.2)):
            member = LtiSystem(A=[[1.0, alpha], [0.0, beta]], B=[[1.0], [0.0]])
            diag = decomposition_check(example1, report, member, cfg)
            assert diag.ok
            assert diag.reachable_match_error <= 1e-8


class TestCommonLyapunov:
    @pytest.mark.parametrize("systems, message", [
        ([], "need at least one closed-loop matrix"),
        ([np.eye(2), np.eye(3)], "all closed-loop matrices must share one square shape")],
        ids=["empty", "mixed_shapes"])
    def test_malformed_family_rejected(self, cfg, systems, message):
        with pytest.raises(PreconditionError, match=message):
            common_lyapunov(systems, cfg)

    def test_single_schur_matrix(self, cfg):
        M = np.array([[0.5, 0.2], [0.0, 0.3]])
        cert = common_lyapunov([M], cfg)
        assert cert is not None
        assert np.linalg.eigvalsh(cert.P).min() > 0.0
        assert min(cert.decrease_margins) > 0.0
        # cross-check feasibility with the direct discrete Lyapunov solve
        import scipy.linalg
        P_direct = scipy.linalg.solve_discrete_lyapunov(M, np.eye(2))
        assert np.linalg.eigvalsh(P_direct - M @ P_direct @ M.T).min() > 0.0

    def test_nilpotent_family_needs_growing_ratio(self, cfg):
        # closed loops [[0, alpha], [0, 0]]: any certificate must satisfy
        # P11 > alpha^2 P22, so the ratio blows up with the family range
        ratios = []
        for alpha_max in (1.0, 10.0, 100.0):
            family = [np.array([[0.0, a], [0.0, 0.0]]) for a in (0.0, 1.0, alpha_max)]
            cert = common_lyapunov(family, cfg)
            assert cert is not None
            P = cert.P
            assert P[0, 0] > alpha_max**2 * P[1, 1]
            ratios.append(P[0, 0] / P[1, 1])
        assert ratios[0] < ratios[1] < ratios[2]

    def test_family_with_unstable_member_infeasible(self, cfg):
        family = [np.array([[0.5]]), np.array([[1.5]])]
        assert common_lyapunov(family, cfg) is None


class TestGenericityProbe:
    def test_constant_pencil(self, cfg):
        M = np.array([[0.0, 1.0], [0.0, 0.0]])
        N = np.array([[0.0], [1.0]])
        alphas = np.linspace(-10, 10, 100)
        assert genericity_probe(M, N, np.zeros((2, 2)), np.zeros((2, 1)), alphas, cfg) == 0

    def test_scalar_family_hits_single_point(self, cfg):
        # scalar pair along the line through (a, b1, b2) = (1, 0, 0) inside
        # the family consistent with one sample; only that point fails
        M, N = np.array([[0.0]]), np.array([[0.0, 1.0]])
        M0, N0 = np.array([[1.0]]), np.array([[0.0, -1.0]])
        alphas = [0.0, 0.5, 1.0, 1.5, 2.0]
        assert genericity_probe(M, N, M0, N0, alphas, cfg) == 1
        assert genericity_probe(M, N, M0, N0, [0.5, 2.0], cfg) == 0
        # alphas may be any iterable
        assert genericity_probe(M, N, M0, N0, (a for a in alphas), cfg) == 1
        assert genericity_probe(M, N, M0, N0, range(3), cfg) == 1
        assert genericity_probe(M, N, M0, N0, iter(()), cfg) == 0

    def test_requires_controllable_base(self, cfg):
        with pytest.raises(PreconditionError):
            genericity_probe(np.eye(2), np.zeros((2, 1)), np.zeros((2, 2)),
                             np.zeros((2, 1)), [0.0], cfg)

    def test_random_lines_rarely_uncontrollable(self, cfg):
        rng = np.random.default_rng(53)
        zero_count = 0
        for _ in range(100)[:30]:
            n, m = int(rng.integers(1, 4)), int(rng.integers(1, 3))
            while True:
                M, N = rng.normal(size=(n, n)), rng.normal(size=(n, m))
                from ddstab import is_controllable
                if is_controllable(M, N, cfg):
                    break
            M0, N0 = rng.normal(size=(n, n)), rng.normal(size=(n, m))
            alphas = rng.uniform(-10, 10, size=100)
            count = genericity_probe(M, N, M0, N0, alphas, cfg)
            assert count <= n**2
            zero_count += count == 0
        assert zero_count >= 29


def test_verify_three_tank_reference_gain(cfg):
    from conftest import THREE_TANK_K_REF
    from ddstab.experiments import (THREE_TANK_INPUTS, THREE_TANK_X0,
                                    three_tank_model, zoh_discretize)
    system = zoh_discretize(three_tank_model())
    D = build_data_matrices(simulate(system, THREE_TANK_X0, THREE_TANK_INPUTS))
    cs = consistent_set(D, cfg)
    report = verify_gain(cs, stab_gain(THREE_TANK_K_REF), n_samples=100,
                         seed=0, cfg=cfg)
    assert report.passed
