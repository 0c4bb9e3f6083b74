import numpy as np
import pytest

from ddstab import (DataFormatError, LtiSystem, PreconditionError, TrajectoryData,
                    build_data_matrices, consistent_set, is_stabilizable, numerical_rank,
                    reachable_part, recover_input_matrix, row_compress,
                    sample_consistent, simulate)
from ddstab.data import (consistency_residual, load_trajectory, trajectory_from_csv,
                         trajectory_from_json, trajectory_to_csv, trajectory_to_json)

from conftest import (MISREAD_CSV, THREE_TANK_TRAJ_REF, THREE_TANK_U, example1_matrices,
                      random_dataset)


class TestBuildDataMatrices:
    def test_example1(self, example1):
        assert np.allclose(example1.u_minus, [[1.0, 2.0, -1.0]])
        assert np.allclose(example1.x_minus, [[1.0, 2.0, 4.0], [0.0, 0.0, 0.0]])
        assert np.allclose(example1.x_plus, [[2.0, 4.0, 3.0], [0.0, 0.0, 0.0]])

    def test_three_tank_table(self):
        traj = TrajectoryData(inputs=THREE_TANK_U.reshape(-1, 1),
                              states=THREE_TANK_TRAJ_REF.T)
        D = build_data_matrices(traj)
        assert D.u_minus.shape == (1, 5)
        assert D.x_minus.shape == (3, 5)
        assert np.allclose(D.x_minus, THREE_TANK_TRAJ_REF[:, :5])
        assert np.allclose(D.x_plus, THREE_TANK_TRAJ_REF[:, 1:])

    def test_minimal(self):
        traj = TrajectoryData(inputs=[[0.0]], states=[[1.0], [1.0]])
        D = build_data_matrices(traj)
        assert D.u_minus.tolist() == [[0.0]]
        assert D.x_minus.tolist() == [[1.0]]
        assert D.x_plus.tolist() == [[1.0]]

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataFormatError):
            TrajectoryData(inputs=[[0.0], [1.0]], states=[[1.0], [1.0]])


class TestConsistentSet:
    def test_example1_particular_and_basis(self, cfg, example1):
        cs = consistent_set(example1, cfg)
        assert np.allclose(cs.particular.A, [[1.0, 0.0], [0.0, 0.0]], atol=1e-10)
        assert np.allclose(cs.particular.B, [[1.0], [0.0]], atol=1e-10)
        assert cs.d == 1
        q = cs.Q[:, 0]
        assert np.allclose(np.abs(q), [0.0, 1.0, 0.0], atol=1e-10)

    def test_example1_members_reproduce_family(self, cfg, example1):
        cs = consistent_set(example1, cfg)
        alpha, beta = 0.7, -0.3
        sign = np.sign(cs.Q[1, 0])
        member = sample_consistent(cs, sign * np.array([[alpha], [beta]]))
        assert np.allclose(member.A, [[1.0, alpha], [0.0, beta]], atol=1e-10)
        assert np.allclose(member.B, [[1.0], [0.0]], atol=1e-10)

    def test_singleton_when_identifiable(self, cfg):
        rng = np.random.default_rng(10)
        system = LtiSystem(A=0.5 * np.eye(2), B=rng.normal(size=(2, 1)))
        traj = simulate(system, rng.normal(size=2), rng.normal(size=(8, 1)))
        D = build_data_matrices(traj)
        cs = consistent_set(D, cfg)
        assert numerical_rank(D.stacked(), cfg) == 3
        assert cs.d == 0
        assert np.abs(cs.particular.A - system.A).max() <= 1e-8
        assert np.abs(cs.particular.B - system.B).max() <= 1e-8
        # with no free directions, every sample is the particular solution
        member = sample_consistent(cs, np.zeros((2, 0)))
        assert np.array_equal(member.A, cs.particular.A)
        assert np.array_equal(member.B, cs.particular.B)

    def test_dimension_count(self, cfg):
        rng = np.random.default_rng(11)
        for _ in range(40):
            ds = random_dataset(rng)
            cs = consistent_set(ds.D, cfg)
            assert cs.d + numerical_rank(ds.D.stacked(), cfg) == ds.D.n + ds.D.m

    def test_round_trip_membership(self, cfg):
        rng = np.random.default_rng(12)
        for _ in range(40):
            ds = random_dataset(rng)
            cs = consistent_set(ds.D, cfg)
            assert consistency_residual(ds.D, ds.true_system) <= cfg.equality_tol
            assert consistency_residual(ds.D, cs.particular) <= cfg.equality_tol

    def test_samples_satisfy_data_equation(self, cfg):
        rng = np.random.default_rng(13)
        for _ in range(20):
            ds = random_dataset(rng)
            cs = consistent_set(ds.D, cfg)
            for scale in (0.1, 1.0, 10.0):
                W = scale * rng.normal(size=(ds.D.n, cs.d))
                member = sample_consistent(cs, W)
                assert consistency_residual(ds.D, member) <= cfg.equality_tol

    def test_zero_w_returns_particular(self, cfg, example1):
        cs = consistent_set(example1, cfg)
        member = sample_consistent(cs, np.zeros((2, 1)))
        assert np.allclose(member.A, cs.particular.A)
        assert np.allclose(member.B, cs.particular.B)


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


class TestStackedSampling:
    """A stack of draws gives each draw's own member, bit for bit."""

    @staticmethod
    def check(cs, W, cfg):
        n, m = cs.particular.n, cs.particular.m
        stack = sample_consistent(cs, W)
        assert stack.A.shape == (len(W), n, n) and stack.B.shape == (len(W), n, m)
        assert (stack.n, stack.m) == (n, m)
        for i, w in enumerate(W):
            single = sample_consistent(cs, w)
            assert _bits(stack.A[i]) == _bits(single.A)
            assert _bits(stack.B[i]) == _bits(single.B)
        keep = is_stabilizable(stack.A, stack.B, cfg)
        kept = LtiSystem(A=stack.A[keep], B=stack.B[keep])
        survivors = [s for s in (sample_consistent(cs, w) for w in W)
                     if is_stabilizable(s.A, s.B, cfg)]
        assert kept.A.shape == (len(survivors), n, n)
        assert kept.B.shape == (len(survivors), n, m)
        for a, b, single in zip(kept.A, kept.B, survivors):
            assert _bits(a) == _bits(single.A) and _bits(b) == _bits(single.B)
        return kept

    def test_random_datasets(self, cfg):
        rng = np.random.default_rng(14)
        rejected = 0
        for _ in range(30):
            ds = random_dataset(rng)
            cs = consistent_set(ds.D, cfg)
            scales = rng.choice([0.1, 1.0, 10.0], size=(8, 1, 1))
            kept = self.check(cs, scales * rng.normal(size=(8, ds.D.n, cs.d)), cfg)
            rejected += 8 - len(kept.A)
        assert rejected > 0

    def test_singleton_family(self, cfg):
        rng = np.random.default_rng(15)
        system = LtiSystem(A=[[0.3, 0.0], [0.1, 1.2]], B=[[1.0], [0.5]])
        D = build_data_matrices(simulate(system, rng.normal(size=2),
                                         rng.normal(size=(7, 1))))
        cs = consistent_set(D, cfg)
        assert cs.d == 0
        kept = self.check(cs, np.zeros((5, 2, 0)), cfg)
        assert len(kept.A) == 5
        assert all(_bits(a) == _bits(cs.particular.A) for a in kept.A)

    def test_empty_stack(self, cfg, example1):
        cs = consistent_set(example1, cfg)
        kept = self.check(cs, np.zeros((0, 2, cs.d)), cfg)
        assert kept.A.shape == (0, 2, 2)

    def test_every_draw_rejected(self, cfg, example1):
        # the second coefficient sets the uncontrollable eigenvalue, here on
        # or outside the margin in every draw
        cs = consistent_set(example1, cfg)
        sign = np.sign(cs.Q[1, 0])
        W = sign * np.array([[[0.0], [2.0]], [[0.7], [-1.5]],
                             [[-3.0], [1.0 - cfg.schur_margin]]])
        assert len(self.check(cs, W, cfg).A) == 0


class TestReachablePart:
    def test_example1(self, cfg, example1):
        comp = row_compress(example1.x_minus, example1.x_plus, cfg)
        A11, B1 = reachable_part(example1, comp, cfg)
        # hand value via normal equations: (M M^T) = [[21, 1], [1, 6]],
        # x_hat_plus M^T = [22, 7] with M = [x_hat_minus; u_minus]
        assert A11.shape == (1, 1)
        assert A11[0, 0] == pytest.approx(1.0, abs=1e-8)
        assert B1[0, 0] == pytest.approx(1.0, abs=1e-8)
        assert np.allclose(recover_input_matrix(example1, comp, cfg), [[1.0], [0.0]],
                           atol=1e-8)

    def test_full_rank_identifiable_recovers_system(self, cfg):
        rng = np.random.default_rng(14)
        system = LtiSystem(A=np.array([[0.4, 0.2], [0.0, 0.3]]), B=rng.normal(size=(2, 2)))
        traj = simulate(system, rng.normal(size=2), rng.normal(size=(9, 2)))
        D = build_data_matrices(traj)
        comp = row_compress(D.x_minus, D.x_plus, cfg)
        assert comp.r == 2
        A11, B1 = reachable_part(D, comp, cfg)
        back_A = np.linalg.solve(comp.S, A11) @ comp.S
        back_B = np.linalg.solve(comp.S, B1)
        assert np.abs(back_A - system.A).max() <= 1e-8
        assert np.abs(back_B - system.B).max() <= 1e-8

    def test_three_tank_blocks_match_reference(self, cfg):
        from conftest import THREE_TANK_A_REF, THREE_TANK_B_REF, THREE_TANK_U
        from ddstab import zoh_discretize, three_tank_model
        from ddstab.experiments import THREE_TANK_X0, THREE_TANK_INPUTS
        from ddstab.linalg import RowCompression
        system = zoh_discretize(three_tank_model())
        D = build_data_matrices(simulate(system, THREE_TANK_X0, THREE_TANK_INPUTS))
        # identity compression is valid: the third state stays at zero
        comp = RowCompression(S=np.eye(3), r=2, x_hat_minus=D.x_minus[:2],
                              x_hat_plus=D.x_plus[:2])
        A11, B1 = reachable_part(D, comp, cfg)
        assert np.abs(A11 - THREE_TANK_A_REF[:2, :2]).max() <= 1e-3
        assert np.abs(B1 - THREE_TANK_B_REF[:2]).max() <= 1e-3
        assert np.abs(recover_input_matrix(D, comp, cfg) - THREE_TANK_B_REF).max() <= 1e-3

    def test_rank_zero_state_data(self, cfg):
        system = LtiSystem(A=np.array([[0.5]]), B=np.array([[0.0]]))
        traj = simulate(system, np.zeros(1), np.array([[1.0], [2.0]]))
        D = build_data_matrices(traj)
        comp = row_compress(D.x_minus, D.x_plus, cfg)
        assert comp.r == 0
        A11, B1 = reachable_part(D, comp, cfg)
        assert A11.shape == (0, 0)
        assert B1.shape == (0, 1)
        assert np.allclose(recover_input_matrix(D, comp, cfg), [[0.0]])

    def test_precondition_violation(self, cfg):
        # zero input rows add no rank: stacked rank < r+m
        traj = TrajectoryData(inputs=np.zeros((3, 1)),
                              states=np.array([[1.0, 0.0], [2.0, 0.0], [4.0, 0.0], [8.0, 0.0]]))
        D = build_data_matrices(traj)
        comp = row_compress(D.x_minus, D.x_plus, cfg)
        with pytest.raises(PreconditionError):
            reachable_part(D, comp, cfg)


class TestTrajectoryFiles:
    def test_json_round_trip(self):
        traj = example1_matrices()
        original = TrajectoryData(inputs=np.array([[1.0], [2.0], [-1.0]]),
                                  states=np.array([[1.0, 0.0], [2.0, 0.0],
                                                   [4.0, 0.0], [3.0, 0.0]]))
        back = trajectory_from_json(trajectory_to_json(original))
        assert np.array_equal(back.inputs, original.inputs)
        assert np.array_equal(back.states, original.states)

    def test_csv_round_trip(self):
        rng = np.random.default_rng(15)
        original = TrajectoryData(inputs=rng.normal(size=(4, 2)),
                                  states=rng.normal(size=(5, 3)))
        back = trajectory_from_csv(trajectory_to_csv(original))
        assert np.array_equal(back.inputs, original.inputs)
        assert np.array_equal(back.states, original.states)

    def test_json_missing_field(self):
        with pytest.raises(DataFormatError, match="states"):
            trajectory_from_json('{"n": 1, "m": 1, "inputs": [[1.0]]}')

    def test_json_ragged_row(self):
        with pytest.raises(DataFormatError, match=r"states\[1\]"):
            trajectory_from_json(
                '{"n": 2, "m": 1, "inputs": [[1.0]], "states": [[1.0, 0.0], [2.0]]}')

    def test_csv_bad_cell(self):
        text = "t,u_1,x_1\n0,1.0,1.0\n1,,x\n"
        with pytest.raises(DataFormatError, match="row 2"):
            trajectory_from_csv(text)

    @pytest.mark.parametrize("name", sorted(MISREAD_CSV))
    def test_csv_header_and_time_must_be_exact(self, name):
        with pytest.raises(DataFormatError, match="header must be|t must read"):
            trajectory_from_csv(MISREAD_CSV[name])

    @pytest.mark.parametrize("text", ["5", "null", "[1, 2]"])
    def test_json_top_level_not_an_object(self, text):
        with pytest.raises(DataFormatError, match="JSON object"):
            trajectory_from_json(text)

    @pytest.mark.parametrize("cell", ['"a"', "1" + "0" * 400],
                             ids=["string", "int_beyond_float"])
    def test_json_non_numeric_cell(self, cell):
        with pytest.raises(DataFormatError, match="must hold numbers"):
            trajectory_from_json(
                f'{{"n": 1, "m": 1, "inputs": [[{cell}]], "states": [[1.0], [2.0]]}}')

    @pytest.mark.parametrize("cell", ['"1.5"', '" 2"', "true", "[1.0]", "null"],
                             ids=["numeric_string", "padded_string", "boolean",
                                  "one_element_list", "null"])
    def test_json_cell_that_is_not_a_json_number(self, cell):
        with pytest.raises(DataFormatError, match=r"inputs\[0\] must hold numbers"):
            trajectory_from_json(
                f'{{"n": 1, "m": 1, "inputs": [[{cell}]], "states": [[1.0], [2.0]]}}')

    def test_json_integer_cells_stay_valid(self):
        traj = trajectory_from_json(
            '{"n": 1, "m": 1, "inputs": [[3]], "states": [[1], [-2.5]]}')
        assert np.array_equal(traj.inputs, [[3.0]])
        assert np.array_equal(traj.states, [[1.0], [-2.5]])

    @pytest.mark.parametrize("n, m", [("true", "1"), ("1", "false")])
    def test_json_boolean_dimension(self, n, m):
        with pytest.raises(DataFormatError, match="positive integers"):
            trajectory_from_json(f'{{"n": {n}, "m": {m}, "inputs": [[1.0]], '
                                 '"states": [[1.0], [2.0]]}')

    @pytest.mark.parametrize("name", ["t.json", "t.csv"])
    def test_file_that_is_not_utf8(self, tmp_path, name):
        path = tmp_path / name
        path.write_bytes(b"\xff\xfe")
        with pytest.raises(DataFormatError, match="not UTF-8"):
            load_trajectory(str(path))

    def test_load_by_extension(self, tmp_path):
        traj = TrajectoryData(inputs=[[1.0]], states=[[0.5], [2.0]])
        j = tmp_path / "t.json"
        j.write_text(trajectory_to_json(traj))
        c = tmp_path / "t.csv"
        c.write_text(trajectory_to_csv(traj))
        for path in (j, c):
            back = load_trajectory(str(path))
            assert np.array_equal(back.inputs, traj.inputs)
            assert np.array_equal(back.states, traj.states)
