import json
import os
import subprocess
import sys

import numpy as np
import pytest

from ddstab import LtiSystem, sdp, simulate, synthesis
from ddstab.cli import EXIT_FAILURE, EXIT_NEGATIVE, EXIT_OK, EXIT_USAGE, _dump_json, main
from ddstab.data import trajectory_to_csv, trajectory_to_json
from ddstab.experiments import example1_trajectory

from conftest import MISREAD_CSV, raising_solve


@pytest.fixture
def example1_file(tmp_path):
    path = tmp_path / "example1.json"
    path.write_text(trajectory_to_json(example1_trajectory()))
    return str(path)


def _not_json(constant):
    raise ValueError(f"{constant} is not JSON")


def read_json(path):
    """Strict parse: NaN and Infinity are not JSON, so a file holding them fails."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, parse_constant=_not_json)


class TestInformativityCommand:
    def test_example1_positive(self, example1_file, tmp_path, capsys):
        out = str(tmp_path / "rep")
        assert main(["informativity", example1_file, "--out", out]) == EXIT_OK
        report = read_json(os.path.join(out, "informativity.json"))
        assert report["stabilization"] is False
        assert report["stabilization_stabilizability_prior"] is True

    def test_csv_input(self, tmp_path):
        path = tmp_path / "example1.csv"
        path.write_text(trajectory_to_csv(example1_trajectory()))
        out = str(tmp_path / "rep")
        assert main(["informativity", str(path), "--out", out]) == EXIT_OK

    @pytest.mark.parametrize("name", sorted(MISREAD_CSV))
    def test_misread_csv_is_an_error(self, tmp_path, capsys, name):
        path = tmp_path / f"{name}.csv"
        path.write_text(MISREAD_CSV[name])
        assert main(["informativity", str(path), "--out", str(tmp_path / "o")]) \
            == EXIT_FAILURE
        assert capsys.readouterr().err.startswith("error: ")

    def test_negative_verdict(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "n": 2, "m": 1, "inputs": [[1.0], [2.0], [-1.0]],
            "states": [[1.0, 0.0], [2.0, 0.0], [4.0, 0.0], [3.0, 1.0]]}))
        assert main(["informativity", str(path), "--out", str(tmp_path / "o")]) \
            == EXIT_NEGATIVE

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({
            "n": 2, "m": 1, "inputs": [[1.0]], "states": [[1.0, 0.0], [2.0]]}))
        assert main(["informativity", str(path), "--out", str(tmp_path / "o")]) \
            == EXIT_FAILURE
        assert "states[1]" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [
        b"\xff\xfe", b"5", b"null",
        b'{"n": 1, "m": 1, "inputs": [["a"]], "states": [[1.0], [2.0]]}',
        b'{"n": true, "m": 1, "inputs": [[1.0]], "states": [[1.0], [2.0]]}',
        b'{"n": 1, "m": 1, "inputs": [["1.5"]], "states": [[1.0], [2.0]]}',
        b'{"n": 1, "m": 1, "inputs": [[1.0]], "states": [[" 2"], [2.0]]}',
        b'{"n": 1, "m": 1, "inputs": [[false]], "states": [[1.0], [2.0]]}',
        b'{"n": 1, "m": 1, "inputs": [[[1.0]]], "states": [[[1.0]], [[2.0]]]}'],
        ids=["not_utf8", "int", "null", "non_numeric_cell", "boolean_n",
             "numeric_string_cell", "padded_string_cell", "boolean_cell",
             "one_element_list_cell"])
    def test_malformed_data_is_an_error_line(self, tmp_path, capsys, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        assert main(["informativity", str(path), "--out", str(tmp_path / "o")]) \
            == EXIT_FAILURE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_missing_file(self, tmp_path):
        assert main(["informativity", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == EXIT_FAILURE


class TestSynthesizeAndVerify:
    def test_pipeline(self, example1_file, tmp_path):
        out = str(tmp_path / "syn")
        assert main(["synthesize", example1_file, "--out", out]) == EXIT_OK
        gain = read_json(os.path.join(out, "gain.json"))
        K = np.array(gain["K"])
        assert K.shape == (1, 2)
        assert abs(1.0 + K[0, 0]) < 1.0  # reachable closed loop is Schur
        assert K[0, 1] == 0.0
        assert gain["branch"] == "rank_deficient"

        ver_out = str(tmp_path / "ver")
        code = main(["verify", example1_file, os.path.join(out, "gain.json"),
                     "--out", ver_out, "--samples", "60"])
        assert code == EXIT_OK
        report = read_json(os.path.join(ver_out, "verification.json"))
        assert report["passed"] is True
        assert report["decomposition"]["ok"] is True

    def test_verify_bad_gain_fails(self, example1_file, tmp_path):
        gain_path = tmp_path / "gain.json"
        gain_path.write_text(json.dumps(
            {"K": [[0.0, 0.0]], "provenance": "stabilizability_prior"}))
        code = main(["verify", example1_file, str(gain_path),
                     "--out", str(tmp_path / "v"), "--samples", "40"])
        assert code == EXIT_NEGATIVE

    def test_verify_rejects_gain_of_wrong_shape(self, example1_file, tmp_path, capsys):
        gain_path = tmp_path / "gain.json"
        gain_path.write_text(json.dumps({"K": [[0.0, 0.0, 0.0]], "provenance": "plain"}))
        code = main(["verify", example1_file, str(gain_path),
                     "--out", str(tmp_path / "v"), "--samples", "10"])
        assert code == EXIT_FAILURE
        assert "error: gain file" in capsys.readouterr().err

    @pytest.mark.parametrize("constant", ["NaN", "Infinity"])
    def test_verify_rejects_non_finite_gain(self, example1_file, tmp_path, capsys,
                                            constant):
        gain_path = tmp_path / "gain.json"
        gain_path.write_text(f'{{"K": [[{constant}, 0.0]], "provenance": "plain"}}')
        out = tmp_path / "v"
        code = main(["verify", example1_file, str(gain_path), "--out", str(out),
                     "--samples", "10"])
        assert code == EXIT_FAILURE
        assert capsys.readouterr().err == \
            f"error: gain file {gain_path}: K holds a non-finite entry\n"
        assert not out.exists()

    @pytest.mark.parametrize("cells", [[[True, False]], [["-1.0", "0"]]])
    def test_verify_rejects_gain_cells_that_are_not_numbers(self, example1_file, tmp_path,
                                                           capsys, cells):
        gain_path = tmp_path / "gain.json"
        gain_path.write_text(json.dumps({"K": cells, "provenance": "stabilizability_prior"}))
        out = tmp_path / "v"
        code = main(["verify", example1_file, str(gain_path), "--out", str(out),
                     "--samples", "10"])
        assert code == EXIT_FAILURE
        assert capsys.readouterr().err == f"error: gain file {gain_path}: K must hold numbers\n"
        assert not out.exists()

    def test_verify_overflowing_scale_is_an_error(self, example1_file, tmp_path, capsys):
        gain_path = tmp_path / "gain.json"
        gain_path.write_text(json.dumps(
            {"K": [[-1.0, 0.0]], "provenance": "stabilizability_prior"}))
        out = tmp_path / "v"
        code = main(["verify", example1_file, str(gain_path), "--out", str(out),
                     "--scales", "1e308"])
        assert code == EXIT_FAILURE
        assert capsys.readouterr().err == ("error: invalid verification settings: "
                                           "scale 1e+308 draws members that are "
                                           "not finite\n")
        assert not out.exists()

    @pytest.mark.parametrize("scale", ["0", "-1"])
    def test_verify_non_positive_scale_is_an_error(self, example1_file, tmp_path, capsys,
                                                   scale):
        gain_path = tmp_path / "gain.json"
        gain_path.write_text(json.dumps(
            {"K": [[-1.0, 0.0]], "provenance": "stabilizability_prior"}))
        out = tmp_path / "v"
        code = main(["verify", example1_file, str(gain_path), "--out", str(out),
                     "--scales", f"1,{scale}"])
        assert code == EXIT_FAILURE
        assert capsys.readouterr().err == ("error: invalid verification settings: "
                                           f"scale {float(scale)!r} is not positive\n")
        assert not out.exists()

    def test_verify_without_a_tested_draw_fails(self, tmp_path, capsys):
        # identifiable data of an unstabilizable system: the stabilizability
        # filter rejects every draw, so nothing vouches for the gain
        rng = np.random.default_rng(13)
        traj = simulate(LtiSystem(A=np.diag([0.5, 2.0]), B=[[1.0], [0.0]]),
                        rng.normal(size=2), rng.normal(size=(6, 1)))
        data = tmp_path / "unstabilizable.json"
        data.write_text(trajectory_to_json(traj))
        gain_path = tmp_path / "gain.json"
        gain_path.write_text(json.dumps(
            {"K": [[-0.5, 0.0]], "provenance": "stabilizability_prior"}))
        out = str(tmp_path / "v")
        assert main(["verify", str(data), str(gain_path), "--out", out]) == EXIT_NEGATIVE
        assert "pass: False (no draw was tested: all 600 were rejected" \
            in capsys.readouterr().out
        report = read_json(os.path.join(out, "verification.json"))
        assert report["samples_tested"] == 0
        assert report["passed"] is False

    def test_verify_gain_file_without_gain(self, tmp_path, capsys):
        # synthesize writes no K for data that are not informative
        data = tmp_path / "scalarfam.json"
        data.write_text(json.dumps({"n": 1, "m": 1, "inputs": [[0.0]],
                                    "states": [[1.0], [1.0]]}))
        syn = str(tmp_path / "syn")
        assert main(["synthesize", str(data), "--out", syn]) == EXIT_NEGATIVE
        gain_path = os.path.join(syn, "gain.json")
        capsys.readouterr()
        assert main(["verify", str(data), gain_path,
                     "--out", str(tmp_path / "v")]) == EXIT_FAILURE
        assert capsys.readouterr().err == f"error: gain file {gain_path} holds no gain K\n"

    def test_full_rank_pipeline(self, tmp_path):
        # identifiable data from an unstable 3-state system: the plain branch
        rng = np.random.default_rng(12)
        A = rng.normal(size=(3, 3))
        A *= 1.2 / np.abs(np.linalg.eigvals(A)).max()
        traj = simulate(LtiSystem(A=A, B=rng.normal(size=(3, 1))),
                        rng.normal(size=3), rng.normal(size=(8, 1)))
        data = tmp_path / "full.json"
        data.write_text(trajectory_to_json(traj))
        blobs = []
        for run in ("r1", "r2"):
            syn, ver = str(tmp_path / run / "syn"), str(tmp_path / run / "ver")
            gain_path = os.path.join(syn, "gain.json")
            ver_path = os.path.join(ver, "verification.json")
            assert main(["synthesize", str(data), "--out", syn]) == EXIT_OK
            assert read_json(gain_path)["branch"] == "full_rank"
            assert main(["verify", str(data), gain_path, "--out", ver,
                         "--samples", "40"]) == EXIT_OK
            report = read_json(ver_path)
            assert report["passed"] is True
            assert report["decomposition"]["ok"] is True
            blobs.append(tuple(open(p, "rb").read() for p in (gain_path, ver_path)))
        assert blobs[0] == blobs[1]

    def test_synthesize_non_informative(self, tmp_path):
        path = tmp_path / "scalarfam.json"
        path.write_text(json.dumps({"n": 1, "m": 1, "inputs": [[0.0]],
                                    "states": [[1.0], [1.0]]}))
        assert main(["synthesize", str(path), "--out", str(tmp_path / "o")]) \
            == EXIT_NEGATIVE

    def test_synthesize_rank_zero_writes_plain_json(self, tmp_path):
        # zero state data: the compressed LMI is empty and its slack unbounded
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"n": 3, "m": 1, "inputs": [[1.0], [2.0]],
                                    "states": [[0.0, 0.0, 0.0]] * 3}))
        out = str(tmp_path / "o")
        assert main(["synthesize", str(path), "--out", out]) == EXIT_OK
        gain = read_json(os.path.join(out, "gain.json"))
        assert gain["row_compression"]["r"] == 0
        assert gain["slack"] is None

    def test_dump_problem(self, example1_file, tmp_path):
        out = str(tmp_path / "syn")
        assert main(["synthesize", example1_file, "--out", out,
                     "--dump-problem"]) == EXIT_OK
        dumped = read_json(os.path.join(out, "problem.json"))
        assert dumped["var_cols"] == 1
        assert dumped["var_rows"] == 3

    @pytest.mark.parametrize("system", [
        LtiSystem(A=[[1.2, 0.3], [0.1, 0.8]], B=[[1.0], [0.5]]),
        LtiSystem(A=[[1.0, 0.0], [0.0, 2.0]], B=[[1.0], [0.0]])],
        ids=["full_rank", "rank_deficient"])
    def test_dump_problem_is_the_solved_problem(self, tmp_path, monkeypatch, system):
        handed = []

        def recording(problem, *args, **kwargs):
            handed.append(problem)
            return solve(problem, *args, **kwargs)

        solve = synthesis.sdp_solve
        monkeypatch.setattr(synthesis, "sdp_solve", recording)
        path = tmp_path / "data.json"
        path.write_text(trajectory_to_json(simulate(
            system, np.array([1.0, 0.0]), np.array([[1.0], [-2.0], [0.5], [1.5]]))))
        out = str(tmp_path / "syn")
        assert main(["synthesize", str(path), "--out", out, "--dump-problem"]) == EXIT_OK
        (problem,) = handed
        dumped = read_json(os.path.join(out, "problem.json"))
        assert dumped["diag_coeff"] == problem.diag_coeff.tolist()
        assert dumped["offdiag_coeff"] == problem.offdiag_coeff.tolist()


class TestMonteCarloCommand:
    def test_small_run(self, tmp_path):
        out = str(tmp_path / "mc")
        code = main(["montecarlo", "--scenarios", "6", "--T-list", "3", "4",
                     "--seed", "5", "--out", out])
        assert code == EXIT_OK
        summary = read_json(os.path.join(out, "montecarlo.json"))
        assert summary["scenarios"] == 6
        assert summary["per_T"]["3"]["identification_pct"] == 0.0
        csv_lines = open(os.path.join(out, "montecarlo.csv")).read().strip().split("\n")
        assert len(csv_lines) == 1 + 6 * 2

    def test_t_beyond_horizon_is_an_error(self, tmp_path, capsys):
        out = tmp_path / "mc"
        assert main(["montecarlo", "--scenarios", "1", "--T-list", "200",
                     "--out", str(out)]) == EXIT_FAILURE
        assert "error: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("t_value", ["0", "-1", "-50"])
    def test_t_below_one_is_an_error(self, tmp_path, capsys, t_value):
        out = tmp_path / "mc"
        assert main(["montecarlo", "--scenarios", "1", "--T-list", t_value, "3",
                     "--out", str(out)]) == EXIT_FAILURE
        assert capsys.readouterr().err == \
            "error: invalid Monte Carlo settings: every T must be >= 1\n"
        assert not out.exists()

    def test_repeated_t_is_an_error(self, tmp_path, capsys):
        out = tmp_path / "mc"
        assert main(["montecarlo", "--scenarios", "3", "--T-list", "3", "3",
                     "--out", str(out)]) == EXIT_FAILURE
        assert capsys.readouterr().err == \
            "error: invalid Monte Carlo settings: every T must appear once\n"
        assert not out.exists()

    @pytest.mark.parametrize("scenarios", ["0", "-1"])
    def test_no_scenarios_is_an_error(self, tmp_path, capsys, scenarios):
        out = tmp_path / "mc"
        assert main(["montecarlo", "--scenarios", scenarios, "--T-list", "3",
                     "--out", str(out)]) == EXIT_FAILURE
        assert "error: invalid Monte Carlo settings: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-4"])
    def test_no_workers_is_an_error(self, tmp_path, capsys, workers):
        out = tmp_path / "mc"
        assert main(["montecarlo", "--scenarios", "1", "--T-list", "3",
                     "--workers", workers, "--out", str(out)]) == EXIT_FAILURE
        assert "error: invalid Monte Carlo settings: workers must be >= 1" \
            in capsys.readouterr().err
        assert not out.exists()

    def test_byte_stable(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            main(["montecarlo", "--scenarios", "4", "--T-list", "3",
                  "--seed", "9", "--out", out])
            outs.append(open(os.path.join(out, "montecarlo.json"), "rb").read())
        assert outs[0] == outs[1]


class TestDemoCommand:
    def test_example1(self, tmp_path):
        out = str(tmp_path / "d1")
        assert main(["demo", "example1", "--out", out, "--samples", "50"]) == EXIT_OK
        for name in ("data.json", "informativity.json", "gain.json",
                     "verification.json"):
            assert os.path.exists(os.path.join(out, name))

    def test_example2(self, tmp_path):
        out = str(tmp_path / "d2")
        assert main(["demo", "example2", "--out", out]) == EXIT_OK
        grid = open(os.path.join(out, "plane_grid.csv")).read().strip().split("\n")
        header, rows = grid[0], grid[1:]
        assert header == "a,b1,b2,controllable"
        flagged = [r for r in rows if r.endswith(",0")]
        assert len(flagged) == 1
        a, b1, b2, _ = flagged[0].split(",")
        assert (float(a), float(b1), float(b2)) == (1.0, 0.0, 0.0)

    def test_three_tank(self, tmp_path):
        out = str(tmp_path / "d3")
        assert main(["demo", "three-tank", "--out", out, "--samples", "50"]) == EXIT_OK
        spectrum = read_json(os.path.join(out, "spectrum.json"))
        assert spectrum["closed_loop_spectral_radius"] < 1.0
        model = read_json(os.path.join(out, "model.json"))
        assert np.array(model["A"]).shape == (3, 3)

    def test_solver_breakdown_is_an_operational_failure(self, tmp_path, monkeypatch,
                                                        capsys):
        monkeypatch.setattr(sdp.BarrierBackend, "solve", raising_solve)
        assert main(["demo", "example1", "--out", str(tmp_path / "d"),
                     "--samples", "10"]) == EXIT_FAILURE
        assert capsys.readouterr().err == "error: fake breakdown\n"

    @pytest.mark.parametrize("flag,value", [("--seed", "1"), ("--samples", "10"),
                                            ("--backend", "builtin"), ("--format", "csv")])
    def test_example2_option_is_a_usage_error(self, tmp_path, capsys, flag, value):
        # example2 draws, solves and verifies nothing
        with pytest.raises(SystemExit) as exc:
            main(["demo", "example2", flag, value, "--out", str(tmp_path / "o")])
        assert exc.value.code == EXIT_USAGE
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_example2_reads_no_synthesis_setting(self, tmp_path, monkeypatch):
        for key, value in (("DDSTAB_SEED", "x"), ("DDSTAB_SAMPLES", "0"),
                           ("DDSTAB_BACKEND", "foo"), ("DDSTAB_FORMAT", "xml")):
            monkeypatch.setenv(key, value)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": -1, "samples": "many", "format": "xml"}))
        out = tmp_path / "d2"
        assert main(["demo", "example2", "--config", str(cfg_path),
                     "--out", str(out)]) == EXIT_OK
        assert sorted(os.listdir(out)) == ["plane_grid.csv", "summary.json"]

    def test_unknown_name_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["demo", "example99", "--out", str(tmp_path / "x")])
        assert exc.value.code == EXIT_USAGE

    def test_byte_stable_bundle(self, tmp_path):
        blobs = []
        for name in ("r1", "r2"):
            out = str(tmp_path / name)
            main(["demo", "example1", "--out", out, "--samples", "30", "--seed", "3"])
            blobs.append(tuple(open(os.path.join(out, f), "rb").read()
                               for f in ("verification.json", "gain.json",
                                         "informativity.json")))
        assert blobs[0] == blobs[1]


class TestOptionResolution:
    def test_env_override(self, example1_file, tmp_path, monkeypatch):
        out = str(tmp_path / "envout")
        monkeypatch.setenv("DDSTAB_OUT", out)
        assert main(["informativity", example1_file]) == EXIT_OK
        assert os.path.exists(os.path.join(out, "informativity.json"))

    def test_flag_beats_env(self, example1_file, tmp_path, monkeypatch):
        monkeypatch.setenv("DDSTAB_OUT", str(tmp_path / "ignored"))
        out = str(tmp_path / "flagout")
        assert main(["informativity", example1_file, "--out", out]) == EXIT_OK
        assert os.path.exists(os.path.join(out, "informativity.json"))
        assert not os.path.exists(str(tmp_path / "ignored"))

    def test_config_file_tolerances(self, example1_file, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"psd_margin": 1e-9, "out": str(tmp_path / "co")}))
        assert main(["informativity", example1_file, "--config", str(cfg_path)]) == EXIT_OK
        assert os.path.exists(str(tmp_path / "co" / "informativity.json"))

    def test_config_file_that_is_not_utf8(self, example1_file, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_bytes(b"\xff\xfe")
        assert main(["informativity", example1_file, "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == EXIT_FAILURE
        assert capsys.readouterr().err.startswith(f"error: config file {cfg_path}")

    def test_invalid_tolerances_rejected(self, example1_file, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"schur_margin": 2.0}))
        assert main(["informativity", example1_file, "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == EXIT_FAILURE
        assert "schur_margin" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["--subspace-tol", "DDSTAB_SUBSPACE_TOL", "config file"])
    def test_infinite_tolerance_rejected(self, tmp_path, monkeypatch, capsys, source):
        # example1 with a second state that moves once is not informative; an
        # infinite subspace_tol would take col(X_plus) as inside col(X_minus)
        path = tmp_path / "data.json"
        path.write_text(json.dumps({"n": 2, "m": 1, "inputs": [[1.0], [2.0], [-1.0]],
                                    "states": [[1.0, 0.0], [2.0, 0.0], [4.0, 0.0],
                                               [3.0, 0.5]]}))
        argv = ["informativity", str(path), "--out", str(tmp_path / "o")]
        assert main(argv) == EXIT_NEGATIVE
        capsys.readouterr()
        if source == "--subspace-tol":
            argv += [source, "inf"]
        elif source == "DDSTAB_SUBSPACE_TOL":
            monkeypatch.setenv(source, "inf")
        else:
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text('{"subspace_tol": Infinity}')
            argv += ["--config", str(cfg_path)]
        assert main(argv) == EXIT_FAILURE
        assert capsys.readouterr().err.startswith(
            "error: invalid tolerance configuration: subspace_tol")

    @pytest.mark.parametrize("field", ["subspace_tol", "rank_rel_tol"])
    @pytest.mark.parametrize("source", ["flag", "environment", "config file"])
    def test_tolerance_of_one_or_more_rejected(self, tmp_path, monkeypatch, capsys,
                                               field, source):
        # at subspace_tol 1e10 every containment holds, so the dataset of the
        # test above would pass; at rank_rel_tol 1e10 every rank is 0
        path = tmp_path / "data.json"
        path.write_text(json.dumps({"n": 2, "m": 1, "inputs": [[1.0], [2.0], [-1.0]],
                                    "states": [[1.0, 0.0], [2.0, 0.0], [4.0, 0.0],
                                               [3.0, 0.5]]}))
        argv = ["informativity", str(path), "--out", str(tmp_path / "o")]
        if source == "flag":
            argv += ["--" + field.replace("_", "-"), "1e10"]
        elif source == "environment":
            monkeypatch.setenv("DDSTAB_" + field.upper(), "1e10")
        else:
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps({field: 1e10}))
            argv += ["--config", str(cfg_path)]
        assert main(argv) == EXIT_FAILURE
        assert capsys.readouterr().err == \
            f"error: invalid tolerance configuration: {field} must be < 1\n"
        assert not (tmp_path / "o").exists()

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize("command,flag,value", [
        *[(command, flag, value) for command in ("informativity", "synthesize")
          for flag, value in (("--seed", "1"), ("--format", "csv"), ("--samples", "10"),
                              ("--scales", "1"))],
        ("verify", "--format", "csv"), ("verify", "--backend", "builtin"),
        *[("montecarlo", flag, value) for flag, value in (
            ("--format", "csv"), ("--backend", "builtin"), ("--samples", "10"),
            ("--scales", "1"))],
        ("demo", "--scales", "1"),
        *[(command, "--backend", "builtin")
          for command in ("informativity", "synthesize", "demo", "demo three-tank")]])
    def test_option_the_command_does_not_read_is_a_usage_error(self, tmp_path, capsys,
                                                               command, flag, value):
        positional = {"informativity": ["data.json"], "synthesize": ["data.json"],
                      "verify": ["data.json", "gain.json"], "montecarlo": [],
                      "demo": ["example1"], "demo three-tank": []}[command]
        with pytest.raises(SystemExit) as exc:
            main([*command.split(), *positional, flag, value, "--out", str(tmp_path / "o")])
        assert exc.value.code == EXIT_USAGE
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_environment_setting_informativity_does_not_read(self, example1_file, tmp_path,
                                                             monkeypatch):
        monkeypatch.setenv("DDSTAB_SAMPLES", "0")  # informativity draws no samples
        assert main(["informativity", example1_file,
                     "--out", str(tmp_path / "i")]) == EXIT_OK

    @pytest.mark.parametrize("argv", [["informativity"], ["synthesize"],
                                      ["demo", "example1"], ["demo", "three-tank"]], ids=" ".join)
    def test_backend_setting_is_not_read(self, example1_file, tmp_path, monkeypatch,
                                         capsys, argv):
        """No command has a solver to choose: DDSTAB_BACKEND and a config
        file's ``backend`` key leave the exit code and every byte unchanged."""
        argv = argv + (["--samples", "10"] if argv[0] == "demo" else [example1_file])
        out = tmp_path / "o"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"backend": 3}))

        def run(*extra):
            code = main(argv + ["--out", str(out), *extra])
            files = {name: (out / name).read_bytes() for name in sorted(os.listdir(out))}
            return code, capsys.readouterr(), files

        plain = run()
        assert plain[0] in (EXIT_OK, EXIT_NEGATIVE)
        assert run("--config", str(cfg_path)) == plain
        monkeypatch.setenv("DDSTAB_BACKEND", "cvxpy")
        assert run() == plain

    def test_config_file_setting_verify_does_not_read(self, example1_file, tmp_path):
        gain_path = tmp_path / "gain.json"
        gain_path.write_text(json.dumps(
            {"K": [[-1.0, 0.0]], "provenance": "stabilizability_prior"}))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"format": "xml"}))  # verify writes JSON only
        out = tmp_path / "v"
        assert main(["verify", example1_file, str(gain_path), "--config", str(cfg_path),
                     "--samples", "10", "--out", str(out)]) == EXIT_OK
        assert os.listdir(out) == ["verification.json"]


class TestBadOptionValues:
    """A malformed option value exits 1 with an error line, whatever its source."""

    @pytest.fixture
    def gain_file(self, example1_file, tmp_path):
        out = str(tmp_path / "syn")
        assert main(["synthesize", example1_file, "--out", out]) == EXIT_OK
        return os.path.join(out, "gain.json")

    @pytest.mark.parametrize("flags", [["--samples", "0"], ["--samples", "-3"],
                                       ["--scales", ","], ["--scales", "abc"],
                                       ["--scales", "1,nan"]])
    def test_verify_flags(self, example1_file, gain_file, tmp_path, capsys, flags):
        out = tmp_path / "ver"
        assert main(["verify", example1_file, gain_file, "--out", str(out)] + flags) \
            == EXIT_FAILURE
        assert capsys.readouterr().err.startswith(f"error: invalid {flags[0][2:]} ")
        assert not out.exists()

    @pytest.mark.parametrize("key,value", [
        ("DDSTAB_SEED", "x"), ("DDSTAB_SEED", "-1"), ("DDSTAB_SAMPLES", "0"),
        ("DDSTAB_RANK_REL_TOL", "abc"), ("DDSTAB_FORMAT", "xml"), ("DDSTAB_SCALES", "")])
    def test_environment(self, example1_file, gain_file, tmp_path, monkeypatch, capsys,
                         key, value):
        monkeypatch.setenv(key, value)
        out = tmp_path / "demo"
        # demo example1 reads every option here but scales, which verify reads
        argv = ["verify", example1_file, gain_file] if key == "DDSTAB_SCALES" \
            else ["demo", "example1"]
        assert main(argv + ["--out", str(out)]) == EXIT_FAILURE
        err = capsys.readouterr().err
        assert err.startswith("error: invalid ") and key in err
        assert not out.exists()

    @pytest.mark.parametrize("payload", [
        {"samples": "many"}, {"samples": 2.5}, {"seed": "x"}, {"seed": 1e400}, {"scales": []},
        {"scales": ["abc"]}, {"format": "xml"}, {"psd_margin": "small"},
        {"seed": True}, {"samples": [10]}, {"psd_margin": True}, {"scales": [True]}])
    def test_config_file(self, example1_file, gain_file, tmp_path, capsys, payload):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(payload))
        (name,) = payload  # run on a command that reads the option
        argv = {"seed": ["demo", "example1"], "samples": ["demo", "example1"],
                "format": ["demo", "example1"],
                "scales": ["verify", example1_file, gain_file]}.get(
                    name, ["informativity", example1_file])
        assert main(argv + ["--config", str(cfg_path),
                            "--out", str(tmp_path / "o")]) == EXIT_FAILURE
        err = capsys.readouterr().err
        assert err.startswith("error: invalid ") and "config file" in err

    @pytest.mark.parametrize("source", ["config file", "DDSTAB_OUT"])
    def test_out_is_a_non_empty_path(self, example1_file, tmp_path, monkeypatch, capsys,
                                     source):
        # no --out flag, so the value from the source named is the one resolved
        monkeypatch.chdir(tmp_path)
        argv = ["informativity", example1_file]
        if source == "DDSTAB_OUT":
            monkeypatch.setenv("DDSTAB_OUT", "")
        else:
            (tmp_path / "cfg.json").write_text(json.dumps({"out": ["x", "y"]}))
            argv += ["--config", "cfg.json"]
        assert main(argv) == EXIT_FAILURE
        err = capsys.readouterr().err
        assert err.startswith("error: invalid out ") and err.endswith(
            f"from {source}: expected a non-empty path\n")
        assert set(os.listdir(tmp_path)) <= {"example1.json", "cfg.json"}  # nothing written

    @pytest.mark.parametrize("payload", [
        {"seed": 2**53 + 1}, {"seed": str(2**70 + 1)}, {"samples": 10.0}])
    def test_integral_values(self, example1_file, gain_file, tmp_path, payload):
        # a float cannot hold these seeds exactly; they are integers all the same
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(payload))
        out = tmp_path / "ver"
        assert main(["verify", example1_file, gain_file, "--config", str(cfg_path),
                     "--out", str(out)]) == EXIT_OK
        report = read_json(out / "verification.json")
        assert report["seed"] == int(payload.get("seed", 3))
        assert report["samples_tested"] + report["rejected_unstabilizable"] \
            == 3 * payload.get("samples", 200)

    def test_valid_choice_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DDSTAB_FORMAT", "csv")
        monkeypatch.setenv("DDSTAB_SAMPLES", "10")
        out = tmp_path / "demo"
        assert main(["demo", "example1", "--out", str(out)]) == EXIT_OK
        assert (out / "data.csv").exists()

    def test_json_output_refuses_non_finite_numbers(self):
        with pytest.raises(ValueError):
            _dump_json({"slack": float("inf")})


def test_console_script_installed(example1_file, tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "ddstab.cli", "informativity", example1_file,
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True)
    assert result.returncode == EXIT_OK
    assert "stabilizability-prior informative: True" in result.stdout


_LAZY_MODULES = ("scipy", "scipy.linalg", "multiprocessing", "concurrent.futures")

# runs each argv through main in one fresh interpreter, then reports the exit
# codes and which of _LAZY_MODULES were loaded, as the last line of stdout
_IMPORT_PROBE = f"""
import json, sys
from ddstab.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({{"codes": codes,
                  "loaded": [m for m in {_LAZY_MODULES!r} if m in sys.modules]}}))
"""


class TestImportPath:
    """scipy and the process pool are loaded by the code that uses them,
    so a call that never solves nor discretizes never loads them."""

    @staticmethod
    def probe(calls, tmp_path):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        result = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, json.dumps(calls)],
                                cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src),
                                capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        return json.loads(result.stdout.strip().splitlines()[-1])

    def test_import_loads_none(self, tmp_path):
        assert self.probe([], tmp_path) == {"codes": [], "loaded": []}

    def test_rank_deficient_informativity_and_verify_load_none(self, example1_file,
                                                               tmp_path):
        gain_path = tmp_path / "gain.json"
        gain_path.write_text(json.dumps(
            {"K": [[-1.0, 0.0]], "provenance": "stabilizability_prior"}))
        calls = [["informativity", example1_file, "--out", str(tmp_path / "i")],
                 ["verify", example1_file, str(gain_path), "--out", str(tmp_path / "v")]]
        assert self.probe(calls, tmp_path) == {"codes": [EXIT_OK, EXIT_OK], "loaded": []}

    def test_full_rank_synthesize_loads_scipy(self, tmp_path):
        rng = np.random.default_rng(4)
        traj = simulate(LtiSystem(A=[[1.1, 0.3], [0.0, 0.9]], B=[[0.0], [1.0]]),
                        rng.normal(size=2), rng.normal(size=(6, 1)))
        data = tmp_path / "full_rank.json"
        data.write_text(trajectory_to_json(traj))
        report = self.probe([["synthesize", str(data), "--out", str(tmp_path / "s")]],
                            tmp_path)
        assert report["codes"] == [EXIT_OK]
        assert "scipy.linalg" in report["loaded"]

    def test_three_tank_demo_loads_scipy(self, tmp_path):
        report = self.probe([["demo", "three-tank", "--samples", "10",
                              "--out", str(tmp_path / "d")]], tmp_path)
        assert report["codes"] == [EXIT_OK]
        assert "scipy.linalg" in report["loaded"]
