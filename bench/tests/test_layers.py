"""Traced runs: every layer records work on the workload meant to exercise it.

    python3 -m pytest bench/tests

Each workload runs once, briefly, through ``bench/run.py --trace 1``; the
assertions read the report it writes to ``.bench_out/``.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SEED = 1
SECONDS = {"montecarlo": 3, "pipeline": 6, "cli": 2}

# spans that must have more than zero calls, per workload
EXPECTED_CALLS = {
    "montecarlo": (
        "experiments.run_monte_carlo", "experiments.simulate",
        "informativity.check_stabilizability_prior", "informativity.check_identification",
        "synthesis.solve_plain_lmi", "synthesis.sdp_solve", "sdp.solve",
        "data.build_data_matrices", "linalg.row_compress", "linalg.subspace_contained",
        "linalg.numerical_rank",
    ),
    "pipeline": (
        "informativity.check_stabilizability_prior", "informativity.check_identification",
        "synthesis.solve_plain_lmi", "synthesis.solve_stab_lmi", "synthesis.sdp_solve",
        "synthesis.gain_from_plain", "synthesis.synthesize_stab", "sdp.solve",
        "verification.verify_gain", "verification.structural_nullity",
        "data.consistent_set", "data.sample_consistent",
        "linalg.row_compress", "linalg.subspace_contained", "linalg.is_stabilizable",
        "linalg.numerical_rank", "linalg.spectral_radius",
    ),
    "cli": (
        "cli.import", "cli.main", "cli.cmd_informativity", "cli.cmd_synthesize",
        "cli.cmd_verify", "cli.cmd_demo", "data.load_trajectory",
        "informativity.check_stabilizability_prior", "synthesis.synthesize_stab",
        "synthesis.solve_plain_lmi", "sdp.solve", "verification.verify_gain",
        "experiments.demo_three_tank", "linalg.row_compress",
    ),
}


@pytest.fixture(scope="module", params=sorted(EXPECTED_CALLS))
def report(request):
    workload = request.param
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS[workload]), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    path = ROOT / ".bench_out" / f"report-{workload}-seed{SEED}-trace1.json"
    return json.loads(path.read_text(encoding="utf-8"))


def layer(report, name):
    return report["per_layer"][name]["value"]


def test_each_layer_records_calls(report):
    calls = {name: row["calls"] for name, row in report["functions"].items()}
    missing = [name for name in EXPECTED_CALLS[report["workload"]] if not calls.get(name)]
    assert not missing, f"no calls recorded on {report['workload']}: {missing}"
    assert report["failed"] == 0
    assert layer(report, "sdp.cholesky_per_solve") > 0
    assert layer(report, "sdp.cho_factor_per_solve") > 0
    assert layer(report, "linalg.svd_per_item") > 0


def test_predicted_layer_shares(report):
    workload = report["workload"]
    if workload == "montecarlo":
        assert layer(report, "verification.verify_gain.calls") == 0
        assert layer(report, "verification.draws") == 0
        assert layer(report, "verification.structural_nullity.calls") == 0
        assert layer(report, "sdp.theta_used_ratio") == 0
        assert layer(report, "sdp.solve.self_share") > 0.8
    elif workload == "pipeline":
        assert layer(report, "verification.verify_gain.total_share") >= 0.3
        assert layer(report, "verification.draws") > 0
        assert 0 < layer(report, "sdp.theta_used_ratio") < 1
    else:
        # both wall-clock: per-layer times are not scaled to a quiet host
        p50 = report["end_to_end"]["wall.item_p50_ms"]["value"]
        assert layer(report, "cli.import_ms") > 0.4 * p50
        assert layer(report, "cli.bytes_written") > 0
