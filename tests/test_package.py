"""The package root exports each public name from its defining module."""
import importlib

import pytest

import ddstab

# defining module -> the names the package root exports from it
EXPORTS = {
    "data": ["ConsistentSet", "DataMatrices", "LtiSystem", "TrajectoryData",
             "build_data_matrices", "consistent_set", "load_trajectory",
             "reachable_part", "recover_input_matrix", "sample_consistent"],
    "errors": ["DataFormatError", "PreconditionError", "SolverFailure"],
    "experiments": ["ContinuousSystem", "MonteCarloConfig", "MonteCarloResult",
                    "ThreeTankParams", "run_monte_carlo", "simulate",
                    "three_tank_model", "zoh_discretize"],
    "informativity": ["Branch", "InformativityReport", "check_controllability_prior",
                      "check_identification", "check_stabilizability_prior",
                      "input_rank_condition"],
    "linalg": ["DEFAULT_CONFIG", "NumericalConfig", "RowCompression",
               "is_controllable", "is_schur", "is_stabilizable",
               "matrix_exponential", "numerical_rank", "pencil_full_rank",
               "row_compress", "spectral_radius", "subspace_contained"],
    "synthesis": ["FeedbackGain", "GainProvenance", "LmiFeasibilityProblem",
                  "LmiSolution", "gain_from_plain", "lmi_problem", "sdp_solve",
                  "solve_plain_lmi", "solve_stab_lmi", "synthesize",
                  "synthesize_stab"],
    "verification": ["LyapunovCertificate", "VerificationReport",
                     "common_lyapunov", "decomposition_check",
                     "genericity_probe", "structural_nullity", "verify_gain"],
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


def test_all_lists_the_exported_names():
    assert ddstab.__all__ == [name for _, name in NAMES]
    assert set(ddstab.__all__) <= set(dir(ddstab))


@pytest.mark.parametrize("module, name", NAMES)
def test_name_is_read_off_its_module(monkeypatch, module, name):
    defining = importlib.import_module(f"ddstab.{module}")
    assert getattr(ddstab, name) is getattr(defining, name)
    replacement = object()
    monkeypatch.setattr(defining, name, replacement)
    assert getattr(ddstab, name) is replacement
    monkeypatch.undo()
    assert getattr(ddstab, name) is getattr(defining, name)
    assert name not in vars(ddstab)  # no copy kept in the package namespace


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ddstab.no_such_name
    assert not hasattr(ddstab, "check_informativity")


def test_star_import_binds_every_name():
    namespace = {}
    exec("from ddstab import *", namespace)
    for module, name in NAMES:
        assert namespace[name] is getattr(importlib.import_module(f"ddstab.{module}"), name)
