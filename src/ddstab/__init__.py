"""Data-driven stabilization of discrete-time LTI systems from input-state data.

Importing the package loads none of its modules: each public name is read
off its defining module at every access, importing that module on first
use, so ``ddstab.X`` is always the module's current attribute.
"""
from importlib import import_module as _import_module

__version__ = "0.1.0"

# defining module -> the public names it exports through the package
_EXPORTS = {
    "data": ("ConsistentSet", "DataMatrices", "LtiSystem", "TrajectoryData",
             "build_data_matrices", "consistent_set", "load_trajectory",
             "reachable_part", "recover_input_matrix", "sample_consistent"),
    "errors": ("DataFormatError", "PreconditionError", "SolverFailure"),
    "experiments": ("ContinuousSystem", "MonteCarloConfig", "MonteCarloResult",
                    "ThreeTankParams", "run_monte_carlo", "simulate",
                    "three_tank_model", "zoh_discretize"),
    "informativity": ("Branch", "InformativityReport", "check_controllability_prior",
                      "check_identification", "check_stabilizability_prior",
                      "input_rank_condition"),
    "linalg": ("DEFAULT_CONFIG", "NumericalConfig", "RowCompression",
               "is_controllable", "is_schur", "is_stabilizable",
               "matrix_exponential", "numerical_rank", "pencil_full_rank",
               "row_compress", "spectral_radius", "subspace_contained"),
    "synthesis": ("FeedbackGain", "GainProvenance", "LmiFeasibilityProblem",
                  "LmiSolution", "gain_from_plain", "lmi_problem", "sdp_solve",
                  "solve_plain_lmi", "solve_stab_lmi", "synthesize",
                  "synthesize_stab"),
    "verification": ("LyapunovCertificate", "VerificationReport",
                     "common_lyapunov", "decomposition_check",
                     "genericity_probe", "structural_nullity", "verify_gain"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(_import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
