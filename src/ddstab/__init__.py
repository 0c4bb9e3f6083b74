"""Data-driven stabilization of discrete-time LTI systems from input-state data."""

__version__ = "0.1.0"

from .data import (ConsistentSet, DataMatrices, LtiSystem, TrajectoryData,
                   build_data_matrices, consistent_set, load_trajectory,
                   reachable_part, recover_input_matrix, sample_consistent)
from .errors import DataFormatError, PreconditionError, SolverFailure
from .experiments import (ContinuousSystem, MonteCarloConfig, MonteCarloResult,
                          ThreeTankParams, run_monte_carlo, simulate,
                          three_tank_model, zoh_discretize)
from .informativity import (Branch, InformativityReport, check_controllability_prior,
                            check_identification, check_stabilizability_prior,
                            input_rank_condition)
from .linalg import (DEFAULT_CONFIG, NumericalConfig, RowCompression,
                     is_controllable, is_schur, is_stabilizable,
                     matrix_exponential, numerical_rank, pencil_full_rank,
                     row_compress, spectral_radius, subspace_contained)
from .synthesis import (FeedbackGain, GainProvenance, LmiFeasibilityProblem,
                        LmiSolution, gain_from_plain, lmi_problem, sdp_solve,
                        solve_plain_lmi, solve_stab_lmi, synthesize,
                        synthesize_stab)
from .verification import (LyapunovCertificate, VerificationReport,
                           common_lyapunov, decomposition_check,
                           genericity_probe, structural_nullity, verify_gain)
