"""proxbound: proximal-methods solvers with a verification harness.

Solvers for additive (f + g) and composite (g + h(c(x))) problems, a
catalog of separable penalties with exact prox operators, and diagnostics
that measure error-bound / quadratic-growth constants and check the
convergence-rate formulas that connect them.
"""

from .diagnostics import (ConstantsReport, ReferenceSolution,
                          analytic_reference, compute_reference,
                          dist_to_stationarity, estimate_alpha,
                          estimate_constants, estimate_gamma,
                          estimate_prox_bound, estimate_subdiff_bound,
                          fit_tail_rate, iteration_bound, sample_box,
                          verify_constant_relations, verify_sandwich)
from .errors import (ConfigError, DimensionMismatch, DomainError,
                     InnerSolveError, InsufficientData, ProxboundError,
                     UnsupportedOperation)
from .penalties import (AbsValue, BoxIndicator, CheckFunction, ElasticNet,
                        EpsilonInsensitive, HuberEnvelope, SeparablePenalty,
                        Zero, penalty_from_spec)
from .proxgrad import (AdditiveProblem, IterationTrace, ProxGradConfig,
                       prox_grad_map, proximal_point_step, run_prox_gradient,
                       run_proximal_point)
from .proxlinear import (CompositeProblem, ProxLinearConfig, linearized_value,
                         near_stationarity_certificate, prox_linear_map,
                         run_prox_linear, solve_subproblem)
from .smooth import (AffineMap, Corridor, HuberLoss, Logistic, Quadratic,
                     QuadraticMap, SmoothFunction, SmoothMap, fd_check,
                     lambda_max_sym, load_dense_matrix, load_dense_vector,
                     map_from_spec, random_least_squares, random_quadratic_map,
                     save_dense_matrix, smooth_from_spec)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
