"""Solver and certifier for second-order two-point boundary value problems

    u'' + g(t) f(t, u) = 0,   alpha*u(0) - beta*u'(0) = 0,
                              gamma*u(1) + delta*u'(1) = 0,

where the nonlinearity f may jump along countably many time-dependent
curves.  The problem is treated through its equivalent integral equation
u = Tu; the toolkit certifies the hypotheses under which T maps a C1 ball
into itself compactly, classifies each declared discontinuity curve as
viable or inviable, and computes residual-certified fixed points by damped
Picard iteration.
"""

__version__ = "0.1.0"

from .errors import (BallViolation, BvpError, ConfigError, DegenerateGamma,
                     DomainError, MaxDepthExceeded, NegativeCoefficient,
                     NonFiniteIntegrand, QuadratureError, SolverStall)
from .kernel import DIRICHLET, BoundaryParams, dk_dt, dk_dt_bound, k_eval, validate_params
from .quadrature import IntegrandSpec, integrate
from .model import (DiscontinuityCurve, GridFunction, Nonlinearity, ProblemSpec,
                    Weight, find_crossings, find_curve_crossings, grid_eval, norm_c1)
from .hammerstein import BoundsReport, apply_T, bounds_report, residual
from .hypotheses import (INDETERMINATE, INVIABLE_LOWER, INVIABLE_UPPER, VIABLE,
                         ClassificationResult, EquicontinuityReport, HypothesisReport,
                         ProbeResult, certify_hypotheses, check_h1, check_h3, classify_curve,
                         classify_curves, convexification_probe, equicontinuity_check,
                         estimate_HR, minimal_R_power, perturbation_family,
                         simplex_least_squares)
from .solver import Solution, bc_residual, solve_picard
from .example_phi import (PhiExample, build_problem, measurable_decomposition,
                          phi, region_index)
