"""Damped Picard iteration on the integral operator.

f may jump, so derivative-based methods are unjustified; the sweep
u <- (1-relax)*u + relax*Tu with oscillation-triggered damping is the
constructive search used here.  One test both stops the iteration and
certifies its result: the fixed-point defect ||u - Tu|| of an iterate whose
image the sweep has computed.  A sweep forms one difference, r = Tu - u, on
(2, N) arrays of node values and derivatives: the update is relax*r, its norm
relax*||r||.  A non-converged run returns its least-defect iterate as a
diagnostic rather than raising; Solution.u is the one GridFunction built.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BallViolation
from .hammerstein import _apply_T, _node_data, in_ball
from .kernel import BoundaryParams
from .model import GridFunction, ProblemSpec, c1_norm_of, norm_c1

MIN_RELAX = 1.0 / 16.0


@dataclass(frozen=True)
class Solution:
    u: GridFunction
    residual: float
    iterations: int
    bc_residual_left: float
    bc_residual_right: float
    inside_ball: bool
    converged: bool
    curve_crossings: list
    update_norms: list
    relax_final: float


def bc_residual(params: BoundaryParams, u: GridFunction):
    """Absolute defects of the two boundary conditions at the grid endpoints."""
    left = abs(params.alpha * u.values[0] - params.beta * u.derivatives[0])
    right = abs(params.gamma * u.values[-1] + params.delta * u.derivatives[-1])
    return float(left), float(right)


def solve_picard(spec: ProblemSpec, u0: GridFunction | None = None,
                 relax: float = 1.0, tol: float = 1e-8,
                 max_iter: int = 50) -> Solution:
    """Iterate u <- (1-relax)*u + relax*Tu from u0 (default 0).

    Each sweep computes Tu and the residual ||u - Tu||; the first iterate with
    residual <= tol*(1 + ||u||) is returned, certified, so the returned iterate
    is the last one whose image is known and T is applied exactly iterations
    times.  If max_iter sweeps pass without that, the iterate of least
    residual is returned with converged false.  Three consecutive
    sign-alternating residuals Tu - u, the directions of the updates, halve
    the relaxation (chattering across an inviable curve is the usual cause);
    update_norms holds relax*||Tu - u||.  curve_crossings counts, per curve,
    the crossings that the sweep of the returned iterate split its panels at.
    Raises BallViolation if u0 or an iterate fails in_ball, so every
    candidate final iterate has passed that test and inside_ball is true
    whenever a Solution returns.
    """
    if not 0.0 < relax <= 1.0:
        raise ValueError("relax must lie in (0, 1]")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    y = _node_data(spec, u0) if u0 is not None else np.zeros((2, spec.grid_size))

    update_norms = []
    norm = c1_norm_of(*y)
    best_y, best_res, best_crossings = y, np.inf, None
    r_prev = np.zeros_like(y)  # none yet: 0 product
    alternations = 0
    for iterations in range(1, max_iter + 1):
        ty, crossings = _apply_T(spec, y)
        r = ty - y
        res = c1_norm_of(*r)
        converged = res <= tol * (1.0 + norm)
        if converged or res < best_res:
            best_y, best_res, best_crossings = y, res, crossings
        if converged:
            break
        y = (1.0 - relax) * y + relax * ty
        if not in_ball(spec, norm := c1_norm_of(*y)):
            raise BallViolation(f"iterate {iterations} left the ball: ||u|| = {norm:.6g} "
                                f"> R = {spec.radius:.6g}")
        update_norms.append(relax * res)
        if r[0] @ r_prev[0] + r[1] @ r_prev[1] < 0.0:
            alternations += 1
            if alternations >= 3 and relax > MIN_RELAX:
                relax = max(relax / 2.0, MIN_RELAX)
                alternations = 0
        else:
            alternations = 0
        r_prev = r

    best_u = GridFunction(spec.nodes, *best_y)
    left, right = bc_residual(spec.params, best_u)
    curve_crossings = [(c.label, len(xs))
                       for c, xs in zip(spec.nonlinearity.curves, best_crossings)]
    return Solution(u=best_u, residual=best_res, iterations=iterations,
                    bc_residual_left=left, bc_residual_right=right,
                    inside_ball=in_ball(spec, norm_c1(best_u)),
                    converged=converged, curve_crossings=curve_crossings,
                    update_norms=update_norms, relax_final=relax)
