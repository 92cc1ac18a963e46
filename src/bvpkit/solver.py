"""Damped Picard iteration on the integral operator, with safeguarded mixing.

f may jump, so derivative-based methods are unjustified: the search is the
sweep u <- (1-relax)*u + relax*Tu with oscillation-triggered damping, sped up
by type-II Anderson mixing (Walker & Ni 2011; Zhang, O'Donoghue & Boyd 2020)
that falls back to those sweeps.  One test stops the iteration and certifies
its result: the defect ||u - Tu|| of a swept iterate, on (2, N) arrays of node
values and derivatives.  A non-converged run returns its least-defect iterate
rather than raising; Solution.u is the one GridFunction built.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BallViolation
from .hammerstein import _apply_T, _node_data, in_ball
from .kernel import BoundaryParams
from .model import GridFunction, ProblemSpec, _int_at_least, c1_norm_of, norm_c1

MIN_RELAX = 1.0 / 16.0
DEPTH = 2  # differences in the mixing history, which holds the last 3 iterates


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
    """Iterate u <- (1-relax)*u + relax*Tu from u0 (default 0), mixed.

    Each sweep computes Tu and the residual ||u - Tu||; the first iterate with
    residual <= tol*(1 + ||u||) is returned, certified, so T is applied exactly
    iterations times.  If max_iter sweeps pass without that, the iterate of
    least residual is returned with converged false.  On the plain path
    (damped steps from u0) the step is the Anderson mix of the last 3 iterates
    since the per-curve crossing counts last changed, if inside the ball.  Off
    that path every step is a mix; a mix outside the ball, or a mixed iterate
    whose residual exceeds, or whose crossing counts differ from, those of the
    iterate it left, sends the solve back to the path's last iterate for good.
    Three sign-alternating residuals in a row of plain steps halve relax
    (chattering across an inviable curve is the usual cause).  update_norms
    holds ||u_{k+1} - u_k||.  curve_crossings counts, per curve, the crossings
    that the sweep of the returned iterate split its panels at.  Raises
    BallViolation if u0 or a plain step fails in_ball, and ValueError unless
    0 < relax <= 1, tol > 0 and max_iter is an integer >= 1.
    """
    if not 0.0 < relax <= 1.0:
        raise ValueError("relax must lie in (0, 1]")
    if not tol > 0:  # NaN fails too
        raise ValueError(f"tol must be > 0, got {tol}")
    if not _int_at_least(max_iter, 1):
        raise ValueError(f"max_iter must be an integer >= 1, got {max_iter!r}")
    y = _node_data(spec, u0) if u0 is not None else np.zeros((2, spec.grid_size))

    update_norms = []
    norm = c1_norm_of(*y)
    best_y, best_res, best_crossings = y, np.inf, None
    r_prev, alternations = None, 0  # the last plain step's residual, its sign run
    history, mixed, res_prev, counts_prev = [], False, np.inf, None  # mixed: off the path
    for iterations in range(1, max_iter + 1):
        ty, crossings = _apply_T(spec, y)
        r = ty - y
        res = c1_norm_of(*r)
        converged = res <= tol * (1.0 + norm)
        if converged or res < best_res:
            best_y, best_res, best_crossings = y, res, crossings
        if converged:
            break
        swept, counts = y, [len(xs) for xs in crossings]
        if mixed and (res > res_prev or counts != counts_prev):
            history = None  # a mix that fails sends the solve back to the plain path
        elif history is not None:
            if counts != counts_prev:
                history = []  # T's local linear model changes where a crossing does
            history = (history + [(y, r)])[-DEPTH - 1:]
        res_prev, counts_prev = res, counts
        if not mixed:
            path = (y, ty, r, relax, alternations, r_prev)  # the plain path's last sweep
        step = _mixed(history, relax) if history and len(history) > 1 else None
        was_mixed, mixed = mixed, step is not None and in_ball(spec, norm := c1_norm_of(*step))
        if not mixed:
            if was_mixed:  # off the plain path every step is a mix: back, for good
                (y, ty, r, relax, alternations, r_prev), history = path, None
            step = (1.0 - relax) * y + relax * ty
            if not in_ball(spec, norm := c1_norm_of(*step)):
                raise BallViolation(f"iterate {iterations} left the ball: ||u|| = {norm:.6g} "
                                    f"> R = {spec.radius:.6g}")
        update_norms.append(c1_norm_of(*(step - swept)))
        y = step
        if not mixed and r_prev is not None and r[0] @ r_prev[0] + r[1] @ r_prev[1] < 0.0:
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


def _mixed(history, relax):
    """Type-II Anderson step from history's (y, r) pairs: the damped step from
    the affine mix of its iterates of least linearized residual (Euclidean)."""
    y, r = (np.array(a).reshape(len(history), -1) for a in zip(*history))
    dy, dr = y[1:] - y[:-1], r[1:] - r[:-1]
    try:
        gamma = np.linalg.solve(dr @ dr.T, dr @ r[-1])
    except np.linalg.LinAlgError:  # a singular Gram system
        gamma = np.linalg.lstsq(dr.T, r[-1], rcond=None)[0]
    return (y[-1] + relax * r[-1] - gamma @ (dy + relax * dr)).reshape(history[0][0].shape)
