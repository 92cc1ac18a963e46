import numpy as np
import pytest

from bvpkit import DIRICHLET, PhiExample, build_problem, find_crossings, norm_c1, validate_params
from bvpkit.model import GridFunction, Nonlinearity, ProblemSpec, Weight


def const_weight(c=1.0):
    return Weight(eval=lambda t, _c=c: np.full_like(np.asarray(t, dtype=float), _c),
                  singular_left=False, l1_bound_hint=abs(c))


def const_nonlinearity(c=1.0):
    return Nonlinearity(eval=lambda t, u, _c=c: np.full_like(np.asarray(t, dtype=float), _c),
                        local_bound=lambda t, r, _c=c: abs(_c))


def smoke_spec(grid_size=129, quad_tol=1e-10, radius=1.0):
    """Dirichlet, g = 1, f = 1: everything has a closed form."""
    return ProblemSpec(params=DIRICHLET, weight=const_weight(),
                       nonlinearity=const_nonlinearity(), radius=radius,
                       quad_tol=quad_tol, grid_size=grid_size)


def random_ball_function(spec, rng, fill=0.9):
    """A random grid function scaled to fill * radius in the C1 norm."""
    n = spec.grid_size
    raw = GridFunction(spec.nodes, rng.standard_normal(n), rng.standard_normal(n))
    c = fill * spec.radius / norm_c1(raw)
    return GridFunction(spec.nodes, c * raw.values, c * raw.derivatives)


def crossings_of(u, curves):
    """find_crossings of a GridFunction's node data."""
    return find_crossings(u.nodes, (u.values, u.derivatives), curves)


@pytest.fixture(scope="session")
def divisor_spec():
    return build_problem(PhiExample(lam=1.0 / 3.0, curve_count=8, epsilon=0.05),
                         validate_params(1.0, 1.0, 1.0, 1.0), radius=4.0,
                         quad_tol=1e-9, grid_size=129)


@pytest.fixture(scope="session")
def divisor_bounds(divisor_spec):
    from bvpkit import bounds_report
    return bounds_report(divisor_spec)


@pytest.fixture(scope="session")
def divisor_solution(divisor_spec):
    from bvpkit import solve_picard
    return solve_picard(divisor_spec, tol=1e-8)


class Counted:
    """A callable that counts its calls and the sample points it is given;
    past max_points it raises, so a runaway quadrature fails fast."""

    def __init__(self, fn, max_points=None):
        self.fn, self.calls, self.points, self.max_points = fn, 0, 0, max_points

    def __call__(self, s, *args):
        self.calls += 1
        self.points += np.size(s)
        if self.max_points is not None and self.points > self.max_points:
            raise AssertionError(f"{self.points} sample points in {self.calls} calls")
        return self.fn(s, *args)
