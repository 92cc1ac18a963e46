"""The divisor-step example problem u'' = phi_pow(n(t, u)) / sqrt(t).

phi(1) = 2 and phi(n) for n >= 2 is the number of divisors of n, so
phi >= 2 everywhere and the right-hand side never vanishes.  The region
index n(t, u) is piecewise-constant in u, jumping along the square-root
fan u = k*sqrt(t) for u >= 0 and along the lines u = -t/(k+1) for
-t <= u < 0; every one of those curves is an inviable discontinuity curve
for the equation written as u'' + g(t) f(t, u) = 0 with g(t) = 1/sqrt(t)
and f = -phi(n(t, u))**lam.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .kernel import BoundaryParams
from .model import DiscontinuityCurve, Nonlinearity, ProblemSpec, Weight

# region indices past this raise DomainError instead of being trial-divided.
# The regions accumulate at u -> 0- (n = floor(t/-u)), and sampling does get
# there: apply_T on a ball function with a root of u bisects toward the root
# until some region index passes this bound
_MAX_REGION = 10 ** 12
_PHI_TABLE_SIZE = 2 ** 16  # phi(n) for n below this is looked up, not divided


@lru_cache(maxsize=None)
def phi(n: int) -> int:
    """Divisor count with the convention phi(1) = 2 (so phi(n) >= 2 always)."""
    if n < 1:
        raise DomainError(f"phi is defined for n >= 1, got {n}")
    if n == 1:
        return 2
    count = 0
    r = math.isqrt(n)
    for d in range(1, r + 1):
        if n % d == 0:
            count += 2
    if r * r == n:
        count -= 1
    return count


def region_index(t: float, u: float) -> int:
    """The region containing (t, u): 1 below u = -t, floor(t/-u) in the
    wedge -t <= u < 0, floor(u/sqrt(t)) + 1 for u >= 0.  The quotients are
    rounded before the floor, so u = -t/n lies in region n."""
    return int(_region_array(t, u))


def _region_array(t, u):
    """region_index on float arrays, each quotient computed only where it
    applies.  A NaN u counts as in the wedge, so it makes a NaN index that
    the one bound scan rejects along with inf and indices past _MAX_REGION."""
    t = np.asarray(t, dtype=float)
    if not np.all(t > 0.0):  # NaN fails too
        raise DomainError("region index needs t > 0")
    u = np.asarray(u, dtype=float)
    up = u >= 0.0
    wedge = ~(up | (u < -t))  # of the broadcast shape of t and u
    n = np.ones(wedge.shape)
    with np.errstate(divide="ignore", over="ignore"):
        np.divide(u, np.sqrt(t), out=n, where=up)
        np.divide(t, -u, out=n, where=wedge)
    np.floor(n, out=n)
    np.add(n, 1.0, out=n, where=up)
    if not np.all(n <= _MAX_REGION):
        raise DomainError("region index overflow near u = 0-")
    return n.astype(np.int64)


@lru_cache(maxsize=None)
def _phi_table() -> np.ndarray:
    """phi(n) for 0 < n < _PHI_TABLE_SIZE, built on first use: every d up
    to the square root adds its divisor pair d, n/d to each multiple n >= d*d,
    and a square's root counts once."""
    tab = np.zeros(_PHI_TABLE_SIZE, dtype=np.int64)
    for d in range(1, math.isqrt(_PHI_TABLE_SIZE - 1) + 1):
        tab[d * d::d] += 2
        tab[d * d] -= 1
    tab[1] = 2  # the phi(1) = 2 convention
    tab.flags.writeable = False
    return tab


def _phi_pow(n_arr, lam: float):
    """phi(n)**lam on an integer array.

    phi comes from _phi_table; indices outside it (n >= _PHI_TABLE_SIZE,
    which region indices up to _MAX_REGION can be, and n < 1, for phi's
    DomainError) go through the cached trial division of phi.  The power is
    a lookup into arange(max phi + 1)**lam, the same float pow as on each
    value."""
    n = np.asarray(n_arr, dtype=np.int64).ravel()
    tab = _phi_table()
    off = (n < 1) | (n >= tab.size)
    phis = tab.take(n, mode="clip")
    if off.any():
        phis[off] = [phi(int(m)) for m in n[off]]
    powers = np.arange(phis.max(initial=0) + 1.0) ** lam
    return powers[phis].reshape(np.shape(n_arr))


@dataclass(frozen=True)
class PhiExample:
    """Parameters of the divisor-step problem."""

    lam: float = 1.0 / 3.0
    curve_count: int = 8
    epsilon: float = 0.05

    def __post_init__(self):
        if not 0.0 < self.lam < 1.0:
            raise ValueError("lam must lie in (0, 1)")
        if self.curve_count < 1:
            raise ValueError("curve_count must be >= 1")


def make_weight() -> Weight:
    return Weight(eval=lambda t: 1.0 / np.sqrt(t), singular_left=True, power=-0.5)


def make_curves(ex: PhiExample):
    """The first curve_count members of each jump family.

    The sqrt-fan curvature blows up at 0, so those curves open at t = 0;
    classification clips them at its t_min anyway.
    """
    curves = []
    for k in range(1, ex.curve_count + 1):
        curves.append(DiscontinuityCurve(
            a=0.0, b=1.0, value=lambda t, _k=k: _k * np.sqrt(t),
            second_derivative=lambda t, _k=k: -_k / (4.0 * t ** 1.5),
            epsilon=ex.epsilon, label=f"gamma_{k}"))
        curves.append(DiscontinuityCurve(
            a=0.0, b=1.0, value=lambda t, _k=k: -t / (_k + 1.0),
            second_derivative=np.zeros_like,
            epsilon=ex.epsilon, label=f"gamma_hat_{k}"))
    return tuple(curves)


def make_nonlinearity(ex: PhiExample) -> Nonlinearity:
    lam = ex.lam

    def f(t, u):
        return -_phi_pow(_region_array(t, u), lam)

    return Nonlinearity(eval=f, curves=make_curves(ex), local_bound=None,
                        measurability="checked_by_decomposition")


def build_problem(ex: PhiExample, params: BoundaryParams, radius: float,
                  quad_tol: float = 1e-9, grid_size: int = 129) -> ProblemSpec:
    """Assemble the full problem u'' + g f = 0 for the divisor-step example."""
    return ProblemSpec(params=params, weight=make_weight(),
                       nonlinearity=make_nonlinearity(ex), radius=radius,
                       quad_tol=quad_tol, grid_size=grid_size)
