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
from .model import (DiscontinuityCurve, GridFunction, Nonlinearity, ProblemSpec,
                    Weight, grid_eval)

# beyond this the divisor count is not worth trial-dividing for; sampling
# never gets that close to the u -> 0- accumulation of regions
_MAX_REGION = 10 ** 12


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
    wedge -t <= u < 0, floor(u/sqrt(t)) + 1 for u >= 0."""
    if t <= 0.0:
        raise DomainError("region index needs t > 0")
    if u >= 0.0:
        n = math.floor(u / math.sqrt(t)) + 1
    elif u < -t:
        n = 1
    else:
        n = math.floor(t / -u)
    if n > _MAX_REGION:
        raise DomainError(f"region index {n} too large to evaluate")
    return int(n)


def _region_array(t, u):
    """region_index on float arrays."""
    if np.any(t <= 0.0):
        raise DomainError("region index needs t > 0")
    pos = np.floor_divide(u, np.sqrt(t)) + 1.0
    with np.errstate(divide="ignore", over="ignore"):
        mid = np.floor_divide(t, -u)
    n = np.where(u >= 0.0, pos, np.where(u < -t, 1.0, mid))
    if np.any(~np.isfinite(n)) or np.any(n > _MAX_REGION):
        raise DomainError("region index overflow near u = 0-")
    return n.astype(np.int64)


def _phi_pow(n_arr, lam: float):
    uniq, inverse = np.unique(n_arr, return_inverse=True)
    vals = np.array([phi(int(m)) for m in uniq], dtype=float) ** lam
    return vals[inverse].reshape(np.shape(n_arr))


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
    return Weight(eval=lambda t: 1.0 / np.sqrt(t),
                  singular_left=True, l1_bound_hint=2.0, label="inv-sqrt")


def make_curves(ex: PhiExample):
    """The first curve_count members of each jump family, hinted inviable.

    The sqrt-fan curvature blows up at 0, so those curves open at t = 0;
    classification clips them at its t_min anyway.
    """
    curves = []
    for k in range(1, ex.curve_count + 1):
        curves.append(DiscontinuityCurve(
            a=0.0, b=1.0, value=lambda t, _k=k: _k * np.sqrt(t),
            second_derivative=lambda t, _k=k: -_k / (4.0 * t ** 1.5),
            epsilon=ex.epsilon, kind_hint="inviable", label=f"gamma_{k}"))
        curves.append(DiscontinuityCurve(
            a=0.0, b=1.0, value=lambda t, _k=k: -t / (_k + 1.0),
            second_derivative=np.zeros_like,
            epsilon=ex.epsilon, kind_hint="inviable", label=f"gamma_hat_{k}"))
    return tuple(curves)


def make_nonlinearity(ex: PhiExample) -> Nonlinearity:
    lam = ex.lam

    def f(t, u):
        return -_phi_pow(_region_array(t, u), lam)

    return Nonlinearity(eval=f, curves=make_curves(ex), local_bound=None,
                        label="phi-example", measurability="checked_by_decomposition")


def build_problem(ex: PhiExample, params: BoundaryParams, radius: float,
                  quad_tol: float = 1e-9, grid_size: int = 129) -> ProblemSpec:
    """Assemble the full problem u'' + g f = 0 for the divisor-step example."""
    return ProblemSpec(params=params, weight=make_weight(),
                       nonlinearity=make_nonlinearity(ex), radius=radius,
                       quad_tol=quad_tol, grid_size=grid_size)


@dataclass(frozen=True)
class DecompositionReport:
    """Assignment of each sampled t to exactly one preimage set.

    kinds: "I" for u(t) in [(n-1)sqrt(t), n sqrt(t)), "J" for the wedge
    -t <= u(t) < 0, "K" for u(t) < -t.  consistent records that the
    partition index agrees with the region map at every sample.
    """

    entries: list  # (t, kind, n)
    consistent: bool

    def counts(self):
        out = {"I": 0, "J": 0, "K": 0}
        for _, kind, _ in self.entries:
            out[kind] += 1
        return out


def measurable_decomposition(u: GridFunction, t_grid) -> DecompositionReport:
    """Partition the sampled times by which preimage set they fall in,
    checking exhaustiveness/disjointness and agreement with the region map."""
    entries = []
    consistent = True
    for t in np.asarray(t_grid, dtype=float):
        if t <= 0.0:
            raise DomainError("decomposition needs t > 0")
        uv, _ = grid_eval(u, float(t))
        in_i = uv >= 0.0
        in_k = uv < -t
        in_j = (not in_i) and (not in_k)
        if sum((in_i, in_j, in_k)) != 1:
            consistent = False
        n = region_index(float(t), float(uv))
        kind = "I" if in_i else ("K" if in_k else "J")
        if kind == "K" and n != 1:
            consistent = False
        entries.append((float(t), kind, n))
    return DecompositionReport(entries=entries, consistent=consistent)
