"""Green's function for u'' = -h(t) under separated boundary conditions.

The boundary conditions are

    alpha*u(0) - beta*u'(0) = 0,    gamma*u(1) + delta*u'(1) = 0,

with alpha, beta, gamma, delta >= 0 and
Gamma = gamma*beta + alpha*gamma + alpha*delta > 0.  The kernel is the
product of two linear factors,

    k(t, s) = left(min(t, s)) * right(max(t, s)) / Gamma,
    left(s) = beta + alpha*s,    right(s) = gamma + delta - gamma*s,

where left solves the boundary condition at 0 and right the one at 1.
k is continuous, non-negative and symmetric on the unit square; its
t-derivative jumps across the diagonal s = t.

The factors satisfy alpha*right(s) + gamma*left(s) = Gamma for every s.  So
w(t) = int k(t,s) h(s) ds = (right(t) L(t) + left(t) R(t)) / Gamma, with
L = int_0^t left*h and R = int_t^1 right*h, has w' = (alpha*R - gamma*L) / Gamma
and w'' = -h: (Tu)'' = -g f(., u) exactly, and M1 = int k(t,.)|g| has M1'' = -|g|.
With h = |g|, M2 = int |dk/dt(t,.)| |g| = (gamma*L + alpha*R) / Gamma, and the
same identity gives int_0^1 |g| = (alpha*R(0) + gamma*L(1)) / Gamma = M2(0) + M2(1).
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGamma, DomainError, NegativeCoefficient


@dataclass(frozen=True)
class BoundaryParams:
    """Separated-BC coefficients; Gamma is derived from them, never stored."""

    alpha: float
    beta: float
    gamma: float
    delta: float

    @property
    def gamma_const(self) -> float:
        """Gamma = gamma*beta + alpha*gamma + alpha*delta."""
        return self.gamma * self.beta + self.alpha * self.gamma + self.alpha * self.delta


def validate_params(alpha, beta, gamma, delta) -> BoundaryParams:
    """Check coefficient signs, compute Gamma and reject degenerate problems.

    Raises NegativeCoefficient if any coefficient is < 0 and DegenerateGamma
    if gamma*beta + alpha*gamma + alpha*delta <= 0 (e.g. pure Neumann).
    """
    vals = {"alpha": alpha, "beta": beta, "gamma": gamma, "delta": delta}
    for name, v in vals.items():
        if not np.isfinite(v):
            raise NegativeCoefficient(f"{name} must be finite, got {v!r}")
        if v < 0:
            raise NegativeCoefficient(f"{name} must be >= 0, got {v!r}")
    params = BoundaryParams(float(alpha), float(beta), float(gamma), float(delta))
    if params.gamma_const <= 0:
        raise DegenerateGamma(
            f"gamma*beta + alpha*gamma + alpha*delta = {params.gamma_const} must be > 0")
    return params


def _unit_args(t, s):
    """t and s as float arrays, both checked to lie in [0, 1]."""
    t, s = np.asarray(t, dtype=float), np.asarray(s, dtype=float)
    for name, x in (("t", t), ("s", s)):
        if not ((0 <= x) & (x <= 1)).all():  # NaN fails too
            raise DomainError(f"{name} must lie in [0, 1]")
    return t, s


def left_factor(p: BoundaryParams, s):
    """beta + alpha*s: the kernel factor carried by the smaller argument."""
    return p.beta + p.alpha * s


def right_factor(p: BoundaryParams, s):
    """gamma + delta - gamma*s: the kernel factor carried by the larger argument."""
    return p.gamma + p.delta - p.gamma * s


# kept for the benchmark's kernel layer (bench/layers.py), which times it
def k_eval(p: BoundaryParams, t, s):
    """Kernel value k(t, s).  Accepts scalars or numpy arrays (broadcast)."""
    t, s = _unit_args(t, s)
    out = (left_factor(p, np.minimum(t, s)) * right_factor(p, np.maximum(t, s))
           / p.gamma_const)
    return out if out.ndim else float(out)


# kept for the benchmark's kernel layer (bench/layers.py), which times it
def dk_dt(p: BoundaryParams, t, s):
    """Partial derivative of the kernel in t.

    Discontinuous across s = t; the s <= t branch is used on the diagonal
    (the diagonal has measure zero in every integral the toolkit forms).
    """
    t, s = _unit_args(t, s)
    out = np.where(s <= t, -p.gamma * left_factor(p, s),
                   p.alpha * right_factor(p, s)) / p.gamma_const
    return out if out.ndim else float(out)


# kept for demo 01, which prints it, and acceptance criterion 4, which checks it
def dk_dt_bound(p: BoundaryParams) -> float:
    """Essential bound on |dk/dt| over the unit square."""
    return max(p.gamma * left_factor(p, 1.0),
               p.alpha * right_factor(p, 0.0)) / p.gamma_const


DIRICHLET = validate_params(1.0, 0.0, 1.0, 0.0)
