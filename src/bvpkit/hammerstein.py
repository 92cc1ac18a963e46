"""The integral operator Tu(t) = int_0^1 k(t,s) g(s) f(s, u(s)) ds, its
derivative, the fixed-point residual, and the sup-integral bounds M1/M2
that certify the ball self-mapping estimate.

All node integrals are adaptive with the kernel diagonal and every detected
crossing of a declared discontinuity curve inserted as breakpoints, so f(., u(.))
is integrated piecewise-smooth between panels.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BallViolation
from .kernel import dk_dt, k_eval
from .model import (GridFunction, ProblemSpec, find_curve_crossings, grid_eval, norm_c1,
                    vectorized)
from .quadrature import IntegrandSpec, integrate

_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class BoundsReport:
    """Sup-over-t integrals of k*|g| (m1) and |dk/dt|*|g| (m2)."""

    m1: float
    m2: float
    argmax_t_m1: float
    argmax_t_m2: float
    quad_tol: float

    @property
    def m_total(self) -> float:
        return self.m1 + self.m2


def ball_slack(spec: ProblemSpec) -> float:
    """Tolerance separating genuine ball violations from quadrature noise."""
    return 10.0 * spec.quad_tol + 1e-12


def _gfu(spec: ProblemSpec, u: GridFunction):
    """Vectorized s -> g(s) * f(s, u(s)) along a grid function."""
    g, f = spec.weight.eval, spec.nonlinearity.eval

    def fn(s):
        return g(s) * f(s, grid_eval(u, s)[0])

    return fn


def crossing_breakpoints(spec: ProblemSpec, u: GridFunction):
    """All abscissae where u crosses a declared discontinuity curve."""
    pts = []
    for curve in spec.nonlinearity.curves:
        pts.extend(find_curve_crossings(u, curve))
    return sorted(pts)


def apply_T(spec: ProblemSpec, u: GridFunction) -> GridFunction:
    """One application of the integral operator: node values from the kernel
    row, node derivatives from the kernel t-derivative row, each integrated
    to spec.quad_tol.

    Requires norm_c1(u) <= spec.radius so the pointwise bound on f applies
    along u; raises BallViolation otherwise.
    """
    nrm = norm_c1(u)
    if nrm > spec.radius + ball_slack(spec):
        raise BallViolation(
            f"||u|| = {nrm:.6g} exceeds the ball radius R = {spec.radius:.6g}")

    gfu = _gfu(spec, u)
    crossings = crossing_breakpoints(spec, u)
    p = spec.params
    nodes = spec.nodes
    vals = np.empty_like(nodes)
    ders = np.empty_like(nodes)
    for i, t in enumerate(nodes):
        breaks = tuple(crossings) + ((t,) if 0.0 < t < 1.0 else ())

        def value_integrand(s, _t=t):
            return k_eval(p, _t, s) * gfu(s)

        def deriv_integrand(s, _t=t):
            return dk_dt(p, _t, s) * gfu(s)

        vals[i] = integrate(IntegrandSpec(value_integrand, breaks,
                                          spec.weight.singular_left, spec.quad_tol),
                            0.0, 1.0)
        ders[i] = integrate(IntegrandSpec(deriv_integrand, breaks,
                                          spec.weight.singular_left, spec.quad_tol),
                            0.0, 1.0)
    return GridFunction(nodes, vals, ders)


def residual(spec: ProblemSpec, u: GridFunction) -> float:
    """Fixed-point defect ||u - Tu|| in the discrete C1 norm."""
    return norm_c1(u - apply_T(spec, u))


def _golden_max(fn, a, b, xtol=1e-7):
    """Golden-section maximization; returns the best point/value seen."""
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fn(c), fn(d)
    best_x, best_v = (c, fc) if fc >= fd else (d, fd)
    while b - a > xtol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fn(d)
        x, v = (c, fc) if fc >= fd else (d, fd)
        if v > best_v:
            best_x, best_v = x, v
    return best_x, best_v


def _sup_integral(spec: ProblemSpec, row):
    """max over t of int_0^1 row(t, s) |g(s)| ds, over the grid nodes plus one
    golden-section refinement around the best node."""
    g = spec.weight.eval

    def value_at(t):
        def integrand(s):
            return row(t, s) * np.abs(g(s))

        breaks = (t,) if 0.0 < t < 1.0 else ()
        return integrate(IntegrandSpec(integrand, breaks,
                                       spec.weight.singular_left, spec.quad_tol),
                         0.0, 1.0)

    nodes = spec.nodes
    node_vals = np.array([value_at(t) for t in nodes])
    i_best = int(np.argmax(node_vals))
    best_t, best_v = float(nodes[i_best]), float(node_vals[i_best])
    lo = nodes[max(i_best - 1, 0)]
    hi = nodes[min(i_best + 1, nodes.size - 1)]
    x, v = _golden_max(value_at, lo, hi)
    if v > best_v:
        best_t, best_v = float(x), float(v)
    return best_t, best_v


def bounds_report(spec: ProblemSpec) -> BoundsReport:
    """Compute M1 and M2 jointly (this is the expensive certification step)."""
    p = spec.params
    t1, m1 = _sup_integral(spec, lambda t, s: k_eval(p, t, s))
    t2, m2 = _sup_integral(spec, lambda t, s: np.abs(dk_dt(p, t, s)))
    return BoundsReport(m1=m1, m2=m2, argmax_t_m1=t1, argmax_t_m2=t2,
                        quad_tol=spec.quad_tol)


@dataclass(frozen=True)
class EquicontinuityReport:
    """Centered-second-difference check of |(Tu)''| <= |g| * H_R."""

    max_excess: float
    slack: float
    worst_t: float
    n_checked: int

    @property
    def passed(self) -> bool:
        return self.max_excess <= self.slack


def equicontinuity_check(spec: ProblemSpec, u: GridFunction, hr_values=None,
                         t_min: float = 0.0, c_h: float = 10.0) -> EquicontinuityReport:
    """Verify the second-derivative bound behind compactness of T.

    hr_values: pointwise bound H_R at the grid nodes (array or callable);
    defaults to the nonlinearity's declared local_bound when it has one.
    Interior nodes below t_min are skipped (needed when g blows up at 0);
    the slack 10*quad_tol + c_h*h**2 absorbs discretization noise.
    """
    nodes = spec.nodes
    interior = nodes[1:-1]
    if hr_values is None:
        if spec.nonlinearity.local_bound is None:
            raise ValueError("no declared bound on f: pass hr_values explicitly "
                             "(e.g. an estimate_HR profile)")
        hr = spec.nonlinearity.local_bound(interior, spec.radius)
    elif callable(hr_values):
        hr = vectorized(hr_values)(interior)
    else:
        hr = np.asarray(hr_values, dtype=float)[1:-1]
    tu = apply_T(spec, u)
    h = float(nodes[1] - nodes[0])
    d2 = (tu.values[2:] - 2.0 * tu.values[1:-1] + tu.values[:-2]) / h**2
    bound = np.abs(spec.weight.eval(interior)) * hr
    mask = interior >= t_min
    if not np.any(mask):
        raise ValueError("t_min excludes every interior node")
    excess = np.abs(d2[mask]) - bound[mask]
    i = int(np.argmax(excess))
    return EquicontinuityReport(max_excess=float(excess[i]),
                                slack=10.0 * spec.quad_tol + c_h * h**2,
                                worst_t=float(interior[mask][i]),
                                n_checked=int(mask.sum()))
