"""Problem representation: weights, nonlinearities, discontinuity curves,
grid functions and the discrete C1 norm.

User callables may be any callable of floats.  `vectorized` wraps each once,
when its dataclass is built, and the toolkit calls them on float arrays that
broadcast against each other (f may get one row or column of t against a
whole grid of u): an array-capable callable gets one call per batch, a
scalar-only one is looped over the batch by that wrapper and nowhere else.

A candidate solution is carried as node values plus node derivative values
on a uniform grid over [0, 1]; between nodes it is evaluated by cubic
Hermite interpolation, which is exact on cubics and matches the C1 setting
the integral operator works in.  T reads u on rows of points, one node panel
per row: hermite_basis of the points alone, then hermite_value of node data.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .kernel import BoundaryParams, left_factor, right_factor
from .quadrature import make_plan

SCAN_PER_PANEL = 4  # find_crossings: 4(N-1) equal cells per curve domain, any width
CROSSING_TOL = 1e-12  # find_crossings: bracket width of a crossing; 10x merges


def vectorized(fn):
    """fn on float arrays of broadcastable shapes: one array call, or, when
    that raises TypeError/ValueError or its result is a scalar or does not
    broadcast to the arguments' broadcast shape, one call per element.  A
    non-scalar result that broadcasts (a function of t alone, called on a
    column of t and a grid of u) is expanded to that shape.  Idempotent, so
    dataclasses.replace does not stack wrappers."""
    if getattr(fn, "_vectorized", False) is True:
        return fn

    @functools.wraps(fn)
    def call(*args):
        args = [np.asarray(a, dtype=float) for a in args]
        shape = args[0].shape
        for a in args[1:]:
            if a.shape != shape:
                shape = np.broadcast(*args).shape
                break
        try:
            out = np.asarray(fn(*args), dtype=float)
            if out.shape == shape:
                return out
            if out.ndim and np.broadcast_shapes(out.shape, shape) == shape:
                return np.broadcast_to(out, shape).copy()
        except (TypeError, ValueError):
            pass
        cols = [np.broadcast_to(a, shape).ravel() for a in args]
        return np.array([fn(*map(float, xs)) for xs in zip(*cols)],
                        dtype=float).reshape(shape)

    call._vectorized = True
    return call


def _vectorize_fields(obj, *names):
    for name in names:
        fn = getattr(obj, name)
        if fn is not None:
            object.__setattr__(obj, name, vectorized(fn))


@dataclass(frozen=True)
class Weight:
    """The factor g in u'' + g(t) f(t, u) = 0; may blow up at t = 0."""

    eval: callable
    singular_left: bool = False
    power: float | None = None  # when given, declares g(t) = c * t**power

    def __post_init__(self):
        _vectorize_fields(self, "eval")


@dataclass(frozen=True)
class DiscontinuityCurve:
    """A curve y = value(t) on [a, b] along which f(t, .) may jump.

    epsilon is the half-width of the tube sampled by the classifier.
    """

    a: float
    b: float
    value: callable
    second_derivative: callable
    epsilon: float = 0.05
    label: str = "curve"

    def __post_init__(self):
        if not 0.0 <= self.a < self.b <= 1.0:
            raise ValueError(f"curve domain [{self.a}, {self.b}] invalid")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be > 0")
        _vectorize_fields(self, "value", "second_derivative")


@dataclass(frozen=True)
class Nonlinearity:
    """The factor f(t, u) with its declared jump structure.

    local_bound, when given, maps (t, R) to a pointwise bound H_R(t) valid
    for |u| <= R; when None the bound is estimated by sampling.
    """

    eval: callable
    curves: tuple = field(default_factory=tuple)
    local_bound: callable | None = None
    degree: int | None = None  # when given, f(t, u) has total degree <= this between curves
    # how measurability is discharged: "asserted" (catalog entries), or the divisor
    # example's region map n(t, u) (example_phi._region_array), bounded by its curves
    measurability: str = "asserted"

    def __post_init__(self):
        _vectorize_fields(self, "eval", "local_bound")


@dataclass(frozen=True)
class GridFunction:
    """Node values and node derivative values on a grid t0=0 < ... < tN=1;
    the values are read-only copies, and the grid is checked on every build."""

    nodes: np.ndarray
    values: np.ndarray
    derivatives: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        values = np.array(self.values, dtype=float)
        derivs = np.array(self.derivatives, dtype=float)
        values.flags.writeable = derivs.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "derivatives", derivs)
        if not (nodes.shape == values.shape == derivs.shape) or nodes.ndim != 1:
            raise ValueError("nodes, values, derivatives must be 1-d and equal length")
        if not (nodes.size >= 2 and nodes[0] == 0.0 and nodes[-1] == 1.0
                and (nodes[1:] > nodes[:-1]).all()):
            raise ValueError("grid nodes must be strictly increasing from 0 to 1")
        if not (np.isfinite(values).all() and np.isfinite(derivs).all()):
            raise ValueError("grid function entries must be finite")

    @classmethod
    def zero(cls, nodes):
        z = np.zeros(np.shape(nodes))
        return cls(nodes, z, z)  # __post_init__ copies each


def _basis(x):
    """The four cubic Hermite basis polynomials at local coordinate x, with the
    same operations on floats and on arrays, so the same bits."""
    x2 = x * x
    x3 = x2 * x
    return 2 * x3 - 3 * x2 + 1, x3 - 2 * x2 + x, -2 * x3 + 3 * x2, x3 - x2


def _locate(nodes, rows):
    """Node panel index i and width h of each row of points, as (P, 1)
    columns, and the rows' local coordinates x.  A row's panel is the one its
    middle point falls in (the last one from t = 1 on)."""
    i = np.searchsorted(nodes, rows[:, rows.shape[1] // 2], side="right") - 1
    i = np.clip(i, 0, nodes.size - 2)[:, None]
    t0 = nodes[i]
    h = nodes[i + 1] - t0
    return i, h, (rows - t0) / h


def hermite_basis(nodes, rows):
    """Each row's node panel index i and width h, and _basis at its points."""
    i, h, x = _locate(nodes, rows)
    return i, h, *_basis(x)


def hermite_value(y, i, h, b0, b1, b2, b3):
    """u of node data y = (v, d) from hermite_basis: v[i]*b0 + h*d[i]*b1 +
    v[i+1]*b2 + h*d[i+1]*b3, summed in that order wherever u is evaluated."""
    v, d = y
    return v[i] * b0 + h * d[i] * b1 + v[i + 1] * b2 + h * d[i + 1] * b3


def grid_eval(u: GridFunction, t):
    """Cubic Hermite value and derivative at t (scalar or array); exact at
    nodes and on sampled cubics."""
    t_arr = np.asarray(t, dtype=float)
    if not ((0.0 <= t_arr) & (t_arr <= 1.0)).all():  # NaN fails too
        raise DomainError("t must lie in [0, 1]")
    i, h, x = _locate(u.nodes, t_arr.reshape(-1, 1))
    x2, y = x * x, (u.values, u.derivatives)
    val = hermite_value(y, i, h, *_basis(x)).reshape(t_arr.shape)
    der = (hermite_value(y, i, h, 6 * x2 - 6 * x, 3 * x2 - 4 * x + 1, -6 * x2 + 6 * x,
                         3 * x2 - 2 * x) / h).reshape(t_arr.shape)
    if val.ndim == 0:
        return float(val), float(der)
    return val, der


def c1_norm_of(values, derivatives) -> float:
    """max|values| + max|derivatives|: the discrete C1 norm of node data."""
    return float(np.max(np.abs(values)) + np.max(np.abs(derivatives)))


def norm_c1(u: GridFunction) -> float:
    """Discrete proxy of sup|u| + sup|u'|, taken over the nodes."""
    return c1_norm_of(u.values, u.derivatives)


@dataclass(frozen=True)
class ProblemSpec:
    """A fully assembled boundary value problem plus numerical knobs."""

    params: BoundaryParams
    weight: Weight
    nonlinearity: Nonlinearity
    radius: float
    quad_tol: float = 1e-9
    grid_size: int = 129

    def __post_init__(self):
        if not self.radius > 0:  # NaN fails too
            raise ValueError("radius must be > 0")
        if not self.quad_tol > 0:
            raise ValueError("quad_tol must be > 0")
        if not self.grid_size >= 3:
            raise ValueError("grid_size must be >= 3")

    @functools.cached_property
    def nodes(self) -> np.ndarray:
        """The uniform grid, built once per spec and read-only."""
        nodes = np.linspace(0.0, 1.0, self.grid_size)
        nodes.flags.writeable = False
        return nodes

    @property
    def exact_points(self) -> int | None:
        """Points of the smallest Gauss rule exact on T's integrand, or None (the
        adaptive pair) where the weight's power or f's degree d is not declared.
        Between curves, a kernel factor * g * f(., u), u a Hermite cubic, is a
        polynomial of degree 1 + 3d in s for g = c, and in x = sqrt(s) of degree
        2 + 6d for g = c/sqrt(s) or 3 + 6d for g = c."""
        p, d, sq = self.weight.power, self.nonlinearity.degree, self.weight.singular_left
        if d is None or p not in ((0.0, -0.5) if sq else (0.0,)):
            return None
        return 3 * d + 2 if sq else (3 * d + 3) // 2

    @functools.cached_property
    def plan(self):
        """The quadrature plan of T's integrand apart from u and f (g, both kernel
        factors and hermite_basis; in x = sqrt(s) for a singular weight, where T's
        crossings within 1e-14 in x merge), from nodes, BC, weight and exact_points alone."""
        return make_plan(functools.partial(_sample, self.params, self.weight.eval, self.nodes),
                         self.nodes, self.weight.singular_left, self.exact_points)


def _sample(params, g, nodes, s):
    return g(s), left_factor(params, s), right_factor(params, s), *hermite_basis(nodes, s)


def _itp_point(j, a, b, ga, gb, n_max, k1):
    """The ITP point of the bracket [a, b], whose gaps ga and gb have opposite
    signs, at step j of n_max: the regula-falsi point, truncated toward the
    midpoint by k1*(b - a)**2 and projected into the bisection radius
    (Oliveira & Takahashi, ACM TOMS 47(1), 2020).  A regula-falsi point
    outside [a, b] (rounding at an end, or underflow in the gaps' products)
    is replaced by the midpoint, so every point lies in the bracket and the
    bracket shrinks as the radius says."""
    mid, w = 0.5 * (a + b), b - a
    xf = (gb * a - ga * b) / (gb - ga)
    if not a <= xf <= b:
        xf = mid
    s = 1.0 if mid > xf else -1.0 if mid < xf else 0.0
    d = k1 * w * w
    xt = xf + s * d if d <= abs(mid - xf) else mid
    r = 0.5 * CROSSING_TOL * 2.0 ** (n_max - j) - 0.5 * w
    return xt if abs(xt - mid) <= r else mid - s * r


def _not_finite(curve, t):
    return DomainError(f"u - value of curve {curve.label!r} is not finite at t = {t!r}")


def find_crossings(nodes, y, curves):
    """Locate where u, of node data y on nodes, crosses each curve: one sorted
    list of crossing abscissae strictly inside the curve's domain per curve.

    u(s) - curve.value(s) is scanned on SCAN_PER_PANEL * (N - 1) equal cells of
    the curve's domain, whatever its width, for u on N nodes, with u evaluated
    once per distinct domain; zeros and sign changes of all curves' gaps are
    found in one array pass.  Each curve's sign-change cells are then refined
    together by ITP steps, one curve.value call per step on its live cells,
    with u in floats (numpy's per-call cost dominates on a few cells).  ITP
    keeps the sign-change bracket of bisection and its worst case: a cell of
    width w takes at most ceil(log2(w / 1e-12)) + 1 steps to a bracket of
    width <= 1e-12, whose midpoint is returned, and converges superlinearly
    on a simple root (the step example's two crossings take 8 steps, where
    bisection took 31).  Crossings closer than 1e-11 are merged.  Double
    crossings inside one scan cell are not resolved.  A non-finite gap, at a
    scan point or a step, raises DomainError naming the curve and t.
    """
    tol = CROSSING_TOL
    spans = [(c.a, c.b) for c in curves]  # 0 <= a < b <= 1 by DiscontinuityCurve
    live = [k for k, (lo, hi) in enumerate(spans) if hi - lo > tol]
    # [a, b, gap at a, gap at b, step budget, kappa1]; b = a where the gap is 0
    cells = [[] for _ in curves]
    if live:
        n_scan = SCAN_PER_PANEL * (nodes.size - 1)
        grids = {d: np.linspace(*d, n_scan + 1) for d in dict.fromkeys(spans[k] for k in live)}
        levels = {d: hermite_value(y, *hermite_basis(nodes, grids[d][:, None])) for d in grids}
        gap = np.array([levels[spans[k]][:, 0] - curves[k].value(grids[spans[k]]) for k in live])
        if not np.isfinite(gap).all():
            r, i = np.argwhere(~np.isfinite(gap))[0]
            raise _not_finite(curves[live[r]], float(grids[spans[live[r]]][i]))
        hit = gap == 0.0
        hit[:, 0] = hit[:, -1] = False
        hit[:, :-1] |= gap[:, :-1] * gap[:, 1:] < 0.0
        for r, i in zip(*np.nonzero(hit)):
            ts, g = grids[spans[live[r]]], float(gap[r, i])
            a = float(ts[i])
            if g == 0.0:
                cells[live[r]].append([a, a, g, g, 0, 0.0])
            else:
                b = float(ts[i + 1])
                cells[live[r]].append([a, b, g, float(gap[r, i + 1]),
                                       math.ceil(math.log2((b - a) / tol)) + 1, 0.2 / (b - a)])
    if not any(cells):
        return cells

    nodes, vals, ders = nodes.tolist(), y[0].tolist(), y[1].tolist()

    def value(s):  # hermite_value at a float s
        i = min(max(bisect_right(nodes, s) - 1, 0), len(nodes) - 2)
        h = nodes[i + 1] - nodes[i]
        b0, b1, b2, b3 = _basis((s - nodes[i]) / h)
        return vals[i] * b0 + h * ders[i] * b1 + vals[i + 1] * b2 + h * ders[i + 1] * b3

    out = []
    for curve, cs in zip(curves, cells):
        steps, j = cs, 0  # live cells step in lockstep: each has taken j steps
        while steps := [c for c in steps if c[1] - c[0] > tol]:  # one ITP step of each
            xs = [_itp_point(j, *c) for c in steps]
            j += 1
            for c, x, lv in zip(steps, xs, curve.value(np.array(xs)).tolist()):
                fx = value(x) - lv
                if not math.isfinite(fx):
                    raise _not_finite(curve, x)
                if fx == 0.0:
                    c[0] = c[1] = x
                elif c[2] * fx < 0.0:
                    c[1], c[3] = x, fx
                else:
                    c[0], c[2] = x, fx
        merged = []
        for x in (0.5 * (c[0] + c[1]) for c in cs):
            if not merged or x - merged[-1] > 10 * tol:
                merged.append(x)
        out.append(merged)
    return out


def find_curve_crossings(u: GridFunction, curve: DiscontinuityCurve):
    """find_crossings for one curve: its sorted list of crossing abscissae.
    Double crossings inside one scan cell are not resolved."""
    return find_crossings(u.nodes, (u.values, u.derivatives), (curve,))[0]
