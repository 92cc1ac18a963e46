"""Problem representation: weights, nonlinearities, discontinuity curves,
grid functions and the discrete C1 norm.

User callables may be any callable of floats.  `vectorized` wraps each once,
when its dataclass is built, and the toolkit calls them on float arrays: an
array-capable callable gets one call per batch, a scalar-only one is looped
over the batch by that wrapper and nowhere else.

A candidate solution is carried as node values plus node derivative values
on a uniform grid over [0, 1]; between nodes it is evaluated by cubic
Hermite interpolation, which is exact on cubics and matches the C1 setting
the integral operator works in.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError
from .kernel import BoundaryParams


def vectorized(fn):
    """fn on float arrays: one array call, or, when that raises TypeError/
    ValueError or misses the arguments' broadcast shape, one call per element.
    Idempotent, so dataclasses.replace does not stack wrappers."""
    if getattr(fn, "_vectorized", False) is True:
        return fn

    @functools.wraps(fn)
    def call(*args):
        args = [np.asarray(a, dtype=float) for a in args]
        shape = args[0].shape
        for a in args[1:]:
            if a.shape != shape:
                shape = np.broadcast_shapes(shape, a.shape)
        try:
            out = np.asarray(fn(*args), dtype=float)
            if out.shape == shape:
                return out
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
    l1_bound_hint: float | None = None
    label: str = "weight"

    def __post_init__(self):
        _vectorize_fields(self, "eval")


@dataclass(frozen=True)
class DiscontinuityCurve:
    """A curve y = value(t) on [a, b] along which f(t, .) may jump.

    epsilon is the half-width of the tube sampled by the classifier;
    kind_hint ("viable"/"inviable") is advisory only.
    """

    a: float
    b: float
    value: callable
    second_derivative: callable
    epsilon: float = 0.05
    kind_hint: str | None = None
    label: str = "curve"

    def __post_init__(self):
        if not 0.0 <= self.a < self.b <= 1.0:
            raise ValueError(f"curve domain [{self.a}, {self.b}] invalid")
        if self.epsilon <= 0:
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
    label: str = "nonlinearity"
    # how the measurability requirement is discharged: catalog entries are
    # "asserted"; the divisor example documents an explicit decomposition
    measurability: str = "asserted"

    def __post_init__(self):
        _vectorize_fields(self, "eval", "local_bound")


@dataclass(frozen=True)
class GridFunction:
    """Node values and node derivative values on a grid t0=0 < ... < tN=1."""

    nodes: np.ndarray
    values: np.ndarray
    derivatives: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        values = np.asarray(self.values, dtype=float)
        derivs = np.asarray(self.derivatives, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "derivatives", derivs)
        if not (nodes.shape == values.shape == derivs.shape) or nodes.ndim != 1:
            raise ValueError("nodes, values, derivatives must be 1-d and equal length")
        if nodes.size < 2 or nodes[0] != 0.0 or nodes[-1] != 1.0:
            raise ValueError("grid must start at 0 and end at 1")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("grid nodes must be strictly increasing")
        if not (np.all(np.isfinite(values)) and np.all(np.isfinite(derivs))):
            raise ValueError("grid function entries must be finite")

    @classmethod
    def from_callable(cls, fn, dfn, nodes):
        nodes = np.asarray(nodes, dtype=float)
        return cls(nodes, vectorized(fn)(nodes), vectorized(dfn)(nodes))

    @classmethod
    def zero(cls, nodes):
        nodes = np.asarray(nodes, dtype=float)
        z = np.zeros_like(nodes)
        return cls(nodes, z, z.copy())

    def __sub__(self, other):
        if not np.array_equal(self.nodes, other.nodes):
            raise ValueError("grid functions live on different grids")
        return replace(self, values=self.values - other.values,
                       derivatives=self.derivatives - other.derivatives)

    def eval(self, t):
        return grid_eval(self, t)


def uniform_grid(n: int) -> np.ndarray:
    if n < 3:
        raise ValueError("need at least 3 nodes")
    return np.linspace(0.0, 1.0, n)


def grid_eval(u: GridFunction, t):
    """Cubic Hermite value and derivative at t (scalar or array); exact at
    nodes and on sampled cubics."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0.0) or np.any(t_arr > 1.0):
        raise DomainError("t must lie in [0, 1]")
    idx = np.clip(np.searchsorted(u.nodes, t_arr, side="right") - 1, 0, u.nodes.size - 2)
    t0 = u.nodes[idx]
    h = u.nodes[idx + 1] - t0
    x = (t_arr - t0) / h
    x2 = x * x
    x3 = x2 * x
    u0, u1 = u.values[idx], u.values[idx + 1]
    m0, m1 = u.derivatives[idx], u.derivatives[idx + 1]
    val = (u0 * (2 * x3 - 3 * x2 + 1) + h * m0 * (x3 - 2 * x2 + x)
           + u1 * (-2 * x3 + 3 * x2) + h * m1 * (x3 - x2))
    der = (u0 * (6 * x2 - 6 * x) + h * m0 * (3 * x2 - 4 * x + 1)
           + u1 * (-6 * x2 + 6 * x) + h * m1 * (3 * x2 - 2 * x)) / h
    if val.ndim == 0:
        return float(val), float(der)
    return val, der


def norm_c1(u: GridFunction) -> float:
    """Discrete proxy of sup|u| + sup|u'|, taken over the nodes."""
    return float(np.max(np.abs(u.values)) + np.max(np.abs(u.derivatives)))


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
        if self.radius <= 0:
            raise ValueError("radius must be > 0")
        if self.quad_tol <= 0:
            raise ValueError("quad_tol must be > 0")
        if self.grid_size < 3 or self.grid_size % 2 == 0:
            raise ValueError("grid_size must be odd and >= 3 so that t=1/2 is a node")

    @property
    def nodes(self) -> np.ndarray:
        return uniform_grid(self.grid_size)


def find_curve_crossings(u: GridFunction, curve: DiscontinuityCurve,
                         scan_per_panel: int = 4, tol: float = 1e-12):
    """Locate points where u crosses the curve, by sign-change bisection of
    u(s) - curve.value(s) on a scan grid refined from the function's panels.

    Returns a sorted list of crossing abscissae inside the curve's domain.
    Double crossings inside one scan cell are not resolved.
    """
    lo, hi = max(curve.a, 0.0), min(curve.b, 1.0)
    if hi - lo <= tol:
        return []
    n_scan = max(2, scan_per_panel * (u.nodes.size - 1))
    ts = np.linspace(lo, hi, n_scan + 1)
    vals, _ = grid_eval(u, ts)
    gap = vals - curve.value(ts)

    def d(s):
        v, _ = grid_eval(u, s)
        return v - float(curve.value(s))

    crossings = []
    for i in range(n_scan):
        g0, g1 = gap[i], gap[i + 1]
        if g0 == 0.0:
            crossings.append(ts[i])
            continue
        if g0 * g1 < 0.0:
            a, b = ts[i], ts[i + 1]
            fa = g0
            while b - a > tol:
                mid = 0.5 * (a + b)
                fm = d(mid)
                if fm == 0.0:
                    a = b = mid
                    break
                if fa * fm < 0.0:
                    b = mid
                else:
                    a, fa = mid, fm
            crossings.append(0.5 * (a + b))
    if gap[-1] == 0.0:
        crossings.append(ts[-1])

    out = []
    for c in crossings:
        if not out or c - out[-1] > 10 * tol:
            out.append(float(c))
    return out
