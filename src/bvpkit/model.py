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
import numbers
import operator
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .kernel import BoundaryParams, left_factor, right_factor
from .quadrature import make_plan

SCAN_PER_PANEL = 4  # find_crossings: 4(N-1) equal cells per curve domain, any width
CROSSING_TOL = 1e-12  # find_crossings: bracket width of a crossing in t; 10x merges
# a declared curve's bracket width in x = sqrt(t) <= 1: it spans <= 2 * STEP_TOL in t
STEP_TOL = 0.5 * CROSSING_TOL
_BINOMIAL_6 = tuple(float(math.comb(6, k)) for k in range(7))  # scales a cell for _panel_gap
POLY_DEGREE = {"t": 3, "sqrt(t)": 6}  # DiscontinuityCurve.poly_in: the highest degree of poly


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


def _int_at_least(x, least) -> bool:
    """Whether x is an integer (a numpy one too, a bool not) >= least."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool) and x >= least


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

    epsilon is the half-width of the tube sampled by the classifier.  poly,
    when given, declares value(t) = poly[0] + poly[1]*x + ... + poly[k]*x**k
    in the variable poly_in: x = t with k <= 3, or x = sqrt(t) with k <= 6
    (the fan u = k*sqrt(t) is (0, k) in "sqrt(t)").  find_crossings then reads
    the curve from poly alone, in x = sqrt(t) (_poly_x, where a cubic in t
    (c0, c1, c2, c3) is (c0, 0, c1, 0, c2, 0, c3)); an undeclared curve is scanned.
    """

    a: float
    b: float
    value: callable
    second_derivative: callable
    epsilon: float = 0.05
    label: str = "curve"
    poly: tuple | None = None  # power-basis coefficients in poly_in
    poly_in: str = "t"  # or "sqrt(t)"

    def __post_init__(self):
        if not 0.0 <= self.a < self.b <= 1.0:
            raise ValueError(f"curve domain [{self.a}, {self.b}] invalid")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be > 0")
        if self.poly_in not in tuple(POLY_DEGREE):  # by ==, so an unhashable one is refused too
            raise ValueError(f"poly_in must be 't' or 'sqrt(t)', got {self.poly_in!r}")
        poly_x = None
        if self.poly is not None:
            poly, most = tuple(float(c) for c in self.poly), POLY_DEGREE[self.poly_in] + 1
            if not (1 <= len(poly) <= most and all(map(math.isfinite, poly))):
                raise ValueError(f"poly in {self.poly_in} must hold 1 to {most} finite "
                                 f"coefficients, got {self.poly!r}")
            object.__setattr__(self, "poly", poly)
            poly_x = poly if self.poly_in == "sqrt(t)" else tuple(
                c for a in poly for c in (0.0, a))[1:]
        object.__setattr__(self, "_poly_x", poly_x)
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
        if not (self.degree is None or _int_at_least(self.degree, 0)):
            raise ValueError(f"degree must be None or an integer >= 0, got {self.degree!r}")
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
    i = np.minimum(np.maximum(i, 0), nodes.size - 2)[:, None]
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
    val, der = _value_and_slope(u.nodes, (u.values, u.derivatives), t_arr)
    if val.ndim == 0:
        return float(val), float(der)
    return val, der


def _value_and_slope(nodes, y, t):
    """The Hermite interpolant of node data y and its derivative at the array t."""
    i, h, x = _locate(nodes, t.reshape(-1, 1))
    x2 = x * x
    val = hermite_value(y, i, h, *_basis(x)).reshape(t.shape)
    der = (hermite_value(y, i, h, 6 * x2 - 6 * x, 3 * x2 - 4 * x + 1, -6 * x2 + 6 * x,
                         3 * x2 - 2 * x) / h).reshape(t.shape)
    return val, der


def c1_norm_of(values, derivatives) -> float:
    """max|values| + max|derivatives| (one abs, one max): the discrete C1 norm."""
    v, d = np.abs((values, derivatives)).max(axis=1)
    return float(v + d)


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
        if not _int_at_least(self.grid_size, 3):
            raise ValueError(f"grid_size must be an integer >= 3, got {self.grid_size!r}")

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


def _itp_point(j, a, b, ga, gb, n_max, k1, tol=CROSSING_TOL):
    """The ITP point of the bracket [a, b], whose gaps ga and gb have opposite
    signs, at step j of n_max toward a bracket tol wide: the regula-falsi
    point, truncated toward the midpoint by k1*(b - a)**2 and projected into
    the bisection radius (Oliveira & Takahashi, ACM TOMS 47(1), 2020).  A
    point not strictly inside (a, b) (regula falsi on an end or past it, by
    rounding or by underflow in the gaps' products) is replaced by the
    midpoint, so every step shrinks the bracket and none evaluates an end
    again."""
    mid, w = 0.5 * (a + b), b - a
    xf = (gb * a - ga * b) / (gb - ga)
    s = 1.0 if mid > xf else -1.0 if mid < xf else 0.0
    d = k1 * w * w
    xt = xf + s * d if d <= abs(mid - xf) else mid
    r = 0.5 * tol * 2.0 ** (n_max - j) - 0.5 * w
    x = xt if abs(xt - mid) <= r else mid - s * r
    return x if a < x < b else mid


def _not_finite(curve, t):
    return DomainError(f"u - value of curve {curve.label!r} is not finite at t = {t!r}")


def _shrink(curve, cell, x, fx, in_x):
    """One ITP step's update of a cell [a, b, gap at a, gap at b, ...] of curve
    by the gap fx at x: the bracket keeps the side where the gap changes sign,
    or closes on x where fx is 0.  A non-finite fx raises DomainError at t
    (x**2 for a cell in x = sqrt(t))."""
    if not math.isfinite(fx):
        raise _not_finite(curve, x * x if in_x else x)
    if fx == 0.0:
        cell[0] = cell[1] = x
    elif cell[2] * fx < 0.0:
        cell[1], cell[3] = x, fx
    else:
        cell[0], cell[2] = x, fx


def _convolve(p, q):
    """The product of two polynomials given as lists of coefficient arrays."""
    out = [0.0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for k, c in enumerate(q):
            out[i + k] = out[i + k] + a * c
    return out


def _hermite_map(knots):
    """The Bernstein coefficients of degree 6 of u on each panel [x_i, x_{i+1}]
    of x = sqrt(knots), a (4, 7, rows, panels) map from u's Hermite data (v_i,
    d_i, v_{i+1}, d_{i+1}) at the panel's knots, whose first and last rows are
    (1, 0, 0, 0) and (0, 0, 1, 0) exactly.  In the panel's coordinate tau,
    t = x**2 has local coordinate s = 2 sig tau + (1 - 2 sig) tau**2, sig =
    x_i / (x_i + x_{i+1}): Bernstein coefficients (0, sig, 1), and 1 - s has
    (1, 1 - sig, 0).  Each cubic Bernstein basis polynomial in s is a product
    of three of these, of degree 6 in tau; binomially scaled Bernstein
    coefficients multiply by convolution.  A zero-width panel maps v_i alone."""
    x = np.sqrt(knots)
    h = np.diff(knots, axis=1)
    sig = x[:, :-1] / (x[:, :-1] + x[:, 1:])
    one, zero = np.ones_like(sig), np.zeros_like(sig)
    s, z = (zero, 2.0 * sig, one), (one, 2.0 * (1.0 - sig), zero)
    bern = []
    for j in range(4):
        p = [one]
        for q in (s,) * j + (z,) * (3 - j):
            p = _convolve(p, q)
        bern.append(np.array([math.comb(3, j) * c / math.comb(6, k)
                              for k, c in enumerate(p)]))
    b0, b1, b2, b3 = bern
    flat = h == 0.0
    return np.array((np.where(flat, 1.0, b0 + b1), h * b1 / 3.0,
                     np.where(flat, 0.0, b2 + b3), -h * b2 / 3.0))


def _shifted_bernstein(q, x):
    """Bernstein coefficients 1 to 5 of degree 6 of the polynomials q (power
    basis, (deg + 1, rows, 1)) on each panel [x_i, x_{i+1}] of their rows x:
    the Taylor coefficients a_m of q(x_i + w tau) by Horner's rule, then
    c_k = sum over m <= k of binom(k, m) / binom(6, m) * a_m."""
    x0, w = x[:, :-1], np.diff(x, axis=1)
    a = [q[-1] + 0.0 * x0]
    for qk in q[-2::-1]:
        a = [a[0] * x0 + qk, *(a[m] * x0 + a[m - 1] * w for m in range(1, len(a))), a[-1] * w]
    return np.array([sum(math.comb(k, m) / math.comb(6, m) * a[m]
                         for m in range(min(k, len(a) - 1) + 1)) for k in range(1, 6)])


@functools.lru_cache(maxsize=32)
def _knot_frame(node_bytes, curves):
    """What _bernstein_cells needs of the nodes (as bytes) and the declared
    curves' (a, b, poly in x = sqrt(t)) alone, read-only.  A row of knots (the
    nodes clipped to the domain) per distinct domain, the index of those off
    the nodes, and each curve's domain row (a slice of all rows where the
    curves share one domain); per curve, its knots in x (as floats) and
    whether each panel's left knot lies inside its domain (flat over the
    curves); _hermite_map of the domain rows, and each curve's Bernstein
    coefficients (poly at the knots by Horner's rule, _shifted_bernstein
    between), with an axis for a stack.  A solve asks for it on every sweep."""
    nodes = np.frombuffer(node_bytes)
    domains = list(dict.fromkeys((a, b) for a, b, _ in curves))
    dom = np.array([domains.index((a, b)) for a, b, _ in curves])
    ends = np.array(domains)
    knots = np.minimum(np.maximum(nodes, ends[:, :1]), ends[:, 1:])
    inner = ((knots > ends[:, :1]) & (knots < ends[:, 1:]))[dom, :-1].ravel()
    off = np.nonzero(knots != nodes)
    xk = np.sqrt(knots)[dom]
    deg = max(len(poly) for _, _, poly in curves)
    q = np.array([poly + (0.0,) * (deg - len(poly)) for _, _, poly in curves]).T[..., None]
    gam = np.zeros_like(xk) + q[-1]
    for qk in q[-2::-1]:
        gam = gam * xk + qk
    hmap = _hermite_map(knots)[:, :, None]
    poly_b = np.array((gam[:, :-1], *_shifted_bernstein(q, xk), gam[:, 1:]))[:, None]
    for a in (knots, *off, dom, inner, hmap, poly_b):
        a.flags.writeable = False
    rows = dom if len(domains) > 1 else slice(None)
    return knots, off, rows, tuple(map(tuple, xk.tolist())), inner, hmap, poly_b


def _halves(c):
    """de Casteljau's split at 1/2: both halves' Bernstein coefficients."""
    left, right = [c[0]], [c[-1]]
    while len(c) > 1:
        c = [0.5 * (a + b) for a, b in zip(c, c[1:])]
        left.append(c[0])
        right.append(c[-1])
    return left, right[::-1]


def _bernstein_cells(nodes, ys, curves):
    """Refinement cells of declared curves in x = sqrt(t) for each iterate of a
    stack ys (k, 2, N): one sorted list per curve, yielded iterate by iterate.

    On each panel between knots (the nodes clipped to the curve's domain, with
    u's Hermite data at an end inside a node panel) the gap u - poly is a
    polynomial of degree 6 in x, exactly: u is a cubic in t = x**2 there.  Its
    Bernstein coefficients are _hermite_map of u's data minus poly's own, and
    their sign changes bound its roots there (Lane & Riesenfeld, BIT 21,
    1981).  One array pass over every iterate's panels skips each panel whose
    coefficients show no strict sign change.  A piece with one change and
    nonzero ends is an ITP cell that carries its panel's ends, width and
    binomially scaled coefficients, for _panel_gap; one with more, or with one
    and a zero end, is halved by de Casteljau (Farouki & Rajan, CAGD 4, 1987)
    until it has at most one, or is STEP_TOL wide and counts as one crossing
    at its midpoint.  An exact zero at an interior knot or at a split point is
    a crossing there.  A non-finite gap raises DomainError in place of the
    first iterate that has one, after those before it.
    """
    knots, off, rows, xk, inner, hmap, poly_b = _knot_frame(
        np.ascontiguousarray(nodes, dtype=float).tobytes(),
        tuple((c.a, c.b, c._poly_x) for c in curves))
    y = ys.transpose(1, 0, 2)[:, :, None]  # one row, unless a domain end is off the nodes
    if off[0].size:
        y = np.repeat(y, len(knots), axis=2)
        for j, yj in enumerate(ys):
            y[:, j, off[0], off[1]] = _value_and_slope(nodes, yj, knots[off])
    m, n = len(curves), len(xk[0]) - 1  # curves per iterate, panels per curve
    data = np.concatenate((y[..., :-1], y[..., 1:]))[:, None]  # (v_i, d_i, v_i+1, d_i+1)
    b = ((hmap * data).sum(0)[:, :, rows] - poly_b).reshape(7, -1)  # flat over the panels
    # cells for the iterates before the first non-finite gap, if any
    bad_at = b.shape[1] if np.isfinite(b).all() else int(np.isfinite(b).all(0).argmin())
    b = b[:, :bad_at - bad_at % (m * n)]
    cells = [[] for _ in range(b.shape[1] // n)]  # one per iterate and curve
    if not b[0].all():  # the gap at each panel's left knot (the map's first row is
        # exact): a zero at an interior knot is a crossing there
        for p in np.flatnonzero((b[0].reshape(-1, m * n) == 0.0) & inner).tolist():
            r, i = divmod(p, n)
            cells[r].append([xk[r % m][i], xk[r % m][i], 0.0, 0.0, 0, 0.0])
    ps = np.nonzero((b.min(0) < 0.0) & (b.max(0) > 0.0))[0]
    for p, coef in zip(ps.tolist(), b[:, ps].T.tolist()):
        r, i = divmod(p, n)
        lo, hi = xk[r % m][i], xk[r % m][i + 1]
        panel, out = (lo, hi, hi - lo, *map(operator.mul, _BINOMIAL_6, coef)), cells[r]
        pieces = [(lo, hi, coef)]
        while pieces:
            lo, hi, c = pieces.pop()
            signs = [v > 0.0 for v in c if v != 0.0]
            changes = sum(map(operator.ne, signs, signs[1:]))
            if not changes:
                continue
            w = hi - lo
            if changes == 1 and c[0] != 0.0 and c[-1] != 0.0:
                n_max = math.ceil(math.log2(w / STEP_TOL)) + 1
                out.append([lo, hi, c[0], c[-1], n_max, 0.2 / w, panel])
                continue
            mid = 0.5 * (lo + hi)
            if w <= STEP_TOL:
                out.append([mid, mid, 0.0, 0.0, 0, 0.0])
                continue
            left, right = _halves(c)
            if right[0] == 0.0:
                out.append([mid, mid, 0.0, 0.0, 0, 0.0])
            pieces += [(mid, hi, right), (lo, mid, left)]
    for out in cells:
        out.sort(key=lambda c: c[0])
    yield from (cells[j:j + m] for j in range(0, len(cells), m))
    if bad_at < len(ys) * m * n:  # the first knot where u is not finite, else the first panel
        bad = np.broadcast_to(~np.isfinite(y[:, bad_at // (m * n)]).all(0), knots.shape)[rows]
        r, i = np.argwhere(bad)[0] if bad.any() else divmod(bad_at % (m * n), n)
        raise _not_finite(curves[r], float(np.broadcast_to(knots[rows], (m, n + 1))[r, i]))


def _panel_gap(panel, s):
    """A declared cell's gap at s in x = sqrt(t), of degree 6 on its panel
    [lo, hi]: with tau = (s - lo) / (hi - lo), (1 - tau)**6 times Horner's rule
    in tau / (1 - tau) on the binomially scaled Bernstein coefficients."""
    lo, hi, w, d0, d1, d2, d3, d4, d5, d6 = panel
    e = hi - s
    r, z = (s - lo) / e, e / w
    z3 = z * z * z
    return ((((((d6 * r + d5) * r + d4) * r + d3) * r + d2) * r + d1) * r + d0) * z3 * z3


def find_crossings(nodes, y, curves):
    """Locate where u, of node data y on nodes, crosses each curve: one sorted
    list of crossing abscissae strictly inside the curve's domain per curve;
    for a stack y (k, 2, N), k such lists, each bitwise its iterate's alone.

    A declared curve (DiscontinuityCurve.poly) takes its cells from the
    Bernstein form of u - poly in x = sqrt(t) (_bernstein_cells, one pass over
    every iterate's declared curves, poly_in t or sqrt(t)), and never calls
    curve.value: every crossing is isolated, and a near-double pair that no
    piece STEP_TOL wide separates counts as one.  A curve that declares no
    poly (a user callable; every catalog curve declares one) is scanned, per
    iterate: u(s) - curve.value(s) on SCAN_PER_PANEL * (N - 1) equal cells of
    the curve's domain, u evaluated once per distinct domain, all gaps in one
    array pass; two crossings inside one scan cell are not seen.

    The cells are then refined by ITP steps, with u in floats: a scanned
    curve's live cells step together, one curve.value call per step, and a
    declared cell steps alone, on its own panel's polynomial (_panel_gap).
    Both take their points from _itp_point, strictly inside the bracket, and
    shrink it by _shrink.  ITP keeps bisection's bracket and worst case: a
    cell of width w takes at most ceil(log2(w / eps)) + 1 steps to a bracket
    <= eps wide (CROSSING_TOL = 1e-12 in t for a scanned cell, STEP_TOL =
    5e-13 in x for a declared one, which returns t = x**2), whose midpoint is
    returned, and converges superlinearly on a simple root (most of the step
    example's crossings take 8 or 9 steps, where bisection took 31).
    Crossings closer than 1e-11 are merged.  A non-finite gap, at a scan
    point, a knot or a step, raises DomainError naming the curve and t; a
    stack raises what its first failing iterate raises alone.
    """
    ys = np.asarray(y, dtype=float)
    declared = [k for k, c in enumerate(curves) if c.poly is not None]
    passes = _bernstein_cells(nodes, ys.reshape(-1, 2, len(nodes)), [curves[k] for k in declared])
    found = (lambda: dict(zip(declared, next(passes)))) if declared else dict
    if ys.ndim == 2:
        return _refined(nodes, ys, curves, found())
    return [_refined(nodes, y, curves, found()) for y in ys]  # in order, as alone


def _refined(nodes, y, curves, found):
    """find_crossings of one iterate y, given its declared curves' cells by index."""
    tol = CROSSING_TOL
    # [a, b, gap at a, gap at b, step budget, kappa1], and a declared cell's panel
    # for _panel_gap; b = a where the gap is 0
    cells = [found.get(k, []) for k in range(len(curves))]
    spans = [(c.a, c.b) for c in curves]  # 0 <= a < b <= 1 by DiscontinuityCurve
    live = [k for k, (lo, hi) in enumerate(spans) if hi - lo > tol and curves[k].poly is None]
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

    if any(cells[k] for k in live):
        nodes, vals, ders = nodes.tolist(), y[0].tolist(), y[1].tolist()

        def value(s):  # hermite_value at a float s
            i = min(max(bisect_right(nodes, s) - 1, 0), len(nodes) - 2)
            h = nodes[i + 1] - nodes[i]
            return hermite_value((vals, ders), i, h, *_basis((s - nodes[i]) / h))

    out = []
    for curve, cs in zip(curves, cells):
        in_x = curve.poly is not None  # a scanned curve's cells lie in t
        if in_x:  # a declared cell steps alone, on its own panel's polynomial
            for c in cs:
                j = 0
                while c[1] - c[0] > STEP_TOL:
                    x = _itp_point(j, *c[:6], STEP_TOL)
                    j += 1
                    _shrink(curve, c, x, _panel_gap(c[6], x), in_x)
        else:  # live cells step in lockstep, one curve.value call per step
            steps, j = cs, 0  # each live cell has taken j steps
            while steps := [c for c in steps if c[1] - c[0] > tol]:
                xs = [_itp_point(j, *c[:6], tol) for c in steps]
                j += 1
                for c, x, lv in zip(steps, xs, curve.value(np.array(xs)).tolist()):
                    _shrink(curve, c, x, value(x) - lv, in_x)
        merged = []
        for x in (0.5 * (c[0] + c[1]) for c in cs):
            x = x * x if in_x else x
            if not merged or x - merged[-1] > 10 * tol:
                merged.append(x)
        out.append(merged)
    return out


def find_curve_crossings(u: GridFunction, curve: DiscontinuityCurve):
    """find_crossings for one curve: its sorted list of crossing abscissae.
    Double crossings inside one scan cell of an undeclared curve are not
    resolved."""
    return find_crossings(u.nodes, (u.values, u.derivatives), (curve,))[0]
