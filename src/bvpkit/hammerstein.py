"""The integral operator Tu(t) = int_0^1 k(t,s) g(s) f(s, u(s)) ds, its
derivative, the fixed-point residual, and the sup-integral bounds M1/M2
that certify the ball self-mapping estimate.

The kernel is k(t,s) = left(min(t,s)) right(max(t,s)) / Gamma (kernel.py), so
int k(t,.) h and int dk/dt(t,.) h are closed forms in L(t) = int_0^t left*h
and R(t) = int_t^1 right*h.  One pass integrates both over all panels between
grid nodes, with every detected crossing of a declared discontinuity curve as
a breakpoint, so f(., u(.)) is integrated piecewise-smooth (for a weight
singular at 0, in x = sqrt(s) on every panel, where crossings within 1e-14 in
x merge).  model.find_crossings detects every crossing of a curve that
declares its polynomial in t or sqrt(t) (DiscontinuityCurve.poly), from the
Bernstein form of u - poly in sqrt(t); every catalog curve declares one.  A
user's undeclared curve is scanned, and two crossings in one scan cell are
missed, which the exact rule below would not notice.
T takes one round of the smallest exact Gauss rule where the weight's power
and f's degree are declared (ProblemSpec.exact_points), else the adaptive
pair.  Where no crossing splits a panel, its first round reads the points,
g, both factors and the Hermite basis from ProblemSpec.plan, built by the
first application of T to the spec from the nodes, the BC factors, the
weight and the rule alone, and T brings in u, as one (2, N) array of node
values and derivatives, f and the products; a split call samples them all
afresh.  apply_T and residual check u and pass that array; solve_picard
carries one through its sweeps.  The probe passes a stack of its samples,
(k, 2, N).  Under an exact rule T finds their crossings in one call and
integrates them in one quadrature round whose groups are every iterate's
panels, each split at its own iterate's crossings alone, so each image is
bitwise what that iterate alone gives; a stack whose round would pass
STACK_POINTS goes in chunks.  Under the pair, which refines each iterate on its
own, T takes them one at a time.  A solve samples g once on the plan's points
(768 for picard's linear f at N = 257, 3 per panel; 3072 at N = 129 for the
pair), then on every subpanel of a split sweep (130 points per sweep on the
step example, 3120 with the pair) and in the pair's refinement rounds.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BallViolation
from .kernel import left_factor, right_factor
from .model import GridFunction, ProblemSpec, c1_norm_of, find_crossings, hermite_value, norm_c1
from .quadrature import integrate_groups

# most points of an exact rule one stacked T integrates per call (a larger stack
# goes in chunks): its copies of the plan's rows cost page faults past it.  A probe
# stack of 5 or 9 iterates in one call against one at a time (2-core Xeon): 18-46 %
# faster for picard's f at N <= 257 and the step at N <= 1025 (up to 9216 points),
# slower for picard at N = 513 (+41-62 %) and 1025 (+130-144 %), the step at 2049 (+7-20 %)
STACK_POINTS = 2 ** 12


@dataclass(frozen=True)
class BoundsReport:
    """Sup-over-t integrals of k*|g| (m1) and |dk/dt|*|g| (m2), and int |g|."""

    m1: float
    m2: float
    argmax_t_m1: float
    argmax_t_m2: float
    l1_norm: float
    quad_tol: float

    @property
    def m_total(self) -> float:
        return self.m1 + self.m2


def in_ball(spec: ProblemSpec, norm: float, margin: float = 0.0) -> bool:
    """The one C1-ball test on a C1 norm: norm + margin <= R, up to the slack
    10*quad_tol + 1e-12 that separates ball violations from quadrature noise."""
    return norm + margin <= spec.radius + 10.0 * spec.quad_tol + 1e-12


def _node_data(spec: ProblemSpec, u: GridFunction, margin: float = 0.0) -> np.ndarray:
    """u's node data (values, derivatives) as one (2, N) array, once checked:
    u lives on spec.nodes and passes in_ball with the margin."""
    if u.nodes is not spec.nodes and not np.array_equal(u.nodes, spec.nodes):
        raise ValueError("u does not live on spec.nodes")
    if not in_ball(spec, norm := norm_c1(u), margin):
        raise BallViolation(f"||u||{f' + {margin:.6g}' if margin else ''} = {norm + margin:.6g}"
                            f" exceeds the ball radius R = {spec.radius:.6g}")
    return np.array((u.values, u.derivatives))


def _running_integrals(spec: ProblemSpec, both, breaks=(), edges=None, plan=None,
                       stack=False):
    """L[i] = int_{e_0}^{e_i} left*h and R[i] = int_{e_i}^{e_m} right*h at the
    edges e_0 < ... < e_m (default: the grid nodes).

    One quadrature call integrates both(s) = (left*h, right*h), or both(s,
    *sample) given plan = spec.plan, over every panel [e_i, e_{i+1}], its
    points in blocks of one panel each, breaks as breakpoints, each panel to
    quad_tol * Gamma / ((alpha+beta+gamma+delta) * (N-1)) for N grid nodes.  A
    singular weight is taken in x = sqrt(s - e_0) on every panel (harmless from
    e_0 > 0, where g is smooth), and breakpoints within 1e-14 in x merge.
    Node values and derivatives combine L and R with coefficients of total
    size at most (alpha+beta+gamma+delta) / Gamma, and L, R sum at most N-1
    panels, so each meets quad_tol, as one node integral over [0, 1] would,
    apart from rounding; a quad_tol below that rounding (the panels' summed
    floors, scaled the same way) raises MaxDepthExceeded.  Given stack, breaks
    holds one breakpoint set per iterate, and L and R come as one row each.
    """
    p = spec.params
    edges = spec.nodes if edges is None else edges
    tol = spec.quad_tol * p.gamma_const / (
        (p.alpha + p.beta + p.gamma + p.delta) * (spec.grid_size - 1))
    left, right = integrate_groups(both, edges, breaks, spec.weight.singular_left, tol, plan,
                                   stack)
    if not stack:
        return (np.concatenate(([0.0], np.cumsum(left))),
                np.concatenate((np.cumsum(right[::-1])[::-1], [0.0])))
    zero = np.zeros((left.shape[0], 1))
    return (np.concatenate((zero, np.cumsum(left, axis=1)), axis=1),
            np.concatenate((np.cumsum(right[:, ::-1], axis=1)[:, ::-1], zero), axis=1))


def _closed_forms(spec: ProblemSpec, t, left, right):
    """int k(t,s) h(s) ds and int dk/dt(t,s) h(s) ds from L(t) and R(t)."""
    p = spec.params
    return ((right_factor(p, t) * left + left_factor(p, t) * right) / p.gamma_const,
            (p.alpha * right - p.gamma * left) / p.gamma_const)


def apply_T(spec: ProblemSpec, u: GridFunction) -> GridFunction:
    """One application of the integral operator: node values and derivatives
    from the running integrals of g*f(., u) against both kernel factors.

    Requires in_ball of ||u|| so the pointwise bound on f applies along u,
    and raises BallViolation otherwise; u must live on spec.nodes, since the
    quadrature panels between them are where u is evaluated once per block.
    """
    return GridFunction(spec.nodes, *_apply_T(spec, _node_data(spec, u))[0])


def _apply_T(spec: ProblemSpec, y: np.ndarray):
    """T's node data from node data y that passed _node_data or the solver's
    ball test, and the crossings of the declared curves, which split its
    panels and which solve_picard keeps; a non-finite image raises ValueError.

    A stack y of shape (k, 2, N) gives the k images as one (k, 2, N) array and
    the k crossing lists, from one find_crossings call per chunk.  Under an
    exact rule one quadrature call integrates a chunk of up to STACK_POINTS
    first-round points, in the rule's one round; its groups are every
    iterate's panels, each split at its own iterate's crossings alone.  Under
    the adaptive pair T takes one iterate at a time.  Either way each image,
    and each error raised, is bitwise what y[j] alone gives."""
    if y.ndim == 3:
        return _apply_T_stack(spec, y)
    f = spec.nonlinearity.eval

    def both(s, g, left, right, *basis):
        hs = g * f(s.reshape(g.shape), hermite_value(y, *basis))
        return np.array((left * hs, right * hs))

    crossings = find_crossings(spec.nodes, y, spec.nonlinearity.curves)
    breaks = tuple(x for xs in crossings for x in xs)  # _subpanels sorts them
    left, right = _running_integrals(spec, both, breaks, plan=spec.plan)
    return _checked(np.array(_closed_forms(spec, spec.nodes, left, right))), crossings


def _apply_T_stack(spec: ProblemSpec, ys: np.ndarray):
    points = spec.exact_points  # the pair refines each iterate on its own: one at a time
    per = 1 if points is None else max(1, STACK_POINTS // ((spec.grid_size - 1) * points))
    if len(ys) > per:
        parts = [_apply_T_stack(spec, ys[j:j + per]) for j in range(0, len(ys), per)]
        return np.concatenate([ty for ty, _ in parts]), [c for _, cs in parts for c in cs]
    if len(ys) == 1:  # the single path, which takes no copy of the plan's rows
        ty, crossings = _apply_T(spec, ys[0])
        return ty[None], [crossings]
    f, size = spec.nonlinearity.eval, spec.grid_size
    flat = ys.transpose(1, 0, 2).reshape(2, -1)  # iterate j's node i at j*N + i

    def both(s, g, left, right, i, h, b0, b1, b2, b3, copy):
        hs = g * f(s.reshape(g.shape), hermite_value(flat, i + size * copy, h, b0, b1, b2, b3))
        return np.array((left * hs, right * hs))

    crossings = find_crossings(spec.nodes, ys, spec.nonlinearity.curves)
    breaks = [tuple(x for xs in c for x in xs) for c in crossings]
    left, right = _running_integrals(spec, both, breaks, plan=spec.plan, stack=True)
    return _checked(np.stack(_closed_forms(spec, spec.nodes, left, right), axis=1)), crossings


def _checked(ty):
    if not np.isfinite(ty).all():
        raise ValueError("grid function entries must be finite")
    return ty


def residual(spec: ProblemSpec, u: GridFunction) -> float:
    """Fixed-point defect ||u - Tu|| in the discrete C1 norm."""
    y = _node_data(spec, u)
    return c1_norm_of(*(y - _apply_T(spec, y)[0]))


def bounds_report(spec: ProblemSpec) -> BoundsReport:
    """M1 = sup_t int k(t,.)|g|, M2 = sup_t int |dk/dt(t,.)| |g| and
    int_0^1 |g|, from the running integrals L, R of |g| against the two
    kernel factors.

    M1 = (right L + left R) / Gamma is concave, since M1' = (alpha R - gamma L)
    / Gamma and M1'' = -|g| <= 0 (kernel.py): its sup lies within one node of
    the best node.  Each round evaluates M1 and the monotone M1' at up to 32
    equispaced points of that bracket from one quadrature call and keeps the
    cell where M1' changes sign, until the bracket is 1e-7 wide.  Where M1'
    changes sign over the bracket, the call also takes the root of the
    chord of M1' and the points 4e-8 either side of it, those inside the
    equispaced points' span: M1' is linear where g is constant, so one round
    then closes the bracket (on the divisor example's 1/sqrt(s) weight it takes
    two).  M1 is the largest value the node pass and the search evaluated.

    M2 = (gamma L + alpha R) / Gamma has M2' = |g|(gamma beta - alpha gamma
    - alpha delta + 2 alpha gamma t) / Gamma, which changes sign at most once,
    from - to +: M2 peaks at t = 0 or t = 1 (ties go to 0).  And
    int_0^1 |g| = M2(0) + M2(1) (kernel.py), so H1 needs no integral of its own.
    """
    p = spec.params

    def abs_g(s):
        h = np.abs(spec.weight.eval(s))
        return np.stack((left_factor(p, s) * h, right_factor(p, s) * h))

    nodes = spec.nodes
    left, right = _running_integrals(spec, abs_g)
    m1_nodes, slopes = _closed_forms(spec, nodes, left, right)
    i = int(np.argmax(m1_nodes))
    j, jb = max(i - 1, 0), min(i + 1, nodes.size - 1)
    t1, m1 = nodes[i], m1_nodes[i]

    a, b, s_a, s_b = nodes[j], nodes[jb], slopes[j], slopes[jb]
    while b - a > 1e-7:
        # M1, M1' at up to 32 equispaced points of [a, b] from one quadrature call,
        # carrying L and R on from node j; keep the best M1 and the M1' sign change
        ts = np.linspace(a, b, min(33, int(np.ceil((b - a) / 1e-7))) + 1)[1:-1]
        if s_a > 0.0 >= s_b:
            # M1' is linear where g is constant: its chord's root, and a point
            # either side of it, close the bracket within the same call
            x = a + s_a * (b - a) / (s_a - s_b)
            chord = np.array((x - 4e-8, x, x + 4e-8))
            ts = np.sort(np.concatenate((ts, chord[(chord > ts[0]) & (chord < ts[-1])])))
        dl, dr = _running_integrals(spec, abs_g, edges=(nodes[j], *ts))
        vals, slope = _closed_forms(spec, ts, left[j] + dl[1:], right[j] - (dr[0] - dr[1:]))
        t1, m1 = max((t1, m1), *zip(ts, vals), key=lambda tm: tm[1])
        k = int(np.argmax(np.append(slope <= 0.0, True)))
        a, s_a = (ts[k - 1], slope[k - 1]) if k else (a, s_a)
        b, s_b = (ts[k], slope[k]) if k < ts.size else (b, s_b)

    m2_0, m2_1 = p.alpha * right[0] / p.gamma_const, p.gamma * left[-1] / p.gamma_const
    t2, m2 = (0.0, m2_0) if m2_0 >= m2_1 else (1.0, m2_1)
    return BoundsReport(m1=float(m1), m2=float(m2), argmax_t_m1=float(t1),
                        argmax_t_m2=t2, l1_norm=float(m2_0 + m2_1), quad_tol=spec.quad_tol)
