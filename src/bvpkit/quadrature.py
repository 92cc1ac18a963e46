"""Adaptive, or declared-exact, Gauss-Legendre integration on subintervals of [0, 1].

integrate_groups integrates a k-component integrand over every group
[e_0, e_1], ..., [e_{m-1}, e_m] at once; integrate() is its one-group case.
It integrates in x = s or, given singular_left, in x = sqrt(s - e_0) on every
group, fn(e_0 + x**2) * 2x: s**(k - 1/2) becomes 2x**(2k).  Breakpoints, in x
too, split groups into subpanels up front (cuts within 1e-14 merged).  A
subpanel's error estimate is the excess of |I16 - I8| (16-point rule, 8-point
reference) over its rounding floor, eps times the integral of |f|.  Each round
is one integrand call on every new subpanel: a group is done once each
component's summed estimate is <= tol; in the others every subpanel above
tol / (its group's subpanel count) is bisected in x.  Floors that sum past
m*tol (rounding alone uses up the total asked for), a group still open after
MAX_DEPTH rounds, or a round that would take the call past MAX_GROWTH times
its first round's subpanels plus 2*MAX_DEPTH raise MaxDepthExceeded: the
integrand is called at most MAX_DEPTH + 1 times, and its work and memory stay
within that subpanel budget.  A sample that is not finite, or a subpanel
whose summed |f| overflows with every value finite, raises NonFiniteIntegrand
naming the subpanel.  numpy's floating-point warnings are off for the whole
call (its sampling, integrand and sums), so such a value reaches the caller
as that error alone.

Integrands map a flat array of points to one row of values per component.
The points come in consecutive blocks of BLOCK, one block per subpanel (its
16 Gauss-Legendre points, then its 8), and each block lies inside one group,
so an integrand may look up anything that depends on the group once per
block (s.reshape(-1, BLOCK) gives one row per block).

An integrand called again and again on the same groups can be given a plan
(make_plan): the points of round 1 of every group and sample(s), the
integrand's inputs that depend on the points alone, taken there once.  For T
(ProblemSpec.plan) those are g, both kernel factors and the Hermite basis.
Round 1 reads the plan's rows when the call splits no group, else samples
every subpanel afresh as make_plan did (the same bits); later rounds sample
all theirs, and the loop, its checks and its budget are the same.  A plan
may name an n-point Gauss rule, exact to degree 2n - 1, in place of the
pair: blocks of n points, error 0, one round (the checks on non-finite
values and the rounding floor stay), exact where fn is a polynomial of
degree < 2n in x between breakpoints (Davis & Rabinowitz 1984).

A stack integrates n copies of the groups in the one round of a plan's
exact rule, one breakpoint set per copy (T applied to n iterates at once,
each split at its own crossings): the integrand gets each row's copy as one
more argument and is called once on every copy's rows.  Each copy's rows
are weighed, and its rounding floor checked, on their own (a BLAS product
rounds a row by its place among the rows it is given), so every copy gets
the bits a call on it alone gets, and a stack raises what its first failing
copy alone raises.  The adaptive pair refines each group on its own
schedule, so it takes no stacks.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import MaxDepthExceeded, NonFiniteIntegrand

_NODES8, _WEIGHTS8 = np.polynomial.legendre.leggauss(8)
_NODES16, _WEIGHTS16 = np.polynomial.legendre.leggauss(16)
_NODES = np.concatenate((_NODES16, _NODES8))
BLOCK = _NODES.size  # integrand points per subpanel of the adaptive pair

MAX_DEPTH = 40
# subpanels one call may sample, per subpanel of its first round; the
# 2*MAX_DEPTH on top lets even a one-group call chase one jump, kink or
# endpoint singularity (two new subpanels per level) through every level
MAX_GROWTH = 32
_EPS = np.finfo(float).eps


@dataclass
class IntegrandSpec:
    """An integrand together with what the quadrature needs to know about it.

    breakpoints outside the integration range are ignored at integrate()
    time; duplicates (with singular_left, those within 1e-14 in x = sqrt(s - a))
    are merged.  tol is the absolute error target for the whole integral.
    """

    integrand: callable
    breakpoints: tuple = field(default_factory=tuple)
    singular_left: bool = False
    tol: float = 1e-10

    def __post_init__(self):
        if not self.tol > 0:  # NaN fails too
            raise ValueError(f"tol must be > 0, got {self.tol}")


def _subpanels(edges, breakpoints):
    """Subpanel ends and group index after splitting each group at the
    breakpoints inside it (all in x); one within 1e-14 of the previous cut or
    of the group's right end is dropped."""
    m = edges.size - 1
    cuts, last = [], {}
    for x in sorted({float(x) for x in breakpoints}):
        i = int(np.searchsorted(edges, x, side="right")) - 1
        if 0 <= i < m and x - last.get(i, edges[i]) > 1e-14 and edges[i + 1] - x > 1e-14:
            cuts.append(x)
            last[i] = x
    if not cuts:
        return edges[:-1], edges[1:], np.arange(m)
    pts = np.sort(np.concatenate((edges, cuts)))
    return pts[:-1].copy(), pts[1:].copy(), np.searchsorted(edges, pts[:-1], side="right") - 1


def _variable(edges, breakpoints, singular_left):
    """edges and breakpoints in x, and e_0: x = sqrt(s - e_0) given
    singular_left, else x = s and e_0 is None."""
    x = np.asarray(edges, dtype=float)
    if not singular_left:
        return x, breakpoints, None
    e0 = x[0]
    return np.sqrt(x - e0), np.sqrt(np.clip(np.asarray(breakpoints) - e0, 0.0, None)), e0


def _s(x, e0):
    return x if e0 is None else e0 + x * x


@lru_cache(maxsize=None)
def _gauss_rule(points):
    """Nodes and weights of the points-point Gauss rule, exact to degree
    2*points - 1; for None, the 16-point rule's, the 8-point nodes appended."""
    return (_NODES, _WEIGHTS16) if points is None else np.polynomial.legendre.leggauss(points)


def _gauss(lo, hi, points):
    return (0.5 * (hi + lo))[:, None] + (0.5 * (hi - lo))[:, None] * _gauss_rule(points)[0]


def _sampled(lo, hi, e0, sample, points):
    """(s,), or (s, *sample(s)) given sample: the points of the subpanels
    [lo, hi] in x, one row per subpanel, mapped to s."""
    s = _s(_gauss(lo, hi, points), e0)
    return (s,) if sample is None else (s, *sample(s))


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def make_plan(sample, edges, singular_left=False, points=None):
    """integrate_groups's plan on edges: sample, (s, *sample(s)) at the round-1
    points of every group [edges[i], edges[i+1]] left whole, and points, the
    size of an exact rule (None: the adaptive pair)."""
    x, _, e0 = _variable(edges, (), singular_left)
    return sample, _sampled(x[:-1], x[1:], e0, sample, points), points


def _interval(lo, hi, e0):
    """A subpanel's range in s."""
    return f"[{_s(lo, e0)}, {_s(hi, e0)}]"


def _values(fn, lo, hi, e0, sample, points, rows=None):
    """fn's values, shape (k, P, points or BLOCK), at the Gauss points of the
    P subpanels [lo, hi] in x from one call of fn (rows are _sampled there,
    unless given), times ds/dx = 2x in x = sqrt(s - e_0)."""
    s, *sampled = _sampled(lo, hi, e0, sample, points) if rows is None else rows
    f = np.asarray(fn(s.ravel(), *sampled), dtype=float).reshape(-1, *s.shape)
    return f if e0 is None else f * (2.0 * _gauss(lo, hi, points))


def _weigh(f, lo, hi, e0, points):
    """(integral, error estimate, rounding floor), each of shape (k, P), from
    _values f on the P subpanels [lo, hi]: the 16-point rule and its excess
    over the 8-point one, or the exact points-point rule and None."""
    if not np.isfinite(f).all():
        i = int(np.argmin(np.isfinite(f).all(axis=(0, 2))))
        raise NonFiniteIntegrand(f"integrand not finite on {_interval(lo[i], hi[i], e0)}")
    half = 0.5 * (hi - lo)
    weights = _gauss_rule(points)[1]
    val = half * (f[..., :weights.size] @ weights)
    floor = _EPS * half * (np.abs(f[..., :weights.size]) @ weights)
    if points is not None:
        return val, None, floor
    err = np.maximum(np.abs(val - half * (f[..., 16:] @ _WEIGHTS8)) - floor, 0.0)
    return val, err, floor


def _group_sums(grp, rows, m):
    return np.array([np.bincount(grp, row, minlength=m) for row in rows])


def _floor_error(rounding, floor, lo, hi, e0, total):
    if not np.isfinite(rounding).all():  # a sum of |f| overflowed
        i = int(np.argmax(floor.max(axis=0)))
        return NonFiniteIntegrand(
            f"integral of |integrand| overflows on {_interval(lo[i], hi[i], e0)}")
    return MaxDepthExceeded(
        f"rounding floor {rounding.max():.3e} above the total tol {total:.3e}: "
        f"no depth up to {MAX_DEPTH} bisection levels can meet it")


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def integrate_groups(fn, edges, breakpoints=(), singular_left=False, tol=1e-10,
                     plan=None, stack=False):
    """Integrals of fn over each group [edges[i], edges[i+1]], shape (k, m)
    for a k-component integrand (k = 1 when fn returns one flat array), each
    component of each group to absolute tolerance tol.

    fn gets a flat array of BLOCK points per subpanel, each block inside one
    group; each component's values may come in any shape with one value per
    point, such as (P, BLOCK) from points taken as rows.  A jump of fn must
    be an edge or a breakpoint: across an undeclared one the result can miss
    tol unreported (a unit step at 1/3 comes out 3.7e-8 off at tol 1e-8).

    Given plan = make_plan(sample, edges, singular_left, points), fn is called
    as fn(s, *sample(s)) (fn(s) for sample None); round 1 reads the plan's rows
    unless a group is split; a plan's points replace BLOCK and the pair by the
    points-point Gauss rule, whose one round has error 0.

    Given stack, the plan must name an exact rule (ValueError otherwise),
    breakpoints is a sequence of n breakpoint sets, and the call integrates
    n copies of every group in that rule's one round, shape (k, n, m): copy
    j's groups are split at breakpoints[j] alone, and fn gets, after its
    other arguments, each block's copy j as a (P, 1) integer column.  Each
    copy's integrals and checks are its own, the same bits and errors as a
    call with breakpoints[j] alone: a stack raises what its first copy to
    fail them raises."""
    sample, rows, points = plan if plan is not None else (None, None, None)
    if stack and points is None:
        raise ValueError("a stack needs a plan that names an exact rule")
    x, cuts, e0 = _variable(edges, () if stack else breakpoints, singular_left)
    m = x.size - 1
    if stack:  # group j*m + i is group i of copy j; its rows carry j as a last column
        parts = [_subpanels(x, _variable(edges, b, singular_left)[1]) for b in breakpoints]
        lo, hi, grp = (np.concatenate(a) for a in zip(
            *((lo, hi, g + j * m) for j, (lo, hi, g) in enumerate(parts))))
    else:
        lo, hi, grp = panels = _subpanels(x, cuts)
        parts = [panels]
    if rows is not None and lo.size > len(parts) * m:  # a split group: sample afresh
        rows = _sampled(lo, hi, e0, sample, points)
    elif stack:
        rows = tuple(a.take(grp % m, axis=0) for a in rows)
    if stack:
        rows = (*rows, (grp // m)[:, None])
    f = _values(fn, lo, hi, e0, sample, points, rows)
    if points is not None:  # an exact rule's one round has error 0
        out, start = [], 0
        for lo, hi, grp in parts:
            # a BLAS product rounds a row by its place among the rows it is given,
            # so each copy's rows are weighed alone, as a call on that copy weighs them
            val, _, floor = _weigh(f[:, start:start + lo.size], lo, hi, e0, points)
            start += lo.size
            rounding = floor.sum(axis=1)
            if (rounding > m * tol).any():
                raise _floor_error(rounding, floor, lo, hi, e0, m * tol)
            out.append(val if grp.size == m else _group_sums(grp, val, m))
        return np.stack(out, axis=1) if stack else out[0]
    estimates = _weigh(f, lo, hi, e0, points)
    first = sampled = lo.size
    out = np.zeros((estimates[0].shape[0], m))
    floor_done = np.zeros(out.shape[0])  # summed floors of the finished groups
    for level in range(MAX_DEPTH + 1):
        lo, hi, grp = panels
        val, err, floor = estimates
        rounding = floor_done + floor.sum(axis=1)
        if (rounding > m * tol).any():
            raise _floor_error(rounding, floor, lo, hi, e0, m * tol)
        err_sum = _group_sums(grp, err, m)
        done = (err_sum <= tol).all(axis=0)
        # each group's sum lands once: 0.0 is added to its 0.0 before it is done,
        # and afterwards it has no subpanels, so 0.0 is all it adds
        out += np.where(done, _group_sums(grp, val, m), 0.0)
        live = ~done[grp]
        if not live.any():
            return out
        split = live & np.any(err > tol / np.bincount(grp, minlength=m)[grp], axis=0)
        sampled += 2 * np.count_nonzero(split)
        if level == MAX_DEPTH or sampled > MAX_GROWTH * first + 2 * MAX_DEPTH:
            i = int(np.argmax(np.where(live, err.max(axis=0), -1.0)))
            budget = "" if level == MAX_DEPTH else (
                f" (the next round would take the call to {sampled} subpanels, past "
                f"{MAX_GROWTH} times its first round's {first} plus {2 * MAX_DEPTH})")
            raise MaxDepthExceeded(
                f"error estimate {err_sum[:, grp[i]].max():.3e} still above tol {tol:.3e} "
                f"after {level} bisection levels near "
                f"{_interval(lo[i], hi[i], e0)}{budget}")
        floor_done += floor[:, ~live].sum(axis=1)
        keep = live & ~split
        mid = 0.5 * (lo + hi)
        halves = (np.concatenate((lo[split], mid[split])),
                  np.concatenate((mid[split], hi[split])), np.tile(grp[split], 2))
        panels = tuple(np.concatenate((a[keep], b)) for a, b in zip(panels, halves))
        estimates = tuple(np.concatenate((a[:, keep], b), axis=1) for a, b in zip(
            estimates, _weigh(_values(fn, *halves[:2], e0, sample, points), *halves[:2], e0,
                              points)))


def integrate(spec: IntegrandSpec, a: float, b: float) -> float:
    """Integrate spec.integrand over [a, b] to absolute tolerance spec.tol.

    Raises MaxDepthExceeded when the tolerance cannot be met within
    MAX_DEPTH bisection levels (the usual symptom of an undeclared or
    non-integrable singularity, or of a tol below rounding) and
    NonFiniteIntegrand when a sample away from the declared singular
    endpoint is NaN or infinite.
    """
    if not 0.0 <= a <= b <= 1.0:
        raise ValueError(f"need 0 <= a <= b <= 1, got a={a}, b={b}")
    if b - a <= 1e-15:
        return 0.0
    return float(integrate_groups(spec.integrand, (a, b), spec.breakpoints,
                                  spec.singular_left, spec.tol)[0, 0])
