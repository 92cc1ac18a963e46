"""Adaptive Gauss-Legendre integration on subintervals of [0, 1].

integrate_groups integrates a k-component integrand over every group
[e_0, e_1], ..., [e_{m-1}, e_m] at once; integrate() is its one-group case.
Breakpoints split groups into subpanels up front; s = e_0 + w*tau**2 removes
an inverse-square-root singularity at e_0.  A subpanel's error estimate is
the excess of |I16 - I8| (16-point rule, 8-point reference) over its rounding
floor, eps times the integral of |f|.  Each round is one integrand call on
every new subpanel: a group is done once each component's summed estimate is
<= tol; in the others every subpanel above tol / (its group's subpanel count)
is bisected.  Floors that sum past m*tol (rounding alone uses up the total
asked for), a group still open after MAX_DEPTH rounds, or a round that would
take the call past MAX_GROWTH times its first round's subpanels plus
2*MAX_DEPTH raise MaxDepthExceeded: the integrand is called at most
MAX_DEPTH + 1 times, and its work and memory stay within that subpanel budget.
A sample that is not finite, or a subpanel whose summed |f| overflows with
every value finite, raises NonFiniteIntegrand naming the subpanel.  numpy's
floating-point warnings are off for the whole call (its sampling, integrand
and sums), so such a value reaches the caller as that error alone.

Integrands map a flat array of points to one row of values per component.
The points come in consecutive blocks of BLOCK, one block per subpanel (its
16 Gauss-Legendre points, then its 8), and each block lies inside one group,
so an integrand may look up anything that depends on the group once per
block (s.reshape(-1, BLOCK) gives one row per block).

An integrand called again and again on the same groups can be given a plan
(make_plan): the points of round 1 of every group and sample(s), the
integrand's inputs that depend on the points alone, taken there once.  For T
(ProblemSpec.plan) those are g, both kernel factors and the Hermite basis.
Round 1 then samples only the subpanels of split groups, later rounds sample
all theirs, and the loop, its checks and its budget are the same.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import MaxDepthExceeded, NonFiniteIntegrand

_NODES8, _WEIGHTS8 = np.polynomial.legendre.leggauss(8)
_NODES16, _WEIGHTS16 = np.polynomial.legendre.leggauss(16)
_NODES = np.concatenate((_NODES16, _NODES8))
BLOCK = _NODES.size  # integrand points per subpanel

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
    time; duplicates are merged.  tol is the absolute error target for the
    whole integral.
    """

    integrand: callable
    breakpoints: tuple = field(default_factory=tuple)
    singular_left: bool = False
    tol: float = 1e-10

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError(f"tol must be > 0, got {self.tol}")


def _subpanels(edges, breakpoints):
    """Subpanel ends and group index after splitting each group at the
    breakpoints inside it; one within 1e-14 of the previous cut or of the
    group's right end is dropped."""
    m = edges.size - 1
    cuts, last = [], {}
    for x in sorted({float(x) for x in breakpoints}):
        i = int(np.searchsorted(edges, x, side="right")) - 1
        if 0 <= i < m and x - last.get(i, edges[i]) > 1e-14 and edges[i + 1] - x > 1e-14:
            cuts.append(x)
            last[i] = x
    pts = np.sort(np.concatenate((edges, cuts)))
    return pts[:-1].copy(), pts[1:].copy(), np.searchsorted(edges, pts[:-1], side="right") - 1


def _first_round(edges, breakpoints, singular_left):
    """Round 1's subpanels (lo, hi, group, substituted), s0 and width; the
    substituted segment is integrated in tau over [0, 1]."""
    lo, hi, grp = _subpanels(edges, breakpoints)
    s0, width = edges[0], hi[0] - lo[0]
    sq = np.zeros(lo.size, dtype=bool)
    if singular_left:
        sq[0], lo[0], hi[0] = True, 0.0, 1.0
    return (lo, hi, grp, sq), s0, width


def _gauss(lo, hi):
    return (0.5 * (hi + lo))[:, None] + (0.5 * (hi - lo))[:, None] * _NODES


def _sampled(lo, hi, sq, s0, width, sample):
    """(s,), or (s, *sample(s)) given sample: the points of the subpanels
    [lo, hi], one row of BLOCK each, substituted ones mapped to s."""
    x = _gauss(lo, hi)
    s = np.where(sq[:, None], s0 + width * x * x, x) if sq.any() else x
    return (s,) if sample is None else (s, *sample(s))


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def make_plan(sample, edges, singular_left=False):
    """integrate_groups's plan on edges: sample and (s, *sample(s)) at the
    round-1 points of every group [edges[i], edges[i+1]] left whole."""
    (lo, hi, _, sq), s0, width = _first_round(np.asarray(edges, dtype=float), (),
                                              singular_left)
    return sample, _sampled(lo, hi, sq, s0, width, sample)


def _interval(lo, hi, sq, s0, width):
    """A subpanel's range in s (a substituted one is kept in tau)."""
    return f"[{s0 + width * lo * lo}, {s0 + width * hi * hi}]" if sq else f"[{lo}, {hi}]"


def _rule(fn, lo, hi, sq, s0, width, sample, rows=None):
    """(I16, error estimate, rounding floor), each of shape (k, P), for the P
    subpanels [lo, hi] from one call of fn on all their Gauss points; rows
    are _sampled there, unless given."""
    s, *sampled = _sampled(lo, hi, sq, s0, width, sample) if rows is None else rows
    f = np.asarray(fn(s.ravel(), *sampled), dtype=float).reshape(-1, *s.shape)
    if sq.any():
        f = f * np.where(sq[:, None], 2.0 * width * _gauss(lo, hi), 1.0)
    if not np.isfinite(f).all():
        i = int(np.argmin(np.isfinite(f).all(axis=(0, 2))))
        raise NonFiniteIntegrand(
            f"integrand not finite on {_interval(lo[i], hi[i], sq[i], s0, width)}")
    half = 0.5 * (hi - lo)
    i16 = half * (f[..., :16] @ _WEIGHTS16)
    floor = _EPS * half * (np.abs(f[..., :16]) @ _WEIGHTS16)
    err = np.maximum(np.abs(i16 - half * (f[..., 16:] @ _WEIGHTS8)) - floor, 0.0)
    return i16, err, floor


def _group_sums(grp, rows, m):
    return np.stack([np.bincount(grp, row, minlength=m) for row in rows])


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def integrate_groups(fn, edges, breakpoints=(), singular_left=False, tol=1e-10,
                     plan=None):
    """Integrals of fn over each group [edges[i], edges[i+1]], shape (k, m)
    for a k-component integrand (k = 1 when fn returns one flat array), each
    component of each group to absolute tolerance tol.

    fn gets a flat array of BLOCK points per subpanel, each block inside one
    group; each component's values may come in any shape with one value per
    point, such as (P, BLOCK) from points taken as rows.  A jump of fn must
    be an edge or a breakpoint: across an undeclared one the result can miss
    tol unreported (a unit step at 1/3 comes out 3.7e-8 off at tol 1e-8).

    Given plan = make_plan(sample, edges, singular_left), fn is called as
    fn(s, *sample(s)), and round 1 reads the plan's rows for unsplit groups."""
    edges = np.asarray(edges, dtype=float)
    m = edges.size - 1
    panels, s0, width = _first_round(edges, breakpoints, singular_left)
    lo, hi, grp, sq = panels
    sample, rows = plan if plan is not None else (None, None)
    # a split group's rows are its own subpanels', merged into the plan's so that g is
    # sampled there alone: with a scalar-only g (looped by vectorized), a step-crossing
    # solve (N = 129) took 8-9 ms with the merge, 25-28 ms without it (2-core Xeon)
    if plan is not None and lo.size > m:
        cut = np.bincount(grp, minlength=m)[grp] > 1
        rows = tuple(a.take(grp, axis=0) for a in rows)
        for a, new in zip(rows, _sampled(lo[cut], hi[cut], sq[cut], s0, width, sample)):
            a[cut] = new
    estimates = _rule(fn, lo, hi, sq, s0, width, sample, rows)
    first = sampled = lo.size
    out = np.zeros((estimates[0].shape[0], m))
    floor_done = np.zeros(out.shape[0])  # summed floors of the finished groups
    for level in range(MAX_DEPTH + 1):
        lo, hi, grp, sq = panels
        val, err, floor = estimates
        rounding = floor_done + floor.sum(axis=1)
        if np.any(rounding > m * tol):
            if not np.isfinite(rounding).all():  # a sum of |f| overflowed
                i = int(np.argmax(floor.max(axis=0)))
                where = _interval(lo[i], hi[i], sq[i], s0, width)
                raise NonFiniteIntegrand(f"integral of |integrand| overflows on {where}")
            raise MaxDepthExceeded(
                f"rounding floor {rounding.max():.3e} above the total tol {m * tol:.3e}: "
                f"no depth up to {MAX_DEPTH} bisection levels can meet it")
        err_sum = _group_sums(grp, err, m)
        done = np.all(err_sum <= tol, axis=0)
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
                f"{_interval(lo[i], hi[i], sq[i], s0, width)}{budget}")

        floor_done += floor[:, ~live].sum(axis=1)
        keep = live & ~split
        mid = 0.5 * (lo + hi)
        halves = (np.concatenate((lo[split], mid[split])),
                  np.concatenate((mid[split], hi[split])),
                  *(np.tile(a[split], 2) for a in (grp, sq)))
        panels = tuple(np.concatenate((a[keep], b)) for a, b in zip(panels, halves))
        estimates = tuple(np.concatenate((a[:, keep], b), axis=1) for a, b in zip(
            estimates, _rule(fn, halves[0], halves[1], halves[3], s0, width, sample)))


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
