"""Executable certification of the existence-theorem hypotheses.

The checks are numerical evidence, not proofs: the weight's integral and the
ball condition come from one quadrature pass (the sup-integrals M1, M2 and
int |g| = M2(0) + M2(1)), the pointwise bound on f from sampling, and each
declared discontinuity curve is classified as viable (it solves the ODE) or
inviable (a uniform margin pushes nearby solutions away).  A finite-sample
convex-hull probe bounds the distance from u to the convexified operator image
from above.
"""

import math
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .errors import QuadratureError
from .hammerstein import BoundsReport, _apply_T, _node_data, bounds_report
from .model import (DiscontinuityCurve, GridFunction, ProblemSpec, Weight, _int_at_least,
                    c1_norm_of)
from .quadrature import integrate_groups

VIABLE = "viable"
INVIABLE_UPPER = "inviable_upper"
INVIABLE_LOWER = "inviable_lower"
INDETERMINATE = "indeterminate"
HR_U_SAMPLES = 201  # evenly spaced u in [-R, R] at which estimate_HR samples |f|
F_BLOCK = 2 ** 14  # most points per sampling f call: 128 KiB, glibc's default mmap threshold


@dataclass(frozen=True)
class H1Result:
    passed: bool
    l1_norm: float | None
    detail: str = ""


@dataclass(frozen=True)
class HRResult:
    passed: bool
    sup: float
    profile: np.ndarray
    t_grid: np.ndarray
    uniformity_flag: bool
    source: str  # "local_bound" or "sampled"


@dataclass(frozen=True)
class H3Result:
    passed: bool
    product: float
    hr_sup: float
    m1: float
    m2: float
    radius: float


@dataclass(frozen=True)
class ClassificationResult:
    curve: str
    verdict: str
    psi_margin: float
    epsilon_used: float
    t_min_clip: float
    clipped_measure: float
    n_t: int
    n_y: int


@dataclass(frozen=True)
class HypothesisReport:
    h1: H1Result
    h2: HRResult
    h3: H3Result
    h4: str
    bounds: BoundsReport  # the M1/M2 report that H3 used
    h5: list = field(default_factory=list)

    @property
    def checks_passed(self) -> bool:  # H1, H2 and H3 all pass
        return self.h1.passed and self.h2.passed and self.h3.passed

    @property
    def curves_passed(self) -> bool:  # no curve is indeterminate
        return all(c.verdict != INDETERMINATE for c in self.h5)

    @property
    def overall(self) -> bool:
        return self.checks_passed and self.curves_passed


def check_h1(weight: Weight, tol: float = 1e-9) -> H1Result:
    """Integrability of the weight on its own: int_0^1 |g| to tol, or the
    divergence.  certify_hypotheses reads the integral off bounds_report."""
    if not tol > 0:  # NaN fails too
        raise ValueError(f"tol must be > 0, got {tol}")
    try:
        val = integrate_groups(lambda s: np.abs(weight.eval(s)), (0.0, 1.0),
                               singular_left=weight.singular_left, tol=tol)
    except QuadratureError as exc:
        return H1Result(passed=False, l1_norm=None, detail=str(exc))
    return H1Result(passed=True, l1_norm=float(val[0, 0]))


def _check_t_min(t_min: float) -> None:
    """The one check of the t_min that clips the H_R grid and curve domains."""
    if not 0.0 <= t_min < 1.0:  # NaN fails too
        raise ValueError(f"t_min must lie in [0, 1), got {t_min}")


def _hr_mask(spec: ProblemSpec, t_min: float = 0.0) -> np.ndarray:
    """The H_R grid as a node mask: t > 0 (f may be undefined at 0), t >= t_min."""
    return (spec.nodes >= t_min) & (spec.nodes > 0.0)


def estimate_HR(spec: ProblemSpec, t_grid=None) -> HRResult:
    """Pointwise bound H_R(t) on |f(t, u)| over |u| <= R = spec.radius.

    Uses the declared closed-form bound when the nonlinearity carries one;
    otherwise samples HR_U_SAMPLES points over [-R, R], then points just above
    and below each declared curve, each against t in f calls on at most
    F_BLOCK points; a curve point outside the curve's domain or the ball is
    replaced by -R, which the base samples hold anyway.  The uniformity flag
    is a heuristic warning that the profile piles up toward an endpoint (so
    the sampled sup may not be a uniform essential bound).
    """
    r = spec.radius
    t_grid = np.asarray(spec.nodes[_hr_mask(spec)] if t_grid is None else t_grid, dtype=float)
    if t_grid.size == 0:
        raise ValueError("estimate_HR needs a nonempty t grid")

    nl = spec.nonlinearity
    if nl.local_bound is not None:
        profile = nl.local_bound(t_grid, r)
        source = "local_bound"
    else:
        base = np.linspace(-r, r, HR_U_SAMPLES)
        profile = _max_abs_rows(nl.eval, t_grid, np.broadcast_to(base, (t_grid.size, base.size)))
        if nl.curves:
            cols = []
            for curve in nl.curves:
                inside = (curve.a <= t_grid) & (t_grid <= curve.b)
                gv = curve.value(t_grid[inside])
                for shift in (-curve.epsilon / 2, curve.epsilon / 2):
                    col = np.full_like(t_grid, -r)
                    col[inside] = gv + shift
                    cols.append(col)
            uu = np.column_stack(cols)
            uu[~(np.abs(uu) <= r)] = -r
            profile = np.maximum(profile, _max_abs_rows(nl.eval, t_grid, uu))
        source = "sampled"

    return HRResult(passed=bool(np.all(np.isfinite(profile))),
                    sup=float(np.max(profile)), profile=profile, t_grid=t_grid,
                    uniformity_flag=_uniformity_flag(profile), source=source)


def _max_abs_rows(f, t, uu):
    """max_j |f(t[i], uu[i, j])| for each i, from f calls on at most F_BLOCK points."""
    rows = max(1, F_BLOCK // uu.shape[1])
    return np.concatenate([np.max(np.abs(f(t[i:i + rows, None], uu[i:i + rows])), axis=1)
                           for i in range(0, t.size, rows)])


def _uniformity_flag(profile: np.ndarray) -> bool:
    """Heuristic: does the profile grow monotonically toward an endpoint?

    Checks the run of points adjacent to each end; a weakly monotone climb
    with a strict overall increase raises the flag.  Constant profiles and
    interior spikes do not.
    """
    if profile.size < 8:
        return False
    k = min(5, profile.size // 4)
    left, right = profile[:k], profile[-k:]
    with np.errstate(invalid="ignore"):  # an overflowed profile's inf - inf: nan, no climb
        return bool((np.all(np.diff(left) <= 0) and left[0] > left[-1])
                    or (np.all(np.diff(right) >= 0) and right[-1] > right[0]))


@dataclass(frozen=True)
class EquicontinuityReport:
    """The second-derivative bound |(Tu)''| <= |g| H_R at the checked nodes."""

    max_excess: float
    worst_t: float
    n_checked: int
    passed: bool


def equicontinuity_check(spec: ProblemSpec, u: GridFunction,
                         t_min: float = 0.0) -> EquicontinuityReport:
    """The bound |(Tu)''| <= |g| H_R behind compactness of T, for u on
    spec.nodes in the ball (ValueError and BallViolation otherwise, as apply_T)
    and 0 <= t_min < 1 (ValueError otherwise, as certify_hypotheses).

    (Tu)'' = -g f(., u) exactly (kernel.py), so no T is applied: at the nodes
    t > 0, t >= t_min (the H_R grid of certify_hypotheses) the excess is
    |g(t)| (|f(t, u(t))| - H_R(t)), with H_R from estimate_HR and u(t) u's
    node values, and the check passes when no excess is positive.
    """
    _check_t_min(t_min)
    mask = _hr_mask(spec, t_min)
    t, u_t = spec.nodes[mask], _node_data(spec, u)[0][mask]
    hr = estimate_HR(spec, t).profile
    fu = spec.nonlinearity.eval(t, u_t)
    excess = np.abs(spec.weight.eval(t)) * (np.abs(fu) - hr)
    i = int(np.argmax(excess))
    return EquicontinuityReport(max_excess=float(excess[i]), worst_t=float(t[i]),
                                n_checked=t.size, passed=bool(excess[i] <= 0.0))


def check_h3(spec: ProblemSpec, bounds: BoundsReport, hr_sup: float) -> H3Result:
    """The self-mapping estimate: sup H_R * (M1 + M2) <= R."""
    product = hr_sup * bounds.m_total
    return H3Result(passed=bool(product <= spec.radius), product=float(product),
                    hr_sup=float(hr_sup), m1=bounds.m1, m2=bounds.m2,
                    radius=spec.radius)


def minimal_R_power(m_total: float, lam: float) -> int:
    """Smallest integer R >= 2 with R**(1-lam) >= m_total (the radius-selection
    recipe for nonlinearities bounded by max(2, R)**lam); OverflowError past 2**53."""
    if not m_total > 0:  # NaN fails too
        raise ValueError("m_total must be > 0")
    if not 0.0 < lam < 1.0:
        raise ValueError("lam must lie in (0, 1)")
    with np.errstate(over="ignore"):  # an overflow is inf
        guess = np.float64(m_total) ** (1.0 / (1.0 - lam))
    if not guess < 2.0 ** 53:  # floats skip integers there
        raise OverflowError("no representable radius satisfies the bound")
    hi = math.ceil(guess) + 2  # the guess's rounding can miss R either way, by
    while hi ** (1.0 - lam) < m_total:  # hundreds as 1 - lam nears 0
        hi *= 2
    return bisect_left(range(hi + 1), m_total, lo=2, key=lambda r: r ** (1.0 - lam))


def classify_curve(spec: ProblemSpec, curve: DiscontinuityCurve,
                   t_min: float = 1e-6, n_t: int = 200, n_y: int = 30) -> ClassificationResult:
    """Sample-based verdict for one declared discontinuity curve.

    Viable when -curve'' - g*f(t, curve(t)) vanishes (to 1e-8) along the curve;
    inviable when the sampled margin over the epsilon-tube is uniformly
    one-sided; otherwise indeterminate (the safe verdict).  The domain is
    clipped at t_min when the weight or curvature is singular at 0; the
    measure of the clipped part is reported.
    """
    return classify_curves(spec, (curve,), t_min, n_t, n_y)[0]


# an overflowing g*f is an inf defect and margin, which the report writes as null
@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def classify_curves(spec: ProblemSpec, curves, t_min: float = 1e-6, n_t: int = 200,
                    n_y: int = 30) -> list:
    """classify_curve for each curve, with one viability pass per distinct
    clipped domain: the curves sharing a domain share its t grid, one weight
    call and one f call on their stacked centre lines.  The epsilon-tubes of
    the domain's non-viable curves are then sampled in blocks of whole tubes,
    each block one f call on at most F_BLOCK points (one tube at least)."""
    _check_t_min(t_min)
    if not (_int_at_least(n_t, 2) and _int_at_least(n_y, 2)):
        raise ValueError(f"need n_t, n_y >= 2 (integers), got {n_t!r}, {n_y!r}")
    domains = {}
    for i, curve in enumerate(curves):
        lo, hi = max(curve.a, t_min), curve.b
        if lo >= hi:
            raise ValueError("t_min clips the whole curve domain")
        domains.setdefault((lo, hi), []).append(i)

    f = spec.nonlinearity.eval
    tubes_per_call = max(1, F_BLOCK // (n_y * n_t))
    out = [None] * len(curves)
    for (lo, hi), members in domains.items():
        ts = np.linspace(lo, hi, n_t)
        g = spec.weight.eval(ts)
        gammas = np.array([curves[i].value(ts) for i in members])
        neg_curvs = -np.array([curves[i].second_derivative(ts) for i in members])
        defects = np.max(np.abs(neg_curvs - g * f(ts, gammas)), axis=1)
        verdicts = [(VIABLE, 0.0)] * len(members)
        tubes = [c for c, defect in enumerate(defects) if not defect <= 1e-8]
        if len(tubes) < len(members):  # only the rows of the curves that need a tube
            gammas, neg_curvs = gammas[tubes], neg_curvs[tubes]
        eps = np.array([curves[members[c]].epsilon for c in tubes])[:, None]
        lows, highs = gammas - eps, gammas + eps
        steps, offsets = (highs - lows) / (n_y - 1), np.arange(n_y)[:, None, None]
        for b in range(0, len(tubes), tubes_per_call):
            s = slice(b, b + tubes_per_call)
            # the block's tubes, one (n_y, n_t) slab each: np.linspace(lows, highs,
            # n_y)'s arithmetic without its per-call overhead
            ys = offsets * steps[s]
            ys += lows[s]
            ys[-1] = highs[s]
            d = neg_curvs[s] - g * f(ts, ys)  # -gamma'' - g f
            for j, c in enumerate(tubes[s]):
                # min of d over the tube: > 0 => pushed down; min of -d: > 0 =>
                # pushed up.  a - b is -(b - a) exactly, and 0.0 - keeps the
                # +0.0 that b - a gives at a == b
                upper, lower = float(d[:, j].min()), 0.0 - float(d[:, j].max())
                verdicts[c] = ((INVIABLE_UPPER, upper) if upper > 0.0 else
                               (INVIABLE_LOWER, lower) if lower > 0.0 else
                               (INDETERMINATE, max(upper, lower)))
        for i, (verdict, margin) in zip(members, verdicts):
            curve = curves[i]
            out[i] = ClassificationResult(
                curve=curve.label, verdict=verdict, psi_margin=margin,
                epsilon_used=curve.epsilon, t_min_clip=t_min,
                clipped_measure=float(max(0.0, lo - curve.a)), n_t=n_t, n_y=n_y)
    return out


def simplex_least_squares(vertices: np.ndarray, target: np.ndarray,
                          coeffs0: np.ndarray | None = None):
    """min_lam ||vertices @ lam - target||_2 over the probability simplex, by
    Wolfe's finite nearest-point algorithm (Math. Programming 11, 1976) on
    p = vertices - target.  A major step adds the point most opposed to
    x = p @ lam; minor steps move lam to the affine minimiser of its support
    (the bordered Gram system), dropping weights that turn non-positive; an
    exact line search toward the added point replaces them where rounding
    makes that system singular or its step not lower ||x|| (as points 1e-9
    apart can).  It stops when no point improves on x by more than eps times
    the Gram trace, or when a step did not lower ||x||.  coeffs0 warm-starts
    from an earlier result on a prefix of the columns, zero-padded (all
    zeros: a cold start, from the first point).  Returns (coeffs, distance)."""
    v = np.asarray(vertices, dtype=float)
    y = np.asarray(target, dtype=float)
    if v.ndim != 2 or v.shape[0] != y.size:
        raise ValueError("vertices must be (dim, m) with dim == target size")
    p = v - y[:, None]
    tol = math.ulp(1.0) * np.vdot(p, p)  # eps times the Gram trace
    if coeffs0 is None or not np.count_nonzero(coeffs0):
        lam = np.zeros(p.shape[1])
        lam[0] = 1.0
    else:
        lam = np.array(coeffs0, dtype=float)
    x = p @ lam
    g = x @ p  # p_j . x for every point
    x2, x2_prev = x @ x, math.inf
    while x2 < x2_prev and g.min() < x2 - tol:
        j = g.argmin()
        s = np.append(np.flatnonzero(lam), j)
        w = lam[s]
        while True:
            ps = p[:, s]
            kkt = np.ones((s.size + 1, s.size + 1))
            kkt[:-1, :-1] = ps.T @ ps
            kkt[-1, -1] = 0.0
            try:  # the last row of the symmetric inverse solves kkt @ z = (0, ..., 0, 1)
                alpha = np.linalg.inv(kkt)[-1, :-1]
            except np.linalg.LinAlgError:  # the new point is in aff(support), to rounding
                alpha = w  # stay at the last minor step
                break
            if alpha.min() >= 0:
                break
            neg = np.flatnonzero(alpha < 0)
            ratios = w[neg] / (w[neg] - alpha[neg])
            w = w + ratios.min() * (alpha - w)
            w[neg[ratios.argmin()]] = 0.0
            s, w = s[w > 0], w[w > 0]
        x_new = ps @ alpha
        if x_new @ x_new < x2:
            lam = np.zeros_like(lam)
            lam[s] = alpha
        else:  # the line search: min over (1 - theta) lam + theta e_j, theta in [0, 1]
            theta = min(1.0, (x2 - g[j]) / np.sum((p[:, j] - x) ** 2))
            lam = (1.0 - theta) * lam + theta * np.eye(lam.size)[j]
            x_new = (1.0 - theta) * x + theta * p[:, j]
        x, x2_prev = x_new, x2
        g, x2 = x @ p, x @ x
    return lam, math.sqrt(x2)


def _bumps(nodes: np.ndarray, js) -> np.ndarray:
    """Cosine bumps on the dyadic windows js as (len(js), 2, N) node data,
    each of discrete C1 norm 1: j=1 -> [0,1]; j=2,3 -> halves; j=4..7 ->
    quarters; and so on, all windows in one array pass.  The first window with
    no node inside by more than the nodes' rounding raises ValueError (its
    bump would be noise)."""
    levels = [j.bit_length() - 1 for j in js]
    w = np.array([0.5 ** level for level in levels])[:, None]
    a = np.array([(j - 2 ** level) * 0.5 ** level for j, level in zip(js, levels)])[:, None]
    margin = nodes.size * math.ulp(1.0)
    inside = ((nodes > a + margin) & (nodes < a + w - margin)).any(axis=1)
    if not inside.all():
        j = js[int(np.argmin(inside))]
        raise ValueError(f"bump {j} has no node inside its dyadic window on "
                         f"{nodes.size} nodes: n_samples must be <= {2 * j - 1}")
    xi = np.clip((nodes - a) / w, 0.0, 1.0)
    vals = 0.5 * (1.0 - np.cos(2.0 * np.pi * xi))
    ders = (np.pi / w) * np.sin(2.0 * np.pi * xi)
    scale = (np.max(np.abs(vals), axis=1) + np.max(np.abs(ders), axis=1))[:, None]
    return np.stack((vals / scale, ders / scale), axis=1)


@dataclass(frozen=True)
class ProbeResult:
    hull_distance: float  # an upper bound on the C1 distance to the hull of the images
    witness_coeffs: np.ndarray
    history: list
    eps: float
    n_samples: int


def convexification_probe(spec: ProblemSpec, u: GridFunction, eps: float,
                          n_samples: int) -> ProbeResult:
    """Finite-sample shadow of the convexified-operator membership test.

    Perturbs u inside an eps-ball (u, then u +/- eps * bump_1, u +/- eps *
    bump_2, ..., the bumps built in one array pass), applies the operator to
    the stack of samples, in one pass under an exact rule (each sample's panels
    split at its own crossings, each image bitwise its own), and bounds the
    discrete C1 distance from u to the convex hull of the images from above,
    by the C1 gap at the hull's L2-nearest point or at a vertex.  A small
    bound is evidence that u survives convexification.  The samples for n
    are a prefix of those for n + 1, and enrichment m (the first m images)
    keeps the best distance so far, so history is non-increasing.  Each enrichment warm-starts the
    simplex solve from the previous coefficients and measures only its
    coefficients and the newest vertex: every vertex is measured once, when
    it joins.  u must live on spec.nodes (ValueError) and pass in_ball with
    margin eps (BallViolation), which puts every sample in the ball, and the
    grid must be fine enough for n_samples bumps (a ValueError names the
    largest usable n_samples).
    """
    if not (eps > 0 and _int_at_least(n_samples, 1)):  # a NaN eps fails too
        raise ValueError(f"need eps > 0 and n_samples >= 1 (an integer), got "
                         f"{eps!r}, {n_samples!r}")
    y = _node_data(spec, u, margin=eps)
    steps = eps * _bumps(spec.nodes, range(1, n_samples // 2 + 1))
    samples = np.empty((n_samples, *y.shape))
    samples[0], samples[1::2], samples[2::2] = y, y + steps, y - steps[:(n_samples - 1) // 2]
    cols = np.ascontiguousarray(_apply_T(spec, samples)[0].reshape(n_samples, -1).T)
    y = y.ravel()

    best, witness, history = np.inf, None, []
    coeffs = np.zeros(0)
    for m in range(1, n_samples + 1):
        # at m = 1 the warm start [0.0] is a cold start
        coeffs, _ = simplex_least_squares(cols[:, :m], y, coeffs0=np.append(coeffs, 0.0))
        for lam in (coeffs, np.eye(m)[m - 1]):
            # the discrete C1 norm of the stacked (values, derivatives) gap
            d = c1_norm_of(*np.split(cols[:, :m] @ lam - y, 2))
            if d < best:
                best, witness = d, np.pad(lam, (0, n_samples - m))
        history.append(best)
    return ProbeResult(hull_distance=best, witness_coeffs=witness,
                       history=history, eps=eps, n_samples=n_samples)


def certify_hypotheses(spec: ProblemSpec, t_min: float = 1e-6,
                       bounds: BoundsReport | None = None,
                       hr_sup: float | None = None) -> HypothesisReport:
    """Run the whole certification pipeline for one problem.

    t_min clips both the H_R sample grid (the nodes t >= t_min, t > 0) and
    every curve's classification domain.  bounds, when given, are the
    problem's bounds report and are not recomputed; either way the report
    carries them, and H1 is their int |g|: a weight that is not integrable
    makes bounds_report raise MaxDepthExceeded.  hr_sup is the H_R premise
    of the ball check H3; None means the sampled sup of H_R.
    """
    _check_t_min(t_min)
    b = bounds if bounds is not None else bounds_report(spec)
    h1 = H1Result(passed=True, l1_norm=b.l1_norm)
    h2 = estimate_HR(spec, t_grid=spec.nodes[_hr_mask(spec, t_min)])
    h3 = check_h3(spec, b, h2.sup if hr_sup is None else hr_sup)
    h5 = classify_curves(spec, spec.nonlinearity.curves, t_min=t_min)
    return HypothesisReport(h1=h1, h2=h2, h3=h3, h4=spec.nonlinearity.measurability,
                            bounds=b, h5=h5)
