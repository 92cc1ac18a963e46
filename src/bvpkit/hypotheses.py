"""Executable certification of the existence-theorem hypotheses.

The checks are numerical evidence, not proofs: the weight's integrability is
established by adaptive quadrature, the pointwise bound on f by sampling,
the ball condition by the computed sup-integrals, and each declared
discontinuity curve is classified as viable (it solves the ODE) or inviable
(a uniform margin pushes nearby solutions away).  A finite-sample convex-hull
probe gives evidence for or against membership of u in the convexified
operator image.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BallViolation, QuadratureError, SolverStall
from .hammerstein import BoundsReport, apply_T, bounds_report
from .model import DiscontinuityCurve, GridFunction, ProblemSpec, Weight, norm_c1
from .quadrature import IntegrandSpec, integrate

VIABLE = "viable"
INVIABLE_UPPER = "inviable_upper"
INVIABLE_LOWER = "inviable_lower"
INDETERMINATE = "indeterminate"


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
    h5: list = field(default_factory=list)

    @property
    def overall(self) -> bool:
        curves_ok = all(c.verdict != INDETERMINATE for c in self.h5)
        return self.h1.passed and self.h2.passed and self.h3.passed and curves_ok


def check_h1(weight: Weight, tol: float = 1e-9) -> H1Result:
    """Integrability of the weight: compute int_0^1 |g| or report divergence."""
    g = weight.eval

    def integrand(s):
        return np.abs(g(s))

    try:
        val = integrate(IntegrandSpec(integrand, (), weight.singular_left, tol), 0.0, 1.0)
    except QuadratureError as exc:
        return H1Result(passed=False, l1_norm=None, detail=str(exc))
    return H1Result(passed=True, l1_norm=val)


def estimate_HR(spec: ProblemSpec, radius: float | None = None,
                t_grid=None, u_samples: int = 201) -> HRResult:
    """Pointwise bound H_R(t) on |f(t, u)| over |u| <= R.

    Uses the declared closed-form bound when the nonlinearity carries one;
    otherwise samples u_samples points over [-R, R] plus points just above
    and below each declared curve, all t at once on one (t, u) grid; a
    curve point outside the curve's domain or the ball is replaced by -R,
    which the base samples hold anyway.  The uniformity flag is a heuristic
    warning that the profile piles up toward an endpoint (so the sampled
    sup may not be a uniform essential bound).
    """
    r = spec.radius if radius is None else radius
    if r <= 0:
        raise ValueError("radius must be > 0")
    if t_grid is None:
        t_grid = spec.nodes[1:]  # drop t=0: f may be undefined there
    t_grid = np.asarray(t_grid, dtype=float)

    nl = spec.nonlinearity
    if nl.local_bound is not None:
        profile = nl.local_bound(t_grid, r)
        source = "local_bound"
    else:
        cols = [np.tile(np.linspace(-r, r, u_samples), (t_grid.size, 1))]
        for curve in nl.curves:
            inside = (curve.a <= t_grid) & (t_grid <= curve.b)
            gv = curve.value(t_grid[inside])
            for shift in (-curve.epsilon / 2, curve.epsilon / 2):
                col = np.full_like(t_grid, -r)
                col[inside] = gv + shift
                cols.append(col)
        uu = np.column_stack(cols)
        uu[~(np.abs(uu) <= r)] = -r
        tt = np.repeat(t_grid[:, None], uu.shape[1], axis=1)
        profile = np.max(np.abs(nl.eval(tt, uu)), axis=1)
        source = "sampled"

    return HRResult(passed=bool(np.all(np.isfinite(profile))),
                    sup=float(np.max(profile)), profile=profile, t_grid=t_grid,
                    uniformity_flag=_uniformity_flag(profile), source=source)


def _uniformity_flag(profile: np.ndarray) -> bool:
    """Heuristic: does the profile grow monotonically toward an endpoint?

    Checks the run of points adjacent to each end; a weakly monotone climb
    with a strict overall increase raises the flag.  Constant profiles and
    interior spikes do not.
    """
    n = profile.size
    if n < 8:
        return False
    k = min(5, n // 4)
    left = profile[:k]
    if np.all(np.diff(left) <= 0) and left[0] > left[-1]:
        return True
    right = profile[-k:]
    if np.all(np.diff(right) >= 0) and right[-1] > right[0]:
        return True
    return False


def check_h3(spec: ProblemSpec, bounds: BoundsReport, hr_sup: float) -> H3Result:
    """The self-mapping estimate: sup H_R * (M1 + M2) <= R."""
    product = hr_sup * bounds.m_total
    return H3Result(passed=bool(product <= spec.radius), product=float(product),
                    hr_sup=float(hr_sup), m1=bounds.m1, m2=bounds.m2,
                    radius=spec.radius)


def minimal_R_power(m_total: float, lam: float) -> int:
    """Smallest integer R >= 2 with R**(1-lam) >= m_total (the radius-selection
    recipe for nonlinearities bounded by max(2, R)**lam)."""
    if m_total <= 0:
        raise ValueError("m_total must be > 0")
    if not 0.0 < lam < 1.0:
        raise ValueError("lam must lie in (0, 1)")
    guess = m_total ** (1.0 / (1.0 - lam))
    if not np.isfinite(guess):
        raise OverflowError("no representable radius satisfies the bound")
    r = max(2, math.floor(guess) - 2)
    while r ** (1.0 - lam) < m_total:
        r += 1
    return r


def classify_curve(spec: ProblemSpec, curve: DiscontinuityCurve,
                   t_min: float = 1e-6, n_t: int = 200, n_y: int = 30,
                   viability_tol: float = 1e-8) -> ClassificationResult:
    """Sample-based verdict for one declared discontinuity curve.

    Viable when -curve'' - g*f(t, curve(t)) vanishes along the curve;
    inviable when the sampled margin over the epsilon-tube is uniformly
    one-sided; otherwise indeterminate (the safe verdict).  The domain is
    clipped at t_min when the weight or curvature is singular at 0; the
    measure of the clipped part is reported.
    """
    lo, hi = max(curve.a, t_min), curve.b
    if lo >= hi:
        raise ValueError("t_min clips the whole curve domain")
    if n_t < 2 or n_y < 2:
        raise ValueError("need n_t, n_y >= 2")
    ts = np.linspace(lo, hi, n_t)
    gamma = curve.value(ts)
    neg_curv = -curve.second_derivative(ts)
    g = spec.weight.eval(ts)
    f = spec.nonlinearity.eval
    viability_defect = float(np.max(np.abs(neg_curv - g * f(ts, gamma))))

    result = dict(curve=curve.label, epsilon_used=curve.epsilon, t_min_clip=t_min,
                  clipped_measure=float(max(0.0, lo - curve.a)), n_t=n_t, n_y=n_y)
    if viability_defect <= viability_tol:
        return ClassificationResult(verdict=VIABLE, psi_margin=0.0, **result)

    # the epsilon-tube as an (n_t, n_y) grid, one row per sampled t
    ys = np.linspace(gamma - curve.epsilon, gamma + curve.epsilon, n_y, axis=1)
    gf = g[:, None] * f(np.repeat(ts[:, None], n_y, axis=1), ys)
    # min of -gamma'' - g f over the tube: positive => pushed down
    upper = float(np.min(neg_curv[:, None] - gf))
    # min of g f + gamma'' over the tube: positive => pushed up
    lower = float(np.min(gf - neg_curv[:, None]))

    if upper > 0.0:
        return ClassificationResult(verdict=INVIABLE_UPPER, psi_margin=upper, **result)
    if lower > 0.0:
        return ClassificationResult(verdict=INVIABLE_LOWER, psi_margin=lower, **result)
    return ClassificationResult(verdict=INDETERMINATE,
                                psi_margin=float(max(upper, lower)), **result)


def simplex_least_squares(vertices: np.ndarray, target: np.ndarray,
                          gap_tol: float = 1e-10, max_iter: int = 20000,
                          coeffs0: np.ndarray | None = None):
    """min_lam ||vertices @ lam - target||_2 over the probability simplex,
    by Frank-Wolfe with away steps and exact line search.

    vertices has one column per hull point.  Returns (coeffs, distance).
    Raises SolverStall if the duality gap fails to reach gap_tol.
    """
    v = np.asarray(vertices, dtype=float)
    y = np.asarray(target, dtype=float)
    if v.ndim != 2 or v.shape[0] != y.size:
        raise ValueError("vertices must be (dim, m) with dim == target size")
    m = v.shape[1]
    if coeffs0 is not None:
        lam = np.clip(np.asarray(coeffs0, dtype=float), 0.0, None)
        lam = lam / lam.sum() if lam.sum() > 0 else None
    else:
        lam = None
    if lam is None:
        start = int(np.argmin(np.linalg.norm(v - y[:, None], axis=0)))
        lam = np.zeros(m)
        lam[start] = 1.0

    resid = v @ lam - y
    for _ in range(max_iter):
        grad = v.T @ resid
        s = int(np.argmin(grad))
        support = np.flatnonzero(lam > 0)
        a = int(support[np.argmax(grad[support])])
        fw_gap = float(grad @ lam - grad[s])
        if fw_gap <= gap_tol:
            return lam, float(np.linalg.norm(resid))
        away_gap = float(grad[a] - grad @ lam)
        if fw_gap >= away_gap:
            direction = -lam.copy()
            direction[s] += 1.0
            gamma_max = 1.0
        else:
            direction = lam.copy()
            direction[a] -= 1.0
            gamma_max = lam[a] / (1.0 - lam[a]) if lam[a] < 1.0 else np.inf
        dv = v @ direction
        denom = float(dv @ dv)
        if denom <= 0.0:
            gamma = gamma_max if np.isfinite(gamma_max) else 1.0
        else:
            gamma = min(max(-float(resid @ dv) / denom, 0.0), gamma_max)
        if gamma <= 0.0:
            return lam, float(np.linalg.norm(resid))
        lam = lam + gamma * direction
        np.clip(lam, 0.0, None, out=lam)
        lam /= lam.sum()
        resid = v @ lam - y
    raise SolverStall(f"Frank-Wolfe gap {fw_gap:.3e} > {gap_tol:.3e} "
                      f"after {max_iter} iterations")


def _bump_window(j: int):
    """Deterministic dyadic window layout: j=1 -> [0,1]; j=2,3 -> halves;
    j=4..7 -> quarters; and so on."""
    level = int(math.floor(math.log2(j)))
    k = j - 2 ** level
    width = 1.0 / 2 ** level
    return k * width, (k + 1) * width


def _bump(nodes: np.ndarray, j: int):
    """Cosine bump on the j-th window, normalized to discrete C1 norm 1."""
    a, b = _bump_window(j)
    w = b - a
    xi = np.clip((nodes - a) / w, 0.0, 1.0)
    vals = 0.5 * (1.0 - np.cos(2.0 * np.pi * xi))
    ders = (np.pi / w) * np.sin(2.0 * np.pi * xi)
    scale = np.max(np.abs(vals)) + np.max(np.abs(ders))
    return vals / scale, ders / scale


def perturbation_family(u: GridFunction, eps: float, n_samples: int):
    """u itself followed by u +/- eps * (bump_1), u +/- eps * (bump_2), ...
    A deterministic family: prefixes are nested as n_samples grows."""
    out = [u]
    j = 1
    sign = +1
    while len(out) < n_samples:
        bv, bd = _bump(u.nodes, j)
        out.append(GridFunction(u.nodes, u.values + sign * eps * bv,
                                u.derivatives + sign * eps * bd))
        if sign > 0:
            sign = -1
        else:
            sign = +1
            j += 1
    return out


def _c1_vec_dist(delta: np.ndarray) -> float:
    """Discrete C1 norm of a concatenated (values, derivatives) vector."""
    half = delta.size // 2
    return float(np.max(np.abs(delta[:half])) + np.max(np.abs(delta[half:])))


@dataclass(frozen=True)
class ProbeResult:
    hull_distance: float
    witness_coeffs: np.ndarray
    history: list
    eps: float
    n_samples: int


def convexification_probe(spec: ProblemSpec, u: GridFunction, eps: float,
                          n_samples: int, gap_tol: float = 1e-10,
                          max_iter: int = 20000) -> ProbeResult:
    """Finite-sample shadow of the convexified-operator membership test.

    Perturbs u inside an eps-ball, applies the operator to every sample, and
    measures how close u is to the convex hull of the images (discrete C1
    distance).  A small distance is evidence that u survives convexification;
    a distance bounded away from zero is evidence it does not.  The distance
    is non-increasing in n_samples because the family is nested and each
    enrichment is warm-started from the previous witness.
    """
    if eps <= 0 or n_samples < 1:
        raise ValueError("need eps > 0 and n_samples >= 1")
    if norm_c1(u) + eps > spec.radius + 1e-12:
        raise BallViolation(
            f"||u|| + eps = {norm_c1(u) + eps:.6g} exceeds R = {spec.radius:.6g}")

    samples = perturbation_family(u, eps, n_samples)
    images = [apply_T(spec, w) for w in samples]
    cols = np.stack([np.concatenate([im.values, im.derivatives]) for im in images],
                    axis=1)
    y = np.concatenate([u.values, u.derivatives])

    best = np.inf
    witness = None
    history = []
    coeffs = None
    for m in range(1, n_samples + 1):
        warm = None
        if coeffs is not None:
            warm = np.zeros(m)
            warm[:m - 1] = coeffs
        coeffs, _ = simplex_least_squares(cols[:, :m], y, gap_tol, max_iter, warm)
        candidates = [coeffs] + [np.eye(m)[i] for i in range(m)]
        for lam in candidates:
            d = _c1_vec_dist(cols[:, :m] @ lam - y)
            if d < best:
                best = d
                witness = np.zeros(n_samples)
                witness[:m] = lam
        history.append(best)
    return ProbeResult(hull_distance=best, witness_coeffs=witness,
                       history=history, eps=eps, n_samples=n_samples)


def certify_hypotheses(spec: ProblemSpec, t_min: float = 1e-6, n_t: int = 200,
                       n_y: int = 30, bounds: BoundsReport | None = None,
                       hr: HRResult | None = None) -> HypothesisReport:
    """Run the whole certification pipeline for one problem."""
    h1 = check_h1(spec.weight, tol=min(spec.quad_tol, 1e-9))
    h2 = hr if hr is not None else estimate_HR(spec)
    b = bounds if bounds is not None else bounds_report(spec)
    h3 = check_h3(spec, b, h2.sup)
    h5 = [classify_curve(spec, c, t_min=t_min, n_t=n_t, n_y=n_y)
          for c in spec.nonlinearity.curves]
    return HypothesisReport(h1=h1, h2=h2, h3=h3,
                            h4=spec.nonlinearity.measurability, h5=h5)
