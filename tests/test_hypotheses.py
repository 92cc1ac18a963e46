import math
import random
from dataclasses import replace

import numpy as np
import pytest

import bvpkit.hypotheses
from bvpkit import (DIRICHLET, INDETERMINATE, INVIABLE_LOWER, INVIABLE_UPPER,
                    VIABLE, BallViolation, apply_T, bounds_report,
                    certify_hypotheses, check_h1, check_h3, classify_curve,
                    classify_curves, convexification_probe, equicontinuity_check,
                    estimate_HR, minimal_R_power, norm_c1, residual,
                    simplex_least_squares, solve_picard)
from bvpkit.catalog import make_nonlinearity_from_id, make_weight_from_id
from bvpkit.hypotheses import F_BLOCK, HR_U_SAMPLES, _bumps
from bvpkit.model import (DiscontinuityCurve, GridFunction, Nonlinearity,
                          ProblemSpec, Weight)

from conftest import Counted, const_weight, random_ball_function, smoke_spec


def poly_spec(quad_tol=1e-10):
    """Dirichlet, g = 1, f = 0.1 u + 1: continuous and contractive."""
    f = Nonlinearity(eval=lambda t, u: 0.1 * np.asarray(u, float) + 1.0,
                     local_bound=lambda t, r: 0.1 * r + 1.0)
    return ProblemSpec(params=DIRICHLET, weight=const_weight(), nonlinearity=f,
                       radius=1.0, quad_tol=quad_tol, grid_size=129)


class TestH1:
    def test_constant(self):
        r = check_h1(const_weight())
        assert r.passed and r.l1_norm == pytest.approx(1.0, abs=1e-9)

    def test_inverse_sqrt(self):
        w = Weight(eval=lambda t: 1 / np.sqrt(np.asarray(t, float)), singular_left=True)
        r = check_h1(w)
        assert r.passed and r.l1_norm == pytest.approx(2.0, abs=1e-9)

    def test_divergent_weight_fails(self):
        w = Weight(eval=lambda t: 1 / np.asarray(t, float), singular_left=True)
        r = check_h1(w)
        assert not r.passed
        assert r.l1_norm is None


class TestEstimateHR:
    def test_constant(self):
        f = Nonlinearity(eval=lambda t, u: np.full_like(np.asarray(t, float), -2.5))
        spec = ProblemSpec(params=DIRICHLET, weight=const_weight(),
                           nonlinearity=f, radius=1.0, grid_size=33)
        r = estimate_HR(spec)
        assert r.sup == pytest.approx(2.5)
        assert not r.uniformity_flag
        assert r.source == "sampled"
        # an empty grid is named as such; a t_min past every node is rejected
        # before any grid is built, as certify_hypotheses rejects it
        with pytest.raises(ValueError, match="nonempty t grid"):
            estimate_HR(spec, t_grid=[])
        with pytest.raises(ValueError, match="t_min must lie in"):
            equicontinuity_check(spec, GridFunction.zero(spec.nodes), t_min=1.5)

    def test_square(self):
        f = Nonlinearity(eval=lambda t, u: np.asarray(u, float) ** 2)
        spec = ProblemSpec(params=DIRICHLET, weight=const_weight(),
                           nonlinearity=f, radius=2.0, grid_size=33)
        r = estimate_HR(spec)
        assert r.sup == pytest.approx(4.0)  # extremes at u = +/- R
        assert not r.uniformity_flag

    @pytest.mark.parametrize("grid_size, flagged", [(33, True), (8, False), (3, False)])
    def test_uniformity_flag_toward_t_one(self, grid_size, flagged):
        # H_R = 1 + t climbs toward t = 1; below grid_size 9 the profile has
        # fewer than 8 points, too few for the heuristic
        f = Nonlinearity(eval=lambda t, u: 1.0 + t + 0.0 * u,
                         local_bound=lambda t, r: 1.0 + t)
        spec = ProblemSpec(params=DIRICHLET, weight=const_weight(), nonlinearity=f,
                           radius=1.0, grid_size=grid_size)
        r = estimate_HR(spec)
        assert r.source == "local_bound"
        assert r.profile.size == grid_size - 1
        assert r.uniformity_flag is flagged

    def test_local_bound_short_circuits(self):
        spec = poly_spec()
        r = estimate_HR(spec)
        assert r.source == "local_bound"
        assert r.sup == pytest.approx(1.1)

    def test_divisor_example_sampled_profile(self, divisor_spec):
        # independent brute force over the same rectangle, with sympy's
        # divisor count standing in for the package's
        from sympy import divisor_count

        t_grid = np.linspace(1e-3, 1.0, 128)
        r = estimate_HR(divisor_spec, t_grid=t_grid)
        lam = 1.0 / 3.0

        def f_abs(t, u):
            if u >= 0:
                n = int(u // np.sqrt(t)) + 1
            elif u < -t:
                n = 1
            else:
                n = int(t // -u)
            return (2.0 if n == 1 else float(divisor_count(n))) ** lam

        base = np.linspace(-4.0, 4.0, 201)
        oracle = max(f_abs(t, u) for t in t_grid for u in base)
        assert r.sup >= oracle - 1e-12          # tube samples only add points
        assert r.sup >= 4.0 ** lam              # exceeds the power-law premise
        assert r.uniformity_flag                 # profile climbs toward t -> 0


class TestH3:
    def test_smoke_passes(self):
        spec = smoke_spec()
        b = bounds_report(spec)
        r = check_h3(spec, b, hr_sup=1.0)
        assert r.passed
        assert r.product == pytest.approx(0.625, abs=1e-8)

    def test_small_radius_fails(self):
        spec = smoke_spec(radius=0.5)
        b = bounds_report(spec)
        assert not check_h3(spec, b, hr_sup=1.0).passed

    def test_zero_bound_passes(self):
        spec = smoke_spec()
        b = bounds_report(spec)
        assert check_h3(spec, b, hr_sup=0.0).passed


class TestMinimalRPower:
    def brute(self, m, lam):
        r = 2
        while r ** (1 - lam) < m:
            r += 1
        return r

    def test_published_value(self):
        assert minimal_R_power(2.336, 1 / 3) == 4
        assert 3 ** (2 / 3) < 2.336 <= 4 ** (2 / 3)

    def test_unit_total(self):
        for lam in (0.1, 0.5, 0.9):
            assert minimal_R_power(1.0, lam) == 2

    def test_near_boundary(self):
        assert minimal_R_power(2.080, 1 / 3) == 3

    def test_matches_brute_scan(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            m = rng.uniform(0.01, 20.0)
            lam = rng.uniform(0.05, 0.6)
            assert minimal_R_power(m, lam) == self.brute(m, lam)

    def test_monotone(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            m = rng.uniform(0.1, 20.0)
            lam = rng.uniform(0.1, 0.8)
            assert minimal_R_power(m, lam) <= minimal_R_power(m * 1.5, lam)
            assert minimal_R_power(m, lam) <= minimal_R_power(m, lam + 0.1)

    def test_smallest_radius_over_a_seeded_sweep(self):
        # the float guess m_total**(1/(1-lam)) can miss R on either side, by
        # hundreds when 1 - lam is small: lam = 0.99872 once gave 655 too many
        rng = random.Random(5)
        for _ in range(3000):
            lam = rng.uniform(0.05, 0.999)
            m = (2 ** rng.uniform(1, 53)) ** (1 - lam)
            r = minimal_R_power(m, lam)
            assert r ** (1 - lam) >= m
            assert r == 2 or (r - 1) ** (1 - lam) < m

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            minimal_R_power(0.0, 0.5)
        with pytest.raises(ValueError):
            minimal_R_power(1.0, 1.0)

    @pytest.mark.parametrize("m_total, lam", [(1e300, 0.99), (np.float64(1e300), 0.99),
                                              (233.7, 0.9), (1e20, 1 / 3)],
                             ids=["float", "float64", "past-2**53", "past-2**53-small-lam"])
    def test_overflow_is_named(self, m_total, lam):
        # 1e300 ** 100 overflows a float, and an np.float64 power warns first;
        # past 2**53 a float skips integers, and a scan by one would not end
        with pytest.raises(OverflowError, match="no representable radius"):
            minimal_R_power(m_total, lam)


def _const_curve(c, eps=0.1):
    return DiscontinuityCurve(a=0.0, b=1.0,
                              value=lambda t, _c=c: np.full_like(np.asarray(t, float), _c),
                              second_derivative=lambda t: np.zeros_like(np.asarray(t, float)),
                              epsilon=eps)


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: check_h1(const_weight(), tol=0.0), "tol must be > 0",
                 id="check_h1-tol"),
    pytest.param(lambda: check_h1(const_weight(), tol=np.nan), "tol must be > 0",
                 id="check_h1-tol-nan"),
    pytest.param(lambda: minimal_R_power(np.nan, 0.5), "m_total must be > 0",
                 id="minimal_R_power-nan"),
    pytest.param(lambda: classify_curves(smoke_spec(), (), n_t=1), "n_t, n_y >= 2",
                 id="classify_curves-n_t"),
    # a grid size is an integer: not a float, a bool or NaN
    *[pytest.param(lambda kw=kw: classify_curves(smoke_spec(), (_const_curve(0.5),), **kw),
                   "n_t, n_y >= 2", id=f"classify_curves-{name}")
      for name, kw in [("n_t-float", {"n_t": 200.5}), ("n_y-float", {"n_y": 30.0}),
                       ("n_t-bool", {"n_t": True}), ("n_y-nan", {"n_y": np.nan})]],
    pytest.param(lambda: classify_curve(smoke_spec(), _const_curve(0.5), n_y=2.0),
                 "n_t, n_y >= 2", id="classify_curve-n_y-float"),
    pytest.param(lambda: simplex_least_squares(np.eye(3), np.zeros(2)), "dim == target size",
                 id="simplex-shapes"),
    pytest.param(lambda: simplex_least_squares(np.ones(3), np.zeros(3)), "dim == target size",
                 id="simplex-1d-vertices"),
    pytest.param(lambda: convexification_probe(smoke_spec(), GridFunction.zero(
        smoke_spec().nodes), eps=0.0, n_samples=3), "eps > 0", id="probe-eps"),
    pytest.param(lambda: convexification_probe(smoke_spec(), GridFunction.zero(
        smoke_spec().nodes), eps=1e-3, n_samples=0), "n_samples >= 1", id="probe-n_samples"),
    pytest.param(lambda: convexification_probe(smoke_spec(), GridFunction.zero(
        smoke_spec().nodes), eps=np.nan, n_samples=3), "eps > 0", id="probe-eps-nan"),
    # a sample count is an integer: not a float, a bool or NaN
    *[pytest.param(lambda n=n: convexification_probe(smoke_spec(), GridFunction.zero(
        smoke_spec().nodes), eps=1e-3, n_samples=n), "n_samples >= 1",
        id=f"probe-n_samples-{n!r}") for n in (2.5, True, 3.0, np.nan)],
])
def test_bad_arguments_rejected(call, match):
    with pytest.raises(ValueError, match=match):
        call()


@pytest.mark.parametrize("t_min", [np.nan, -1e-6, 1.0, 1.5])
def test_t_min_outside_the_unit_interval_rejected(t_min):
    # a NaN t_min used to clip nothing (classify_curves reported t_min_clip nan)
    # or leave an empty H_R grid (certify_hypotheses)
    spec = _crossing_step_spec()
    for call in (lambda: classify_curves(spec, spec.nonlinearity.curves, t_min=t_min),
                 lambda: classify_curve(spec, spec.nonlinearity.curves[0], t_min=t_min),
                 lambda: certify_hypotheses(spec, t_min=t_min)):
        with pytest.raises(ValueError, match="t_min must lie in"):
            call()


@pytest.mark.parametrize("t_min", [np.nan, 1.0, -5.0])
def test_equicontinuity_check_takes_the_same_t_min_check(t_min):
    # NaN used to fail as "estimate_HR needs a nonempty t grid"; 1.0 (one
    # node) and -5.0 (every node) passed silently
    spec = smoke_spec(grid_size=33)
    with pytest.raises(ValueError, match=r"t_min must lie in \[0, 1\)"):
        equicontinuity_check(spec, GridFunction.zero(spec.nodes), t_min=t_min)


class TestClassifyCurve:
    def test_viable_exact_solution(self):
        # gamma = t(1-t)/2 solves -gamma'' = 1 = g f
        spec = smoke_spec()
        curve = DiscontinuityCurve(
            a=0.0, b=1.0,
            value=lambda t: np.asarray(t, float) * (1 - np.asarray(t, float)) / 2,
            second_derivative=lambda t: np.full_like(np.asarray(t, float), -1.0),
            epsilon=0.05)
        r = classify_curve(spec, curve)
        assert r.verdict == VIABLE
        assert r.psi_margin == 0.0

    def test_inviable_lower_constant_curve(self):
        # gamma = 0 with g f = 1: 0 + psi < 1 for psi < 1, margin 1
        spec = smoke_spec()
        r = classify_curve(spec, _const_curve(0.0))
        assert r.verdict == INVIABLE_LOWER
        assert r.psi_margin == pytest.approx(1.0)

    def test_divisor_sqrt_curve(self, divisor_spec):
        curve = DiscontinuityCurve(
            a=0.0, b=1.0,
            value=lambda t: np.sqrt(np.asarray(t, float)),
            second_derivative=lambda t: -1.0 / (4.0 * np.asarray(t, float) ** 1.5),
            epsilon=0.1)
        r = classify_curve(divisor_spec, curve, t_min=1e-6)
        assert r.verdict == INVIABLE_UPPER
        assert r.psi_margin > 0.0
        assert r.clipped_measure == pytest.approx(1e-6)

    def test_zero_curve_viable_for_linear_f(self):
        # f = u: the zero function solves the equation, so gamma = 0 is viable
        f = Nonlinearity(eval=lambda t, u: np.asarray(u, float))
        spec = ProblemSpec(params=DIRICHLET, weight=const_weight(),
                           nonlinearity=f, radius=1.0, grid_size=33)
        assert classify_curve(spec, _const_curve(0.0)).verdict == VIABLE

    def test_indeterminate_when_sign_mixes(self):
        # gamma = 0.05 with f = u: g f changes sign inside the tube and the
        # curve is not a solution, so no verdict can be certified
        f = Nonlinearity(eval=lambda t, u: np.asarray(u, float))
        spec = ProblemSpec(params=DIRICHLET, weight=const_weight(),
                           nonlinearity=f, radius=1.0, grid_size=33)
        r = classify_curve(spec, _const_curve(0.05))
        assert r.verdict == INDETERMINATE
        assert r.psi_margin <= 0.0

    def test_refinement_never_flips_verdict(self, divisor_spec):
        for curve in divisor_spec.nonlinearity.curves[:4]:
            coarse = classify_curve(divisor_spec, curve, n_t=100, n_y=15)
            fine = classify_curve(divisor_spec, curve, n_t=200, n_y=30)
            assert coarse.verdict == fine.verdict == INVIABLE_UPPER

    def test_margin_non_increasing_in_epsilon(self, divisor_spec):
        from dataclasses import replace
        base = divisor_spec.nonlinearity.curves[1]  # gamma_hat_1
        margins = []
        for eps in (0.05, 0.1, 0.2):
            r = classify_curve(divisor_spec, replace(base, epsilon=eps))
            assert r.verdict == INVIABLE_UPPER
            margins.append(r.psi_margin)
        assert margins[0] >= margins[1] - 1e-9
        assert margins[1] >= margins[2] - 1e-9

    def test_empty_domain_rejected(self, divisor_spec):
        curve = DiscontinuityCurve(a=0.0, b=0.5,
                                   value=lambda t: np.sqrt(np.asarray(t, float)),
                                   second_derivative=lambda t: np.zeros_like(np.asarray(t, float)),
                                   epsilon=0.1)
        with pytest.raises(ValueError):
            classify_curve(divisor_spec, curve, t_min=0.7)


def _step_classifier_spec():
    """g = 1, f = -1 below u = 0.5 and 2 above: gamma = t(t-1)/2 solves
    -gamma'' = g f, so it is viable; a curve through u = 0.5 is indeterminate."""
    f = Nonlinearity(eval=lambda t, u: np.where(u < 0.5, -1.0, 2.0))
    return ProblemSpec(params=DIRICHLET, weight=const_weight(), nonlinearity=f,
                       radius=1.0, grid_size=33)


def _viable_curve(a=0.0, b=1.0):
    return DiscontinuityCurve(a=a, b=b, value=lambda t: t * (t - 1.0) / 2.0,
                              second_derivative=np.ones_like, epsilon=0.1,
                              label="viable")


def _random_curves(rng, count):
    """Lines on a few shared and some distinct domains, plus one viable curve."""
    domains = [(0.0, 1.0), (0.0, 0.5), (0.25, 1.0), (1e-7, 1.0)]
    curves = [_viable_curve(*domains[rng.integers(len(domains))])]
    for k in range(count - 1):
        a, b = domains[rng.integers(len(domains))]
        if rng.random() < 0.25:
            a = float(rng.uniform(0.0, 0.4))  # a domain of its own
        c0, c1 = rng.uniform(-0.8, 0.8, size=2)
        curves.append(DiscontinuityCurve(
            a=a, b=b, value=lambda t, _c0=c0, _c1=c1: _c0 + _c1 * t,
            second_derivative=np.zeros_like, epsilon=float(rng.uniform(0.02, 0.3)),
            label=f"line_{k}"))
    order = rng.permutation(count)
    return [curves[i] for i in order]


class TestClassifyCurves:
    """One viability pass per domain gives classify_curve's results."""

    def test_divisor_curves_match_one_at_a_time(self, divisor_spec):
        curves = divisor_spec.nonlinearity.curves
        batch = classify_curves(divisor_spec, curves, t_min=1e-6)
        assert batch == [classify_curve(divisor_spec, c, t_min=1e-6) for c in curves]

    @pytest.mark.parametrize("seed", range(6))
    def test_mixed_domains_match_one_at_a_time(self, seed):
        spec, rng = _step_classifier_spec(), np.random.default_rng(seed)
        curves = _random_curves(rng, 9)
        t_min = float(rng.choice([1e-6, 0.1]))
        batch = classify_curves(spec, curves, t_min=t_min, n_t=64, n_y=12)
        single = [classify_curve(spec, c, t_min=t_min, n_t=64, n_y=12) for c in curves]
        assert batch == single
        assert [r.psi_margin for r in batch] == [r.psi_margin for r in single]
        verdicts = {r.curve: r.verdict for r in batch}
        assert verdicts["viable"] == VIABLE
        assert {INVIABLE_UPPER, INDETERMINATE} <= set(verdicts.values())

    def test_viable_tube_is_never_evaluated(self):
        def f(t, u):
            if not np.array_equal(u, np.broadcast_to(t * (t - 1.0) / 2.0, u.shape)):
                raise RuntimeError("f evaluated off the viable curve")
            return np.full(u.shape, -1.0)

        spec = replace(_step_classifier_spec(), nonlinearity=Nonlinearity(eval=f))
        with pytest.raises(RuntimeError):
            spec.nonlinearity.eval(np.array([0.5]), np.array([0.0]))
        (r,) = classify_curves(spec, [_viable_curve()])
        assert r.verdict == VIABLE and r.psi_margin == 0.0

    def test_clipped_domain_rejected(self, divisor_spec):
        curves = [divisor_spec.nonlinearity.curves[0], _viable_curve(0.0, 0.5)]
        with pytest.raises(ValueError, match="clips the whole curve domain"):
            classify_curves(divisor_spec, curves, t_min=0.7)

    def test_no_curves(self, divisor_spec):
        assert classify_curves(divisor_spec, ()) == []

    @pytest.mark.parametrize("count", [5, 7])
    def test_odd_tube_blocks_match_one_at_a_time(self, divisor_spec, count):
        # two 30 x 200 tubes per f call, so the last block holds one tube;
        # every curve has an epsilon of its own
        rng = np.random.default_rng(count)
        curves = [replace(c, epsilon=float(rng.uniform(0.02, 0.08)))
                  for c in divisor_spec.nonlinearity.curves[:count]]
        batch = classify_curves(divisor_spec, curves)
        single = [classify_curve(divisor_spec, c) for c in curves]
        assert batch == single
        assert ([np.array(r.psi_margin).tobytes() for r in batch]
                == [np.array(r.psi_margin).tobytes() for r in single])
        for r, curve in zip(batch, curves):
            assert r.verdict == INVIABLE_UPPER
            assert r.psi_margin == _loop_margins(divisor_spec, curve)[0]

    def test_divisor_certification_f_calls(self, divisor_spec):
        # estimate_HR's base samples in 2 row blocks and its curve points in
        # one call, one centre-line pass for the one shared domain, and the 16
        # tubes two at a time: 12 calls, against 33 for one curve at a time
        points = []
        f = divisor_spec.nonlinearity.eval

        def counted(t, u):
            points.append(np.broadcast(t, u).size)
            return f(t, u)

        spec = replace(divisor_spec,
                       nonlinearity=replace(divisor_spec.nonlinearity, eval=counted))
        report = certify_hypotheses(spec)
        assert len(points) == 12
        assert max(points) <= F_BLOCK
        assert sum(points) == 129_024
        assert [r.verdict for r in report.h5] == [INVIABLE_UPPER] * 16


def _loop_margins(spec, curve, t_min=1e-6, n_t=200, n_y=30):
    """Reference for classify_curve's tube: one linspace and one f call per t."""
    ts = np.linspace(max(curve.a, t_min), curve.b, n_t)
    gamma, neg_curv = curve.value(ts), -curve.second_derivative(ts)
    g = spec.weight.eval(ts)
    upper = lower = np.inf
    for i, t in enumerate(ts):
        ys = np.linspace(gamma[i] - curve.epsilon, gamma[i] + curve.epsilon, n_y)
        gf = g[i] * spec.nonlinearity.eval(np.full_like(ys, t), ys)
        upper = min(upper, float(np.min(neg_curv[i] - gf)))
        lower = min(lower, float(np.min(gf - neg_curv[i])))
    return upper, lower


def _loop_hr_profile(spec, t_grid):
    """Reference for estimate_HR's sampled profile: one f call per t."""
    r, nl = spec.radius, spec.nonlinearity
    profile = []
    for t in t_grid:
        us = [np.linspace(-r, r, HR_U_SAMPLES)]
        for curve in nl.curves:
            if curve.a <= t <= curve.b:
                gv = float(curve.value(t))
                extra = np.array([gv - curve.epsilon / 2, gv + curve.epsilon / 2])
                us.append(extra[np.abs(extra) <= r])
        uu = np.concatenate(us)
        profile.append(float(np.max(np.abs(nl.eval(np.full_like(uu, t), uu)))))
    return np.array(profile)


class TestGridPassesMatchLoops:
    """The one-pass (t, u) grids give bit-identical results to per-t loops."""

    def test_classify_curve_margins(self, divisor_spec):
        for curve in divisor_spec.nonlinearity.curves:
            r = classify_curve(divisor_spec, curve)
            upper, lower = _loop_margins(divisor_spec, curve)
            assert r.verdict == INVIABLE_UPPER and r.psi_margin == upper
            assert lower <= 0.0

    def test_classify_curve_margin_depends_on_tube(self):
        # f = 0.1 u + 1 above y = 0.3: the margin is f at the tube's lower edge
        spec, curve = poly_spec(), _const_curve(0.3, eps=0.2)
        r = classify_curve(spec, curve)
        upper, lower = _loop_margins(spec, curve)
        assert r.verdict == INVIABLE_LOWER and r.psi_margin == lower
        assert lower == pytest.approx(0.1 * (0.3 - 0.2) + 1.0)

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_tube_margins_keep_the_sign_of_zero(self, zero):
        # f = 1 on and above the curve y = 0 and 0 below it, with g = 1 and
        # -gamma'' = zero: the tube's upper margin is -1 and its lower one a
        # zero, whose sign must be that of min(g f - neg_curv), the report's
        # 0.0 and not -0.0
        def f(t, u):
            return np.where(u >= 0.0, 1.0, 0.0) + 0.0 * t

        spec = replace(_step_classifier_spec(), nonlinearity=Nonlinearity(eval=f))
        curve = DiscontinuityCurve(a=0.0, b=1.0, value=np.zeros_like, epsilon=0.1,
                                   second_derivative=lambda t: np.full_like(t, -zero))
        (r,) = classify_curves(spec, [curve], t_min=0.0, n_t=5, n_y=4)
        ts, neg_curv = np.linspace(0.0, 1.0, 5), np.full(5, zero)
        gf = f(ts, np.linspace(np.full(5, -0.1), np.full(5, 0.1), 4))
        upper, lower = float(np.min(neg_curv - gf)), float(np.min(gf - neg_curv))
        assert (upper, lower) == (-1.0, 0.0) and r.verdict == INDETERMINATE
        assert np.array(r.psi_margin).tobytes() == np.array(max(upper, lower)).tobytes()
        assert math.copysign(1.0, r.psi_margin) == 1.0

    def test_estimate_HR_profile(self, divisor_spec):
        t_grid = divisor_spec.nodes[1:]
        r = estimate_HR(divisor_spec)
        assert np.array_equal(r.profile, _loop_hr_profile(divisor_spec, t_grid))

    def test_estimate_HR_profile_small_ball(self, divisor_spec):
        # R = 0.5 excludes most curve points, so -R placeholders are exercised
        spec = replace(divisor_spec, radius=0.5)
        t_grid = np.linspace(0.01, 1.0, 37)
        r = estimate_HR(spec, t_grid=t_grid)
        assert np.array_equal(r.profile, _loop_hr_profile(spec, t_grid))

    @pytest.mark.parametrize("radius, t_count", [(None, None), (0.5, None), (None, 1000)])
    def test_estimate_HR_profile_across_blocks(self, divisor_spec, radius, t_count):
        # 256 rows: 81 base rows per f call leave a block of 13, and at
        # R = 0.5 -R placeholders fill most curve columns; 1000 rows put the
        # 32 curve columns in blocks of 512 and 488 rows
        spec = replace(divisor_spec, grid_size=257, radius=radius or divisor_spec.radius)
        t_grid = spec.nodes[1:] if t_count is None else np.linspace(1e-3, 1.0, t_count)
        assert t_grid.size % (F_BLOCK // HR_U_SAMPLES) != 0
        r = estimate_HR(spec, t_grid=t_grid)
        assert r.profile.tobytes() == _loop_hr_profile(spec, t_grid).tobytes()


class TestSimplexLeastSquares:
    def test_segment_closed_form(self):
        v = np.array([[1.0, 0.0], [0.0, 1.0]])
        lam, dist = simplex_least_squares(v, np.zeros(2))
        assert dist == pytest.approx(np.sqrt(2) / 2, abs=1e-10)
        assert np.allclose(lam, [0.5, 0.5], atol=1e-10)

    def test_target_is_a_vertex(self):
        v = np.array([[1.0, -2.0], [2.0, 0.5]])
        lam, dist = simplex_least_squares(v, np.array([1.0, 2.0]))
        assert dist <= 1e-12
        assert lam[0] == pytest.approx(1.0, abs=1e-10)

    def test_matches_slsqp_oracle(self):
        from scipy.optimize import minimize

        rng = np.random.default_rng(17)
        cases = [(rng.normal(size=(5, 4)), rng.normal(size=5)) for _ in range(10)]
        cases += [
            (np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), np.zeros(2)),  # repeated vertex
            (np.array([[0.0, 1.0, 2.0], [1.0, 2.0, 3.0]]), np.array([2.0, 0.0])),  # collinear
            (np.array([[1.0, -1.0, 0.0], [0.0, 0.0, 1.0]]), np.array([0.0, 0.3])),  # inside
            _step_probe_points(),  # numerically rank-deficient
            # points 1e-21 apart: their bordered Gram system is singular
            (np.array([[1.8418738307527256e-08, 1.8418738307511318e-08,
                        1.841873830749787e-08]]), np.array([-2.047607434600122e-08])),
        ]
        for v, y in cases:
            m = v.shape[1]
            lam, dist = simplex_least_squares(v, y)
            # SLSQP's ftol is absolute: its objective is scaled to order 1, its
            # gradient is exact, and it stops on the step, not on ftol
            p = v - y[:, None]
            scale = np.max(np.sum(p ** 2, axis=0))
            ref = minimize(lambda x: np.sum((p @ x) ** 2) / scale, np.full(m, 1 / m),
                           jac=lambda x: 2.0 * p.T @ (p @ x) / scale, method="SLSQP",
                           bounds=[(0, 1)] * m,
                           constraints={"type": "eq", "fun": lambda x: x.sum() - 1},
                           options={"ftol": 1e-20, "maxiter": 500})
            ref_dist = np.sqrt(ref.fun * scale)
            assert dist == pytest.approx(ref_dist, abs=1e-9)
            assert dist <= ref_dist + 1e-12

    def test_near_equal_points_no_farther_than_a_vertex(self):
        # points 1e-9 apart: rounding in the bordered Gram system keeps the
        # major step from lowering ||x|| (the first draw does this), and the
        # line search toward the added point takes over.  SLSQP does not
        # resolve 1e-9 here, so the oracle is the nearest vertex
        rng = np.random.default_rng(0)
        for _ in range(30):
            dim, m = rng.integers(2, 6), rng.integers(2, 8)
            v = rng.normal(size=(dim, 1)) + 1e-9 * rng.normal(size=(dim, m))
            y = rng.normal(size=dim)
            lam, dist = simplex_least_squares(v, y)
            p = v - y[:, None]
            assert lam.min() >= 0.0 and lam.sum() == pytest.approx(1.0, abs=1e-12)
            # to the stopping rule's eps times the Gram trace
            slack = 2 * np.finfo(float).eps * np.vdot(p, p)
            assert dist ** 2 <= np.min(np.sum(p ** 2, axis=0)) + slack

    def test_nested_enrichment_monotone(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            dim, m = 6, 8
            v = rng.normal(size=(dim, m))
            y = rng.normal(size=dim)
            prev = np.inf
            lam_prev = None
            for k in range(1, m + 1):
                warm = None
                if lam_prev is not None:
                    warm = np.zeros(k)
                    warm[:k - 1] = lam_prev
                lam_prev, dist = simplex_least_squares(v[:, :k], y, coeffs0=warm)
                assert dist <= prev + 1e-12
                prev = dist


# u for smoke_spec(grid_size=65), whose R is 1: on 33 nodes, and u = 5
REJECTED_U = [
    pytest.param(GridFunction.zero(np.linspace(0.0, 1.0, 33)), ValueError, "spec.nodes",
                 id="off-grid"),
    pytest.param(GridFunction(np.linspace(0.0, 1.0, 65), np.full(65, 5.0), np.zeros(65)),
                 BallViolation, "exceeds the ball radius", id="outside-ball")]


class TestConvexificationProbe:
    def test_single_sample_fixed_point(self):
        # u = T(anything) for constant f is the fixed point; its own image
        # is the only hull vertex, so the distance is exactly zero
        spec = smoke_spec()
        u = apply_T(spec, GridFunction.zero(spec.nodes))
        r = convexification_probe(spec, u, eps=0.01, n_samples=1)
        assert r.hull_distance == 0.0
        assert np.allclose(r.witness_coeffs, [1.0])

    def test_step_solution_leaves_the_first_vertex(self):
        # the first vertex's gap is ||u - Tu||, the residual; the nearest
        # point of the images' hull lies far closer to u
        spec = _crossing_step_spec()
        sol = solve_picard(spec)
        r = convexification_probe(spec, sol.u, eps=1e-3, n_samples=5)
        assert r.hull_distance <= 1e-2 * sol.residual
        assert r.witness_coeffs[0] < 1.0

    def test_bumps_need_a_node_inside_their_window(self):
        # at 5 nodes the quarter windows [k/4, (k+1)/4] hold no node inside, so
        # bump 4 would be rounding error normalized to norm 1
        spec = replace(smoke_spec(), grid_size=5)
        u = GridFunction.zero(spec.nodes)
        for j in range(1, 10):
            if j < 4:
                _bumps(spec.nodes, [j])[0]
            else:
                with pytest.raises(ValueError, match=f"n_samples must be <= {2 * j - 1}"):
                    _bumps(spec.nodes, [j])[0]
        assert len(convexification_probe(spec, u, eps=1e-2, n_samples=7).history) == 7
        with pytest.raises(ValueError, match="n_samples must be <= 7"):
            convexification_probe(spec, u, eps=1e-2, n_samples=8)
        # linspace puts node 49 of 99, which is 1/2 exactly, an ulp inside
        # bump 191's window [63/128, 1/2]
        nodes = np.linspace(0.0, 1.0, 99)
        assert 0.0 < 0.5 - nodes[49] <= np.spacing(0.5)
        with pytest.raises(ValueError):
            _bumps(nodes, [191])[0]

    def test_converged_solution_distance_at_residual_level(self):
        spec = poly_spec()
        sol = solve_picard(spec, tol=1e-12)
        r = convexification_probe(spec, sol.u, eps=1e-3, n_samples=5)
        assert r.hull_distance <= 2 * max(sol.residual, 1e-15)

    def test_history_non_increasing(self):
        spec = poly_spec()
        u = GridFunction.zero(spec.nodes)
        r = convexification_probe(spec, u, eps=1e-2, n_samples=7)
        assert all(a >= b - 1e-15 for a, b in zip(r.history[:-1], r.history[1:]))

    def test_distance_tracks_operator_gap_as_eps_shrinks(self):
        # at u = 0 the operator image is far away; as eps -> 0 the hull
        # collapses onto {Tu}, so the distance approaches ||u - Tu||
        spec = poly_spec()
        u = GridFunction.zero(spec.nodes)
        gap = residual(spec, u)
        lip = 0.1 * 0.625  # Lipschitz(f) * (M1 + M2)
        for eps in (1e-2, 1e-3, 1e-4):
            r = convexification_probe(spec, u, eps=eps, n_samples=5)
            assert abs(r.hull_distance - gap) <= lip * eps + 10 * spec.quad_tol

    def test_ball_precondition(self):
        spec = smoke_spec()
        u = apply_T(spec, GridFunction.zero(spec.nodes))  # norm 0.625
        with pytest.raises(BallViolation):
            convexification_probe(spec, u, eps=0.5, n_samples=3)

    @staticmethod
    def constant_u(spec, excess):
        """u = c with ||u|| + 0.5 = R + excess * (the ball slack 10*quad_tol + 1e-12)."""
        c = spec.radius - 0.5 + excess * (10 * spec.quad_tol + 1e-12)
        return GridFunction(spec.nodes, np.full(spec.grid_size, c), np.zeros(spec.grid_size))

    def test_ball_precondition_within_the_slack(self):
        # every sample then has ||w|| <= ||u|| + eps, which apply_T accepts
        spec = smoke_spec()
        r = convexification_probe(spec, self.constant_u(spec, 0.5), eps=0.5, n_samples=3)
        assert len(r.history) == 3

    def test_ball_precondition_beyond_the_slack(self):
        spec = smoke_spec()
        with pytest.raises(BallViolation):
            convexification_probe(spec, self.constant_u(spec, 2.0), eps=0.5, n_samples=3)

    def test_history_is_nested(self):
        # the samples for 3 are the first 3 for 5, so the distances are too
        spec = poly_spec()
        u = GridFunction.zero(spec.nodes)
        r3 = convexification_probe(spec, u, eps=0.05, n_samples=3)
        r5 = convexification_probe(spec, u, eps=0.05, n_samples=5)
        assert r5.history[:3] == r3.history
        assert r5.history[-1] < r5.history[0]

    def test_the_step_probe_samples_f_once(self):
        # the step-crossing workload's exact rule: one f call where one T per sample
        # made 5, on the same points
        spec = replace(_crossing_step_spec(),
                       weight=make_weight_from_id("constant", {"value": 1.0}))
        u = solve_picard(spec).u
        f = Counted(spec.nonlinearity.eval)
        counted = replace(spec, nonlinearity=replace(spec.nonlinearity, eval=f))
        convexification_probe(counted, u, eps=1e-3, n_samples=5)
        assert spec.exact_points == 1 and f.calls == 1
        probe_points, f.calls, f.points = f.points, 0, 0
        y = np.array((u.values, u.derivatives))
        for w in [y] + [y + sign * 1e-3 * _bumps(spec.nodes, [j])[0]
                        for j in (1, 2) for sign in (1, -1)]:
            bvpkit.hypotheses._apply_T(counted, w)
        assert f.calls == 5 and f.points == probe_points

    def test_bumps_in_one_pass_are_each_bump_alone(self):
        for n in (5, 17, 99, 129, 257):
            nodes = np.linspace(0.0, 1.0, n)
            usable = [j for j in range(1, 64) if (j.bit_length() - 1) <= np.log2(n - 1) - 1]
            together = _bumps(nodes, usable)
            for j, bump in zip(usable, together):
                assert bump.tobytes() == _bumps(nodes, [j])[0].tobytes()
        # the first window with no node inside is the one named
        with pytest.raises(ValueError, match="bump 4 has no node"):
            _bumps(np.linspace(0.0, 1.0, 5), range(1, 10))

    @pytest.mark.parametrize("u, error, match", REJECTED_U)
    def test_u_off_the_grid_or_outside_the_ball_is_rejected(self, u, error, match):
        with pytest.raises(error, match=match):
            convexification_probe(smoke_spec(grid_size=65), u, eps=1e-3, n_samples=3)


def reference_probe(spec, u, eps, n_samples, solve=simplex_least_squares):
    """The probe loop that measures all m vertices at each enrichment, with a
    zero-padded warm start, on the +/- bump family built by a toggle."""
    family, j, sign = [u], 1, +1
    while len(family) < n_samples:
        bv, bd = _bumps(u.nodes, [j])[0]
        family.append(GridFunction(u.nodes, u.values + sign * eps * bv,
                                   u.derivatives + sign * eps * bd))
        j, sign = (j, -1) if sign > 0 else (j + 1, +1)
    images = [apply_T(spec, w) for w in family]
    cols = np.stack([np.concatenate([im.values, im.derivatives]) for im in images],
                    axis=1)
    y = np.concatenate([u.values, u.derivatives])
    best, witness, history, coeffs = np.inf, None, [], None
    for m in range(1, n_samples + 1):
        warm = None
        if coeffs is not None:
            warm = np.zeros(m)
            warm[:m - 1] = coeffs
        coeffs, _ = solve(cols[:, :m], y, coeffs0=warm)
        for lam in [coeffs] + [np.eye(m)[i] for i in range(m)]:
            delta = cols[:, :m] @ lam - y
            half = delta.size // 2
            d = float(np.max(np.abs(delta[:half])) + np.max(np.abs(delta[half:])))
            if d < best:
                best = d
                witness = np.zeros(n_samples)
                witness[:m] = lam
        history.append(best)
    return best, history, witness


def _step_spec():
    """Dirichlet, g = 1, f steps from 2 down to -1 at u = 0.1: Picard chatters
    across the threshold, which its iterates cross twice."""
    return ProblemSpec(params=DIRICHLET, weight=const_weight(),
                       nonlinearity=make_nonlinearity_from_id(
                           "step", {"low": 2.0, "high": -1.0, "threshold": 0.1}),
                       radius=4.0, quad_tol=1e-9, grid_size=129)


def _crossing_step_spec():
    """Dirichlet, g = 1, f steps from 1 up to 2 at u = 0.05: Picard converges,
    and its solution crosses the threshold twice."""
    return ProblemSpec(params=DIRICHLET, weight=const_weight(),
                       nonlinearity=make_nonlinearity_from_id(
                           "step", {"low": 1.0, "high": 2.0, "threshold": 0.05}),
                       radius=4.0, quad_tol=1e-9, grid_size=129)


def _step_probe_points():
    """(vertices, target) of the probe at _crossing_step_spec's solution, eps
    1e-3 and 5 samples: the images' singular values run from 15 down to 2e-10."""
    spec = _crossing_step_spec()
    u = solve_picard(spec).u
    family = [u]
    for j in (1, 2):
        bv, bd = _bumps(u.nodes, [j])[0]
        family += [GridFunction(u.nodes, u.values + sign * 1e-3 * bv,
                                u.derivatives + sign * 1e-3 * bd) for sign in (+1, -1)]
    images = [apply_T(spec, w) for w in family]
    return (np.stack([np.concatenate([im.values, im.derivatives]) for im in images], axis=1),
            np.concatenate([u.values, u.derivatives]))


def _linear_spec():
    """Dirichlet, g = 1, f = 1 - 1.4 u: Picard halves its relaxation."""
    return ProblemSpec(params=DIRICHLET, weight=const_weight(),
                       nonlinearity=make_nonlinearity_from_id(
                           "polynomial", {"coeffs": [1.0, -1.4]}),
                       radius=10.0, quad_tol=1e-9, grid_size=65)


class TestProbeMatchesReference:
    """Each vertex measured once, when it joins, gives the all-vertex result."""

    @pytest.fixture(scope="class", params=["smoke", "step", "linear"])
    def spec_and_solution(self, request):
        spec = {"smoke": smoke_spec, "step": _step_spec,
                "linear": _linear_spec}[request.param]()
        sol = solve_picard(spec, tol=1e-8)
        assert sol.converged == (request.param != "step")
        assert [n for _, n in sol.curve_crossings] == ([2] if request.param == "step" else [])
        return spec, sol.u

    @pytest.mark.parametrize("target", ["solution", "zero"])
    @pytest.mark.parametrize("eps", [1e-3, 1e-2])
    def test_bitwise_equal(self, spec_and_solution, target, eps):
        spec, u_sol = spec_and_solution
        u = u_sol if target == "solution" else GridFunction.zero(spec.nodes)
        for n in (1, 2, 5, 9):
            r = convexification_probe(spec, u, eps, n)
            best, history, witness = reference_probe(spec, u, eps, n)
            assert r.hull_distance == best
            assert r.history == history
            assert np.array_equal(r.witness_coeffs, witness)

    def test_vertices_compete_with_the_coefficients(self, monkeypatch):
        # a stand-in solver that always returns vertex 0 leaves the newest
        # vertices to lower the distance
        def first_vertex(vertices, target, coeffs0=None):
            lam = np.zeros(vertices.shape[1])
            lam[0] = 1.0
            return lam, float(np.linalg.norm(vertices[:, 0] - target))

        monkeypatch.setattr(bvpkit.hypotheses, "simplex_least_squares", first_vertex)
        spec = _linear_spec()
        u = GridFunction.zero(spec.nodes)
        r = convexification_probe(spec, u, 0.5, 9)
        best, history, witness = reference_probe(spec, u, 0.5, 9, solve=first_vertex)
        assert r.history[-1] < r.history[0]
        assert (r.hull_distance, r.history) == (best, history)
        assert np.array_equal(r.witness_coeffs, witness)

    def test_bump_lives_on_its_dyadic_window(self):
        nodes = np.linspace(0.0, 1.0, 257)
        for j in range(1, 32):
            level = int(np.floor(np.log2(j)))
            a, b = (j - 2 ** level) / 2 ** level, (j - 2 ** level + 1) / 2 ** level
            vals, ders = _bumps(nodes, [j])[0]
            outside = (nodes < a) | (nodes > b)
            assert outside.any() == (j > 1)
            assert np.max(np.abs(vals[outside]), initial=0.0) <= 1e-12
            assert np.max(np.abs(ders[outside]), initial=0.0) <= 1e-12
            assert norm_c1(GridFunction(nodes, vals, ders)) == pytest.approx(1.0, abs=1e-14)


class TestEquicontinuityCheck:
    @pytest.mark.parametrize("seed, passed", [(0, True), (1, False), (2, False),
                                              (3, False), (4, False)])
    def test_divisor_ball_functions_apply_no_T(self, divisor_spec, seed, passed):
        # 1000 f points is below one apply_T round (3072 on 128 panels), so the
        # check applies no T; apply_T itself does not finish on these functions
        f = Counted(divisor_spec.nonlinearity.eval, max_points=1000)
        spec = replace(divisor_spec, nonlinearity=replace(divisor_spec.nonlinearity, eval=f))
        u = random_ball_function(spec, np.random.default_rng(seed), 0.9)
        rep = equicontinuity_check(spec, u)
        assert rep.n_checked == 128
        assert rep.passed is passed
        assert (rep.max_excess <= 0.0) is passed

    @pytest.mark.parametrize("u, error, match", REJECTED_U)
    def test_u_off_the_grid_or_outside_the_ball_is_rejected(self, u, error, match):
        # H_R bounds f on the ball alone, and u is read at spec's nodes: both
        # cases used to report passed
        with pytest.raises(error, match=match):
            equicontinuity_check(smoke_spec(grid_size=65), u)

    def test_reads_u_at_its_nodes(self):
        # u's node values, not an interpolant: f = u makes the excess |u| - R
        spec = ProblemSpec(params=DIRICHLET, weight=const_weight(),
                           nonlinearity=Nonlinearity(eval=lambda t, u: u + 0.0 * t,
                                                     local_bound=lambda t, r: r + 0.0 * t),
                           radius=2.0, grid_size=17)
        u = random_ball_function(spec, np.random.default_rng(5), 0.9)
        rep = equicontinuity_check(spec, u, t_min=0.25)
        assert rep.n_checked == 13
        i = int(np.argmax(np.abs(u.values[4:])))
        assert rep.max_excess == np.abs(u.values[4:])[i] - 2.0
        assert rep.worst_t == spec.nodes[4 + i]


class TestCertifyPipeline:
    def test_smoke_overall(self):
        spec = smoke_spec()
        rep = certify_hypotheses(spec)
        assert rep.h1.passed
        assert rep.h3.passed
        assert rep.h4 == "asserted"
        assert rep.h5 == []
        assert rep.overall

    def test_report_carries_its_bounds(self):
        spec = smoke_spec()
        assert certify_hypotheses(spec).bounds == bounds_report(spec)
        given = bounds_report(spec)
        assert certify_hypotheses(spec, bounds=given).bounds is given

    @pytest.mark.parametrize("which, l1", [("smoke", 1.0), ("divisor", 2.0)])
    def test_h1_comes_from_the_bounds_pass(self, monkeypatch, divisor_spec, which, l1):
        import bvpkit.hammerstein
        import bvpkit.quadrature

        def no_h1(*args, **kwargs):
            raise AssertionError("certification integrated the weight on its own")

        spec = divisor_spec if which == "divisor" else smoke_spec()
        assert spec.grid_size == 129
        calls = Counted(bvpkit.quadrature.integrate_groups)
        monkeypatch.setattr(bvpkit.hypotheses, "check_h1", no_h1)
        for module in (bvpkit.hammerstein, bvpkit.hypotheses, bvpkit.quadrature):
            monkeypatch.setattr(module, "integrate_groups", calls)
        rep = certify_hypotheses(spec)
        assert rep.h1.passed
        assert rep.h1.l1_norm == pytest.approx(l1, abs=1e-9)
        # the node pass, then M1's refinement: one call where g is constant
        assert calls.calls == {"smoke": 2, "divisor": 3}[which]

    def test_divisor_pipeline_reports_h3_gap(self, divisor_spec, divisor_bounds):
        rep = certify_hypotheses(divisor_spec, bounds=divisor_bounds)
        assert rep.h1.passed
        assert rep.h1.l1_norm == pytest.approx(2.0, abs=1e-9)
        assert rep.h4 == "checked_by_decomposition"
        assert len(rep.h5) == 16
        assert all(c.verdict == INVIABLE_UPPER for c in rep.h5)
        # sampled sup exceeds the power-law premise, so h3 fails empirically
        assert rep.h2.sup > 4.0 ** (1 / 3)
        assert not rep.h3.passed
        # under the premise the radius selection used, it passes
        assert check_h3(divisor_spec, divisor_bounds, hr_sup=4.0 ** (1 / 3)).passed
