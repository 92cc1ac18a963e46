import math
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from bvpkit import (DIRICHLET, BallViolation, PhiExample, apply_T, bc_residual,
                    bounds_report, build_problem, check_h1, equicontinuity_check, grid_eval,
                    norm_c1, residual, solve_picard, validate_params)
from bvpkit.catalog import make_nonlinearity_from_id, make_weight_from_id
from bvpkit.errors import DomainError, MaxDepthExceeded, NonFiniteIntegrand
from bvpkit.hammerstein import STACK_POINTS, _apply_T, _closed_forms, _running_integrals
from bvpkit.hypotheses import _bumps
from bvpkit.kernel import left_factor, right_factor
from bvpkit.model import GridFunction, Nonlinearity, ProblemSpec, Weight
from bvpkit.quadrature import BLOCK, integrate_groups, make_plan

from conftest import (Counted, const_nonlinearity, const_weight, crossings_of,
                      random_ball_function, smoke_spec)


def sin_forcing_spec(quad_tol=1e-10):
    f = Nonlinearity(eval=lambda t, u: np.pi ** 2 * np.sin(np.pi * np.asarray(t, float)),
                     local_bound=lambda t, r: np.pi ** 2)
    return ProblemSpec(params=DIRICHLET, weight=const_weight(), nonlinearity=f,
                       radius=np.pi ** 2, quad_tol=quad_tol, grid_size=129)


class TestApplyT:
    def test_constant_forcing_closed_form(self):
        spec = smoke_spec()
        rng = np.random.default_rng(2)
        for u in (GridFunction.zero(spec.nodes), random_ball_function(spec, rng)):
            tu = apply_T(spec, u)
            t = spec.nodes
            assert np.max(np.abs(tu.values - t * (1 - t) / 2)) <= 2 * spec.quad_tol
            assert np.max(np.abs(tu.derivatives - (1 - 2 * t) / 2)) <= 2 * spec.quad_tol
        v, d = tu.values[64], tu.derivatives[64]
        assert v == pytest.approx(0.125, abs=1e-9)
        assert d == pytest.approx(0.0, abs=1e-9)

    def test_zero_nonlinearity(self):
        spec = smoke_spec()
        spec = ProblemSpec(params=spec.params, weight=spec.weight,
                           nonlinearity=Nonlinearity(
                               eval=lambda t, u: np.zeros_like(np.asarray(t, float)),
                               local_bound=lambda t, r: 0.0),
                           radius=1.0, quad_tol=spec.quad_tol, grid_size=spec.grid_size)
        tu = apply_T(spec, GridFunction.zero(spec.nodes))
        assert np.all(tu.values == 0.0)
        assert np.all(tu.derivatives == 0.0)

    def test_sin_solution(self):
        spec = sin_forcing_spec()
        tu = apply_T(spec, GridFunction.zero(spec.nodes))
        t = spec.nodes
        assert np.max(np.abs(tu.values - np.sin(np.pi * t))) <= 1e-8
        assert tu.values[64] == pytest.approx(1.0, abs=1e-8)

    def test_independent_of_u_when_f_is(self):
        spec = smoke_spec()
        rng = np.random.default_rng(8)
        tu1 = apply_T(spec, GridFunction.zero(spec.nodes))
        tu2 = apply_T(spec, random_ball_function(spec, rng))
        assert np.allclose(tu1.values, tu2.values, atol=2 * spec.quad_tol)
        assert np.allclose(tu1.derivatives, tu2.derivatives, atol=2 * spec.quad_tol)

    def test_u_on_another_grid_rejected(self):
        spec = smoke_spec()
        with pytest.raises(ValueError, match="spec.nodes"):
            apply_T(spec, GridFunction.zero(np.linspace(0.0, 1.0, 65)))

    def test_ball_violation(self):
        spec = smoke_spec()
        too_big = GridFunction(spec.nodes, np.full(spec.grid_size, 2.0),
                               np.zeros(spec.grid_size))
        with pytest.raises(BallViolation):
            apply_T(spec, too_big)

    def test_self_mapping_under_h3(self):
        # H3 holds for the smoke problem (1 * 0.625 <= 1), so T keeps the ball
        spec = smoke_spec()
        rng = np.random.default_rng(13)
        for _ in range(20):
            u = random_ball_function(spec, rng, fill=rng.uniform(0.1, 1.0))
            assert norm_c1(apply_T(spec, u)) <= spec.radius + 10 * spec.quad_tol


class TestPlantedDoubleCrossing:
    """u - 0.05 = 100 (t - 0.5043)(t - 0.50508) dips 1.5e-5 below the step curve
    inside one scan cell.  The declared curve's crossings split T's panels at
    both roots; a reference split there by scipy.integrate.quad, one call per
    piece, agrees within quad_tol."""

    R1, R2 = 0.5043, 0.50508

    @classmethod
    def spec_and_u(cls):
        nl = make_nonlinearity_from_id("step", {"low": 1.0, "high": 2.0, "threshold": 0.05})
        spec = ProblemSpec(params=DIRICHLET, weight=make_weight_from_id("constant", {}),
                           nonlinearity=nl, radius=200.0, grid_size=129)
        t = spec.nodes
        u = GridFunction(t, 0.05 + 100 * (t - cls.R1) * (t - cls.R2),
                         100 * (2 * t - cls.R1 - cls.R2))
        return spec, u

    @classmethod
    def reference(cls, nodes):
        """Tu and (Tu)' at the nodes: f = 1 between the roots and 2 outside them,
        against the Dirichlet kernel s(1 - t) for s < t and t(1 - s) for s > t."""
        from scipy.integrate import quad

        def f(s):
            return 1.0 if cls.R1 < s < cls.R2 else 2.0

        vals, ders = [], []
        for t in nodes:
            cuts = sorted({0.0, cls.R1, cls.R2, float(t), 1.0})
            v = d = 0.0
            for lo, hi in zip(cuts, cuts[1:]):
                left = hi <= t  # s < t on this piece
                mid = 0.5 * (lo + hi)
                v += quad(lambda s: (s * (1 - t) if left else t * (1 - s)) * f(mid),
                          lo, hi, epsabs=1e-14, epsrel=1e-14)[0]
                d += quad(lambda s: (-s if left else 1 - s) * f(mid),
                          lo, hi, epsabs=1e-14, epsrel=1e-14)[0]
            vals.append(v)
            ders.append(d)
        return np.array(vals), np.array(ders)

    def test_T_splits_at_both_roots(self):
        spec, u = self.spec_and_u()
        ref_v, ref_d = self.reference(spec.nodes)
        tu = apply_T(spec, u)
        assert np.max(np.abs(tu.values - ref_v)) + np.max(np.abs(tu.derivatives - ref_d)) \
            <= spec.quad_tol
        # the scanned twin of the curve misses both roots: T is then off by about 4e-4
        curve = spec.nonlinearity.curves[0]
        twin = replace(spec, nonlinearity=replace(spec.nonlinearity,
                                                  curves=(replace(curve, poly=None),)))
        missed = apply_T(twin, u)
        assert np.max(np.abs(missed.values - ref_v)) + np.max(np.abs(missed.derivatives - ref_d)) \
            > 1e4 * spec.quad_tol


class TestPlantedFanLinePair:
    """u = (l - delta) s, with l the tangent of 3 sqrt(t) at t0 = 0.25 + 1/1024
    (the middle of a scan cell) and s a smoothstep from 0 at t = 0 to 1 for
    t >= 0.15, dips delta below the divisor's fan line gamma_3 and crosses it
    twice inside one scan cell.  The fan line declares (0, 3) in sqrt(t), so
    both crossings split T's panels.  The reference integrates g f(., u) by
    scipy.integrate.quad, one call per piece, split at every level change of
    the region map along u, found by sampling and brentq.  A scan of gamma_3
    sees neither crossing of the pair, and T was then 1.2e-7 (delta = 1e-6)
    and 1.0e-7 (delta = 1e-7) off in max|value| + max|derivative|."""

    T0, RAMP = 0.25 + 1 / 1024, 0.15

    @classmethod
    def spec_and_u(cls, delta):
        spec = build_problem(PhiExample(), validate_params(1.0, 1.0, 1.0, 1.0), radius=40.0,
                             grid_size=129)
        t, m = spec.nodes, 1.5 / math.sqrt(cls.T0)
        line = 3 * math.sqrt(cls.T0) + m * (t - cls.T0) - delta
        x = np.minimum(t / cls.RAMP, 1.0)
        ramp, dramp = x * x * (3 - 2 * x), 6 * x * (1 - x) / cls.RAMP
        return spec, GridFunction(t, line * ramp, m * ramp + line * dramp)

    @classmethod
    def pair(cls, delta):
        """Where l - delta = 3 sqrt(t): m x**2 - 3x + l(0) - delta = 0 in x =
        sqrt(t), m = 1.5 / sqrt(t0) and l(0) = 1.5 sqrt(t0), so x = sqrt(t0)
        (1 -+ sqrt(6 delta / sqrt(t0)) / 3)."""
        r0 = math.sqrt(cls.T0)
        e = math.sqrt(6 * delta / r0) / 3
        return (r0 * (1 - e)) ** 2, (r0 * (1 + e)) ** 2

    @staticmethod
    def level_changes(u):
        """Where the region index n(s, u(s)) changes, from 2**16 samples and
        brentq on u(s) - k sqrt(s); u > 0 here, so each change crosses a fan line."""
        from scipy.optimize import brentq
        from bvpkit.example_phi import _region_array
        s = np.linspace(0.0, 1.0, 2 ** 16 + 1)[1:]
        vals = grid_eval(u, s)[0]
        assert (vals > 0.0).all()
        n = _region_array(s, vals)
        changes = []
        for i in np.nonzero(np.diff(n))[0]:
            assert abs(n[i + 1] - n[i]) == 1
            k = max(n[i], n[i + 1]) - 1
            changes.append(brentq(lambda r: grid_eval(u, r)[0] - k * math.sqrt(r), s[i], s[i + 1],
                                  xtol=1e-16, rtol=1e-15))
        return changes

    @staticmethod
    def reference(spec, u, changes):
        """Tu and (Tu)' at the nodes: L and R summed over the pieces between the
        nodes and the level changes, on each of which f is constant and g ds =
        2 dx in x = sqrt(s)."""
        from scipy.integrate import quad
        p, nodes = spec.params, spec.nodes
        cuts = np.unique(np.concatenate((nodes, changes)))
        left, right = np.zeros(cuts.size - 1), np.zeros(cuts.size - 1)
        for j, (lo, hi) in enumerate(zip(cuts[:-1], cuts[1:])):
            mid = 0.5 * (lo + hi)
            f = float(spec.nonlinearity.eval(mid, grid_eval(u, mid)[0]))
            for out, factor in ((left, left_factor), (right, right_factor)):
                out[j] = f * quad(lambda x: 2.0 * factor(p, x * x), math.sqrt(lo), math.sqrt(hi),
                                  epsabs=1e-14, epsrel=1e-14)[0]
        at = np.searchsorted(cuts, nodes)
        L = np.concatenate(([0.0], np.cumsum(left)))[at]
        R = np.concatenate((np.cumsum(right[::-1])[::-1], [0.0]))[at]
        return _closed_forms(spec, nodes, L, R)

    @pytest.mark.parametrize("delta", [1e-6, 1e-7])
    def test_T_splits_at_both_crossings(self, delta):
        spec, u = self.spec_and_u(delta)
        curves = spec.nonlinearity.curves
        gamma_3 = next(c for c in curves if c.label == "gamma_3")
        assert gamma_3.poly == (0.0, 3.0) and gamma_3.poly_in == "sqrt(t)"
        pair = self.pair(delta)
        assert 0.25 < pair[0] < pair[1] < 0.25 + 1 / 512  # one scan cell
        near = [x for x in crossings_of(u, (gamma_3,))[0] if abs(x - self.T0) < 1 / 512]
        assert len(near) == 2 and np.max(np.abs(np.subtract(near, pair))) <= 1e-12
        # T's breakpoints are the reference's level changes
        changes = self.level_changes(u)
        breaks = sorted(x for xs in crossings_of(u, curves) for x in xs)
        assert len(breaks) == len(changes)
        assert np.max(np.abs(np.subtract(breaks, changes))) <= 1e-12
        ref_v, ref_d = self.reference(spec, u, changes)
        tu = apply_T(spec, u)
        assert np.max(np.abs(tu.values - ref_v)) + np.max(np.abs(tu.derivatives - ref_d)) \
            <= spec.quad_tol


class TestResidual:
    def test_exact_fixed_point(self):
        spec = smoke_spec()
        t = spec.nodes
        u = GridFunction(t, t * (1 - t) / 2, (1 - 2 * t) / 2)
        assert residual(spec, u) <= 2 * spec.quad_tol

    def test_zero_function_defect(self):
        spec = smoke_spec()
        assert residual(spec, GridFunction.zero(spec.nodes)) == \
            pytest.approx(0.625, abs=1e-9)

    def test_zero_problem(self):
        spec = ProblemSpec(params=DIRICHLET, weight=const_weight(),
                           nonlinearity=Nonlinearity(
                               eval=lambda t, u: np.zeros_like(np.asarray(t, float)),
                               local_bound=lambda t, r: 0.0),
                           radius=1.0, quad_tol=1e-10, grid_size=65)
        assert residual(spec, GridFunction.zero(spec.nodes)) == 0.0


class TestBounds:
    def test_dirichlet_closed_forms(self):
        spec = smoke_spec(quad_tol=1e-10)
        rep = bounds_report(spec)
        assert rep.m1 == pytest.approx(0.125, abs=1e-8)
        assert rep.m2 == pytest.approx(0.5, abs=1e-8)
        assert rep.argmax_t_m1 == pytest.approx(0.5, abs=1e-6)
        assert rep.argmax_t_m2 in (pytest.approx(0.0, abs=1e-6),
                                   pytest.approx(1.0, abs=1e-6))

    def test_single_bound_entry_points(self):
        spec = smoke_spec(quad_tol=1e-10, grid_size=65)
        assert bounds_report(spec).m1 == pytest.approx(0.125, abs=1e-8)
        assert bounds_report(spec).m2 == pytest.approx(0.5, abs=1e-8)

    def test_divisor_example_total(self, divisor_bounds):
        # closed forms: sup of 10/9 + 10t/9 - 4t**1.5/3 is 2680/2187 at t=25/81,
        # sup of (10/3 - 2 sqrt(t) + 4 t**1.5/3)/3 is 10/9 at t=0
        assert divisor_bounds.m1 == pytest.approx(2680 / 2187, abs=1e-7)
        assert divisor_bounds.m2 == pytest.approx(10 / 9, abs=1e-7)
        assert divisor_bounds.m_total == pytest.approx(2.336, abs=0.005)
        assert divisor_bounds.argmax_t_m1 == pytest.approx(25 / 81, abs=1e-4)

    def test_divisor_argmax_within_refinement_width(self, divisor_bounds):
        assert divisor_bounds.argmax_t_m1 == pytest.approx(25 / 81, abs=1e-7)

    @pytest.mark.parametrize("which", ["smoke", "divisor"])
    def test_m1_refinement_rounds_are_few_quadrature_calls(self, monkeypatch, which,
                                                           divisor_spec):
        import bvpkit.hammerstein
        spec = divisor_spec if which == "divisor" else smoke_spec(quad_tol=1e-10)
        assert spec.grid_size == 129
        calls = Counted(bvpkit.hammerstein.integrate_groups)
        monkeypatch.setattr(bvpkit.hammerstein, "integrate_groups", calls)
        bounds_report(spec)
        # the node pass, then M1's refinement: one call where g is constant
        assert calls.calls == {"smoke": 2, "divisor": 3}[which]

    def test_divisor_example_against_scipy(self, divisor_spec):
        from scipy.integrate import quad

        def m1_of(t):
            lo = quad(lambda s: (2 - t) * (1 + s) / 3 / np.sqrt(s), 0, t)[0] if t else 0
            hi = quad(lambda s: (1 + t) * (2 - s) / 3 / np.sqrt(s), t, 1)[0]
            return lo + hi

        rep = bounds_report(divisor_spec)
        assert rep.m1 == pytest.approx(m1_of(rep.argmax_t_m1), abs=1e-8)

    def test_zero_weight(self):
        spec = ProblemSpec(params=DIRICHLET, weight=const_weight(0.0),
                           nonlinearity=Nonlinearity(
                               eval=lambda t, u: np.ones_like(np.asarray(t, float)),
                               local_bound=lambda t, r: 1.0),
                           radius=1.0, quad_tol=1e-10, grid_size=65)
        rep = bounds_report(spec)
        assert rep.m1 == 0.0
        assert rep.m2 == 0.0

    def test_scaling_in_weight(self):
        base = bounds_report(smoke_spec(quad_tol=1e-10, grid_size=65))
        for c in (0.5, 3.0):
            spec = ProblemSpec(params=DIRICHLET, weight=const_weight(c),
                               nonlinearity=Nonlinearity(
                                   eval=lambda t, u: np.ones_like(np.asarray(t, float)),
                                   local_bound=lambda t, r: 1.0),
                               radius=1.0, quad_tol=1e-10, grid_size=65)
            rep = bounds_report(spec)
            assert rep.m1 == pytest.approx(c * base.m1, abs=2e-10)
            assert rep.m2 == pytest.approx(c * base.m2, abs=2e-10)

    def test_grid_refinement_consistency(self, divisor_spec):
        vals = []
        for n in (65, 129, 257):
            spec = ProblemSpec(params=divisor_spec.params, weight=divisor_spec.weight,
                               nonlinearity=divisor_spec.nonlinearity, radius=4.0,
                               quad_tol=1e-9, grid_size=n)
            rep = bounds_report(spec)
            vals.append((rep.m1, rep.m2))
        for (a1, a2), (b1, b2) in zip(vals[:-1], vals[1:]):
            assert abs(a1 - b1) <= 1e-4
            assert abs(a2 - b2) <= 1e-4

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(coeffs=st.lists(st.floats(0.0, 2.0), min_size=4, max_size=4),
           n=st.integers(3, 129), weight=st.sampled_from(["constant", "inv-sqrt"]),
           c=st.floats(-3.0, 3.0))
    def test_l1_norm_is_m2_at_both_ends(self, coeffs, n, weight, c):
        # alpha*right + gamma*left = Gamma, so int |g| = M2(0) + M2(1): the
        # bounds pass gives H1's integral, to quad_tol like a direct one
        a, b, g, d = coeffs
        assume(g * b + a * g + a * d > 1e-3)
        w = make_weight_from_id(weight, {"value" if weight == "constant" else "scale": c})
        spec = ProblemSpec(params=validate_params(a, b, g, d), weight=w,
                           nonlinearity=const_nonlinearity(), radius=1.0,
                           quad_tol=1e-10, grid_size=n)
        direct = check_h1(w, tol=spec.quad_tol)
        assert direct.passed
        assert abs(bounds_report(spec).l1_norm - direct.l1_norm) <= spec.quad_tol

    def test_l1_norm_with_a_near_zero_alpha(self):
        # a chord point of M1' next to the singular end at 0 would make the
        # refinement's first panel far narrower than its sqrt substitution needs
        spec = ProblemSpec(params=validate_params(1.5021489067885546e-57, 1.0, 1.0, 1.0),
                           weight=make_weight_from_id("inv-sqrt", {"scale": 1.0}),
                           nonlinearity=const_nonlinearity(), radius=1.0,
                           quad_tol=1e-10, grid_size=3)
        direct = check_h1(spec.weight, tol=spec.quad_tol)
        assert abs(bounds_report(spec).l1_norm - direct.l1_norm) <= spec.quad_tol

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(coeffs=st.lists(st.floats(0.0, 2.0), min_size=4, max_size=4),
           n=st.integers(3, 300), weight=st.sampled_from(["constant", "inv-sqrt"]),
           c=st.floats(-3.0, 3.0))
    def test_m1_refinement_makes_no_more_rounds_than_equispaced_search(
            self, coeffs, n, weight, c):
        # each equispaced round cuts the bracket, two node cells at most, 33x
        # down to 1e-7; the chord points of M1' only ever narrow it further
        import bvpkit.hammerstein
        a, b, g, d = coeffs
        assume(g * b + a * g + a * d > 1e-3)
        w = make_weight_from_id(weight, {"value" if weight == "constant" else "scale": c})
        spec = ProblemSpec(params=validate_params(a, b, g, d), weight=w,
                           nonlinearity=const_nonlinearity(), radius=1.0,
                           quad_tol=1e-10, grid_size=n)
        calls = Counted(bvpkit.hammerstein.integrate_groups)
        with mock.patch.object(bvpkit.hammerstein, "integrate_groups", calls), \
                warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rep = bounds_report(spec)
        assert calls.calls <= 1 + math.ceil(math.log(2 / ((n - 1) * 1e-7), 33))
        p = spec.params
        left, right = _running_integrals(
            spec, lambda s: np.stack((left_factor(p, s), right_factor(p, s))) * np.abs(w.eval(s)))
        assert rep.m1 >= np.max(_closed_forms(spec, spec.nodes, left, right)[0])


class TestFactoredKernelOracles:
    """Closed forms for general separated BCs, independent of the running
    integrals the operator and the bounds are computed from."""

    @staticmethod
    def inv_sqrt_moments(p, t):
        """L(t) = int_0^t left/sqrt(s) and R(t) = int_t^1 right/sqrt(s), exactly,
        from int s**(k - 1/2) = s**(k + 1/2) / (k + 1/2)."""
        rt, rt3 = np.sqrt(t), t ** 1.5
        left = 2 * p.beta * rt + 2 / 3 * p.alpha * rt3
        right = 2 * (p.gamma + p.delta) * (1 - rt) - 2 / 3 * p.gamma * (1 - rt3)
        return left, right

    def test_inv_sqrt_bounds_random_bcs(self):
        from scipy.optimize import minimize_scalar

        rng = np.random.default_rng(31)
        checked = 0
        while checked < 8:
            a, b, g, d = rng.uniform(0.0, 2.0, size=4)
            if g * b + a * g + a * d < 0.05:
                continue
            checked += 1
            p = validate_params(a, b, g, d)
            spec = ProblemSpec(params=p, weight=make_weight_from_id("inv-sqrt", {}),
                               nonlinearity=const_nonlinearity(), radius=1.0,
                               quad_tol=1e-10, grid_size=129)
            rep = bounds_report(spec)

            def m1(t):
                left, right = self.inv_sqrt_moments(p, t)
                return ((p.gamma + p.delta - p.gamma * t) * left
                        + (p.beta + p.alpha * t) * right) / p.gamma_const

            def m2(t):
                left, right = self.inv_sqrt_moments(p, t)
                return (p.gamma * left + p.alpha * right) / p.gamma_const

            m2_exact = max(p.alpha * (2 * (p.gamma + p.delta) - 2 / 3 * p.gamma),
                           p.gamma * (2 * p.beta + 2 / 3 * p.alpha)) / p.gamma_const
            assert rep.m2 == pytest.approx(m2_exact, abs=1e-8)
            assert np.max(m2(np.linspace(0.0, 1.0, 2001))) <= m2_exact + 1e-12
            opt = minimize_scalar(lambda t: -m1(t), bounds=(0.0, 1.0), method="bounded",
                                  options={"xatol": 1e-10})
            m1_exact = max(-opt.fun, m1(0.0), m1(1.0))
            assert rep.m1 == pytest.approx(m1_exact, abs=1e-8)
            assert m1(rep.argmax_t_m1) == pytest.approx(rep.m1, abs=1e-8)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(coeffs=st.lists(st.floats(0.0, 2.0), min_size=4, max_size=4),
           n=st.integers(3, 129))
    def test_constant_forcing_any_bc(self, coeffs, n):
        # u'' = -1 with alpha u(0) - beta u'(0) = 0 = gamma u(1) + delta u'(1):
        # u = -t**2/2 + c1 t + c0 with c0 = beta q / Gamma, c1 = alpha q / Gamma,
        # q = gamma/2 + delta
        a, b, g, d = coeffs
        assume(g * b + a * g + a * d > 1e-3)
        p = validate_params(a, b, g, d)
        spec = ProblemSpec(params=p, weight=const_weight(),
                           nonlinearity=const_nonlinearity(), radius=1.0,
                           quad_tol=1e-10, grid_size=n)
        tu = apply_T(spec, GridFunction.zero(spec.nodes))
        q = p.gamma / 2 + p.delta
        c0, c1 = p.beta * q / p.gamma_const, p.alpha * q / p.gamma_const
        t = spec.nodes
        assert np.max(np.abs(tu.values - (-t ** 2 / 2 + c1 * t + c0))) <= 2 * spec.quad_tol
        assert np.max(np.abs(tu.derivatives - (c1 - t))) <= 2 * spec.quad_tol
        assert max(bc_residual(p, tu)) <= 1e-10


class TestWorkCounts:
    """h = g*f(., u) is evaluated once per quadrature round for every panel
    and both kernel factors, not once per panel or per factor."""

    @staticmethod
    def counted(nl_id, params, radius, grid_size):
        spec = ProblemSpec(params=DIRICHLET,
                           weight=make_weight_from_id("constant", {"value": 1.0}),
                           nonlinearity=make_nonlinearity_from_id(nl_id, params),
                           radius=radius, quad_tol=1e-9, grid_size=grid_size)
        u = solve_picard(spec, tol=1e-8).u
        g, f = Counted(spec.weight.eval), Counted(spec.nonlinearity.eval)
        return replace(spec, weight=replace(spec.weight, eval=g),
                       nonlinearity=replace(spec.nonlinearity, eval=f)), u, g, f

    def test_picard_apply_T_calls_g_and_f_once(self):
        # g = 1 and f of degree 1 are declared: the 3-point rule, one round
        spec, u, g, f = self.counted("polynomial", {"coeffs": [1.0, -1.4]}, 10.0, 257)
        apply_T(spec, u)
        assert spec.exact_points == 3
        assert (g.calls, g.points) == (1, 256 * 3)
        assert (f.calls, f.points) == (1, 256 * 3)

    def test_step_crossing_apply_T_calls_f_at_most_three_times(self):
        spec, u, _, f = self.counted("step", {"low": 1.0, "high": 2.0, "threshold": 0.05},
                                     4.0, 129)
        assert [len(xs) for xs in crossings_of(u, spec.nonlinearity.curves)] == [2]
        apply_T(spec, u)
        assert 1 <= f.calls <= 3

    def test_apply_T_evaluates_u_without_grid_eval(self, monkeypatch):
        import bvpkit.hammerstein
        import bvpkit.model
        sizes = []

        def counted(u, t):
            sizes.append(np.size(t))
            return grid_eval(u, t)

        for mod in (bvpkit.model, bvpkit.hammerstein):
            monkeypatch.setattr(mod, "grid_eval", counted, raising=False)
        f = Counted(lambda t, u: np.exp(3.0 * u))
        spec = replace(smoke_spec(quad_tol=1e-12),
                       nonlinearity=Nonlinearity(eval=f, local_bound=lambda t, r: np.exp(3.0 * r)))
        apply_T(spec, random_ball_function(spec, np.random.default_rng(4)))
        assert f.calls > 1 and sizes == []

    def test_divisor_apply_T_at_a_tight_tol_calls_f_once(self, divisor_spec, divisor_solution):
        # in x = sqrt(s) on every panel g*2x is the constant 2, so one round meets 1e-12
        f = Counted(divisor_spec.nonlinearity.eval)
        spec = replace(divisor_spec, quad_tol=1e-12,
                       nonlinearity=replace(divisor_spec.nonlinearity, eval=f))
        apply_T(spec, divisor_solution.u)
        assert (f.calls, f.points) == (1, 128 * BLOCK)


def reference_T(spec, u, integrate=integrate_groups):
    """Node values and derivatives of Tu with every quadrature round sampled:
    g, both kernel factors and u from grid_eval at each point, by T's rule
    (an exact rule's plan holds its points alone)."""
    p = spec.params
    g, f = spec.weight.eval, spec.nonlinearity.eval
    n = spec.exact_points
    plan = None if n is None else make_plan(None, spec.nodes, spec.weight.singular_left, n)

    def both(s):
        s = s.reshape(-1, n or BLOCK)
        hs = g(s) * f(s, grid_eval(u, s)[0])
        return np.stack((left_factor(p, s) * hs, right_factor(p, s) * hs))

    tol = spec.quad_tol * p.gamma_const / (
        (p.alpha + p.beta + p.gamma + p.delta) * (spec.grid_size - 1))
    breaks = sorted(x for xs in crossings_of(u, spec.nonlinearity.curves) for x in xs)
    left, right = integrate(both, spec.nodes, breaks, spec.weight.singular_left, tol, plan)
    return _closed_forms(spec, spec.nodes, np.concatenate(([0.0], np.cumsum(left))),
                         np.concatenate((np.cumsum(right[::-1])[::-1], [0.0])))


def catalog_spec(nl_id, params, radius, grid_size, weight=None):
    return ProblemSpec(params=DIRICHLET,
                       weight=weight or make_weight_from_id("constant", {"value": 1.0}),
                       nonlinearity=make_nonlinearity_from_id(nl_id, params),
                       radius=radius, quad_tol=1e-9, grid_size=grid_size)


class TestSweepPlan:
    """apply_T reads its first quadrature round over unsplit node panels from
    spec.plan; the result has the bits of the path that samples everything."""

    @staticmethod
    def assert_bitwise(monkeypatch, spec, u):
        """apply_T, building the plan and then reading it, gets reference_T's
        integrand values in every quadrature round and its node data."""
        import bvpkit.hammerstein
        rounds = []

        def recording(fn, *args):
            def recorded(*fn_args):
                out = fn(*fn_args)
                rounds.append(np.asarray(out).tobytes())
                return out
            return integrate_groups(recorded, *args)

        values, derivatives = reference_T(spec, u, recording)
        expected = list(rounds)
        monkeypatch.setattr(bvpkit.hammerstein, "integrate_groups", recording)
        for _ in range(2):
            rounds.clear()
            tu = apply_T(spec, u)
            assert rounds == expected
            assert tu.values.tobytes() == values.tobytes()
            assert tu.derivatives.tobytes() == derivatives.tobytes()
        monkeypatch.undo()
        return len(expected)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_smooth_polynomial(self, monkeypatch, seed):
        # 200 panels: h is no power of 2, so the order of h*m*b matters
        spec = catalog_spec("polynomial", {"coeffs": [1.0, -1.4, 0.3]}, 10.0, 201,
                            weight=Weight(eval=lambda t: 1.0 + t * (2.0 - t)))
        u = random_ball_function(spec, np.random.default_rng(seed), 0.3)
        assert self.assert_bitwise(monkeypatch, spec, u) == 1

    def test_step_with_split_panels(self, monkeypatch):
        spec = catalog_spec("step", {"low": 1.0, "high": 2.0, "threshold": 0.05}, 4.0, 129)
        u = solve_picard(spec, tol=1e-8).u
        assert [len(xs) for xs in crossings_of(u, spec.nonlinearity.curves)] == [2]
        assert spec.exact_points == 1
        assert self.assert_bitwise(monkeypatch, spec, u) == 1

    def test_step_with_split_panels_by_the_adaptive_pair(self, monkeypatch):
        spec = catalog_spec("step", {"low": 1.0, "high": 2.0, "threshold": 0.05}, 4.0, 129)
        u = solve_picard(spec, tol=1e-8).u
        spec = replace(spec, nonlinearity=replace(spec.nonlinearity, degree=None))
        assert self.assert_bitwise(monkeypatch, spec, u) == 1

    def test_singular_weight(self, monkeypatch, divisor_spec, divisor_solution):
        assert divisor_spec.weight.singular_left
        for u in (divisor_solution.u, GridFunction.zero(divisor_spec.nodes)):
            assert self.assert_bitwise(monkeypatch, divisor_spec, u) == 1

    def test_refined_rounds(self, monkeypatch):
        spec = replace(smoke_spec(grid_size=5, quad_tol=1e-12, radius=2.0),
                       nonlinearity=Nonlinearity(eval=lambda t, u: u ** 20,
                                                 local_bound=lambda t, r: r ** 20))
        u = random_ball_function(spec, np.random.default_rng(5), 0.9)
        assert self.assert_bitwise(monkeypatch, spec, u) > 1  # round 1 missed tol

    def test_a_solve_samples_the_weight_once(self):
        g = Counted(lambda t: np.ones_like(t))
        spec = catalog_spec("polynomial", {"coeffs": [1.0, -1.4]}, 10.0, 257,
                            weight=Weight(eval=g))
        assert "plan" not in vars(spec)  # built on first use, not with the spec
        sol = solve_picard(spec, tol=1e-8)
        assert sol.converged and sol.iterations >= 5
        assert (g.calls, g.points) == (1, 256 * BLOCK)

    def test_split_sweeps_sample_the_weight_on_every_subpanel(self):
        # the solution crosses the threshold in 2 node panels: after the plan's
        # 128 panels, each sweep that splits them samples g afresh on all 130
        # subpanels, by the pair
        g = Counted(lambda t: np.ones_like(t))
        spec = catalog_spec("step", {"low": 1.0, "high": 2.0, "threshold": 0.05}, 4.0, 129,
                            weight=Weight(eval=g))
        assert spec.exact_points is None
        sol = solve_picard(spec, tol=1e-8)
        assert sol.converged and sol.iterations == 7
        assert (g.calls, g.points) == (7, 128 * BLOCK + 6 * 130 * BLOCK)
        g.calls = g.points = 0
        apply_T(spec, sol.u)
        assert (g.calls, g.points) == (1, 130 * BLOCK)

    def test_a_split_stack_samples_the_weight_once(self):
        # under the exact rule, 5 probe iterates that each cross twice: one g call
        # on every copy's 130 one-point subpanels, each image its iterate's alone
        g = Counted(lambda t: np.ones_like(t))
        spec = catalog_spec("step", {"low": 1.0, "high": 2.0, "threshold": 0.05}, 4.0, 129,
                            weight=Weight(eval=g, power=0.0))
        assert spec.exact_points == 1
        ys = _probe_stack(spec, solve_picard(spec, tol=1e-8).u)
        g.calls = g.points = 0
        images, crossings = _apply_T(spec, ys)
        assert [len(xs) for xs, in crossings] == [2] * 5
        assert (g.calls, g.points) == (1, 5 * 130)
        for y, image in zip(ys, images):
            assert image.tobytes() == _apply_T(spec, y)[0].tobytes()

    def test_specs_with_different_weights_never_share_a_plan(self, monkeypatch):
        spec = smoke_spec()
        u = random_ball_function(spec, np.random.default_rng(6), 0.5)
        apply_T(spec, u)
        other = replace(spec, weight=const_weight(2.0))
        assert other.plan is not spec.plan
        self.assert_bitwise(monkeypatch, other, u)
        assert np.allclose(apply_T(other, u).values, 2.0 * apply_T(spec, u).values,
                           rtol=0.0, atol=1e-12)

    def test_a_pipeline_builds_one_plan(self, monkeypatch):
        # auto-power makes a second spec for the chosen radius; solve and probe
        # share its plan, and bounds_report needs none
        import json
        from pathlib import Path

        import bvpkit.model
        from bvpkit import cli
        path = Path(__file__).parent.parent / "demos" / "configs" / "divisor_example.json"
        cfg = cli.parse_config(json.loads(path.read_text()))
        cfg = replace(cfg, tasks=(*cfg.tasks, "probe"))
        assert cfg.radius == "auto-power" and "solve" in cfg.tasks
        plans = Counted(bvpkit.model.make_plan)
        monkeypatch.setattr(bvpkit.model, "make_plan", plans)
        code, _ = cli.run(cfg)
        assert code == 0 and plans.calls == 1


def _probe_stack(spec, u, eps=1e-3, bumps=2):
    """u and u +/- eps * bump_j, j = 1..bumps, as one (2 * bumps + 1, 2, N) stack."""
    y = np.array((u.values, u.derivatives))
    steps = eps * _bumps(spec.nodes, range(1, bumps + 1))
    return np.concatenate((y[None], y + steps, y - steps))


def _demo_polynomial_spec():
    """The hull-probe demo's user f = 0.1 u + 1, which declares no degree."""
    f = Nonlinearity(eval=lambda t, u: 0.1 * np.asarray(u, float) + 1.0,
                     local_bound=lambda t, r: 0.1 * r + 1.0)
    return ProblemSpec(params=DIRICHLET, weight=const_weight(), nonlinearity=f,
                       radius=1.0, quad_tol=1e-10, grid_size=129)


def _raised(call):
    """The type and message of what a call raised, or None."""
    try:
        call()
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)
    return None


class TestStackedT:
    """_apply_T on a (k, 2, N) stack: each iterate's image and crossings are
    bitwise what the iterate alone gives, from one quadrature call per chunk
    of at most STACK_POINTS first-round points under an exact rule, and per
    iterate under the adaptive pair."""

    @pytest.fixture(params=["one call", "chunks of two", "default"])
    def stacked(self, request, monkeypatch):
        """Checks a stack's T, under one STACK_POINTS, against each iterate
        alone, and counts its quadrature calls: one per chunk, or per iterate
        for the pair."""
        import bvpkit.hammerstein as hammerstein
        calls = []
        monkeypatch.setattr(hammerstein, "integrate_groups",
                            lambda *args: calls.append(1) or integrate_groups(*args))

        def check(spec, ys):
            points = (spec.grid_size - 1) * (spec.exact_points or 0)  # per iterate
            budget = {"one call": 2 ** 40, "chunks of two": 2 * points,
                      "default": STACK_POINTS}[request.param]
            monkeypatch.setattr(hammerstein, "STACK_POINTS", budget)
            calls.clear()
            images, crossings = _apply_T(spec, ys)
            assert len(calls) == -(-len(ys) // (max(1, budget // points) if points else 1))
            assert images.shape == ys.shape and len(crossings) == len(ys)
            for y, image, xs in zip(ys, images, crossings):
                alone, alone_xs = _apply_T(spec, y)
                assert image.tobytes() == alone.tobytes()
                assert xs == alone_xs
            return crossings

        return check

    def test_a_stack_of_one(self, stacked):
        spec = catalog_spec("step", {"low": 1.0, "high": 2.0, "threshold": 0.05}, 4.0, 129)
        u = solve_picard(spec, tol=1e-8).u
        ys = np.array((u.values, u.derivatives))[None]
        stacked(spec, ys)
        assert _apply_T(spec, ys)[0].shape == (1, 2, 129)

    @pytest.mark.parametrize("degree", ["declared", None], ids=["exact rule", "pair"])
    def test_step_iterates_crossing_0_1_and_2_times(self, stacked, degree):
        spec = catalog_spec("step", {"low": 1.0, "high": 2.0, "threshold": 0.05}, 4.0, 129)
        u = solve_picard(spec, tol=1e-8).u
        if degree is None:
            spec = replace(spec, nonlinearity=replace(spec.nonlinearity, degree=None))
        t = spec.nodes
        # u = 0.07 t crosses the threshold at t = 5/7, inside a node panel
        ys = np.array([np.zeros((2, t.size)), (0.07 * t, np.full(t.size, 0.07)),
                       (u.values, u.derivatives)] + list(_probe_stack(spec, u)))
        crossings = stacked(spec, ys)
        assert [len(xs) for xs, in crossings] == [0, 1] + [2] * 6

    def test_a_user_polynomial_by_the_adaptive_pair(self, stacked):
        spec = _demo_polynomial_spec()
        assert spec.exact_points is None
        u = solve_picard(spec).u
        rng = np.random.default_rng(7)
        ys = np.concatenate((_probe_stack(spec, u), [
            np.array((w.values, w.derivatives))
            for w in (random_ball_function(spec, rng, 0.5) for _ in range(2))]))
        stacked(spec, ys)

    def test_the_divisor_weight_in_sqrt_s(self, stacked, divisor_spec,
                                          divisor_solution):
        assert divisor_spec.weight.singular_left
        ys = np.concatenate((_probe_stack(divisor_spec, divisor_solution.u, 1e-2),
                             np.zeros((1, 2, divisor_spec.grid_size))))
        stacked(divisor_spec, ys)

    def test_refined_rounds(self, stacked):
        # u**20 at 1e-12 on 4 panels takes more rounds on some iterates than on others
        spec = replace(smoke_spec(grid_size=5, quad_tol=1e-12, radius=2.0),
                       nonlinearity=Nonlinearity(eval=lambda t, u: u ** 20,
                                                 local_bound=lambda t, r: r ** 20))
        rng = np.random.default_rng(5)
        ys = np.array([(w.values, w.derivatives) for w in (
            random_ball_function(spec, rng, fill) for fill in (0.9, 0.2, 0.95, 0.5, 0.8))])
        stacked(spec, ys)


class TestStackedTErrors:
    """A stack, in one quadrature call, raises what its first failing iterate
    raises alone."""

    @pytest.fixture(autouse=True)
    def one_call(self, monkeypatch):
        import bvpkit.hammerstein as hammerstein
        monkeypatch.setattr(hammerstein, "STACK_POINTS", 2 ** 40)

    @staticmethod
    def linear_spec(quad_tol=1e-9, declared=True, coeffs=(1.0, -1.4)):
        spec = catalog_spec("polynomial", {"coeffs": list(coeffs)}, 10.0, 65)
        spec = replace(spec, quad_tol=quad_tol)
        if not declared:
            spec = replace(spec, nonlinearity=replace(spec.nonlinearity, degree=None))
        return spec

    @pytest.mark.parametrize("case", ["step", "exact rule", "pair"])
    def test_a_non_finite_iterate(self, case):
        spec = (catalog_spec("step", {"low": 1.0, "high": 2.0, "threshold": 0.05}, 4.0, 65)
                if case == "step" else self.linear_spec(declared=case == "exact rule"))
        good = np.zeros((2, spec.grid_size))
        bad = good.copy()
        bad[0, 9] = np.nan
        alone = _raised(lambda: _apply_T(spec, bad))
        assert alone[0] is (DomainError if case == "step" else NonFiniteIntegrand)
        assert _raised(lambda: _apply_T(spec, np.array([good, bad, good]))) == alone

    def test_a_non_finite_image(self, monkeypatch):
        # images whose L(1) = int s f(s, u(s)) ds is negative are poisoned: f = 1 - 1.4 u
        # is -1.8 for u = 2
        import bvpkit.hammerstein as hammerstein
        closed_forms = hammerstein._closed_forms
        monkeypatch.setattr(hammerstein, "_closed_forms", lambda spec, t, left, right: np.add(
            closed_forms(spec, t, left, right), np.where(left[..., -1:] < 0.0, np.nan, 0.0)))
        spec = self.linear_spec()
        zero, two = np.zeros((2, spec.grid_size)), np.zeros((2, spec.grid_size))
        two[0] = 2.0
        alone = _raised(lambda: _apply_T(spec, two))
        assert alone == (ValueError, "grid function entries must be finite")
        assert _raised(lambda: _apply_T(spec, np.array([zero, two, zero]))) == alone
        assert np.isfinite(_apply_T(spec, np.array([zero, zero]))[0]).all()

    @pytest.mark.parametrize("declared", [True, False], ids=["exact rule", "pair"])
    def test_a_tolerance_below_rounding(self, declared):
        # f = u = c: the rounding floor grows with c, and one float apart one
        # iterate alone raises and the other does not
        spec = self.linear_spec(quad_tol=1e-16, declared=declared, coeffs=(0.0, 1.0))

        def iterate(c):
            y = np.zeros((2, spec.grid_size))
            y[0] = c
            return y

        def raises_alone(c):
            return _raised(lambda: _apply_T(spec, iterate(c))) is not None

        low, high = 0.0, 8.0
        assert not raises_alone(low) and raises_alone(high)
        while np.nextafter(low, 9.0) < high:
            mid = 0.5 * (low + high)
            low, high = (low, mid) if raises_alone(mid) else (mid, high)
        alone = _raised(lambda: _apply_T(spec, iterate(high)))
        assert alone[0] is MaxDepthExceeded and "rounding floor" in alone[1]
        assert _raised(lambda: _apply_T(spec, np.array([iterate(low), iterate(high)]))) == alone
        images, _ = _apply_T(spec, np.array([iterate(low), iterate(0.5 * low)]))
        assert images[0].tobytes() == _apply_T(spec, iterate(low))[0].tobytes()


class TestEquicontinuity:
    def test_smoke_bound_tight(self):
        # (t(1-t)/2)'' = -1 and |g| H_R = 1: tight but never violated
        spec = smoke_spec()
        rng = np.random.default_rng(21)
        rep = equicontinuity_check(spec, random_ball_function(spec, rng))
        assert rep.passed
        assert rep.max_excess <= 1e-10

    def test_zero_nonlinearity_all_zero(self):
        spec = ProblemSpec(params=DIRICHLET, weight=const_weight(),
                           nonlinearity=Nonlinearity(
                               eval=lambda t, u: np.zeros_like(np.asarray(t, float)),
                               local_bound=lambda t, r: 0.0),
                           radius=1.0, quad_tol=1e-10, grid_size=33)
        rep = equicontinuity_check(spec, GridFunction.zero(spec.nodes))
        assert rep.max_excess == 0.0

    def test_divisor_example_clipped(self, divisor_spec, divisor_solution):
        rep = equicontinuity_check(divisor_spec, divisor_solution.u, t_min=0.05)
        assert rep.passed

    def test_divisor_second_difference_oracle(self, divisor_spec, divisor_solution):
        # direct quadrature oracle: (Tu)'' = -g(t) f(t, u(t)) along the solution
        u = divisor_solution.u
        tu = apply_T(divisor_spec, u)
        nodes = divisor_spec.nodes
        h = nodes[1] - nodes[0]
        d2 = (tu.values[2:] - 2 * tu.values[1:-1] + tu.values[:-2]) / h ** 2
        interior = nodes[1:-1]
        mask = interior >= 0.1
        gv = 1.0 / np.sqrt(interior[mask])
        uv = u.values[1:-1][mask]
        fv = divisor_spec.nonlinearity.eval(interior[mask], uv)
        oracle = -gv * fv
        assert np.max(np.abs(d2[mask] - oracle)) <= 1e-2  # h**2-level agreement

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(coeffs=st.lists(st.floats(0.0, 2.0), min_size=4, max_size=4))
    def test_second_difference_matches_identity(self, coeffs):
        # (Tu)'' = -g f(., u) for every BC; with g = 1, f = cos(u) + t and
        # u = sin(2t)/2, |(g f(., u))''| <= 3, so the centered second
        # difference of T's node values is off by at most h**2 / 4, plus the
        # quadrature error 4 * quad_tol / h**2
        a, b, g, d = coeffs
        assume(g * b + a * g + a * d > 1e-3)
        f = Nonlinearity(eval=lambda t, u: np.cos(u) + t, local_bound=lambda t, r: 1.0 + t)
        spec = ProblemSpec(params=validate_params(a, b, g, d), weight=const_weight(),
                           nonlinearity=f, radius=2.0, quad_tol=1e-10, grid_size=65)
        nodes = spec.nodes
        u = GridFunction(nodes, np.sin(2 * nodes) / 2, np.cos(2 * nodes))
        tu = apply_T(spec, u)
        h = nodes[1] - nodes[0]
        d2 = (tu.values[2:] - 2 * tu.values[1:-1] + tu.values[:-2]) / h ** 2
        oracle = -(np.cos(u.values[1:-1]) + nodes[1:-1])
        assert np.max(np.abs(d2 - oracle)) <= h ** 2
