"""T by one exact Gauss rule per subpanel, where the weight's power and f's
degree are declared: the declarations hold by sampling, the rule is the
smallest exact one, T agrees with the adaptive pair's, and the quadrature's
checks still run on that path."""

import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from bvpkit import (DIRICHLET, MaxDepthExceeded, NonFiniteIntegrand, apply_T, norm_c1,
                    validate_params)
from bvpkit.catalog import make_nonlinearity_from_id, make_weight_from_id
from bvpkit.example_phi import make_weight
from bvpkit.kernel import left_factor, right_factor
from bvpkit.model import GridFunction, Nonlinearity, ProblemSpec, c1_norm_of, grid_value
from bvpkit.quadrature import BLOCK, integrate_groups, make_plan

from conftest import Counted, random_ball_function

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402

def adaptive(spec):
    """spec with f's degree dropped: T by the adaptive pair on the same callables."""
    return replace(spec, nonlinearity=replace(spec.nonlinearity, degree=None))


def c1_gap(spec, other, u):
    a, b = apply_T(spec, u), apply_T(other, u)
    return c1_norm_of(a.values - b.values, a.derivatives - b.derivatives), a


def polynomial_spec(weight_id, coeffs, grid_size, params=DIRICHLET, quad_tol=1e-9):
    return ProblemSpec(params=params, weight=make_weight_from_id(weight_id, {}),
                       nonlinearity=make_nonlinearity_from_id("polynomial", {"coeffs": coeffs}),
                       radius=2.0, quad_tol=quad_tol, grid_size=grid_size)


class TestAgreement:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("name, points", [("picard", 3), ("step-crossing", 1)])
    def test_bench_seeds(self, name, points, seed):
        # the solution (step-crossing's crosses its threshold twice) and 3 ball functions
        wl = workloads.WORKLOADS[name](seed)
        spec = wl.spec()
        assert spec.exact_points == points
        sol = wl.solve(spec)
        rng = np.random.default_rng(seed)
        for u in (sol.u, *(random_ball_function(spec, rng) for _ in range(3))):
            assert c1_gap(spec, adaptive(spec), u)[0] <= 1e-14

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(bc=st.lists(st.floats(0.0, 2.0), min_size=4, max_size=4),
           coeffs=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=4),
           n=st.integers(5, 257), weight_id=st.sampled_from(["constant", "inv-sqrt"]),
           seed=st.integers(0, 2 ** 16))
    def test_random_problems(self, bc, coeffs, n, weight_id, seed):
        a, b, g, d = bc
        assume(g * b + a * g + a * d >= 0.2)
        spec = polynomial_spec(weight_id, coeffs, n, validate_params(*bc))
        assert spec.exact_points == (3 * len(coeffs) - 1 if weight_id == "inv-sqrt"
                                     else 3 * len(coeffs) // 2)
        u = random_ball_function(spec, np.random.default_rng(seed), 0.9)
        gap, tu = c1_gap(spec, adaptive(spec), u)
        assert gap <= spec.quad_tol + 1e-14 * (1.0 + norm_c1(tu))


class TestDeclarations:
    @pytest.mark.parametrize("nl_id, params", [
        ("constant", {"value": -0.7}), ("polynomial", {"coeffs": [2.0]}),
        ("polynomial", {"coeffs": [0.3, -1.2]}), ("polynomial", {"coeffs": [0.3, -1.2, 0.8, 0.5]}),
        ("step", {"low": 1.0, "high": 2.0, "threshold": 0.05}),
        ("step", {"low": -3.0, "high": 0.5, "threshold": -0.4})])
    def test_degree_holds_between_curves(self, nl_id, params):
        # the (d+1)-th finite difference along 200 seeded lines in (t, u) that
        # cross no curve is 0 to rounding: f is a polynomial of total degree <= d
        nl = make_nonlinearity_from_id(nl_id, params)
        d = nl.degree
        k = np.arange(d + 2)
        stencil = np.array([(-1) ** (d + 1 - j) * math.comb(d + 1, j) for j in k])
        rng = np.random.default_rng(11)
        kept = 0
        for _ in range(200):
            step = rng.uniform(0.01, 0.1) * rng.uniform(-1.0, 1.0, 2)
            t = rng.uniform(0.45, 0.55) + k * step[0]
            u = rng.uniform(-2.0, 2.0) + k * step[1]
            if any(len(set(np.sign(u - c.value(t)))) > 1 for c in nl.curves):
                continue
            kept += 1
            vals = nl.eval(t, u)
            assert abs(stencil @ vals) <= 1e-13 * 2 ** (d + 1) * (1.0 + np.abs(vals).max())
        assert kept >= 150

    def test_phi_example_declares_nothing(self):
        assert make_nonlinearity_from_id("phi-example", {}).degree is None

    @pytest.mark.parametrize("weight", [
        make_weight_from_id("constant", {"value": -1.5}),
        make_weight_from_id("inv-sqrt", {"scale": 0.7}), make_weight()],
        ids=["constant", "inv-sqrt", "phi-example"])
    def test_weight_power_holds(self, weight):
        s = np.random.default_rng(3).uniform(1e-12, 1.0, 1000)
        c = weight.eval(s) * s ** -weight.power
        assert np.abs(c - c[0]).max() <= 4 * np.finfo(float).eps * abs(c[0])

    @pytest.mark.parametrize("weight_id", ["constant", "inv-sqrt"])
    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_rule_is_the_smallest_exact_one(self, weight_id, degree):
        # on 2 panels, against the 16-point rule (exact to degree 31 >= 3 + 6*3):
        # exact_points meets rounding, and one point fewer misses
        spec = polynomial_spec(weight_id, [0.5] * (degree + 1), 3,
                               validate_params(1.0, 0.5, 1.0, 0.3))
        u = random_ball_function(spec, np.random.default_rng(degree), 0.9)
        p, g, f = spec.params, spec.weight.eval, spec.nonlinearity.eval
        sq = spec.weight.singular_left

        def integrals(points):
            def both(s):
                s = s.reshape(-1, points or BLOCK)
                hs = g(s) * f(s, grid_value(u, s))
                return np.stack((left_factor(p, s) * hs, right_factor(p, s) * hs))
            plan = None if points is None else make_plan(None, spec.nodes, sq, points)
            return integrate_groups(both, spec.nodes, (), sq, 1e-13, plan)

        n = spec.exact_points
        assert n == (3 * degree + 2 if sq else (3 * degree + 3) // 2)
        ref = integrals(None)
        assert np.abs(integrals(n) - ref).max() <= 1e-15
        if n > 1:
            assert np.abs(integrals(n - 1) - ref).max() > 1e-12

    @pytest.mark.parametrize("power, singular_left, degree, points", [
        (None, False, 1, None), (0.0, False, None, None), (-0.5, False, 1, None),
        (0.5, True, 1, None), (0.0, True, 0, 2), (-0.5, True, 2, 8), (0.0, False, 2, 4)])
    def test_rule_needs_both_declarations(self, power, singular_left, degree, points):
        spec = polynomial_spec("constant", [1.0], 9)
        spec = replace(spec, weight=replace(spec.weight, power=power, singular_left=singular_left),
                       nonlinearity=replace(spec.nonlinearity, degree=degree))
        assert spec.exact_points == points


class TestPath:
    def test_undeclared_spec_takes_the_adaptive_pair(self):
        spec = adaptive(polynomial_spec("inv-sqrt", [1.0, -1.4], 129))
        f = Counted(spec.nonlinearity.eval)
        spec = replace(spec, nonlinearity=replace(spec.nonlinearity, eval=f))
        apply_T(spec, GridFunction.zero(spec.nodes))
        assert spec.exact_points is None and f.points == 128 * BLOCK

    def test_rounding_floor_still_raises(self):
        spec = polynomial_spec("constant", [1.0, -1.4], 33, quad_tol=1e-30)
        assert spec.exact_points == 3
        with pytest.raises(MaxDepthExceeded, match="rounding floor"):
            apply_T(spec, GridFunction.zero(spec.nodes))

    @pytest.mark.parametrize("weight_id", ["constant", "inv-sqrt"])
    def test_non_finite_integrand_still_raises(self, weight_id):
        spec = polynomial_spec(weight_id, [1.0], 33)
        spec = replace(spec, nonlinearity=Nonlinearity(
            eval=lambda t, u: np.where(t > 0.5, np.inf, 1.0), degree=0))
        assert spec.exact_points is not None
        with pytest.raises(NonFiniteIntegrand, match="integrand not finite"):
            apply_T(spec, GridFunction.zero(spec.nodes))

    def test_split_panels_take_the_rule_on_each_side(self):
        # the step solution crosses its threshold in 2 node panels: one point on
        # each of their 4 subpanels and on the 126 others
        wl = workloads.WORKLOADS["step-crossing"](1)
        spec = wl.spec()
        sol = wl.solve(spec)
        f = Counted(spec.nonlinearity.eval)
        apply_T(replace(spec, nonlinearity=replace(spec.nonlinearity, eval=f)), sol.u)
        assert (f.calls, f.points) == (1, 130)
