"""Scalar-only user callables (math functions, if-branches) give the same
results as their numpy twins everywhere the toolkit calls them."""

import math
from dataclasses import replace

import numpy as np
import pytest

from bvpkit import (DIRICHLET, apply_T, bounds_report, classify_curve,
                    equicontinuity_check, estimate_HR, find_curve_crossings)
from bvpkit.model import (DiscontinuityCurve, GridFunction, Nonlinearity, ProblemSpec,
                          Weight, vectorized)

THR = 0.05


def scalar_spec(local_bound=True):
    """g = 1/sqrt(1+t), f = 1 below and 2 above the curve 0.05 + 0.02 sqrt(t),
    written with math and if: every call on an array raises TypeError."""
    def value(t):
        return THR + 0.02 * math.sqrt(t)

    def second_derivative(t):
        return -0.005 / (t * math.sqrt(t))

    def f(t, u):
        if u < value(t):
            return 1.0
        return 2.0

    curve = DiscontinuityCurve(a=0.0, b=1.0, value=value,
                               second_derivative=second_derivative, epsilon=0.01,
                               label="sqrt-step")
    nl = Nonlinearity(eval=f, curves=(curve,),
                      local_bound=(lambda t, r: 2.0) if local_bound else None)
    weight = Weight(eval=lambda t: 1.0 / math.sqrt(1.0 + t))
    return ProblemSpec(params=DIRICHLET, weight=weight, nonlinearity=nl, radius=4.0,
                       quad_tol=1e-10, grid_size=33)


def vector_spec(local_bound=True):
    """The numpy twin of scalar_spec."""
    def value(t):
        return THR + 0.02 * np.sqrt(t)

    curve = DiscontinuityCurve(a=0.0, b=1.0, value=value,
                               second_derivative=lambda t: -0.005 / (t * np.sqrt(t)),
                               epsilon=0.01, label="sqrt-step")
    nl = Nonlinearity(eval=lambda t, u: np.where(u < value(t), 1.0, 2.0),
                      curves=(curve,),
                      local_bound=(lambda t, r: np.full_like(t, 2.0)) if local_bound
                      else None)
    weight = Weight(eval=lambda t: 1.0 / np.sqrt(1.0 + t))
    return ProblemSpec(params=DIRICHLET, weight=weight, nonlinearity=nl, radius=4.0,
                       quad_tol=1e-10, grid_size=33)


def crossing_u(spec):
    """0.8 t (1 - t): peaks at 0.2, so it crosses the curve twice."""
    t = spec.nodes
    return GridFunction(t, 0.8 * t * (1.0 - t), 0.8 - 1.6 * t)


@pytest.fixture(scope="module")
def specs():
    return scalar_spec(), vector_spec()


class TestSameResults:
    def test_apply_T(self, specs):
        s, v = specs
        ts, tv = apply_T(s, crossing_u(s)), apply_T(v, crossing_u(v))
        assert np.array_equal(ts.values, tv.values)
        assert np.array_equal(ts.derivatives, tv.derivatives)

    def test_bounds_report(self, specs):
        s, v = specs
        assert bounds_report(s) == bounds_report(v)

    @pytest.mark.parametrize("declared", [True, False])
    def test_estimate_HR(self, declared):
        s, v = estimate_HR(scalar_spec(declared)), estimate_HR(vector_spec(declared))
        assert s.source == v.source == ("local_bound" if declared else "sampled")
        assert np.array_equal(s.profile, v.profile)
        assert s.sup == v.sup == 2.0

    def test_classify_curve(self, specs):
        s, v = specs
        cs = classify_curve(s, s.nonlinearity.curves[0], t_min=1e-3)
        cv = classify_curve(v, v.nonlinearity.curves[0], t_min=1e-3)
        assert cs == cv

    def test_find_curve_crossings(self, specs):
        s, v = specs
        xs = find_curve_crossings(crossing_u(s), s.nonlinearity.curves[0])
        assert len(xs) == 2
        assert xs == find_curve_crossings(crossing_u(v), v.nonlinearity.curves[0])

    def test_equicontinuity_check(self, specs):
        s, v = specs
        assert (equicontinuity_check(s, crossing_u(s))
                == equicontinuity_check(v, crossing_u(v)))


class TestVectorized:
    def test_scalar_only_is_looped(self):
        calls = []

        def f(t):
            calls.append(t)
            return math.sqrt(t)

        out = vectorized(f)(np.array([[1.0, 4.0], [9.0, 16.0]]))
        assert np.array_equal(out, [[1.0, 2.0], [3.0, 4.0]])
        # one failed array call, then one call per element with plain floats
        assert len(calls) == 5 and all(type(t) is float for t in calls[1:])

    def test_array_capable_is_called_once(self):
        calls = []

        def f(t, u):
            calls.append(t)
            return t * u

        out = vectorized(f)(np.arange(3.0), 2.0)
        assert np.array_equal(out, [0.0, 2.0, 4.0]) and len(calls) == 1

    def test_result_of_t_alone_is_broadcast(self):
        calls = []

        def f(t, u):
            calls.append(t)
            return np.full_like(t, 2.0)

        t, u = np.arange(3.0)[:, None], np.zeros((3, 4))
        out = vectorized(f)(t, u)
        assert out.shape == (3, 4) and np.all(out == 2.0) and len(calls) == 1
        out[0, 0] = 5.0  # a writable array of its own, not a broadcast view
        assert np.array_equal(vectorized(f)(np.arange(3.0), np.zeros((2, 3))),
                              np.full((2, 3), 2.0))

    def test_wrong_shape_is_looped(self):
        out = vectorized(lambda t, r: 2.0)(np.arange(3.0), 1.0)
        assert np.array_equal(out, [2.0, 2.0, 2.0])

    def test_idempotent_under_replace(self, specs):
        s, _ = specs
        nl, curve = s.nonlinearity, s.nonlinearity.curves[0]
        assert vectorized(s.weight.eval) is s.weight.eval
        assert replace(s.weight, l1_bound_hint=1.0).eval is s.weight.eval
        nl2 = replace(nl, measurability="n")
        assert nl2.eval is nl.eval and nl2.local_bound is nl.local_bound
        curve2 = replace(curve, epsilon=0.02)
        assert curve2.value is curve.value
        assert curve2.second_derivative is curve.second_derivative
        assert replace(nl, local_bound=None).local_bound is None
