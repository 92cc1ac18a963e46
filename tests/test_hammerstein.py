import numpy as np
import pytest

from bvpkit import (DIRICHLET, BallViolation, apply_T, bounds_report,
                    equicontinuity_check, norm_c1, residual, validate_params)
from bvpkit.model import GridFunction, Nonlinearity, ProblemSpec, Weight

from conftest import const_weight, random_ball_function, smoke_spec


def sin_forcing_spec(quad_tol=1e-10):
    f = Nonlinearity(eval=lambda t, u: np.pi ** 2 * np.sin(np.pi * np.asarray(t, float)),
                     local_bound=lambda t, r: np.pi ** 2, label="sin-forcing")
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


class TestResidual:
    def test_exact_fixed_point(self):
        spec = smoke_spec()
        u = GridFunction.from_callable(lambda t: t * (1 - t) / 2,
                                       lambda t: (1 - 2 * t) / 2, spec.nodes)
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


class TestEquicontinuity:
    def test_smoke_bound_tight(self):
        # (t(1-t)/2)'' = -1 and |g| H_R = 1: tight but never violated
        spec = smoke_spec()
        rng = np.random.default_rng(21)
        rep = equicontinuity_check(spec, random_ball_function(spec, rng),
                                   hr_values=np.ones(spec.grid_size))
        assert rep.passed
        assert rep.max_excess <= 1e-10

    def test_zero_nonlinearity_all_zero(self):
        spec = ProblemSpec(params=DIRICHLET, weight=const_weight(),
                           nonlinearity=Nonlinearity(
                               eval=lambda t, u: np.zeros_like(np.asarray(t, float)),
                               local_bound=lambda t, r: 0.0),
                           radius=1.0, quad_tol=1e-10, grid_size=33)
        rep = equicontinuity_check(spec, GridFunction.zero(spec.nodes),
                                   hr_values=np.zeros(33))
        assert rep.max_excess == 0.0

    def test_divisor_example_clipped(self, divisor_spec, divisor_solution):
        from bvpkit import estimate_HR
        hr = estimate_HR(divisor_spec, t_grid=divisor_spec.nodes[1:])
        hr_full = np.concatenate([[hr.profile[0]], hr.profile])
        rep = equicontinuity_check(divisor_spec, divisor_solution.u,
                                   hr_values=hr_full, t_min=0.05)
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
