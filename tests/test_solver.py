import numpy as np
import pytest

import bvpkit.hammerstein
import bvpkit.solver
from bvpkit import (DIRICHLET, BallViolation, apply_T, bc_residual, find_crossings, norm_c1,
                    residual, solve_picard, validate_params)
from bvpkit.model import DiscontinuityCurve, GridFunction, Nonlinearity, ProblemSpec, Weight

from conftest import const_nonlinearity, const_weight, smoke_spec


class TestBcResidual:
    def test_exact_solution(self):
        spec = smoke_spec()
        t = spec.nodes
        u = GridFunction(t, t * (1 - t) / 2, (1 - 2 * t) / 2)
        assert bc_residual(DIRICHLET, u) == (0.0, 0.0)

    def test_constant_one(self):
        spec = smoke_spec()
        t = spec.nodes
        u = GridFunction(t, np.ones_like(t), np.zeros_like(t))
        assert bc_residual(DIRICHLET, u) == (1.0, 1.0)

    def test_operator_output_satisfies_bcs(self):
        # the kernel row satisfies both BCs, so any Tu does, to quadrature noise
        p = validate_params(1.0, 2.0, 0.5, 1.0)
        spec = ProblemSpec(params=p, weight=const_weight(),
                           nonlinearity=Nonlinearity(
                               eval=lambda t, u: np.cos(3 * np.asarray(t, float)),
                               local_bound=lambda t, r: 1.0),
                           radius=5.0, quad_tol=1e-10, grid_size=65)
        tu = apply_T(spec, GridFunction.zero(spec.nodes))
        left, right = bc_residual(p, tu)
        assert left <= 1e-10
        assert right <= 1e-10


class TestSolvePicard:
    def test_constant_forcing_two_iterations(self):
        spec = smoke_spec()
        sol = solve_picard(spec, tol=1e-10)
        assert sol.iterations <= 2
        assert sol.converged
        assert sol.residual <= 2 * spec.quad_tol
        t = spec.nodes
        assert np.max(np.abs(sol.u.values - t * (1 - t) / 2)) <= 1e-9
        assert np.max(np.abs(sol.u.derivatives - (1 - 2 * t) / 2)) <= 1e-9

    def test_sin_forcing(self):
        f = Nonlinearity(eval=lambda t, u: np.pi ** 2 * np.sin(np.pi * np.asarray(t, float)),
                         local_bound=lambda t, r: np.pi ** 2)
        spec = ProblemSpec(params=DIRICHLET, weight=const_weight(), nonlinearity=f,
                           radius=np.pi ** 2, quad_tol=1e-10, grid_size=129)
        sol = solve_picard(spec, tol=1e-9)
        assert sol.iterations <= 2
        assert sol.converged
        t = spec.nodes
        assert np.max(np.abs(sol.u.values - np.sin(np.pi * t))) <= 1e-8

    def test_contractive_geometric_decay(self):
        # Lipschitz(f) * (M1 + M2) = 0.1 * 0.625: updates shrink geometrically
        f = Nonlinearity(eval=lambda t, u: 0.1 * np.asarray(u, float) + 1.0,
                         local_bound=lambda t, r: 0.1 * r + 1.0)
        spec = ProblemSpec(params=DIRICHLET, weight=const_weight(), nonlinearity=f,
                           radius=1.0, quad_tol=1e-11, grid_size=65)
        sol = solve_picard(spec, tol=1e-12)
        assert sol.converged
        rates = [b / a for a, b in zip(sol.update_norms[:-2], sol.update_norms[1:-1])
                 if a > 1e-13]
        assert all(r <= 0.2 for r in rates)

    def test_deterministic(self):
        spec = smoke_spec()
        a = solve_picard(spec, tol=1e-10)
        b = solve_picard(spec, tol=1e-10)
        assert a.residual == b.residual
        assert np.array_equal(a.u.values, b.u.values)

    def test_non_convergence_returns_diagnostics(self):
        f = Nonlinearity(eval=lambda t, u: 0.5 * np.asarray(u, float) + 1.0,
                         local_bound=lambda t, r: 0.5 * r + 1.0)
        spec = ProblemSpec(params=DIRICHLET, weight=const_weight(), nonlinearity=f,
                           radius=2.0, quad_tol=1e-10, grid_size=33)
        sol = solve_picard(spec, tol=1e-14, max_iter=2)
        assert not sol.converged
        assert sol.iterations == 2
        assert np.isfinite(sol.residual)

    def test_initial_iterate_outside_ball(self):
        spec = smoke_spec()
        big = GridFunction(spec.nodes, np.full(spec.grid_size, 5.0),
                           np.zeros(spec.grid_size))
        with pytest.raises(BallViolation):
            solve_picard(spec, u0=big)

    def test_iterate_leaving_the_ball(self):
        # the start 0 is in the ball, but T0 = 5t(1-t) for f = 10 has
        # ||T0|| = 1.25 + 5 = 6.25 > R = 1
        spec = ProblemSpec(params=DIRICHLET, weight=const_weight(),
                           nonlinearity=const_nonlinearity(10.0), radius=1.0, grid_size=33)
        with pytest.raises(BallViolation, match="iterate 1 left the ball"):
            solve_picard(spec)

    def test_relax_validation(self):
        with pytest.raises(ValueError):
            solve_picard(smoke_spec(), relax=0.0)


def _contractive_spec():
    f = Nonlinearity(eval=lambda t, u: 0.5 * np.asarray(u, float) + 1.0,
                     local_bound=lambda t, r: 0.5 * r + 1.0)
    return ProblemSpec(params=DIRICHLET, weight=const_weight(), nonlinearity=f,
                       radius=2.0, quad_tol=1e-10, grid_size=33)


class TestOneStopTest:
    """The residual of an iterate whose image is known stops and certifies."""

    @pytest.mark.parametrize("spec_name, applications", [("divisor", 2),
                                                         ("smoke", None)])
    def test_T_applied_once_per_iteration(self, request, monkeypatch, spec_name,
                                          applications):
        spec = request.getfixturevalue("divisor_spec") if spec_name == "divisor" \
            else smoke_spec()
        calls = []
        apply = bvpkit.hammerstein._apply_T  # apply_T, with the crossings of u

        def counted(spec, u):
            calls.append(u)
            return apply(spec, u)

        monkeypatch.setattr(bvpkit.hammerstein, "_apply_T", counted)
        monkeypatch.setattr(bvpkit.solver, "_apply_T", counted)
        sol = solve_picard(spec, tol=1e-8)
        assert sol.converged
        assert len(calls) == sol.iterations
        if applications is not None:
            assert sol.iterations == applications

    @pytest.mark.parametrize("tol, max_iter, converged", [(1e-8, 50, True),
                                                          (1e-14, 2, False)])
    def test_residual_is_the_certificate(self, tol, max_iter, converged):
        spec = _contractive_spec()
        sol = solve_picard(spec, tol=tol, max_iter=max_iter)
        assert sol.converged == converged
        assert sol.residual == residual(spec, sol.u)
        assert sol.converged == (sol.residual <= tol * (1 + norm_c1(sol.u)))

    def test_non_converged_run_returns_least_residual_iterate(self):
        # 20/pi**2 > 1: the sweeps diverge, so the start 0 has the least residual
        f = Nonlinearity(eval=lambda t, u: 1.0 - 20.0 * np.asarray(u, float),
                         local_bound=lambda t, r: 20.0 * r + 1.0)
        spec = ProblemSpec(params=DIRICHLET, weight=const_weight(), nonlinearity=f,
                           radius=50.0, quad_tol=1e-10, grid_size=33)
        sol = solve_picard(spec, max_iter=3)
        assert not sol.converged
        assert sol.update_norms[0] < sol.update_norms[1] < sol.update_norms[2]
        assert not np.any(sol.u.values) and not np.any(sol.u.derivatives)
        assert sol.residual == norm_c1(apply_T(spec, sol.u))

    def test_max_iter_validation(self):
        with pytest.raises(ValueError):
            solve_picard(smoke_spec(), max_iter=0)


class TestHalving:
    """Three sign-alternating residuals Tu - u in a row halve the relaxation."""

    @pytest.mark.parametrize("c, iterations, relax_final", [(-5.0, 16, 0.5),
                                                            (-10.0, 21, 0.25)])
    def test_halving_decisions(self, c, iterations, relax_final):
        f = Nonlinearity(eval=lambda t, u: 1.0 + c * np.asarray(u, float),
                         local_bound=lambda t, r: 1.0 + abs(c) * r)
        spec = ProblemSpec(params=DIRICHLET, weight=const_weight(), nonlinearity=f,
                           radius=100.0, grid_size=65)
        sol = solve_picard(spec, tol=1e-8)
        assert sol.converged
        assert (sol.iterations, sol.relax_final) == (iterations, relax_final)


class TestDivisorExampleSolve:
    def test_certificate_and_closed_form(self, divisor_spec, divisor_solution):
        sol = divisor_solution
        assert sol.converged
        assert sol.inside_ball
        assert sol.residual <= 1e-8 * (1 + norm_c1(sol.u))
        assert sol.bc_residual_left <= 1e-8
        assert sol.bc_residual_right <= 1e-8
        assert norm_c1(sol.u) > 0.0
        # the iterate never meets any jump curve, f is frozen at its n=1 value
        # along it, and the fixed point has the closed form below
        t = divisor_spec.nodes
        m1 = 10 / 9 + (10 / 9) * t - (4 / 3) * t ** 1.5
        ustar = -(2 ** (1 / 3)) * m1
        dustar = -(2 ** (1 / 3)) * (10 / 9 - 2 * np.sqrt(t))
        assert np.max(np.abs(sol.u.values - ustar)) <= 1e-7
        assert np.max(np.abs(sol.u.derivatives - dustar)) <= 1e-7

    def test_closed_form_against_scipy(self, divisor_spec, divisor_solution):
        # independent oracle: the solution solves u = int k(t,.) g f with
        # f identically -2**(1/3) (it stays below u = -t), so scipy's
        # quadrature of that fixed integrand must reproduce the node values
        from scipy.integrate import quad

        val = -(2 ** (1 / 3))
        for i in (0, 32, 64, 96, 128):
            t = divisor_spec.nodes[i]
            lo = quad(lambda s: (2 - t) * (1 + s) / 3 / np.sqrt(s) * val, 0, t)[0] \
                if t > 0 else 0.0
            hi = quad(lambda s: (1 + t) * (2 - s) / 3 / np.sqrt(s) * val, t, 1)[0]
            assert divisor_solution.u.values[i] == pytest.approx(lo + hi, abs=1e-7)

    def test_no_curve_contact(self, divisor_spec, divisor_solution):
        assert len(divisor_solution.curve_crossings) == 16
        assert all(count == 0 for _, count in divisor_solution.curve_crossings)

    def test_curve_contact_count_stays_small_under_refinement(self, divisor_spec):
        # nodes within h of a declared curve stay O(1) per curve as h shrinks
        for n in (65, 129):
            spec = ProblemSpec(params=divisor_spec.params, weight=divisor_spec.weight,
                               nonlinearity=divisor_spec.nonlinearity, radius=4.0,
                               quad_tol=1e-9, grid_size=n)
            sol = solve_picard(spec, tol=1e-8)
            h = 1.0 / (n - 1)
            for curve in spec.nonlinearity.curves:
                gv = curve.value(spec.nodes[1:])
                close_nodes = np.abs(sol.u.values[1:] - gv) < h
                assert int(close_nodes.sum()) <= 3


def _step_spec(theta):
    """g = 1, Dirichlet, f = 1 below theta and 2 above: u'' = -f(u)."""
    from bvpkit.catalog import make_nonlinearity_from_id, make_weight_from_id
    return ProblemSpec(params=DIRICHLET, weight=make_weight_from_id("constant", {"value": 1.0}),
                       nonlinearity=make_nonlinearity_from_id(
                           "step", {"low": 1.0, "high": 2.0, "threshold": theta}),
                       radius=4.0, quad_tol=1e-9, grid_size=129)


def _step_closed_form(theta, t):
    """The solution that crosses theta at t1 = (1 - sqrt(1 - 6 theta))/3 and
    1 - t1: -s^2/2 + (1 - t1) s below theta, theta + (1/2 - t1)^2 - (s - 1/2)^2
    above, in s = min(t, 1 - t), and its derivative."""
    t1 = (1.0 - np.sqrt(1.0 - 6.0 * theta)) / 3.0
    s = np.minimum(t, 1.0 - t)
    below = s < t1
    u = np.where(below, -s ** 2 / 2 + (1.0 - t1) * s, theta + (0.5 - t1) ** 2 - (s - 0.5) ** 2)
    du = np.where(below, 1.0 - t1 - s, 1.0 - 2.0 * s)
    return u, np.where(t <= 0.5, du, -du)


class TestStepClosedForm:
    """The step problem's solutions in closed form, against the solve from 0."""

    @pytest.mark.parametrize("theta", np.linspace(0.005, 0.124, 12).tolist())
    def test_crossing_solution(self, theta):
        sol = solve_picard(_step_spec(theta), tol=1e-8)
        assert sol.converged
        assert sol.curve_crossings == [("step-threshold", 2)]
        u, du = _step_closed_form(theta, sol.u.nodes)
        assert np.max(np.abs(sol.u.values - u)) <= 5e-7
        assert np.max(np.abs(sol.u.derivatives - du)) <= 5e-6

    @pytest.mark.parametrize("theta", [0.13, 0.15, 0.16])
    def test_above_one_eighth_the_solve_finds_the_solution_below_theta(self, theta):
        # t(1-t)/2 peaks at 1/8 < theta, so f = 1 along it and it solves the
        # problem too; T maps 0 to it and it to itself
        sol = solve_picard(_step_spec(theta), tol=1e-8)
        t = sol.u.nodes
        assert sol.converged and sol.iterations == 2 and sol.residual == 0.0
        assert sol.curve_crossings == [("step-threshold", 0)]
        assert np.max(np.abs(sol.u.values - t * (1 - t) / 2)) <= 1e-9
        assert np.max(np.abs(sol.u.derivatives - (1 - 2 * t) / 2)) <= 1e-9
        if theta == 0.15:
            assert np.max(np.abs(sol.u.values - _step_closed_form(theta, t)[0])) > 0.09


class TestCurveCrossingsOfTheReturnedIterate:
    """Solution.curve_crossings comes from the sweep of the returned iterate,
    with no scan of its own, and counts what a scan of sol.u finds."""

    @staticmethod
    def scanned(spec, u):
        curves = spec.nonlinearity.curves
        return [(c.label, len(xs)) for c, xs in zip(curves, find_crossings(u, curves))]

    @pytest.mark.parametrize("theta, max_iter", [(0.05, 50), (0.15, 50), (0.05, 3), (0.06, 5)])
    def test_step(self, theta, max_iter):
        spec = _step_spec(theta)
        sol = solve_picard(spec, tol=1e-8, max_iter=max_iter)
        assert sol.converged == (max_iter == 50)
        assert sol.curve_crossings == self.scanned(spec, sol.u)

    def test_divisor(self, divisor_spec, divisor_solution):
        assert divisor_solution.curve_crossings == self.scanned(divisor_spec,
                                                                divisor_solution.u)

    def test_least_residual_iterate_not_the_last(self):
        # 20/pi**2 > 1: the sweeps diverge, so the start 0 has the least
        # residual; it stays below the line 0.01, which the second iterate
        # T0 = t(1-t)/2 crosses
        level = DiscontinuityCurve(a=0.0, b=1.0, value=lambda t: np.full_like(t, 0.01),
                                   second_derivative=np.zeros_like, label="level")
        f = Nonlinearity(eval=lambda t, u: 1.0 - 20.0 * np.asarray(u, float),
                         curves=(level,), local_bound=lambda t, r: 20.0 * r + 1.0)
        spec = ProblemSpec(params=DIRICHLET, weight=const_weight(), nonlinearity=f,
                           radius=50.0, quad_tol=1e-10, grid_size=33)
        sol = solve_picard(spec, max_iter=2)
        assert not sol.converged and norm_c1(sol.u) == 0.0
        assert sol.curve_crossings == self.scanned(spec, sol.u) == [("level", 0)]
        assert self.scanned(spec, apply_T(spec, sol.u)) == [("level", 2)]
