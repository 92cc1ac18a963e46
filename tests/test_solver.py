import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bvpkit.hammerstein
import bvpkit.solver
from bvpkit import (DIRICHLET, BallViolation, apply_T, bc_residual, norm_c1, residual,
                    solve_picard, validate_params)
from bvpkit.catalog import make_nonlinearity_from_id
from bvpkit.model import (DiscontinuityCurve, GridFunction, Nonlinearity, ProblemSpec, Weight,
                          c1_norm_of)
from bvpkit.solver import MIN_RELAX

from conftest import const_nonlinearity, const_weight, crossings_of, smoke_spec


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
        # Lipschitz(f) * (M1 + M2) = 0.1 * 0.625: T contracts, and the steps,
        # mixed from the second sweep on, shrink at least fivefold each
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

    def test_initial_iterate_on_another_grid(self):
        with pytest.raises(ValueError, match="spec.nodes"):
            solve_picard(smoke_spec(), u0=GridFunction.zero(np.linspace(0.0, 1.0, 65)))

    def test_non_finite_image(self, monkeypatch):
        # an image that is not finite is a ValueError, not a ball violation
        closed_forms = bvpkit.hammerstein._closed_forms
        monkeypatch.setattr(bvpkit.hammerstein, "_closed_forms",
                            lambda *args: np.add(closed_forms(*args), np.nan))
        with pytest.raises(ValueError, match="entries must be finite"):
            solve_picard(smoke_spec())

    def test_relax_validation(self):
        with pytest.raises(ValueError):
            solve_picard(smoke_spec(), relax=0.0)

    def test_grid_function_builds_do_not_grow_with_the_sweeps(self, monkeypatch):
        # the picard bench problem for c = -1.4: 5 sweeps, mixed from the second
        f = Nonlinearity(eval=lambda t, u: 1.0 - 1.4 * np.asarray(u, float),
                         local_bound=lambda t, r: 1.4 * r + 1.0, degree=1)
        spec = ProblemSpec(params=DIRICHLET, weight=const_weight(), nonlinearity=f,
                           radius=10.0, grid_size=257)
        built, post_init = [], GridFunction.__post_init__

        def counted(u):
            built.append(u)
            post_init(u)

        monkeypatch.setattr(GridFunction, "__post_init__", counted)
        assert solve_picard(spec, max_iter=1).iterations == 1
        one_sweep = len(built)
        built.clear()
        sol = solve_picard(spec, tol=1e-8)
        assert sol.converged and sol.iterations == 5
        assert len(built) == one_sweep


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

    def test_non_converged_run_returns_least_residual_iterate(self, monkeypatch):
        # the sweeps chatter across the threshold until max_iter, and the
        # last iterate is not the one of least residual
        spec = _chattering_spec()
        sol, sweeps, _ = _traced_solve(monkeypatch, spec, tol=1e-8)
        res = [c1_norm_of(*(ty - y)) for y, ty, _ in sweeps]
        best = int(np.argmin(res))
        assert not sol.converged and sol.iterations == len(sweeps) == 50
        assert best < len(sweeps) - 1
        assert np.array_equal([sol.u.values, sol.u.derivatives], sweeps[best][0])
        assert sol.residual == res[best] == residual(spec, sol.u)

    @pytest.mark.parametrize("name, value", [
        ("max_iter", 0), ("max_iter", -3), ("max_iter", 2.5), ("max_iter", True),
        ("tol", 0.0), ("tol", -1.0), ("tol", float("nan"))])
    def test_max_iter_validation(self, name, value):
        # each fails before the first sweep, naming the argument
        with pytest.raises(ValueError, match=name):
            solve_picard(smoke_spec(), **{name: value})


class TestHalving:
    """Three sign-alternating residuals Tu - u in a row of plain steps halve
    the relaxation; an alternation across a mixed step is no chattering."""

    def test_chattering_plain_steps_halve_to_the_floor(self):
        sol = solve_picard(_chattering_spec(), tol=1e-8)
        assert not sol.converged and sol.relax_final == MIN_RELAX == 1.0 / 16.0

    @pytest.mark.parametrize("c, iterations, relax_final", [(-5.0, 6, 1.0),
                                                            (-10.0, 8, 1.0)])
    def test_halving_decisions(self, c, iterations, relax_final):
        sol = solve_picard(_linear_spec(c), tol=1e-8)
        assert sol.converged
        assert (sol.iterations, sol.relax_final) == (iterations, relax_final)


def _linear_spec(c, grid_size=65, radius=100.0, quad_tol=1e-9):
    """Dirichlet, g = 1, f = 1 + c*u, with no declared degree."""
    f = Nonlinearity(eval=lambda t, u: 1.0 + c * np.asarray(u, float),
                     local_bound=lambda t, r: 1.0 + abs(c) * r)
    return ProblemSpec(params=DIRICHLET, weight=const_weight(), nonlinearity=f,
                       radius=radius, quad_tol=quad_tol, grid_size=grid_size)


def _linear_closed_form(c, t):
    """u'' + 1 + c*u = 0, u(0) = u(1) = 0, and u'.  With S(x) = sinh(kx)/k and
    C(x) = cosh(kx) for c = -k**2 (sin and cos for c = k**2; x and 1 for
    c = 0), u = 2 S(t/2) S((1-t)/2) / C(1/2), which does not cancel near 0."""
    k = np.sqrt(abs(c))
    if c < 0:
        S, C = (lambda x: np.sinh(k * x) / k), (lambda x: np.cosh(k * x))
    elif c > 0:
        S, C = (lambda x: np.sin(k * x) / k), (lambda x: np.cos(k * x))
    else:
        S, C = (lambda x: x), (lambda x: np.ones_like(x))
    a, b = t / 2.0, (1.0 - t) / 2.0
    return 2.0 * S(a) * S(b) / C(0.5), (C(a) * S(b) - S(a) * C(b)) / C(0.5)


def _chattering_spec():
    """Dirichlet, g = 1, f steps from 2 down to -1 at u = 0.1: the iterates
    cross the threshold twice, and plain sweeps chatter across it."""
    return ProblemSpec(params=DIRICHLET, weight=const_weight(),
                       nonlinearity=make_nonlinearity_from_id(
                           "step", {"low": 2.0, "high": -1.0, "threshold": 0.1}),
                       radius=4.0, quad_tol=1e-9, grid_size=129)


def _traced_solve(monkeypatch, spec, **kwargs):
    """solve_picard, with the (iterate, image, crossing counts) of each sweep
    and each step that _mixed returned."""
    sweeps, mixes = [], []
    apply, mixed = bvpkit.solver._apply_T, bvpkit.solver._mixed

    def traced_apply(spec, y):
        ty, crossings = apply(spec, y)
        sweeps.append((y, ty, [len(xs) for xs in crossings]))
        return ty, crossings

    def traced_mixed(history, relax):
        mixes.append(mixed(history, relax))
        return mixes[-1]

    monkeypatch.setattr(bvpkit.solver, "_apply_T", traced_apply)
    monkeypatch.setattr(bvpkit.solver, "_mixed", traced_mixed)
    return solve_picard(spec, **kwargs), sweeps, mixes


class TestMixingSafeguards:
    """Each way a mix falls back.  On the plain path (damped steps from u0) a
    mix outside the ball gives way to the plain step; off it, a failed mix
    sends the run back to the path's last iterate, and from there the run is
    plain damped Picard's."""

    @staticmethod
    def falls_back(monkeypatch, spec):
        """Solve spec traced, and with no mix.  The mixed run leaves the plain
        path after sweep j, mixes every step up to sweep k, and then takes the
        plain run's steps from sweep j's iterate: its sweeps are the plain
        run's, bit for bit, but for k - j mixed ones in between.  Returns the
        mixed solution, k, and the residual and crossing counts per sweep."""
        with monkeypatch.context() as m:
            m.setattr(bvpkit.solver, "_mixed", lambda history, relax: None)
            plain, plain_sweeps, _ = _traced_solve(m, spec, tol=1e-8)
        sol, sweeps, mixes = _traced_solve(monkeypatch, spec, tol=1e-8)
        taken = [i for i, (y, _, _) in enumerate(sweeps) if any(y is x for x in mixes)]
        j, k = taken[0] - 1, taken[-1]
        assert taken == list(range(j + 1, k + 1))
        assert len(sweeps) == sol.iterations == plain.iterations + k - j
        for (y, ty, _), (py, pty, _) in zip(sweeps[:j + 1] + sweeps[k + 1:], plain_sweeps):
            assert np.array_equal(y, py) and np.array_equal(ty, pty)
        assert (sol.converged, sol.relax_final) == (plain.converged, plain.relax_final)
        return sol, k, [c1_norm_of(*(ty - y)) for y, ty, _ in sweeps], [c for *_, c in sweeps]

    def test_a_change_in_crossing_counts_rejects_the_mixed_step(self, monkeypatch):
        # test_crossing_solution[0.124] is the regression for the mix -> T ->
        # plain 3-cycle that mixing on after this rejection fell into
        sol, k, res, counts = self.falls_back(monkeypatch, _step_spec(0.124))
        assert res[k] <= res[k - 1] and counts[k] != counts[k - 1]
        assert sol.converged

    def test_a_raised_residual_rejects_the_mixed_step(self, monkeypatch):
        # a draw of the polynomial box: undamped plain steps from the rejected
        # mix's predecessor grow 1.6 -> 4.7 -> 19 -> 156 and leave the ball at
        # the seventh iterate, while plain damped Picard from 0 certifies in
        # 18 sweeps with relax 0.5, and the mixed run, back on its path, in 20
        params = validate_params(0.80894567, 1.52680433, 1.75811869, 1.92445886)
        f = make_nonlinearity_from_id("polynomial",
                                      {"coeffs": [-1.0371164, 2.3504211, 0.3897411]})
        spec = ProblemSpec(params=params, weight=const_weight(), nonlinearity=f,
                           radius=50.0, quad_tol=1e-9, grid_size=33)
        sol, k, res, _ = self.falls_back(monkeypatch, spec)
        assert res[k] > res[k - 1] and k == 3
        assert sol.converged and sol.inside_ball
        assert (sol.iterations, sol.relax_final) == (20, 0.5)

    def test_a_mix_outside_the_ball_on_the_plain_path_gives_the_plain_step(self, monkeypatch):
        # every candidate is scaled out of the ball, so the run is plain
        # damped Picard's: 16 sweeps and one halving on c = -5
        mixed, candidates = bvpkit.solver._mixed, []

        def far(history, relax):
            candidates.append(1e3 * mixed(history, relax))
            return candidates[-1]

        monkeypatch.setattr(bvpkit.solver, "_mixed", far)
        sol = solve_picard(_linear_spec(-5.0), tol=1e-8)
        assert sol.converged and (sol.iterations, sol.relax_final) == (16, 0.5)
        assert len(candidates) == sol.iterations - 2  # a try on every sweep but two
        assert min(c1_norm_of(*c) for c in candidates) > 100.0

    def test_a_mix_outside_the_ball_off_the_plain_path_sends_the_run_back(self, monkeypatch):
        # the first mix is taken, and the second is scaled out of the ball:
        # the run goes back to the iterate the first mix left, one sweep
        # behind plain damped Picard's 16
        mixed, candidates = bvpkit.solver._mixed, []

        def far_after_one(history, relax):
            candidates.append((1e3 if candidates else 1.0) * mixed(history, relax))
            return candidates[-1]

        monkeypatch.setattr(bvpkit.solver, "_mixed", far_after_one)
        sol, k, res, _ = self.falls_back(monkeypatch, _linear_spec(-5.0))
        assert len(candidates) == 2 and c1_norm_of(*candidates[1]) > 100.0
        assert k == 2 and res[k] <= res[k - 1]
        assert sol.converged and (sol.iterations, sol.relax_final) == (17, 0.5)

    def test_a_singular_gram_system_falls_back_to_lstsq(self, monkeypatch):
        lstsq, calls = np.linalg.lstsq, []
        monkeypatch.setattr(np.linalg, "lstsq",
                            lambda *args, **kw: calls.append(args) or lstsq(*args, **kw))
        y0, y1, y2 = np.random.default_rng(3).standard_normal((3, 2, 9))
        d = np.zeros((2, 9))
        d[0, [1, 4]], d[1, [0, 7]] = 2.0, -2.0
        # one difference with dR = 0: no direction to mix in, so the plain step
        assert np.array_equal(bvpkit.solver._mixed([(y0, d), (y1, d)], 0.5), y1 + 0.5 * d)
        # two differences d and 2d with |d|**2 = 16, so elimination meets a 0
        # pivot exactly; the least-norm gamma is (1, 2) * (d . 3d) / (5 |d|**2)
        got = bvpkit.solver._mixed([(y0, 0.0 * d), (y1, d), (y2, 3.0 * d)], 1.0)
        assert len(calls) == 2
        gamma = np.array([1.0, 2.0]) * np.sum(3.0 * d * d) / (5.0 * np.sum(d * d))
        expected = y2 + 3.0 * d - gamma[0] * (y1 - y0 + d) - gamma[1] * (y2 - y1 + 2.0 * d)
        assert np.allclose(got, expected, rtol=0.0, atol=1e-12)

    def test_a_problem_undamped_sweeps_cannot_solve(self):
        # 20/pi**2 > 1, so undamped plain sweeps from 0 diverge.  Bounds set
        # before the run: the cubic Hermite error h**4/384 * max|u^(4)| is
        # 5e-8 at h = 1/32; T multiplies it by at most 20 * (1/8) in values
        # and 20 * (1/2) in derivatives, and (I + 20K)^-1 by at most 1
        spec = _linear_spec(-20.0, grid_size=33, radius=50.0, quad_tol=1e-10)
        sol = solve_picard(spec)
        assert sol.converged and sol.inside_ball and sol.relax_final == 1.0
        u, du = _linear_closed_form(-20.0, sol.u.nodes)
        assert np.max(np.abs(sol.u.values - u)) <= 1e-6
        assert np.max(np.abs(sol.u.derivatives - du)) <= 5e-6


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(c=st.floats(-30.0, 5.0), grid_size=st.sampled_from([33, 65, 129]))
def test_linear_problems_certify_at_their_closed_form(c, grid_size):
    # bound set before the run: the cubic Hermite error h**4/384 * |c| *
    # max|1 + c*u| <= 7.5e-8 at h = 1/32; T multiplies it by at most |c|/8
    # <= 3.75, and (I - cK)^-1 by at most 1 for c <= 0 and 1/(1 - 5/8) else
    spec = ProblemSpec(params=DIRICHLET, weight=const_weight(),
                       nonlinearity=make_nonlinearity_from_id("polynomial",
                                                              {"coeffs": [1.0, c]}),
                       radius=10.0, grid_size=grid_size)
    sol = solve_picard(spec, tol=1e-8)
    assert sol.converged and sol.inside_ball
    assert sol.residual <= 1e-8 * (1.0 + norm_c1(sol.u))
    u, _ = _linear_closed_form(c, sol.u.nodes)
    assert np.max(np.abs(sol.u.values - u)) <= 1e-6


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
        return [(c.label, len(xs)) for c, xs in zip(curves, crossings_of(u, curves))]

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
