import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bvpkit import (DIRICHLET, BvpError, GridFunction, IntegrandSpec, MaxDepthExceeded,
                    NonFiniteIntegrand, apply_T, dk_dt, integrate)
from bvpkit.model import Weight
from bvpkit.quadrature import (BLOCK, MAX_DEPTH, MAX_GROWTH, _subpanels, integrate_groups,
                               make_plan)

from conftest import Counted, const_weight, random_ball_function, smoke_spec


def test_linear_monomial():
    spec = IntegrandSpec(lambda s: s, tol=1e-12)
    assert integrate(spec, 0, 1) == pytest.approx(0.5, abs=1e-12)


def test_inverse_sqrt_singularity():
    spec = IntegrandSpec(lambda s: 1.0 / np.sqrt(s), singular_left=True, tol=1e-10)
    assert integrate(spec, 0, 1) == pytest.approx(2.0, abs=1e-10)


def test_kernel_derivative_row_with_breakpoint():
    # closed form: t**2/2 + (1-t)**2/2 at t = 0.5
    spec = IntegrandSpec(lambda s: np.abs(dk_dt(DIRICHLET, 0.5, s)),
                         breakpoints=(0.5,), tol=1e-12)
    assert integrate(spec, 0, 1) == pytest.approx(0.25, abs=1e-12)


def test_additivity():
    fn = lambda s: np.exp(s) * np.sin(5 * s)
    tol = 1e-11
    whole = integrate(IntegrandSpec(fn, tol=tol), 0, 1)
    for c in (0.3, 0.5, 0.7123):
        parts = integrate(IntegrandSpec(fn, tol=tol), 0, c) \
            + integrate(IntegrandSpec(fn, tol=tol), c, 1)
        assert parts == pytest.approx(whole, abs=2 * tol)


def test_linearity():
    f1 = lambda s: np.cos(3 * s)
    f2 = lambda s: s ** 3
    a, b = 2.5, -1.75
    tol = 1e-11
    lhs = integrate(IntegrandSpec(lambda s: a * f1(s) + b * f2(s), tol=tol), 0, 1)
    rhs = a * integrate(IntegrandSpec(f1, tol=tol), 0, 1) \
        + b * integrate(IntegrandSpec(f2, tol=tol), 0, 1)
    assert lhs == pytest.approx(rhs, abs=2 * tol)


def test_polynomial_exactness_single_panel():
    # degree <= 15: both panel rules are exact, so the first estimate is final
    rng = np.random.default_rng(3)
    coeffs = rng.uniform(-1, 1, size=16)
    exact = sum(c / (j + 1) for j, c in enumerate(coeffs))
    spec = IntegrandSpec(lambda s: sum(c * s ** j for j, c in enumerate(coeffs)),
                         tol=1e-6)
    assert integrate(spec, 0, 1) == pytest.approx(exact, abs=5e-15)


def test_inverse_sqrt_beside_a_tiny_group_takes_one_call():
    # in x = sqrt(s) the integrand 2x / x is the constant 2 on both groups
    fn = Counted(lambda s: 1.0 / np.sqrt(s))
    got = integrate_groups(fn, (0.0, 1e-6, 1.0), singular_left=True, tol=1e-12)
    assert fn.calls == 1
    assert np.max(np.abs(got[0] - (2e-3, 2.0 - 2e-3))) <= 1e-12


def test_inverse_sqrt_step_cut_at_its_breakpoint_in_x():
    # 2 and 4 in x, on either side of the breakpoint mapped to x = sqrt(0.3)
    fn = Counted(lambda s: np.where(s < 0.3, 1.0, 2.0) / np.sqrt(s))
    spec = IntegrandSpec(fn, breakpoints=(0.3,), singular_left=True, tol=1e-12)
    exact = 2.0 * np.sqrt(0.3) + 4.0 * (1.0 - np.sqrt(0.3))
    assert integrate(spec, 0, 1) == pytest.approx(exact, abs=1e-12)
    assert fn.calls == 1


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(ends=st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=8, unique=True),
       breaks=st.lists(st.floats(0.0, 1.0), max_size=6), k=st.integers(0, 7))
def test_inverse_sqrt_moments_are_exact_in_x(ends, breaks, k):
    # s**(k - 1/2) is 2x**(2k) in x = sqrt(s): degree <= 14, exact for both rules
    edges = np.concatenate(([0.0], np.sort(ends)))
    fn = Counted(lambda s: s ** (k - 0.5))
    tol = 1e-12
    got = integrate_groups(fn, edges, tuple(breaks), singular_left=True, tol=tol)
    assert fn.calls == 1
    assert np.max(np.abs(got[0] - np.diff(edges ** (k + 0.5)) / (k + 0.5))) <= tol


def test_singular_tolerance_without_depth_failure():
    spec = IntegrandSpec(lambda s: s ** -0.5, singular_left=True, tol=1e-10)
    integrate(spec, 0, 1)  # must not raise


def test_divergent_integrand_hits_depth_cap():
    spec = IntegrandSpec(lambda s: 1.0 / s, singular_left=True, tol=1e-10)
    with pytest.raises(MaxDepthExceeded):
        integrate(spec, 0, 1)


def test_undeclared_singularity_hits_depth_cap():
    spec = IntegrandSpec(lambda s: 1.0 / np.sqrt(s), singular_left=False, tol=1e-10)
    with pytest.raises(MaxDepthExceeded):
        integrate(spec, 0, 1)


def test_non_finite_integrand_reported():
    def fn(s):
        return np.where(s > 0.5, np.nan, 1.0)

    with pytest.raises(NonFiniteIntegrand):
        integrate(IntegrandSpec(fn, tol=1e-9), 0, 1)


def test_breakpoints_outside_range_ignored():
    spec = IntegrandSpec(lambda s: s, breakpoints=(0.0, 0.2, 0.9, 1.0), tol=1e-12)
    assert integrate(spec, 0.3, 0.6) == pytest.approx((0.36 - 0.09) / 2, abs=1e-12)


def test_empty_interval():
    assert integrate(IntegrandSpec(lambda s: s, tol=1e-12), 0.5, 0.5) == 0.0


def test_bad_bounds_rejected():
    with pytest.raises(ValueError):
        integrate(IntegrandSpec(lambda s: s, tol=1e-9), 0.7, 0.2)


def test_bad_tol_rejected():
    with pytest.raises(ValueError):
        IntegrandSpec(lambda s: s, tol=0.0)
    with pytest.raises(ValueError):
        IntegrandSpec(lambda s: s, tol=np.nan)


def test_matches_scipy_on_piecewise_integrand():
    from scipy.integrate import quad

    def fn(s):
        return np.where(s < 0.37, np.sin(8 * s), np.cos(3 * s) + 1.0)

    ours = integrate(IntegrandSpec(fn, breakpoints=(0.37,), tol=1e-11), 0, 1)
    ref = quad(lambda s: float(fn(np.asarray(s))), 0, 1, points=[0.37], limit=200)[0]
    assert ours == pytest.approx(ref, abs=1e-9)


class TestGroups:
    """The batched engine behind integrate(): per-group integrals over
    adjacent groups, one integrand call per bisection round."""

    @staticmethod
    def scipy_groups(fn, edges, breaks=()):
        from scipy.integrate import quad
        return np.array([
            quad(lambda s: float(fn(np.array([s]))[0]), a, b, limit=200,
                 epsabs=1e-14, epsrel=1e-14, points=[x for x in breaks if a < x < b] or None)[0]
            for a, b in zip(edges[:-1], edges[1:])])

    def test_breakpoints_in_random_groups_match_scipy(self):
        rng = np.random.default_rng(11)
        edges = np.linspace(0.0, 1.0, 17)
        groups = np.sort(rng.choice(16, size=5, replace=False))
        breaks = edges[groups] + rng.uniform(0.1, 0.9, size=5) / 16

        def fn(s):
            k = np.searchsorted(breaks, s)
            return np.sin(7.0 * s + k) + k * s * s

        tol = 1e-11
        got = integrate_groups(fn, edges, tuple(breaks), tol=tol)
        assert got.shape == (1, 16)
        assert np.max(np.abs(got[0] - self.scipy_groups(fn, edges, breaks))) <= tol

    def test_breakpoint_within_1e14_of_an_edge_is_merged(self):
        edges = np.linspace(0.0, 1.0, 9)
        fn = Counted(lambda s: np.exp(s) * np.cos(3.0 * s))
        breaks = (edges[3] + 5e-15, edges[6] - 5e-15, 0.4, 0.4 + 5e-15)
        got = integrate_groups(fn, edges, breaks, tol=1e-12)
        # 8 groups plus the one real cut at 0.4, 24 points per subpanel
        assert fn.calls == 1 and fn.points == 9 * 24
        assert np.max(np.abs(got[0] - self.scipy_groups(fn, edges, breaks[2:3]))) <= 1e-12

    def test_inv_sqrt_moments_on_the_first_group(self):
        edges = np.array([0.0, 0.05, 0.3, 0.55, 1.0])
        ks = np.arange(4)[:, None]
        exact = np.diff(edges ** (ks + 0.5), axis=1) / (ks + 0.5)
        for tol in (1e-12, 1e-13):
            fn = Counted(lambda s: s ** (ks - 0.5))
            got = integrate_groups(fn, edges, singular_left=True, tol=tol)
            assert np.max(np.abs(got - exact)) <= tol
        # in x = sqrt(s) on every group the moments are the polynomials 2x**(2k)
        assert fn.calls == 1

    def test_components_match_separate_runs(self):
        edges = np.linspace(0.0, 1.0, 6)
        f1 = lambda s: np.abs(np.sin(9.0 * s))
        f2 = lambda s: 1.0 / (1.0 + 100.0 * (s - 0.37) ** 2)
        tol = 1e-11
        both = integrate_groups(lambda s: np.stack((f1(s), f2(s))), edges, tol=tol)
        for row, fn in zip(both, (f1, f2)):
            assert np.max(np.abs(row - integrate_groups(fn, edges, tol=tol)[0])) <= tol

    @pytest.mark.parametrize("singular", [False, True])
    def test_each_block_lies_in_one_group(self, singular):
        rng = np.random.default_rng(5)
        edges = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, 9)), [1.0]))
        breaks = tuple(rng.uniform(0.0, 1.0, 6))
        seen = []

        def fn(s):
            seen.append(s.copy())
            return np.abs(s - 0.4321) ** 0.25 / (np.sqrt(s) if singular else 1.0)

        integrate_groups(fn, edges, breaks, singular_left=singular, tol=1e-11)
        assert len(seen) > 2 and all(s.ndim == 1 and s.size % BLOCK == 0 for s in seen)
        rows = np.concatenate(seen).reshape(-1, BLOCK)
        i = np.searchsorted(edges, rows[:, BLOCK // 2], side="right") - 1
        assert np.all(edges[i] <= rows.min(axis=1)) and np.all(rows.max(axis=1) <= edges[i + 1])

    def test_nan_names_its_subinterval(self):
        edges = np.linspace(0.0, 1.0, 6)

        def fn(s):
            return np.where((s > 0.64) & (s < 0.76), np.nan, s)

        with pytest.raises(NonFiniteIntegrand, match=re.escape(f"[{edges[3]}, {edges[4]}]")):
            integrate_groups(fn, edges)

    def test_an_overflowing_sum_names_its_subinterval(self):
        # finite values whose weighted sum overflows on the fourth group only
        edges = np.linspace(0.0, 1.0, 6)

        def fn(s):
            return np.where((s > 0.6) & (s < 0.8), 1e308, s)

        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                NonFiniteIntegrand, match=re.escape(f"overflows on [{edges[3]}, {edges[4]}]")):
            integrate_groups(fn, edges)


def _subpanels_per_cut(edges, breakpoints):
    """_subpanels as one np.searchsorted call per cut."""
    m = edges.size - 1
    cuts, last = [], {}
    for x in sorted({float(x) for x in breakpoints}):
        i = int(np.searchsorted(edges, x, side="right")) - 1
        if 0 <= i < m and x - last.get(i, edges[i]) > 1e-14 and edges[i + 1] - x > 1e-14:
            cuts.append(x)
            last[i] = x
    if not cuts:
        return edges[:-1], edges[1:], np.arange(m)
    pts = np.sort(np.concatenate((edges, cuts)))
    return pts[:-1].copy(), pts[1:].copy(), np.searchsorted(edges, pts[:-1], side="right") - 1


class TestSubpanels:
    """_subpanels, one searchsorted over the sorted cuts, gives bitwise the
    per-cut loop's subpanels and groups."""

    EDGES = {"uniform": np.linspace(0.0, 1.0, 9), "in x": np.sqrt(np.linspace(0.0, 1.0, 9)),
             "offset": np.linspace(0.25, 0.75, 5)}

    @staticmethod
    def assert_bitwise(edges, breaks):
        got, want = _subpanels(edges, breaks), _subpanels_per_cut(edges, breaks)
        assert [a.dtype for a in got] == [a.dtype for a in want]
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        return got

    @pytest.mark.parametrize("edges", list(EDGES), ids=list(EDGES))
    @pytest.mark.parametrize("case", ["empty", "close pairs", "near edges", "on edges",
                                      "outside", "NaN", "everything"])
    def test_matches_the_per_cut_loop(self, edges, case):
        e = self.EDGES[edges]
        inside = [e[1] + 0.3 * (e[2] - e[1]), e[3] + 0.5 * (e[4] - e[3])]
        cases = {
            "empty": [],
            "close pairs": [x + d for x in inside for d in (0.0, 5e-15, 2e-14, 9e-15)],
            "near edges": [x + d for x in e[1:-1] for d in (-5e-15, 5e-15, -2e-14, 2e-14)]
                          + [e[0] + 5e-15, e[-1] - 5e-15],
            "on edges": list(e) + inside,
            "outside": [e[0] - 0.1, e[-1] + 0.1, -np.inf, np.inf, *inside],
            "NaN": [np.nan, *inside, np.nan],
        }
        cases["everything"] = [x for c in cases.values() for x in c][::-1]
        lo, _, _ = self.assert_bitwise(e, cases[case])
        assert (lo.size > e.size - 1) == (case not in ("empty",))

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_clusters(self, seed):
        rng = np.random.default_rng(seed)
        e = self.EDGES["in x"]
        centres = rng.uniform(e[0] - 0.05, e[-1] + 0.05, 6)
        breaks = np.concatenate([c + rng.uniform(-3e-14, 3e-14, 4) for c in centres])
        self.assert_bitwise(e, np.concatenate((breaks, rng.choice(e, 3))))


class TestStacks:
    """integrate_groups(stack=True) by a plan's exact rule: copy j of every
    group, split at its own breakpoints alone, gives the bits and the errors
    of a call on copy j."""

    EDGES = np.linspace(0.0, 1.0, 9)
    # no cut; one cut; two cuts in one group and one within 1e-14 of an edge; and
    # a cut that only the singular variable merges with the edge beside it
    SETS = ((), (0.3,), (0.4, 0.43, 0.51, 0.75 - 5e-15), (0.125 + 1e-13, 0.9))

    @staticmethod
    def integrand(s, copy):
        s = s.reshape(copy.shape[0], -1)
        return np.stack((np.exp(s) * np.cos(3.0 * s + copy), np.abs(s - 0.43) ** 0.5 + copy))

    def alone(self, j, points):
        return lambda s: self.integrand(s, np.full((s.size // points, 1), j))

    @pytest.mark.parametrize("singular", [False, True])
    def test_copies_are_their_own_calls(self, singular):
        # a port of the adaptive pair's case to exact rules of 1, 4 and 8 points
        for points in (1, 4, 8):
            plan = make_plan(None, self.EDGES, singular, points)
            got = integrate_groups(self.integrand, self.EDGES, self.SETS, singular, 1e-12,
                                   plan, stack=True)
            assert got.shape == (2, len(self.SETS), 8)
            for j, breaks in enumerate(self.SETS):
                one = integrate_groups(self.alone(j, points), self.EDGES, breaks, singular,
                                       1e-12, plan)
                assert got[:, j].tobytes() == one.tobytes()

    def test_a_plan_serves_every_copy(self):
        sample = lambda s: (np.sin(s),)  # noqa: E731
        plan = make_plan(sample, self.EDGES, points=2)

        def fn(s, sin_s, copy):
            return np.stack((sin_s * (1.0 + copy) * s.reshape(sin_s.shape),
                             np.where(s.reshape(sin_s.shape) < 0.43, copy, 2.0)))

        fn = Counted(fn)
        got = integrate_groups(fn, self.EDGES, self.SETS, tol=1e-9, plan=plan, stack=True)
        assert fn.calls == 1
        for j, breaks in enumerate(self.SETS):
            one = integrate_groups(
                lambda s, sin_s: fn.fn(s, sin_s, np.full((s.size // 2, 1), j)),
                self.EDGES, breaks, tol=1e-9, plan=plan)
            assert got[:, j].tobytes() == one.tobytes()

    def test_one_copy_stack(self):
        # a port of the adaptive pair's case to the 8-point rule
        plan = make_plan(None, self.EDGES, points=8)
        got = integrate_groups(self.integrand, self.EDGES, self.SETS[2:3], tol=1e-12,
                               plan=plan, stack=True)
        one = integrate_groups(self.alone(0, 8), self.EDGES, self.SETS[2], tol=1e-12,
                               plan=plan)
        assert got.shape == (2, 1, 8) and got[:, 0].tobytes() == one.tobytes()

    @pytest.mark.parametrize("pair", [False, True], ids=["no plan", "pair"])
    def test_a_stack_needs_an_exact_rule(self, pair):
        plan = make_plan(None, self.EDGES) if pair else None
        with pytest.raises(ValueError, match="a stack needs a plan that names an exact rule"):
            integrate_groups(self.integrand, self.EDGES, self.SETS, plan=plan, stack=True)

    def test_each_copy_has_its_own_rounding_floor(self):
        # a port of the adaptive pair's smooth case to the 8-point rule.  scale * exp at
        # tol 1e-17: the floors sum to about eps * scale * int exp, past m * tol =
        # 1.6e-16 from scale 0.4 on; pass and fail sit one float apart
        edges = np.linspace(0.0, 1.0, 17)
        plan = make_plan(None, edges, points=8)

        def alone(scale, fn=None):
            return integrate_groups(fn or (lambda s: scale * np.exp(s)), edges, tol=1e-17,
                                    plan=plan)

        def stacked(*scales):
            scales = np.array(scales)
            return integrate_groups(
                lambda s, copy: scales[copy] * np.exp(s.reshape(copy.shape[0], -1)),
                edges, ((),) * scales.size, tol=1e-17, plan=plan, stack=True)

        low, high = _least_failing_scale(alone)
        got = stacked(0.0, low, 1e-3)
        for j, scale in enumerate((0.0, low, 1e-3)):
            assert got[:, j].tobytes() == alone(scale).tobytes()
        fn = Counted(lambda s: high * np.exp(s))
        with pytest.raises(MaxDepthExceeded) as expected:
            alone(high, fn)
        assert "rounding floor" in str(expected.value) and fn.calls == 1
        # a stack raises what its first failing copy raises alone, even where a
        # later copy is not finite
        for scales in ((0.0, high), (high, low), (low, 0.0, high), (low, high, 1e3),
                       (high, np.nan)):
            with pytest.raises(MaxDepthExceeded) as got:
                stacked(*scales)
            assert str(got.value) == str(expected.value)


def _least_failing_scale(integral):
    """Neighbouring floats low < high in [1e-3, 1] where integral(scale)
    passes at low and raises MaxDepthExceeded at high."""
    def raises(scale):
        try:
            integral(scale)
        except MaxDepthExceeded:
            return True
        return False

    low, high = 1e-3, 1.0
    assert not raises(low) and raises(high)
    while np.nextafter(low, 2.0) < high:
        mid = 0.5 * (low + high)
        low, high = (low, mid) if raises(mid) else (mid, high)
    return low, high


def test_finished_groups_bring_their_floors_to_later_rounds():
    # scale * g at tol 1e-17, as in TestStacks, with an undeclared kink at 0.43 that
    # takes the call past round 1: there the 15 groups finished in round 1 bring
    # their floors' sum (pairwise from 8 terms on) to the rounding floor
    edges = np.linspace(0.0, 1.0, 17)

    def g(s):
        return np.exp(s) + np.abs(s - 0.43)

    _, high = _least_failing_scale(lambda scale: integrate_groups(
        lambda s: scale * g(s), edges, tol=1e-17))
    fn = Counted(lambda s: high * g(s))
    with pytest.raises(MaxDepthExceeded, match="rounding floor"):
        integrate_groups(fn, edges, tol=1e-17)
    assert fn.calls > 1


def test_two_undeclared_jumps_exceed_the_subpanel_budget():
    # jumps at 1/3 and 0.6 take one group past 32 times its first round's one
    # subpanel plus 80
    with pytest.raises(MaxDepthExceeded) as raised:
        integrate_groups(lambda s: 1.0 + np.where(s < 1.0 / 3.0, 0.0, 1.0)
                         + np.where(s < 0.6, 0.0, 1.0), (0.0, 1.0), tol=1e-12)
    assert "past 32 times its first round's 1 plus 80" in str(raised.value)


@pytest.mark.parametrize("fn, singular", [(lambda s: 1.0 / s, True),
                                          (lambda s: 1.0 / np.sqrt(s), False)],
                         ids=["1/s declared", "1/sqrt(s) undeclared"])
def test_failure_work_is_bounded(fn, singular):
    counted = Counted(fn, max_points=10_000)
    with pytest.raises(MaxDepthExceeded, match="bisection levels"):
        integrate(IntegrandSpec(counted, singular_left=singular, tol=1e-10), 0, 1)
    assert counted.calls <= MAX_DEPTH + 1


def test_one_group_chases_an_undeclared_jump_through_every_level():
    # 67 subpanels, past MAX_GROWTH times the first round's one
    fn = Counted(lambda s: np.where(s < 1.0 / 3.0, 1.0, 2.0))
    assert integrate(IntegrandSpec(fn, tol=1e-12), 0, 1) == pytest.approx(5.0 / 3.0, abs=1e-10)
    assert fn.points == 67 * BLOCK > MAX_GROWTH * BLOCK


@pytest.mark.parametrize("seed", range(5))
def test_divisor_ball_functions_fail_within_the_point_budget(divisor_spec, seed):
    # u has dozens of roots, and the jump curves of f accumulate at u = 0-
    f = Counted(divisor_spec.nonlinearity.eval, max_points=10 ** 6)
    spec = replace(divisor_spec, nonlinearity=replace(divisor_spec.nonlinearity, eval=f))
    with pytest.raises(BvpError):
        apply_T(spec, random_ball_function(spec, np.random.default_rng(seed), 0.9))


def test_tolerance_below_rounding_fails_with_bounded_work():
    spec = smoke_spec(quad_tol=1e-300)
    f = Counted(spec.nonlinearity.eval, max_points=10_000)
    spec = replace(spec, nonlinearity=replace(spec.nonlinearity, eval=f))
    with pytest.raises(MaxDepthExceeded, match="bisection levels"):
        apply_T(spec, GridFunction.zero(spec.nodes))
    assert f.calls <= MAX_DEPTH + 1


@pytest.mark.parametrize("g, u, du", [
    (lambda t: 1e4 + 0 * t, lambda t: 1e4 * t * (1 - t) / 2, lambda t: 1e4 * (0.5 - t)),
    (lambda t: 1e5 + 0 * t, lambda t: 1e5 * t * (1 - t) / 2, lambda t: 1e5 * (0.5 - t)),
    (lambda t: 1e6 * t ** 20, lambda t: 1e6 * (t - t ** 22) / 462,
     lambda t: 1e6 * (1 - 22 * t ** 21) / 462)], ids=["1e4", "1e5", "1e6 t^20"])
def test_large_integrand_meets_a_tolerance_above_rounding(g, u, du):
    # the per-panel tol, 3.9e-13, is below 50 eps times a panel integral (and,
    # for 1e6 t^20, below eps times the last one), but rounding over all of T
    # stays below quad_tol
    spec = replace(smoke_spec(quad_tol=1e-10), weight=Weight(eval=g))
    tu = apply_T(spec, GridFunction.zero(spec.nodes))
    t = spec.nodes
    assert np.max(np.abs(tu.values - u(t))) <= 1e-10
    assert np.max(np.abs(tu.derivatives - du(t))) <= 1e-10


def test_tolerance_below_the_rounding_of_T_fails_at_once():
    # T is about 1e7 here, where one ulp is already above quad_tol
    spec = replace(smoke_spec(quad_tol=1e-10), weight=const_weight(1e8))
    f = Counted(spec.nonlinearity.eval)
    spec = replace(spec, nonlinearity=replace(spec.nonlinearity, eval=f))
    with pytest.raises(MaxDepthExceeded, match="rounding floor"):
        apply_T(spec, GridFunction.zero(spec.nodes))
    assert f.calls == 1
