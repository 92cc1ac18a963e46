import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from bvpkit import DomainError, find_crossings, find_curve_crossings, grid_eval, norm_c1
from bvpkit.errors import MaxDepthExceeded
from bvpkit.model import (SCAN_PER_PANEL, DiscontinuityCurve, GridFunction, Nonlinearity,
                          _itp_point, hermite_basis, hermite_value)
from bvpkit.quadrature import BLOCK, integrate_groups

from conftest import Counted, crossings_of, smoke_spec


def sampled(fn, dfn, n=33):
    nodes = np.linspace(0.0, 1.0, n)
    return GridFunction(nodes, fn(nodes), dfn(nodes))


class TestGridEval:
    def test_nodes_reproduced_exactly(self):
        rng = np.random.default_rng(0)
        nodes = np.linspace(0.0, 1.0, 17)
        u = GridFunction(nodes, rng.standard_normal(17), rng.standard_normal(17))
        for i, t in enumerate(nodes):
            v, d = grid_eval(u, t)
            assert v == u.values[i]
            assert d == u.derivatives[i]

    def test_exact_on_quadratic(self):
        u = sampled(lambda t: t ** 2, lambda t: 2 * t, n=9)
        v, d = grid_eval(u, 0.5)
        assert v == pytest.approx(0.25, abs=1e-12)
        assert d == pytest.approx(1.0, abs=1e-12)

    def test_exact_on_cubics_everywhere(self):
        u = sampled(lambda t: t ** 3 - 2 * t ** 2 + 0.5 * t,
                    lambda t: 3 * t ** 2 - 4 * t + 0.5, n=5)
        for t in np.linspace(0, 1, 57):
            v, d = grid_eval(u, t)
            assert v == pytest.approx(t ** 3 - 2 * t ** 2 + 0.5 * t, abs=1e-13)
            assert d == pytest.approx(3 * t ** 2 - 4 * t + 0.5, abs=1e-12)

    def test_constant(self):
        u = sampled(lambda t: 3.0 + 0 * t, lambda t: 0 * t)
        v, d = grid_eval(u, 0.123)
        assert v == pytest.approx(3.0) and d == pytest.approx(0.0, abs=1e-14)

    def test_domain_error(self):
        u = sampled(lambda t: t, lambda t: 1 + 0 * t)
        with pytest.raises(DomainError):
            grid_eval(u, 1.0001)
        with pytest.raises(DomainError):
            grid_eval(u, np.array([0.5, np.nan]))

    def test_linear_in_data(self):
        rng = np.random.default_rng(5)
        nodes = np.linspace(0.0, 1.0, 9)
        a = GridFunction(nodes, rng.standard_normal(9), rng.standard_normal(9))
        b = GridFunction(nodes, rng.standard_normal(9), rng.standard_normal(9))
        comb = GridFunction(nodes, 2 * a.values - 3 * b.values,
                            2 * a.derivatives - 3 * b.derivatives)
        ts = rng.uniform(0, 1, size=20)
        va, da = grid_eval(a, ts)
        vb, db = grid_eval(b, ts)
        vc, dc = grid_eval(comb, ts)
        assert np.allclose(vc, 2 * va - 3 * vb, atol=1e-13)
        assert np.allclose(dc, 2 * da - 3 * db, atol=1e-13)

    def test_refinement_fourth_order(self):
        fn, dfn = np.sin, np.cos
        errs = []
        for n in (17, 33):
            u = sampled(fn, dfn, n)
            ts = (u.nodes[:-1] + u.nodes[1:]) / 2
            v, _ = grid_eval(u, ts)
            errs.append(np.max(np.abs(v - fn(ts))))
        ratio = errs[0] / errs[1]
        assert 12 < ratio < 20  # cubic Hermite: error ~ h**4


def row_value(u, rows):
    """u on rows of points, each in one node panel, as T reads it: one
    node-panel lookup per row (a 1-d t is one point per row)."""
    rows = np.asarray(rows, dtype=float)
    return hermite_value((u.values, u.derivatives),
                         *hermite_basis(u.nodes, rows.reshape(rows.shape[0], -1))
                         ).reshape(rows.shape)


class TestGridValue:
    """u on rows of quadrature points, hermite_value of hermite_basis with one
    node-panel lookup per row, has the bits of grid_eval's per-point lookup
    and formula."""

    @staticmethod
    def quadrature_rows(fn, nodes, **kw):
        seen = []

        def record(s):
            seen.append(s.copy())
            return fn(s)

        try:
            integrate_groups(record, nodes, **kw)
        except MaxDepthExceeded:
            pass
        return np.concatenate(seen).reshape(-1, BLOCK)

    @staticmethod
    def random_u(seed, n=33):
        rng = np.random.default_rng(seed)
        return GridFunction(np.linspace(0.0, 1.0, n), rng.standard_normal(n),
                            rng.standard_normal(n))

    def check(self, u, rows):
        got = row_value(u, rows)
        assert got.shape == rows.shape
        assert got.tobytes() == grid_eval(u, rows.ravel())[0].reshape(rows.shape).tobytes()

    @pytest.mark.parametrize("seed", range(3))
    def test_breakpoint_split_subpanels(self, seed):
        u = self.random_u(seed)
        rng = np.random.default_rng(100 + seed)
        breaks = tuple(rng.uniform(0.0, 1.0, size=20))
        rows = self.quadrature_rows(lambda s: np.cos(9.0 * s), u.nodes, breakpoints=breaks,
                                    tol=1e-12)
        assert rows.shape[0] == 32 + 20
        self.check(u, rows)

    @pytest.mark.parametrize("seed", range(3))
    def test_subpanels_bisected_to_full_depth_next_to_a_node(self, seed):
        u = self.random_u(seed)
        node = u.nodes[1 + seed * 7]
        rows = self.quadrature_rows(lambda s: 1.0 / np.sqrt(np.abs(s - node)), u.nodes,
                                    tol=1e-10)
        # 40 levels into a 1/32 panel: subpanels of width 2**-45
        assert np.min(np.abs(rows - node)) < 2.0 ** -45
        self.check(u, rows)

    @pytest.mark.parametrize("seed", range(3))
    def test_substituted_first_panel_of_a_singular_weight(self, seed):
        u = self.random_u(seed)
        rows = self.quadrature_rows(lambda s: np.cos(s) / np.sqrt(s), u.nodes,
                                    singular_left=True, tol=1e-13)
        first = rows[rows.max(axis=1) <= u.nodes[1]]
        assert first.size and np.min(first) < 1e-6
        self.check(u, rows)

    def test_one_point_per_row(self):
        u = self.random_u(7)
        t = np.concatenate((u.nodes, np.random.default_rng(7).uniform(0.0, 1.0, 200)))
        assert row_value(u, t).tobytes() == grid_eval(u, t)[0].tobytes()

    def test_widths_that_are_no_power_of_two(self):
        # h = 1/29 is rounded, so h*m*b in another order would change the bits
        u = self.random_u(8, n=30)
        t = np.concatenate((u.nodes, np.random.default_rng(8).uniform(0.0, 1.0, 5000)))
        assert row_value(u, t).tobytes() == grid_eval(u, t)[0].tobytes()


class TestNormC1:
    def test_zero(self):
        assert norm_c1(GridFunction.zero(np.linspace(0.0, 1.0, 9))) == 0.0

    def test_identity_function(self):
        assert norm_c1(sampled(lambda t: t, lambda t: 1 + 0 * t)) == pytest.approx(2.0)

    def test_parabola_on_odd_grid(self):
        u = sampled(lambda t: t * (1 - t) / 2, lambda t: (1 - 2 * t) / 2, n=33)
        assert norm_c1(u) == pytest.approx(0.625, abs=1e-15)

    def test_norm_axioms(self):
        rng = np.random.default_rng(9)
        nodes = np.linspace(0.0, 1.0, 9)
        for _ in range(100):
            a = GridFunction(nodes, rng.standard_normal(9), rng.standard_normal(9))
            b = GridFunction(nodes, rng.standard_normal(9), rng.standard_normal(9))
            c = rng.uniform(-3, 3)
            scaled = GridFunction(nodes, c * a.values, c * a.derivatives)
            assert norm_c1(scaled) == pytest.approx(abs(c) * norm_c1(a), rel=1e-14)
            s = GridFunction(nodes, a.values + b.values,
                             a.derivatives + b.derivatives)
            assert norm_c1(s) <= norm_c1(a) + norm_c1(b) + 1e-14


class TestGridFunctionInvariants:
    def test_rejects_wrong_endpoints(self):
        with pytest.raises(ValueError):
            GridFunction(np.linspace(0.1, 1, 5), np.zeros(5), np.zeros(5))

    def test_rejects_non_monotone(self):
        nodes = np.array([0.0, 0.5, 0.4, 1.0])
        with pytest.raises(ValueError):
            GridFunction(nodes, np.zeros(4), np.zeros(4))

    def test_rejects_non_finite(self):
        nodes = np.linspace(0.0, 1.0, 3)
        with pytest.raises(ValueError):
            GridFunction(nodes, np.array([0.0, np.nan, 0.0]), np.zeros(3))

    def test_read_only_grids_are_checked(self):
        # a read-only grid is checked on every construction, like any other:
        # a bad one never passes, nor does one that went bad after passing
        bad = np.array([0.0, 0.5, 0.4, 1.0])
        bad.flags.writeable = False
        for _ in range(2):
            with pytest.raises(ValueError, match="increasing"):
                GridFunction(bad, np.zeros(4), np.zeros(4))
        nodes = np.linspace(0.0, 1.0, 5)
        nodes.flags.writeable = False
        GridFunction.zero(nodes)
        nodes.flags.writeable = True
        nodes[2] = 0.9
        with pytest.raises(ValueError, match="increasing"):
            GridFunction.zero(nodes)
        # a read-only view that passed, its base then written; and a read-only
        # grid that passed, made writeable, written and made read-only again
        base = np.linspace(0.0, 1.0, 5)
        view = base.view()
        view.flags.writeable = False
        GridFunction.zero(view)
        base[2] = 5.0
        with pytest.raises(ValueError, match="increasing"):
            GridFunction.zero(view)
        nodes = np.linspace(0.0, 1.0, 5)
        nodes.flags.writeable = False
        GridFunction.zero(nodes)
        nodes.flags.writeable = True
        nodes[2] = 0.9
        nodes.flags.writeable = False
        with pytest.raises(ValueError, match="increasing"):
            GridFunction.zero(nodes)

    def test_replace_is_checked(self):
        from dataclasses import replace
        u = GridFunction.zero(smoke_spec(grid_size=5).nodes)
        with pytest.raises(ValueError, match="finite"):
            replace(u, values=np.array([0.0, np.inf, 0.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match="equal length"):
            replace(u, derivatives=np.zeros(4))

    def test_entries_are_read_only_copies(self):
        values = np.linspace(-1.0, 2.0, 5)
        u = GridFunction(np.linspace(0.0, 1.0, 5), values, np.zeros(5))
        assert norm_c1(u) == 2.0
        values[-1] = 7.0
        assert u.values[-1] == 2.0 and norm_c1(u) == 2.0
        with pytest.raises(ValueError):
            u.values[0] = 1.0


class TestProblemSpec:
    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            smoke_spec(radius=-1.0)

    @pytest.mark.parametrize("knob, match", [({"quad_tol": 0.0}, "quad_tol"),
                                             ({"grid_size": 2}, "grid_size"),
                                             ({"quad_tol": np.nan}, "quad_tol"),
                                             ({"radius": np.nan}, "radius"),
                                             ({"grid_size": np.nan}, "grid_size"),
                                             ({"grid_size": 65.5}, "grid_size"),
                                             ({"grid_size": True}, "grid_size")])
    def test_bad_numerics_rejected(self, knob, match):
        # at build time, not in np.linspace at the first use of spec.nodes
        with pytest.raises(ValueError, match=match):
            smoke_spec(**knob)

    def test_numpy_integer_grid_size_accepted(self):
        assert smoke_spec(grid_size=np.int64(129)).nodes.size == 129

    def test_half_is_a_node(self):
        spec = smoke_spec(grid_size=129)
        assert 0.5 in spec.nodes

    def test_nodes_built_once_and_read_only(self):
        spec = smoke_spec()
        assert spec.nodes is spec.nodes
        with pytest.raises(ValueError):
            spec.nodes[1] = 0.5


class TestDiscontinuityCurve:
    @pytest.mark.parametrize("a, b, epsilon, match", [(0.5, 0.5, 0.05, "domain"),
                                                      (0.6, 0.4, 0.05, "domain"),
                                                      (0.0, 1.0, 0.0, "epsilon"),
                                                      (0.0, 1.0, np.nan, "epsilon")])
    def test_rejected(self, a, b, epsilon, match):
        with pytest.raises(ValueError, match=match):
            DiscontinuityCurve(a=a, b=b, value=np.zeros_like,
                               second_derivative=np.zeros_like, epsilon=epsilon)

    @pytest.mark.parametrize("poly", [(1.0, 2.0, 3.0, 4.0, 5.0), (), (np.nan,), (0.0, np.inf),
                                      (0.1, -np.inf, 0.0), (0.0, 0.0, 0.0, np.nan)],
                             ids=["degree-4", "empty", "nan", "inf", "minus-inf", "nan-cubic"])
    def test_poly_rejected(self, poly):
        with pytest.raises(ValueError, match="poly"):
            DiscontinuityCurve(a=0.0, b=1.0, value=np.zeros_like,
                               second_derivative=np.zeros_like, poly=poly)

    @pytest.mark.parametrize("poly, poly_in, match", [
        ((0.0, 1.0), "x", "poly_in"), ((0.0, 1.0), None, "poly_in"), ((0.0,), ["t"], "poly_in"),
        ((1.0,) * 8, "sqrt(t)", "sqrt"), ((0.0, np.nan), "sqrt(t)", "sqrt")])
    def test_poly_in_rejected(self, poly, poly_in, match):
        with pytest.raises(ValueError, match=match):
            DiscontinuityCurve(a=0.0, b=1.0, value=np.zeros_like,
                               second_derivative=np.zeros_like, poly=poly, poly_in=poly_in)

    def test_degree_six_in_sqrt_t_accepted(self):
        curve = DiscontinuityCurve(a=0.0, b=1.0, value=np.zeros_like,
                                   second_derivative=np.zeros_like, poly=range(7),
                                   poly_in="sqrt(t)")
        assert curve.poly == tuple(map(float, range(7))) and curve.poly_in == "sqrt(t)"

    def test_poly_kept_as_float_coefficients(self):
        curve = DiscontinuityCurve(a=0.0, b=1.0, value=np.zeros_like,
                                   second_derivative=np.zeros_like, poly=[1, 0, -2, 0.5])
        assert curve.poly == (1.0, 0.0, -2.0, 0.5)
        assert all(type(c) is float for c in curve.poly)
        assert replace(curve, poly=None).poly is None


class TestNonlinearity:
    @pytest.mark.parametrize("degree", [True, 1.5, float("nan"), -1])
    def test_degree_rejected(self, degree):
        # at build time, not in the Gauss rule of the first apply_T
        with pytest.raises(ValueError, match="degree"):
            Nonlinearity(eval=lambda t, u: u, degree=degree)


class TestCurveCrossings:
    def line_curve(self, c):
        return DiscontinuityCurve(a=0.0, b=1.0,
                                  value=lambda t, _c=c: np.full_like(np.asarray(t, float), _c),
                                  second_derivative=lambda t: np.zeros_like(np.asarray(t, float)),
                                  epsilon=0.1, label="line")

    def test_single_crossing_located(self):
        u = sampled(lambda t: t - 0.3123, lambda t: 1 + 0 * t, n=17)
        xs = find_curve_crossings(u, self.line_curve(0.0))
        assert len(xs) == 1
        assert xs[0] == pytest.approx(0.3123, abs=1e-9)

    def test_no_crossing(self):
        u = sampled(lambda t: t + 2.0, lambda t: 1 + 0 * t, n=17)
        assert find_curve_crossings(u, self.line_curve(0.0)) == []

    def test_two_crossings(self):
        u = sampled(lambda t: (t - 0.25) * (t - 0.75), lambda t: 2 * t - 1, n=33)
        xs = find_curve_crossings(u, self.line_curve(0.0))
        assert len(xs) == 2
        assert xs[0] == pytest.approx(0.25, abs=1e-9)
        assert xs[1] == pytest.approx(0.75, abs=1e-9)

    def test_restricted_domain(self):
        u = sampled(lambda t: t - 0.5, lambda t: 1 + 0 * t, n=17)
        curve = DiscontinuityCurve(a=0.6, b=1.0,
                                   value=lambda t: np.zeros_like(np.asarray(t, float)),
                                   second_derivative=lambda t: np.zeros_like(np.asarray(t, float)),
                                   epsilon=0.1)
        assert find_curve_crossings(u, curve) == []


def crossings_per_cell(u, curve, tol=1e-12):
    """find_curve_crossings as a loop over scan cells, each refined alone by
    scalar ITP steps (Oliveira & Takahashi, ACM TOMS 47(1), 2020) with
    kappa1 = 0.2 / w0, kappa2 = 2 and n0 = 1, kept as the reference for the
    lockstep version."""
    lo, hi = max(curve.a, 0.0), min(curve.b, 1.0)
    if hi - lo <= tol:
        return []
    n_scan = max(2, SCAN_PER_PANEL * (u.nodes.size - 1))
    ts = np.linspace(lo, hi, n_scan + 1)
    vals, _ = grid_eval(u, ts)
    gap = vals - curve.value(ts)

    def d(s):
        v, _ = grid_eval(u, s)
        return v - float(curve.value(s))

    crossings = []
    for i in range(n_scan):
        g0, g1 = gap[i], gap[i + 1]
        if g0 == 0.0:
            if i:  # a zero at either end of the domain is none (ts[-1] is never g0)
                crossings.append(ts[i])
            continue
        if g0 * g1 < 0.0:
            a, b = float(ts[i]), float(ts[i + 1])
            fa, fb = float(g0), float(g1)
            n_max = math.ceil(math.log2((b - a) / tol)) + 1
            kappa1 = 0.2 / (b - a)
            j = 0
            while b - a > tol:
                half, w = 0.5 * (a + b), b - a
                falsi = (fb * a - fa * b) / (fb - fa)
                sigma = np.sign(half - falsi)
                delta = kappa1 * w * w
                # truncate toward the midpoint, then project into the bisection radius
                x = falsi + sigma * delta if delta <= abs(half - falsi) else half
                radius = tol / 2 * 2.0 ** (n_max - j) - w / 2
                if abs(x - half) > radius:
                    x = half - sigma * radius
                if not a < x < b:  # a point on an end or past it bisects
                    x = half
                fx = d(x)
                j += 1
                if fx == 0.0:
                    a = b = x
                    break
                if fa * fx < 0.0:
                    b, fb = x, fx
                else:
                    a, fa = x, fx
            crossings.append(0.5 * (a + b))

    out = []
    for c in crossings:
        if not out or c - out[-1] > 10 * tol:
            out.append(float(c))
    return out


@functools.cache
def step_solution():
    """The step example's solution (threshold 0.05, N = 129) and its declared
    threshold curve."""
    from bvpkit import DIRICHLET, ProblemSpec, solve_picard
    from bvpkit.catalog import make_nonlinearity_from_id, make_weight_from_id
    nl = make_nonlinearity_from_id("step", {"low": 1.0, "high": 2.0, "threshold": 0.05})
    spec = ProblemSpec(params=DIRICHLET, nonlinearity=nl, radius=4.0, grid_size=129,
                       weight=make_weight_from_id("constant", {"value": 1.0}))
    return solve_picard(spec, tol=1e-8).u, nl.curves[0]


class TestLockstepCrossings:
    """The lockstep ITP steps return bitwise the abscissae of the per-cell loop."""

    @staticmethod
    def check(u, curve):
        got = find_curve_crossings(u, curve)
        assert got == crossings_per_cell(u, curve)
        return got

    def test_step_crossing_solution(self):
        u, curve = step_solution()
        assert curve.poly == (0.05,)
        # the undeclared twin is scanned and refined bit for bit as the per-cell loop;
        # the declared curve's crossings from its Bernstein cells agree within 1e-12
        scanned = self.check(u, replace(curve, poly=None))
        declared = find_curve_crossings(u, curve)
        assert len(scanned) == len(declared) == 2
        assert np.max(np.abs(np.subtract(declared, scanned))) <= 1e-12

    def test_exact_zeros_at_scan_points_and_midpoints(self):
        line = TestCurveCrossings().line_curve(0.0)
        # a touch at 0.25 and a crossing at 0.75, both scan points
        assert self.check(sampled(lambda t: (t - 0.25) ** 2 * (t - 0.75),
                                  lambda t: (t - 0.25) * (3 * t - 1.75), n=17), line) \
            == [0.25, 0.75]
        # a zero at the first or the last scan point, an end of the domain, is none
        assert self.check(sampled(lambda t: t - 1.0, lambda t: 1 + 0 * t), line) == []
        assert self.check(sampled(lambda t: t, lambda t: 1 + 0 * t), line) == []
        assert self.check(sampled(lambda t: t * (t - 0.5), lambda t: 2 * t - 0.5), line) == [0.5]
        # the first ITP point of the cell [1/8, 1/4], its midpoint and its
        # regula-falsi point alike, is an exact zero
        u = sampled(lambda t: t - 0.1875, lambda t: 1 + 0 * t, n=3)
        assert self.check(u, line) == [0.1875]

    @pytest.mark.parametrize("seed", range(6))
    def test_random_hermite_against_a_sine(self, seed):
        rng = np.random.default_rng(seed)
        nodes = np.linspace(0.0, 1.0, 9)
        u = GridFunction(nodes, 0.5 * rng.standard_normal(9), 3.0 * rng.standard_normal(9))
        curve = DiscontinuityCurve(a=rng.uniform(0.0, 0.2), b=rng.uniform(0.8, 1.0),
                                   value=lambda t: 0.3 * np.sin(5.0 * t),
                                   second_derivative=lambda t: -7.5 * np.sin(5.0 * t))
        self.check(u, curve)


class TestBatchedCrossings:
    """find_crossings over many curves returns bitwise the per-curve loop's
    abscissae, with one scan of u per distinct curve domain."""

    @staticmethod
    def random_curves(rng, n):
        shared = [(0.0, 1.0), (0.1, 0.9)]
        curves = []
        for k in range(n):
            if k == 0:
                a, b = 0.5, 0.5 + 1e-13  # clipped to width <= tol: no scan
            elif k % 3:
                a, b = shared[k % 2]
            else:
                a, b = sorted(rng.uniform(0.0, 1.0, 2))
            c, w = rng.uniform(-0.4, 0.4), rng.uniform(1.0, 8.0)
            curves.append(DiscontinuityCurve(
                a=a, b=b, value=lambda t, _c=c, _w=w: _c + 0.1 * np.sin(_w * t),
                second_derivative=lambda t, _c=c, _w=w: -0.1 * _w ** 2 * np.sin(_w * t),
                label=f"curve_{k}"))
        return tuple(curves)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_curve_sets_match_the_per_curve_loop(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(9, 33))
        u = GridFunction(np.linspace(0.0, 1.0, n), 0.5 * rng.standard_normal(n),
                         3.0 * rng.standard_normal(n))
        curves = self.random_curves(rng, int(rng.integers(4, 12)))
        got = crossings_of(u, curves)
        assert got == [crossings_per_cell(u, c) for c in curves]
        assert got[0] == []
        assert sum(bool(xs) for xs in got) >= 2  # several curves have crossings

    def test_a_zero_where_every_domain_starts_is_no_crossing(self, divisor_spec):
        # u(0) = 0 meets each of the 16 divisor curves at t = 0, its domain's start
        t = divisor_spec.nodes
        u = GridFunction(t, 0.2 * np.sin(np.pi * t), 0.2 * np.pi * np.cos(np.pi * t))
        assert crossings_of(u, divisor_spec.nonlinearity.curves) == [[]] * 16

    def test_no_curves(self):
        assert crossings_of(sampled(np.sin, np.cos), ()) == []

    def test_one_scan_per_shared_domain(self, monkeypatch, divisor_spec, divisor_solution):
        import bvpkit.model
        sizes = []

        def counted(nodes, rows):
            sizes.append(np.size(rows))
            return hermite_basis(nodes, rows)

        monkeypatch.setattr(bvpkit.model, "hermite_basis", counted)
        curves = divisor_spec.nonlinearity.curves
        assert len(curves) == 16
        # every divisor curve declares its polynomial, so none is scanned
        assert crossings_of(divisor_solution.u, curves) == [[]] * 16
        assert sizes == []
        # their undeclared twins share the domain [0, 1]: one scan of u
        twins = tuple(replace(c, poly=None) for c in curves)
        assert crossings_of(divisor_solution.u, twins) == [[]] * 16
        assert sizes == [4 * 128 + 1]


def line(c0, c1=0.0):
    return DiscontinuityCurve(a=0.0, b=1.0, value=lambda t: c0 + c1 * np.asarray(t, float),
                              second_derivative=lambda t: np.zeros_like(np.asarray(t, float)),
                              label="line")


class TestCrossingsAgainstExactRoots:
    """An oracle that shares no code with find_crossings: on each node panel
    u - gamma is a cubic for a line gamma, and numpy.roots gives its roots."""

    @staticmethod
    def exact_roots(u, c0, c1):
        """(t, u'(t) - c1) at each root in [0, 1] of a panel's cubic whose
        imaginary part is at most 1e-6 (a near-double pair counts, at its
        real part), sorted, a root at a node counted once; None where u - gamma
        vanishes on a whole panel."""
        roots = []
        for i in range(u.nodes.size - 1):
            t0, h = u.nodes[i], u.nodes[i + 1] - u.nodes[i]
            u0, u1 = u.values[i], u.values[i + 1]
            m0, m1 = h * u.derivatives[i], h * u.derivatives[i + 1]
            # the Hermite cubic minus the line, in x = (t - t0) / h
            p = np.array([2 * u0 + m0 - 2 * u1 + m1, -3 * u0 - 2 * m0 + 3 * u1 - m1,
                          m0 - c1 * h, u0 - c0 - c1 * t0])
            if not p.any():
                return None
            for z in np.roots(p):
                if abs(z.imag) <= 1e-6 and -1e-9 <= z.real <= 1.0 + 1e-9:
                    x = z.real
                    roots.append((t0 + h * x, np.polyval(np.polyder(p), x) / h))
        roots.sort()
        return [r for k, r in enumerate(roots) if k == 0 or r[0] - roots[k - 1][0] > 1e-9]

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(3, 17), data=st.data(),
           c0=st.floats(-0.5, 0.5, allow_subnormal=False),
           c1=st.floats(-1.0, 1.0, allow_subnormal=False))
    def test_steep_roots_are_the_crossings(self, n, data, c0, c1):
        # node data on a grid of 1/64 (values) and 1/16 (derivatives): a
        # panel's cubic has no coefficient so small that numpy.roots loses it
        values = data.draw(st.lists(st.integers(-64, 64), min_size=n, max_size=n))
        derivs = data.draw(st.lists(st.integers(-48, 48), min_size=n, max_size=n))
        u = GridFunction(np.linspace(0.0, 1.0, n), np.array(values) / 64, np.array(derivs) / 16)
        roots = self.exact_roots(u, c0, c1)
        assume(roots is not None)
        ts = np.array([t for t, _ in roots])
        # the roots the scan can see: each steep, and no two in one scan cell
        assume(all(abs(slope) >= 1e-3 for _, slope in roots))
        assume(np.all(np.diff(ts) > 1.0 / (SCAN_PER_PANEL * (n - 1))))
        # nor a root within the oracle's 1e-9 of an end, which may lie outside
        # [0, 1], unless u - gamma is 0 at that end (a scan point sees it)
        for end, gap in ((0.0, u.values[0] - c0), (1.0, u.values[-1] - (c0 + c1))):
            assume(gap == 0.0 or np.all(np.abs(ts - end) > 1e-9))
        got = np.array(crossings_of(u, (line(c0, c1),))[0])
        assert got.size == ts.size
        assert np.all(np.abs(got - ts) <= 1e-11)

    def test_a_root_just_past_the_right_end_is_no_crossing(self):
        # u - gamma falls through 0 at t = 1 + 9.7e-263, outside the domain;
        # numpy.roots puts it at 1 - 1.1e-16
        u = GridFunction(np.linspace(0.0, 1.0, 8), np.array([1, 1, 1, 1, 1, 1, 1, 0]) / 64,
                         np.array([0, 0, 0, 0, 0, 0, 0, -1]) / 16)
        assert crossings_of(u, (line(0.0, -6.032212003637185e-264),)) == [[]]


def declared(poly, a=0.0, b=1.0, poly_in="t"):
    """A curve that declares its power-basis coefficients in poly_in, t or
    sqrt(t), with value and second derivative from them."""
    poly = tuple(poly)
    pp = np.polynomial.polynomial
    if poly_in == "t":
        return DiscontinuityCurve(a=a, b=b, value=lambda t: pp.polyval(t, poly),
                                  second_derivative=lambda t: pp.polyval(t, pp.polyder(poly, 2)),
                                  label="declared", poly=poly)

    def second_derivative(t):  # of q(x), x = sqrt(t): (q''(x) - q'(x)/x) / (4 x**2)
        x = np.sqrt(t)
        return (pp.polyval(x, pp.polyder(poly, 2)) - pp.polyval(x, pp.polyder(poly)) / x) / (4 * t)

    return DiscontinuityCurve(a=a, b=b, value=lambda t: pp.polyval(np.sqrt(t), poly),
                              second_derivative=second_derivative, label="declared",
                              poly=poly, poly_in="sqrt(t)")


class TestDeclaredCrossingsAgainstExactRoots:
    """The twin of TestCrossingsAgainstExactRoots for declared curves on random
    domains, polynomials of degree <= 3 in t or <= 6 in x = sqrt(t): numpy.roots
    of u - poly on each node panel, with no assumption on slopes or on how
    close the roots lie."""

    @staticmethod
    def exact_roots(u, poly, poly_in="t"):
        """(t, slope) at each root in [0, 1] of a panel's gap polynomial whose
        imaginary part is at most 1e-6 (a complex pair counts once, at its real
        part), sorted, roots within 1e-12 counted once; None where u - poly
        vanishes on a whole panel.  The gap is the Hermite cubic minus poly in
        the panel's local coordinate: x = (t - t0) / h, of degree 3, and the
        slope is |u' - poly'| in t; or tau = (sqrt(t) - sqrt(t0)) / w, of
        degree 6, and the slope is |d(u - poly)/d sqrt(t)|."""
        P = np.polynomial.Polynomial
        roots = []
        for i in range(u.nodes.size - 1):
            t0, h = u.nodes[i], u.nodes[i + 1] - u.nodes[i]
            u0, u1 = u.values[i], u.values[i + 1]
            m0, m1 = h * u.derivatives[i], h * u.derivatives[i + 1]
            cubic = P([u0, m0, -3 * u0 - 2 * m0 + 3 * u1 - m1, 2 * u0 + m0 - 2 * u1 + m1])
            if poly_in == "t":
                var, w = P([t0, h]), h
                gap = cubic - P(poly)(var)
            else:
                x0 = math.sqrt(t0)
                var, w = P([x0, math.sqrt(u.nodes[i + 1]) - x0]), math.sqrt(u.nodes[i + 1]) - x0
                gap = cubic((var ** 2 - t0) / h) - P(poly)(var)
            if not gap.coef.any():
                return None
            for z in np.roots(gap.coef[::-1]):
                if abs(z.imag) <= 1e-6 and -1e-9 <= z.real <= 1.0 + 1e-9:
                    x = var(z.real)
                    roots.append((x if poly_in == "t" else x * x, abs(gap.deriv()(z.real)) / w))
        roots.sort()
        return [r for k, r in enumerate(roots) if k == 0 or r[0] - roots[k - 1][0] > 1e-12]

    def check(self, u, poly, a, b, poly_in):
        roots = self.exact_roots(u, poly, poly_in)
        assume(roots is not None)
        # a root within the oracle's 1e-9 of a domain end may lie on either side
        assume(all(abs(t - end) > 1e-9 for t, _ in roots for end in (a, b)))
        roots = [(t, slope) for t, slope in roots if a < t < b]
        got = np.array(crossings_of(u, (declared(poly, a, b, poly_in),))[0])
        # clusters of roots within 1e-6: a steep lone root is found once, within
        # 1e-11; a near-double pair or a touch comes back at most once per root
        clusters = []
        for t, slope in roots:
            if clusters and t - clusters[-1][-1][0] <= 1e-6:
                clusters[-1].append((t, slope))
            else:
                clusters.append([(t, slope)])
        seen = 0
        for cl in clusters:
            near = got[(got >= cl[0][0] - 1e-6) & (got <= cl[-1][0] + 1e-6)]
            seen += near.size
            if len(cl) == 1 and cl[0][1] >= 1e-3:
                assert near.size == 1 and abs(near[0] - cl[0][0]) <= 1e-11
            else:
                assert near.size <= len(cl)
        assert seen == got.size  # no crossing away from a root
        assert np.all(np.diff(got) > 1e-11) and np.all((got > a) & (got < b))

    @staticmethod
    def node_data(n, data):
        values = data.draw(st.lists(st.integers(-64, 64), min_size=n, max_size=n))
        derivs = data.draw(st.lists(st.integers(-48, 48), min_size=n, max_size=n))
        return GridFunction(np.linspace(0.0, 1.0, n), np.array(values) / 64, np.array(derivs) / 16)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(3, 17), data=st.data(),
           poly=st.lists(st.floats(-1.0, 1.0, allow_subnormal=False), min_size=1, max_size=4),
           a=st.one_of(st.just(0.0), st.floats(0.0, 0.4)),
           b=st.one_of(st.just(1.0), st.floats(0.6, 1.0)))
    def test_roots_are_the_crossings(self, n, data, poly, a, b):
        self.check(self.node_data(n, data), poly, a, b, "t")

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(3, 17), data=st.data(),
           poly=st.lists(st.floats(-1.0, 1.0, allow_subnormal=False), min_size=1, max_size=7),
           a=st.one_of(st.just(0.0), st.floats(0.0, 0.4)),
           b=st.one_of(st.just(1.0), st.floats(0.6, 1.0)))
    def test_roots_in_sqrt_t_are_the_crossings(self, n, data, poly, a, b):
        self.check(self.node_data(n, data), poly, a, b, "sqrt(t)")


class TestDeclaredCrossings:
    """Crossings of declared curves from the Bernstein form of u - poly."""

    @staticmethod
    def planted():
        """u - 0.05 = 100 (t - 0.5043)(t - 0.50508) on 129 nodes: both roots in
        one scan cell of width 1/512, a dip of 1.5e-5 below the step curve."""
        r1, r2 = 0.5043, 0.50508
        return sampled(lambda t: 0.05 + 100 * (t - r1) * (t - r2),
                       lambda t: 100 * (2 * t - r1 - r2), n=129), (r1, r2)

    def test_double_crossing_in_one_scan_cell(self):
        from bvpkit.catalog import make_nonlinearity_from_id
        curve = make_nonlinearity_from_id("step", {"low": 1.0, "high": 2.0,
                                                   "threshold": 0.05}).curves[0]
        u, roots = self.planted()
        xs = find_curve_crossings(u, curve)
        assert len(xs) == 2 and np.max(np.abs(np.subtract(xs, roots))) <= 1e-12
        assert find_curve_crossings(u, replace(curve, poly=None)) == []  # the scan misses both

    @pytest.mark.parametrize("fn, dfn, n, expected", [
        # a touch and a crossing at interior knots
        (lambda t: (t - 0.25) ** 2 * (t - 0.75), lambda t: (t - 0.25) * (3 * t - 1.75), 17,
         [0.25, 0.75]),
        # a zero at either end of the domain is none; one at an interior knot is one
        (lambda t: t - 1.0, lambda t: 1 + 0 * t, 33, []),
        (lambda t: t, lambda t: 1 + 0 * t, 33, []),
        (lambda t: t * (t - 0.5), lambda t: 2 * t - 0.5, 33, [0.5]),
        # a simple root inside the panel [0, 1/2], refined by ITP steps
        (lambda t: t - 0.1875, lambda t: 1 + 0 * t, 3, [0.1875]),
        # a cubic with three roots in one panel
        (lambda t: 1000 * (t - 0.3) * (t - 0.31) * (t - 0.33),
         lambda t: 1000 * ((t - 0.31) * (t - 0.33) + (t - 0.3) * (t - 0.33)
                           + (t - 0.3) * (t - 0.31)), 9, [0.3, 0.31, 0.33]),
    ])
    def test_roots_at_knots_domain_ends_and_inside_panels(self, fn, dfn, n, expected):
        xs = crossings_of(sampled(fn, dfn, n), (declared((0.0,)),))[0]
        assert len(xs) == len(expected)
        assert np.all(np.abs(np.subtract(xs, expected)) <= 1e-12)

    def test_exact_zeros_at_split_points(self):
        # u = 0 on 17 nodes against q(t) = -960 (16t - 1/4)(16t - 9/16), declared in t.
        # On the first panel [0, 1/4] of x = sqrt(t) the gap is 960 (tau**2 - 1/4)
        # (tau**2 - 9/16) in tau = 4x, whose Bernstein coefficients (135, 135, 83, -21,
        # -113, -65, 315) are exact and change sign twice: de Casteljau's value at the
        # split point tau = 1/2 is an exact 0, and at 3/4, the split point of the right
        # half; t = x**2 = 1/64 and 9/256.  The twin declared in sqrt(t) finds the same.
        u = GridFunction.zero(np.linspace(0.0, 1.0, 17))
        poly = (-135.0, 12480.0, -245760.0)
        assert crossings_of(u, (declared(poly),)) == [[1 / 64, 9 / 256]]
        twin = declared((-135.0, 0.0, 12480.0, 0.0, -245760.0), poly_in="sqrt(t)")
        assert crossings_of(u, (twin,)) == [[1 / 64, 9 / 256]]

    def test_domain_ends_inside_node_panels(self):
        # u = t - 0.65 on 17 nodes against 0 on [0.6, 0.97]: both ends off the nodes
        u = sampled(lambda t: t - 0.65, lambda t: 1 + 0 * t, n=17)
        assert crossings_of(u, (declared((0.0,), 0.6, 0.97),))[0] == pytest.approx([0.65],
                                                                                 abs=1e-12)
        assert crossings_of(u, (declared((0.0,), 0.66, 0.97),)) == [[]]
        # a cubic curve crossing u = 0.2 - t once inside [0.3, 0.7], once left of it
        u = sampled(lambda t: 0.2 - t, lambda t: -1 + 0 * t, n=17)
        poly = np.polynomial.Polynomial.fromroots([0.2, 0.5, 1.5]) * 8 \
            + np.polynomial.Polynomial([0.2, -1.0])
        xs = crossings_of(u, (declared(poly.coef, 0.3, 0.7),))[0]
        assert xs == pytest.approx([0.5], abs=1e-12)

    def test_one_pass_over_many_curves_matches_one_curve_at_a_time(self):
        rng = np.random.default_rng(7)
        u = GridFunction(np.linspace(0.0, 1.0, 21), 0.5 * rng.standard_normal(21),
                         3.0 * rng.standard_normal(21))
        curves = [declared(rng.uniform(-0.5, 0.5, int(rng.integers(1, 5))),
                           *sorted(rng.uniform(0.0, 1.0, 2))) for _ in range(6)]
        curves.insert(2, TestBatchedCrossings.random_curves(rng, 2)[1])  # one scanned
        got = crossings_of(u, tuple(curves))
        assert got == [crossings_of(u, (c,))[0] for c in curves]
        assert sum(map(len, got)) >= 4

    def test_a_non_finite_gap_names_the_curve_and_the_knot(self):
        u = sampled(lambda t: t - 0.3123, lambda t: 1 + 0 * t, n=17)
        values = u.values.copy()
        values[5] = np.nan
        with pytest.raises(DomainError, match=r"'declared'.*t = 0\.3125"):
            find_crossings(u.nodes, (values, u.derivatives), (declared((0.0, 0.1)),))

    @pytest.mark.parametrize("n, a, b, expected", [
        (17, 0.0, 1.0, [0.25]),  # an exact zero at the knot 1/4, where u = 1/2 = sqrt(1/4)
        (3, 0.0, 1.0, [0.25]),  # a root inside the panel [0, 1/2], refined by ITP steps
        (17, 0.1, 0.3, [0.25]),  # domain ends inside node panels
        (17, 0.26, 0.9, []),
    ])
    def test_roots_of_a_line_against_sqrt_t(self, n, a, b, expected):
        # u = 2t meets sqrt(t), (0, 1) in sqrt(t), at t = 1/4 and at t = 0
        u = sampled(lambda t: 2 * t, lambda t: 2 + 0 * t, n)
        xs = crossings_of(u, (declared((0.0, 1.0), a, b, "sqrt(t)"),))[0]
        assert len(xs) == len(expected)
        assert np.all(np.abs(np.subtract(xs, expected)) <= 1e-12)

    def test_sqrt_t_curves_never_call_value(self):
        u = sampled(lambda t: 2 * t, lambda t: 2 + 0 * t, 9)
        value = Counted(lambda t: np.sqrt(t))
        curve = replace(declared((0.0, 1.0), poly_in="sqrt(t)"), value=value)
        assert crossings_of(u, (curve,))[0] == pytest.approx([0.25], abs=1e-12)
        assert value.calls == 0

    @pytest.mark.parametrize("spec_of", ["step", "phi-example"])
    def test_catalog_curves_equal_their_polynomials(self, spec_of):
        from bvpkit.catalog import make_nonlinearity_from_id
        rng = np.random.default_rng(13)
        if spec_of == "step":
            curves = [make_nonlinearity_from_id("step", {"threshold": thr}).curves[0]
                      for thr in (0.05, -0.4, 0.0, *rng.uniform(-5.0, 5.0, 5))]
        else:
            curves = make_nonlinearity_from_id("phi-example", {"curve_count": 12}).curves
        # the wedge lines -t/(k+1) declare (0, -1/(k+1)) in t, the fan lines
        # k*sqrt(t) declare (0, k) in sqrt(t)
        assert all(c.poly is not None for c in curves)
        for c in curves:
            t = np.concatenate(([c.a, c.b], rng.uniform(c.a, c.b, 10_000)))
            x = t if c.poly_in == "t" else np.sqrt(t)
            np.testing.assert_allclose(c.value(t), np.polynomial.polynomial.polyval(x, c.poly),
                                       rtol=4e-16, atol=0.0)


class TestOneCrossingPath:
    """Every declared curve takes one path, in x = sqrt(t): a cubic in t is the
    polynomial in x with interleaved zero coefficients."""

    @pytest.mark.parametrize("seed", range(8))
    def test_a_curve_in_t_equals_its_twin_in_sqrt_t(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 40))
        u = GridFunction(np.linspace(0.0, 1.0, n), 0.5 * rng.standard_normal(n),
                         3.0 * rng.standard_normal(n))
        found = 0
        for _ in range(6):
            poly = rng.uniform(-0.5, 0.5, int(rng.integers(1, 5)))
            ends = (0.0, 1.0) if rng.random() < 0.3 else sorted(rng.uniform(0.0, 1.0, 2))
            twin = np.zeros(2 * poly.size - 1)
            twin[::2] = poly
            t_curve, x_curve = declared(poly, *ends), declared(twin, *ends, "sqrt(t)")
            alone = [crossings_of(u, (c,))[0] for c in (t_curve, x_curve)]
            assert alone[0] == alone[1]
            assert crossings_of(u, (t_curve, x_curve)) == alone
            found += len(alone[0])
        assert found >= 2

    def test_the_divisor_curves_take_one_bernstein_pass(self, monkeypatch, divisor_spec):
        # u = 1/2 - t crosses the fan line k sqrt(t) at ((sqrt(k**2 + 2) - k)/2)**2, and
        # the wedge line -t/(k+1) at (k+1)/(2k) for k > 1 (at the domain end t = 1 for k = 1)
        import bvpkit.model
        curves = divisor_spec.nonlinearity.curves
        assert {c.poly_in for c in curves} == {"t", "sqrt(t)"}
        passes = Counted(bvpkit.model._bernstein_cells)
        monkeypatch.setattr(bvpkit.model, "_bernstein_cells", passes)
        u = sampled(lambda t: 0.5 - t, lambda t: -1 + 0 * t, 129)
        got = crossings_of(u, curves)
        assert passes.calls == 1
        expected = {**{f"gamma_{k}": [((math.sqrt(k * k + 2.0) - k) / 2.0) ** 2]
                       for k in range(1, 9)},
                    **{f"gamma_hat_{k}": [(k + 1) / (2 * k)] for k in range(2, 9)}}
        assert sum(map(len, got)) == 15
        for c, xs in zip(curves, got):
            assert xs == pytest.approx(expected.get(c.label, []), abs=1e-12)


class TestEveryCatalogCurveIsDeclared:
    """No curve the catalog builds falls back to the scan of find_crossings."""

    @pytest.mark.parametrize("nl_id, params", [("step", {}), ("step", {"threshold": -0.4}),
                                               ("phi-example", {"curve_count": 1}),
                                               ("phi-example", {"curve_count": 8})])
    def test_every_curve_declares_its_polynomial(self, nl_id, params):
        from bvpkit.catalog import make_nonlinearity_from_id
        curves = make_nonlinearity_from_id(nl_id, params).curves
        assert curves and all(c.poly is not None for c in curves)

    def test_a_divisor_solve_never_calls_curve_value(self, divisor_spec):
        from bvpkit import solve_picard
        nl = divisor_spec.nonlinearity
        values = [Counted(c.value) for c in nl.curves]
        curves = tuple(replace(c, value=v) for c, v in zip(nl.curves, values))
        spec = replace(divisor_spec, nonlinearity=replace(nl, curves=curves))
        sol = solve_picard(spec, tol=1e-8)
        assert sol.converged and [v.calls for v in values] == [0] * 16
        # the counters see a scan: the undeclared twin of a fan line calls value
        crossings_of(sol.u, (replace(curves[0], poly=None),))
        assert values[0].calls == 1


class TestCrossingSteps:
    """ITP keeps bisection's worst case and beats it on a simple root."""

    @staticmethod
    def refinement_calls(u, curve):
        value = Counted(curve.value)
        xs = crossings_of(u, (replace(curve, value=value),))[0]
        return value.calls - 1, xs  # the first call is the scan

    @pytest.mark.parametrize("seed", range(12))
    def test_no_cell_takes_more_than_one_step_beyond_bisection(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 40))
        u = GridFunction(np.linspace(0.0, 1.0, n), 0.5 * rng.standard_normal(n),
                         3.0 * rng.standard_normal(n))
        a, b = rng.uniform(0.0, 0.3), rng.uniform(0.7, 1.0)
        w = rng.uniform(2.0, 40.0)
        curve = DiscontinuityCurve(a=a, b=b, value=lambda t: 0.2 * np.sin(w * t),
                                   second_derivative=lambda t: -0.2 * w * w * np.sin(w * t))
        calls, xs = self.refinement_calls(u, curve)
        assert xs
        # one lockstep call per step, so calls is the step count of the slowest cell
        width = (b - a) / (SCAN_PER_PANEL * (n - 1))
        assert calls <= math.ceil(math.log2(width / 1e-12)) + 1

    @pytest.mark.parametrize("seed", range(12))
    def test_a_declared_cell_keeps_the_worst_case(self, seed, monkeypatch):
        # one root of a monotone gap against a declared line: one ITP cell, the
        # root's node panel in x = sqrt(t), whose polynomial is evaluated once per
        # step.  The bound is bisection's worst case on the node panel in t, down
        # to 1e-12: tighter than ITP's own worst case in x (ceil(log2(w / 5e-13))
        # + 1 for the panel's width w in x), which this simple root never needs
        import bvpkit.model
        rng = np.random.default_rng(seed)
        n, w, c1 = int(rng.integers(5, 40)), rng.uniform(1.0, 9.0), rng.uniform(-0.5, 0.5)
        r = rng.uniform(0.05, 0.95)  # the root; the gap's slope is >= 1 - 0.45 - 0.5
        c0 = r + 0.05 * np.sin(w * r) - c1 * r
        u = sampled(lambda t: t + 0.05 * np.sin(w * t), lambda t: 1 + 0.05 * w * np.cos(w * t), n)
        gap = Counted(bvpkit.model._panel_gap)
        monkeypatch.setattr(bvpkit.model, "_panel_gap", gap)
        xs = crossings_of(u, (declared((c0, c1)),))[0]
        assert len(xs) == 1
        assert abs(grid_eval(u, xs[0])[0] - (c0 + c1 * xs[0])) <= 1e-11
        assert gap.calls <= math.ceil(math.log2((1 / (n - 1)) / 1e-12)) + 1

    @pytest.mark.parametrize("seed", range(12))
    def test_a_sqrt_t_cell_keeps_the_worst_case(self, seed, monkeypatch):
        # one root of a monotone gap against c0 + c1 sqrt(t), c1 < 0: one ITP cell in
        # x = sqrt(t), at most as wide as the first panel [0, sqrt(1/(n - 1))], refined
        # to a bracket 5e-13 wide in x
        import bvpkit.model
        rng = np.random.default_rng(seed)
        n, w, c1 = int(rng.integers(5, 40)), rng.uniform(1.0, 9.0), rng.uniform(-0.5, 0.0)
        r = rng.uniform(0.05, 0.95)  # the root; the gap's slope in t is >= 1 - 0.45
        c0 = r + 0.05 * np.sin(w * r) - c1 * np.sqrt(r)
        u = sampled(lambda t: t + 0.05 * np.sin(w * t), lambda t: 1 + 0.05 * w * np.cos(w * t), n)
        gap = Counted(bvpkit.model._panel_gap)
        monkeypatch.setattr(bvpkit.model, "_panel_gap", gap)
        xs = crossings_of(u, (declared((c0, c1), poly_in="sqrt(t)"),))[0]
        assert len(xs) == 1
        assert abs(grid_eval(u, xs[0])[0] - (c0 + c1 * math.sqrt(xs[0]))) <= 1e-11
        assert gap.calls <= math.ceil(math.log2(math.sqrt(1 / (n - 1)) / 5e-13)) + 1

    def test_step_crossing_solution(self):
        u, curve = step_solution()
        calls, xs = self.refinement_calls(u, replace(curve, poly=None))  # the scanned twin
        assert len(xs) == 2
        assert calls <= 10  # bisection takes 31 from width 1/512 to 1e-12
        # the declared curve's cells step on their own cubics: no value call at all
        value = Counted(curve.value)
        assert len(crossings_of(u, (replace(curve, value=value),))[0]) == 2
        assert value.calls == 0

    @pytest.mark.parametrize("seed", range(1, 51))
    def test_the_scanned_twin_does_not_stall_on_a_perturbed_solution(self, seed):
        # regula falsi lands on an end of some bracket on several of these draws;
        # that step bisects instead of evaluating the end again
        u, curve = step_solution()
        noise = 1e-13 * np.random.default_rng(seed).standard_normal(u.values.size)
        calls, xs = self.refinement_calls(replace(u, values=u.values + noise),
                                          replace(curve, poly=None))
        assert len(xs) == 2
        assert calls <= 16

    def test_itp_points_lie_strictly_inside_the_bracket(self):
        # brackets 1e-12 to 1e-1 wide inside a cell up to 1e-1 wide, opposite gaps
        # of magnitude 1e-300 to 1, and any step j below the cell's n_max
        rng = np.random.default_rng(0)
        outside = []
        for _ in range(20000):
            w = 10.0 ** rng.uniform(-12.0, -1.0)
            a = rng.uniform(0.0, 1.0 - w)
            b = a + w
            w0 = 10.0 ** rng.uniform(math.log10(b - a), -1.0)  # the cell's first width
            n_max = math.ceil(math.log2(w0 / 1e-12)) + 1
            ga = float(rng.choice([-1.0, 1.0])) * 10.0 ** rng.uniform(-300.0, 0.0)
            gb = -math.copysign(10.0 ** rng.uniform(-300.0, 0.0), ga)
            j = int(rng.integers(0, n_max))
            x = _itp_point(j, a, b, ga, gb, n_max, 0.2 / w0)
            if not a < x < b:
                outside.append((j, a, b, ga, gb, n_max, w0))
        assert not outside, f"{len(outside)} points not inside, first {outside[0]}"


class TestNonFiniteGap:
    """A NaN of u - curve.value is an error naming the curve and t, not a
    sign test that fails and drops the crossing."""

    @staticmethod
    def curve(nan_where):
        return DiscontinuityCurve(
            a=0.0, b=1.0, value=lambda t: np.where(nan_where(t), np.nan, 0.0),
            second_derivative=lambda t: np.zeros_like(np.asarray(t, float)), label="holed")

    def test_at_a_scan_point(self):
        u = sampled(lambda t: t - 0.3123, lambda t: 1 + 0 * t, n=17)
        with pytest.raises(DomainError, match=r"holed.*t = 0\.703125"):
            crossings_of(u, (line(0.0), self.curve(lambda t: t > 0.7)))

    def test_at_a_refinement_step(self):
        # NaN strictly inside the scan cell [19/64, 20/64] that holds the
        # crossing: the scan is finite, the first step is not
        u = sampled(lambda t: t - 0.3123, lambda t: 1 + 0 * t, n=17)
        holed = self.curve(lambda t: (t > 19 / 64) & (t < 20 / 64))
        with pytest.raises(DomainError, match=r"holed.*t = 0\.3") as err:
            crossings_of(u, (holed,))
        t = float(str(err.value).rsplit("t = ", 1)[1])
        assert 19 / 64 < t < 20 / 64
