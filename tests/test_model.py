import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from bvpkit import DomainError, find_curve_crossings, grid_eval, norm_c1
from bvpkit.errors import MaxDepthExceeded
from bvpkit.model import (SCAN_PER_PANEL, DiscontinuityCurve, GridFunction, hermite_basis,
                          hermite_value)
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
                                             ({"grid_size": np.nan}, "grid_size")])
    def test_bad_numerics_rejected(self, knob, match):
        with pytest.raises(ValueError, match=match):
            smoke_spec(**knob)

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
                if not a <= falsi <= b:
                    falsi = half
                sigma = np.sign(half - falsi)
                delta = kappa1 * w * w
                # truncate toward the midpoint, then project into the bisection radius
                x = falsi + sigma * delta if delta <= abs(half - falsi) else half
                radius = tol / 2 * 2.0 ** (n_max - j) - w / 2
                if abs(x - half) > radius:
                    x = half - sigma * radius
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


class TestLockstepCrossings:
    """The lockstep ITP steps return bitwise the abscissae of the per-cell loop."""

    @staticmethod
    def check(u, curve):
        got = find_curve_crossings(u, curve)
        assert got == crossings_per_cell(u, curve)
        return got

    def test_step_crossing_solution(self):
        from bvpkit import DIRICHLET, ProblemSpec, solve_picard
        from bvpkit.catalog import make_nonlinearity_from_id, make_weight_from_id
        nl = make_nonlinearity_from_id("step", {"low": 1.0, "high": 2.0, "threshold": 0.05})
        spec = ProblemSpec(params=DIRICHLET, nonlinearity=nl, radius=4.0, grid_size=129,
                           weight=make_weight_from_id("constant", {"value": 1.0}))
        u = solve_picard(spec, tol=1e-8).u
        assert len(self.check(u, nl.curves[0])) == 2

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
        assert len(divisor_spec.nonlinearity.curves) == 16
        assert crossings_of(divisor_solution.u, divisor_spec.nonlinearity.curves) == [[]] * 16
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

    def test_step_crossing_solution(self):
        from bvpkit import DIRICHLET, ProblemSpec, solve_picard
        from bvpkit.catalog import make_nonlinearity_from_id, make_weight_from_id
        nl = make_nonlinearity_from_id("step", {"low": 1.0, "high": 2.0, "threshold": 0.05})
        spec = ProblemSpec(params=DIRICHLET, nonlinearity=nl, radius=4.0, grid_size=129,
                           weight=make_weight_from_id("constant", {"value": 1.0}))
        calls, xs = self.refinement_calls(solve_picard(spec, tol=1e-8).u, nl.curves[0])
        assert len(xs) == 2
        assert calls <= 10  # bisection takes 31 from width 1/512 to 1e-12


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
