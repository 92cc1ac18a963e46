import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bvpkit

from bvpkit import (DomainError, PhiExample, build_problem, classify_curve,
                    phi, region_index, validate_params)
from bvpkit.example_phi import (_MAX_REGION, _PHI_TABLE_MAX, _phi_table, _region_array,
                                make_curves, make_nonlinearity, make_weight)

LAM = 1.0 / 3.0


class TestPhi:
    def test_one_is_two(self):
        assert phi(1) == 2

    def test_twelve(self):
        assert phi(12) == 6

    def test_prime(self):
        assert phi(7) == 2

    def test_against_sympy(self):
        from sympy import divisor_count
        for n in range(2, 500):
            assert phi(n) == divisor_count(n)

    def test_always_at_least_two(self):
        assert min(phi(n) for n in range(1, 2000)) == 2

    def test_domain(self):
        with pytest.raises(DomainError):
            phi(0)


# region indices past the table whose divisor counts (320 to 6720) pass 120
_LARGE_PHI = [2162160, 3603600, 735134400, 963761198400]


def _phi_pow_reference(n, lam):
    """phi(n)**lam by trial division of each entry."""
    n = np.asarray(n)
    return np.array([phi(int(m)) for m in n.ravel()], float).reshape(n.shape) ** lam


class TestPhiTable:
    def test_table_is_phi(self):
        tab = _phi_table()
        # the uncached trial division, so the check leaves phi's cache alone
        ref = [phi.__wrapped__(n) for n in range(1, tab.size)]
        assert tab.size == 2 ** 16
        assert np.array_equal(tab[1:], ref)

    def test_table_is_read_only(self):
        with pytest.raises(ValueError):
            _phi_table()[2] = 0

    def test_table_max(self):
        # f's power list -arange(_PHI_TABLE_MAX + 1)**lam covers the table
        assert _phi_table().max() == _PHI_TABLE_MAX == 120

    @pytest.mark.parametrize("lam", [1.0 / 3.0, 0.31, 0.77, *np.random.default_rng(
        67).uniform(0.01, 0.99, 20)])
    def test_f_over_the_whole_table_is_bitwise_the_negated_power(self, lam):
        # one wedge point in each region n < 2**16, t/-u = n + 1/2
        n = np.arange(1, 2 ** 16)
        t = np.random.default_rng(68).uniform(1e-3, 1.0, n.size)
        u = -t / (n + 0.5)
        assert np.array_equal(_region_array(t, u), n)
        got = make_nonlinearity(PhiExample(lam=lam)).eval(t, u)
        # the pointwise power of the table's phi, which test_table_is_phi checks
        assert got.tobytes() == (-(_phi_table()[n].astype(float) ** lam)).tobytes()

    def test_import_does_not_build_the_table(self):
        # neither importing bvpkit nor building the phi-example nonlinearity
        # (from the catalog or through build_problem) builds the table
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(bvpkit.__file__).resolve().parent.parent)
        code = ("import bvpkit, bvpkit.cli, bvpkit.catalog\n"
                "from bvpkit.example_phi import _phi_table\n"
                "bvpkit.catalog.make_nonlinearity_from_id('phi-example', {})\n"
                "bvpkit.build_problem(bvpkit.PhiExample(), "
                "bvpkit.validate_params(1, 1, 1, 1), radius=4.0)\n"
                "print(_phi_table.cache_info().currsize)")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0"


def _f_grids(rng):
    """Seeded (t, u) grids whose region indices stay in the table, pass it
    (up to 2**20) or reach _MAX_REGION - 1000, the wedge points of regions
    2**16 - 1 and 2**16, and the fan points of regions _LARGE_PHI."""
    t = rng.uniform(1e-4, 1.0, (30, 200))
    inside = rng.uniform(-4.0, 4.0, t.shape)
    past = inside.copy()
    wedge = rng.random(t.shape) < 0.05
    past[wedge] = -t[wedge] / rng.integers(2 ** 16, 2 ** 20, wedge.sum())
    near = inside[:2, :3].copy()
    near[0, :2] = -t[0, :2] / (_MAX_REGION - rng.integers(1000, 2000, 2))
    near[1, 2] = 2.0 ** 16 * np.sqrt(t[1, 2])  # the fan's region 2**16 + 1
    return [(t, inside), (t, past), (t[:2, :3], near), (t[0], inside[0]),
            (0.25, 0.6), (np.array(0.36), np.array(-0.36 / (2 ** 16 + 3))),
            (t[0, :0], inside[0, :0]), (t[0, 0], inside[:, 0]),
            (np.full(2, 0.5), -0.5 / np.array([2 ** 16 - 0.5, 2 ** 16 + 0.5])),
            (np.ones(4), np.array(_LARGE_PHI) - 1.0)]  # regions _LARGE_PHI


class TestNonlinearityLookup:
    @pytest.mark.parametrize("lam", [1.0 / 3.0, 0.31, 0.77])
    @pytest.mark.parametrize("seed", [71, 72])
    def test_f_is_bitwise_the_pointwise_power(self, lam, seed):
        f = make_nonlinearity(PhiExample(lam=lam)).eval
        paths = set()
        for t, u in _f_grids(np.random.default_rng(seed)):
            n = _region_array(t, u)
            paths.add(bool(n.max(initial=0) < 2 ** 16))
            got, ref = f(t, u), -_phi_pow_reference(n, lam)
            assert np.shape(got) == ref.shape and got.dtype == ref.dtype
            assert got.tobytes() == ref.tobytes()
        assert paths == {True, False}  # calls with and without indices past the table

    @pytest.mark.parametrize("t, u, match", [
        (0.0, 0.5, "t > 0"), (-0.25, 0.5, "t > 0"), (np.nan, 0.5, "t > 0"),
        (np.array([0.5, np.nan]), 0.5, "t > 0"), (0.5, np.nan, "overflow"),
        (np.array([0.5, 0.5]), np.array([0.3, -1e-14]), "overflow"),
        (0.5, -0.5 / (_MAX_REGION + 2000), "overflow")])
    def test_f_domain_errors(self, t, u, match):
        f = make_nonlinearity(PhiExample(lam=LAM)).eval
        with pytest.raises(DomainError, match=match):
            f(t, u)


class TestRegionIndex:
    def test_positive_branch(self):
        assert region_index(0.25, 0.6) == 2

    def test_below_wedge(self):
        assert region_index(0.25, -0.3) == 1

    def test_wedge(self):
        assert region_index(0.25, -0.2) == 1

    def test_positive_boundaries(self):
        # u = k sqrt(t) belongs to region k+1
        t = 0.25
        for k in range(1, 6):
            assert region_index(t, k * np.sqrt(t)) == k + 1
            assert region_index(t, k * np.sqrt(t) - 1e-12) == k

    def test_wedge_boundaries(self):
        t = 0.36
        for n in range(1, 8):
            assert region_index(t, -t / n) == n
            assert region_index(t, -t / (n + 1) - 1e-13) == n

    def test_a_wedge_line_can_floor_to_the_region_below(self):
        # the float quotient 1 / (1/93) falls an ulp short of 93
        assert 1.0 / (1.0 / 93) < 93.0
        assert region_index(1.0, -1.0 / 93) == 92

    def test_zero_u(self):
        assert region_index(0.5, 0.0) == 1

    def test_domain(self):
        with pytest.raises(DomainError):
            region_index(0.0, 0.5)

    @pytest.mark.parametrize("t, u", [(np.nan, 0.3), (np.nan, -0.3)])
    def test_nan_time_rejected(self, t, u):
        with pytest.raises(DomainError, match="region index needs t > 0"):
            region_index(t, u)

    @pytest.mark.parametrize("t, u", [(0.5, -1e-14), (0.5, np.nan), (0.5, np.inf),
                                      (np.inf, -0.3)])
    def test_overflowing_or_non_finite_index_rejected(self, t, u):
        with pytest.raises(DomainError, match="region index overflow near u = 0-"):
            region_index(t, u)
        assert region_index(0.5, -np.inf) == 1  # below the wedge

    def test_jump_set(self):
        # jumps exactly on the sqrt fan and the wedge lines; none at u = -t,
        # where both sides sit in region 1
        t = 0.49
        delta = 1e-10
        for k in range(1, 5):
            y = k * np.sqrt(t)
            assert region_index(t, y - delta) != region_index(t, y + delta)
            y = -t / (k + 1)
            assert region_index(t, y - delta) != region_index(t, y + delta)
        assert region_index(t, -t - delta) == region_index(t, -t + delta) == 1

    def test_piecewise_constant_between_jumps(self):
        # between consecutive jump lines the index is constant; the wedge
        # lines accumulate at 0-, so only check where the list is complete
        t = 0.64
        neg_edges = [-2.0, -t] + [-t / (k + 1) for k in range(1, 7)]
        pos_edges = [0.0] + [k * np.sqrt(t) for k in range(1, 6)]
        for edges in (neg_edges, pos_edges):
            for lo, hi in zip(edges[:-1], edges[1:]):
                mid_points = np.linspace(lo + 1e-9, hi - 1e-9, 7)
                vals = {region_index(t, float(u)) for u in mid_points}
                assert len(vals) == 1


class TestNonlinearity:
    def test_value_composition(self):
        ex = PhiExample(lam=LAM)
        f = make_nonlinearity(ex).eval
        assert f(0.25, 0.6) == pytest.approx(-(2 ** LAM))

    def test_uniform_negative_bound(self):
        ex = PhiExample(lam=LAM)
        f = make_nonlinearity(ex).eval
        rng = np.random.default_rng(31)
        t = rng.uniform(1e-4, 1.0, size=2000)
        u = rng.uniform(-4.0, 4.0, size=2000)
        vals = f(t, u)
        assert np.all(vals <= -(2 ** LAM) + 1e-12)

    def test_weighted_bound(self):
        # g(t) f(t, u) <= -2**lam / sqrt(t)
        ex = PhiExample(lam=LAM)
        f = make_nonlinearity(ex).eval
        g = make_weight().eval
        rng = np.random.default_rng(37)
        t = rng.uniform(1e-4, 1.0, size=500)
        u = rng.uniform(-4.0, 4.0, size=500)
        assert np.all(g(t) * f(t, u) <= -(2 ** LAM) / np.sqrt(t) + 1e-12)

    def test_scalar_and_array_paths_agree(self):
        # the array f against the pointwise definition -phi(n(t, u))**lam
        ex = PhiExample(lam=LAM)
        f = make_nonlinearity(ex).eval
        rng = np.random.default_rng(41)
        t = rng.uniform(1e-3, 1.0, size=50)
        u = rng.uniform(-4.0, 4.0, size=50)
        ref = np.array([-float(phi(region_index(float(a), float(b)))) ** LAM
                        for a, b in zip(t, u)])
        assert np.array_equal(f(t, u), ref)


    def test_jump_lines_follow_the_pointwise_rule(self):
        # on the jump lines themselves, where floor_divide and the floor of the
        # rounded quotient can differ, region_index and the array f both
        # follow the pointwise rule: u = k sqrt(t) is in region k+1 and
        # u = -t/n in region n
        def pointwise(t, u):
            if u >= 0.0:
                return math.floor(u / math.sqrt(t)) + 1
            return 1 if u < -t else math.floor(t / -u)

        rng = np.random.default_rng(53)
        t = np.tile(rng.uniform(1e-4, 1.0, size=1400), 18)
        k = np.repeat(np.arange(1.0, 10.0), 1400)
        u = np.concatenate([k * np.sqrt(t[:12600]), -t[12600:] / k])
        ref = [pointwise(float(a), float(b)) for a, b in zip(t, u)]
        assert [region_index(float(a), float(b)) for a, b in zip(t, u)] == ref
        f = make_nonlinearity(PhiExample(lam=LAM)).eval
        assert np.array_equal(f(t, u), -np.array([phi(n) for n in ref], float) ** LAM)
        assert f(0.36, -0.36 / 7) == -phi(7) ** LAM


class TestCurves:
    def test_sqrt_curve_values(self):
        curves = {c.label: c for c in make_curves(PhiExample(curve_count=3))}
        g1 = curves["gamma_1"]
        assert g1.value(0.25) == pytest.approx(0.5)
        assert -g1.second_derivative(0.25) == pytest.approx(2.0)

    def test_line_curve_values(self):
        curves = {c.label: c for c in make_curves(PhiExample(curve_count=3))}
        h1 = curves["gamma_hat_1"]
        assert h1.value(0.5) == pytest.approx(-0.25)
        assert h1.second_derivative(0.77) == 0.0

    def test_count_and_hints(self):
        curves = make_curves(PhiExample(curve_count=5))
        assert len(curves) == 10


class TestClassificationOfExampleCurves:
    def test_first_five_of_each_family(self, divisor_spec):
        lam = 1.0 / 3.0
        by_label = {c.label: c for c in divisor_spec.nonlinearity.curves}
        for k in range(1, 6):
            r = classify_curve(divisor_spec, by_label[f"gamma_{k}"], t_min=1e-6)
            assert r.verdict == "inviable_upper"
            # margin approaches k/4 + 2**lam from the t = 1 end
            assert r.psi_margin >= k / 4.0
            rh = classify_curve(divisor_spec, by_label[f"gamma_hat_{k}"], t_min=1e-6)
            assert rh.verdict == "inviable_upper"
            assert rh.psi_margin >= (2 ** lam) * (1 - 1e-6)


class TestBuildProblem:
    def test_wiring(self):
        spec = build_problem(PhiExample(lam=LAM, curve_count=4),
                             validate_params(1, 1, 1, 1), radius=4.0)
        assert spec.weight.singular_left
        assert spec.weight.power == -0.5
        assert len(spec.nonlinearity.curves) == 8
        assert spec.nonlinearity.local_bound is None
        assert spec.nonlinearity.measurability == "checked_by_decomposition"

    def test_bad_lambda_rejected(self):
        with pytest.raises(ValueError):
            PhiExample(lam=1.0)

    def test_no_curves_rejected(self):
        with pytest.raises(ValueError, match="curve_count"):
            PhiExample(curve_count=0)
