from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from bvpkit import (DIRICHLET, DegenerateGamma, DomainError, NegativeCoefficient,
                    dk_dt, dk_dt_bound, k_eval, validate_params)
from bvpkit.kernel import BoundaryParams, left_factor, right_factor


def sample_params(rng, gamma_floor=1e-3):
    """Random admissible coefficients; tiny Gamma is rejected because the
    kernel identities degrade to float noise scaled by 1/Gamma."""
    while True:
        a, b, g, d = rng.uniform(0.0, 2.0, size=4)
        if g * b + a * g + a * d > gamma_floor:
            return validate_params(a, b, g, d)


class TestValidate:
    def test_all_ones(self):
        assert validate_params(1, 1, 1, 1).gamma_const == 3.0

    def test_dirichlet(self):
        assert validate_params(1, 0, 1, 0).gamma_const == 1.0

    def test_gamma_is_derived_not_stored(self):
        assert [f.name for f in fields(BoundaryParams)] == ["alpha", "beta", "gamma",
                                                            "delta"]
        assert BoundaryParams(1.0, 1.0, 1.0, 1.0).gamma_const == 3.0

    def test_pure_neumann_rejected(self):
        with pytest.raises(DegenerateGamma):
            validate_params(0, 1, 0, 1)

    @pytest.mark.parametrize("bad", [(-1, 0, 1, 0), (1, -0.5, 1, 0),
                                     (1, 0, -2, 0), (1, 0, 1, -1e-9)])
    def test_negative_rejected(self, bad):
        with pytest.raises(NegativeCoefficient):
            validate_params(*bad)

    def test_nan_rejected(self):
        with pytest.raises(NegativeCoefficient):
            validate_params(float("nan"), 0, 1, 0)


class TestKernelValues:
    def test_dirichlet_lower_branch(self):
        assert k_eval(DIRICHLET, 0.5, 0.25) == pytest.approx(0.125, abs=1e-15)

    def test_dirichlet_upper_branch(self):
        assert k_eval(DIRICHLET, 0.25, 0.5) == pytest.approx(0.125, abs=1e-15)

    def test_all_ones_corner(self):
        p = validate_params(1, 1, 1, 1)
        assert k_eval(p, 0.0, 0.0) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_array_broadcast(self):
        s = np.linspace(0, 1, 11)
        row = k_eval(DIRICHLET, 0.5, s)
        assert row.shape == s.shape
        assert row[5] == pytest.approx(0.25)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            k_eval(DIRICHLET, 1.5, 0.5)
        with pytest.raises(DomainError):
            dk_dt(DIRICHLET, 0.5, -0.1)
        with pytest.raises(DomainError, match="t must"):
            k_eval(DIRICHLET, np.nan, 0.5)
        with pytest.raises(DomainError, match="s must"):
            dk_dt(DIRICHLET, 0.5, np.nan)


class TestKernelDerivative:
    def test_dirichlet_lower(self):
        assert dk_dt(DIRICHLET, 0.5, 0.25) == pytest.approx(-0.25, abs=1e-15)

    def test_dirichlet_upper(self):
        assert dk_dt(DIRICHLET, 0.25, 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_all_ones(self):
        p = validate_params(1, 1, 1, 1)
        assert dk_dt(p, 0.3, 0.6) == pytest.approx(1.4 / 3.0, abs=1e-15)

    def test_diagonal_uses_lower_branch(self):
        p = validate_params(1, 1, 1, 1)
        t = 0.4
        expected = -p.gamma * (p.beta + p.alpha * t) / p.gamma_const
        assert dk_dt(p, t, t) == pytest.approx(expected, abs=1e-15)


class TestKernelProperties:
    def test_nonnegative_symmetric_bounded(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            p = sample_params(rng)
            t, s = rng.uniform(0, 1, size=2)
            v = k_eval(p, t, s)
            assert v >= 0.0
            assert v == k_eval(p, s, t)  # exact: same bilinear expression
            assert abs(dk_dt(p, t, s)) <= dk_dt_bound(p) + 1e-15

    def test_diagonal_continuity(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p = sample_params(rng)
            t = rng.uniform(0.1, 0.9)
            slope = (p.gamma * (p.beta + p.alpha) + p.alpha * (p.gamma + p.delta)) \
                / p.gamma_const
            for h in (1e-3, 1e-6, 1e-9):
                jump = abs(k_eval(p, t, t - h) - k_eval(p, t, t + h))
                assert jump <= slope * h + 1e-14

    def test_boundary_conditions_of_kernel_row(self):
        # w(t) = k(t, s) satisfies both boundary conditions for fixed s in (0,1)
        rng = np.random.default_rng(11)
        for _ in range(300):
            p = sample_params(rng)
            s = rng.uniform(0.01, 0.99)
            left = p.alpha * k_eval(p, 0.0, s) - p.beta * dk_dt(p, 0.0, s)
            right = p.gamma * k_eval(p, 1.0, s) + p.delta * dk_dt(p, 1.0, s)
            assert abs(left) <= 1e-12
            assert abs(right) <= 1e-12

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(coeffs=st.lists(st.floats(0.0, 2.0), min_size=4, max_size=4),
           s=st.floats(0.0, 1.0))
    def test_factor_identity(self, coeffs, s):
        # alpha*right + gamma*left = Gamma: the identity behind (Tu)'' = -g f(., u)
        a, b, g, d = coeffs
        assume(g * b + a * g + a * d > 1e-3)
        p = validate_params(a, b, g, d)
        lhs = p.alpha * right_factor(p, s) + p.gamma * left_factor(p, s)
        assert lhs == pytest.approx(p.gamma_const, rel=1e-14, abs=1e-14)
