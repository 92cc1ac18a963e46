"""Acceptance suite: every exit criterion at its stated tolerance, one
pass/fail line per criterion (visible with pytest -s or in captured output).
"""

import functools
import json
import time

import numpy as np
import pytest

from bvpkit import (DIRICHLET, PhiExample, apply_T, bounds_report, build_problem,
                    check_h1, classify_curve, convexification_probe, dk_dt,
                    dk_dt_bound, equicontinuity_check, k_eval, minimal_R_power,
                    norm_c1, simplex_least_squares, solve_picard, validate_params)
from bvpkit.cli import parse_config, run
from bvpkit.model import GridFunction, Nonlinearity, ProblemSpec

from conftest import const_weight, random_ball_function, smoke_spec
from test_cli import divisor_doc
from test_kernel import sample_params


def _report(number, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number} ({label}): FAIL")
                raise
            print(f"criterion {number} ({label}): PASS")

        return wrapper
    return deco


@pytest.fixture(scope="module")
def divisor_spec_fresh():
    return build_problem(PhiExample(lam=1 / 3, curve_count=8, epsilon=0.05),
                         validate_params(1, 1, 1, 1), radius=4.0,
                         quad_tol=1e-9, grid_size=129)


@pytest.fixture(scope="module")
def divisor_m_total(divisor_spec_fresh):
    return bounds_report(divisor_spec_fresh).m_total


@_report(1, "bounds reproduce M1+M2 = 2.336 within 1s")
def test_criterion_1_divisor_bounds(divisor_spec_fresh):
    start = time.perf_counter()
    rep = bounds_report(divisor_spec_fresh)
    elapsed = time.perf_counter() - start
    assert rep.m_total == pytest.approx(2.336, abs=0.005)
    assert elapsed <= 1.0


@_report(2, "radius selection gives R = 4")
def test_criterion_2_minimal_radius(divisor_m_total):
    assert minimal_R_power(divisor_m_total, 1 / 3) == 4
    assert 3 ** (2 / 3) < divisor_m_total <= 4 ** (2 / 3)


@_report(3, "Dirichlet closed-form oracles")
def test_criterion_3_dirichlet_oracles():
    spec = smoke_spec(quad_tol=1e-9)
    rep = bounds_report(spec)
    assert rep.m1 == pytest.approx(1 / 8, abs=1e-8)
    assert rep.m2 == pytest.approx(1 / 2, abs=1e-8)

    sol = solve_picard(spec, tol=1e-10)
    t = spec.nodes
    assert np.max(np.abs(sol.u.values - t * (1 - t) / 2)) <= 1e-8

    sin_f = Nonlinearity(eval=lambda tt, u: np.pi ** 2 * np.sin(np.pi * np.asarray(tt, float)),
                         local_bound=lambda tt, r: np.pi ** 2)
    sin_spec = ProblemSpec(params=DIRICHLET, weight=const_weight(),
                           nonlinearity=sin_f, radius=np.pi ** 2,
                           quad_tol=1e-9, grid_size=129)
    sin_sol = solve_picard(sin_spec, tol=1e-9)
    assert np.max(np.abs(sin_sol.u.values - np.sin(np.pi * t))) <= 1e-6


@_report(4, "kernel property suite, 10^4 random triples")
def test_criterion_4_kernel_properties():
    rng = np.random.default_rng(2024)
    violations = 0
    for _ in range(10_000):
        p = sample_params(rng)
        t, s = rng.uniform(0.0, 1.0, size=2)
        v = k_eval(p, t, s)
        if v < 0.0:
            violations += 1
        if v != k_eval(p, s, t):
            violations += 1
        if abs(dk_dt(p, t, s)) > dk_dt_bound(p) + 1e-14:
            violations += 1
        h = 1e-7
        tc = min(max(t, h), 1 - h)
        slope = (p.gamma * (p.beta + p.alpha)
                 + p.alpha * (p.gamma + p.delta)) / p.gamma_const
        if abs(k_eval(p, tc, tc - h) - k_eval(p, tc, tc + h)) > slope * h + 1e-13:
            violations += 1
        sc = min(max(s, 0.01), 0.99)
        if abs(p.alpha * k_eval(p, 0.0, sc) - p.beta * dk_dt(p, 0.0, sc)) > 1e-10:
            violations += 1
        if abs(p.gamma * k_eval(p, 1.0, sc) + p.delta * dk_dt(p, 1.0, sc)) > 1e-10:
            violations += 1
    assert violations == 0


@_report(5, "hypothesis pipeline on the divisor example within 10s")
def test_criterion_5_hypothesis_pipeline(divisor_spec_fresh):
    start = time.perf_counter()
    h1 = check_h1(divisor_spec_fresh.weight, tol=1e-9)
    assert h1.passed
    assert h1.l1_norm == pytest.approx(2.0, abs=1e-9)

    by_label = {c.label: c for c in divisor_spec_fresh.nonlinearity.curves}
    for k in range(1, 6):
        for label in (f"gamma_{k}", f"gamma_hat_{k}"):
            coarse = classify_curve(divisor_spec_fresh, by_label[label],
                                    t_min=1e-6, n_t=200, n_y=30)
            assert coarse.verdict == "inviable_upper"
            assert coarse.psi_margin > 0.0
            fine = classify_curve(divisor_spec_fresh, by_label[label],
                                  t_min=1e-6, n_t=400, n_y=60)
            assert fine.verdict == "inviable_upper"  # refinement never flips
    assert time.perf_counter() - start <= 10.0


@_report(6, "residual-certified solve of the divisor example")
def test_criterion_6_divisor_solve(divisor_spec_fresh):
    sol = solve_picard(divisor_spec_fresh, tol=1e-8)
    nrm = norm_c1(sol.u)
    assert sol.converged
    assert sol.residual <= 1e-4 * (1.0 + nrm)
    assert sol.inside_ball
    assert sol.bc_residual_left <= 1e-8
    assert sol.bc_residual_right <= 1e-8
    assert nrm > 0.0  # the zero function does not satisfy the equation


@_report(7, "second-derivative bound for 20 random ball functions")
def test_criterion_7_equicontinuity():
    spec = smoke_spec(quad_tol=1e-10)
    rng = np.random.default_rng(77)
    for _ in range(20):
        u = random_ball_function(spec, rng, fill=rng.uniform(0.05, 1.0))
        rep = equicontinuity_check(spec, u)
        assert rep.passed


@_report(8, "convex-hull probe properties")
def test_criterion_8_probe():
    # closed-form segment projection
    v = np.array([[1.0, 0.0], [0.0, 1.0]])
    _, dist = simplex_least_squares(v, np.zeros(2))
    assert dist == pytest.approx(np.sqrt(2) / 2, abs=1e-10)

    # continuous polynomial problem at a converged solution
    poly = Nonlinearity(eval=lambda t, u: 0.1 * np.asarray(u, float) + 1.0,
                        local_bound=lambda t, r: 0.1 * r + 1.0)
    spec = ProblemSpec(params=DIRICHLET, weight=const_weight(), nonlinearity=poly,
                       radius=1.0, quad_tol=1e-10, grid_size=129)
    sol = solve_picard(spec, tol=1e-12)
    probe = convexification_probe(spec, sol.u, eps=1e-3, n_samples=5)
    assert probe.hull_distance <= 2 * sol.residual

    # nested enrichment never increases the distance
    rng = np.random.default_rng(88)
    for _ in range(100):
        dim, m = 6, 8
        vv = rng.normal(size=(dim, m))
        y = rng.normal(size=dim)
        prev = np.inf
        lam = None
        for k in range(1, m + 1):
            warm = None
            if lam is not None:
                warm = np.zeros(k)
                warm[:k - 1] = lam
            lam, d = simplex_least_squares(vv[:, :k], y, coeffs0=warm)
            assert d <= prev + 1e-12
            prev = d


@_report(9, "deterministic reports modulo timestamp")
def test_criterion_9_determinism():
    code_a, rep_a = run(parse_config(divisor_doc()))
    code_b, rep_b = run(parse_config(divisor_doc()))
    assert code_a == code_b == 0
    rep_a["meta"].pop("timestamp")
    rep_b["meta"].pop("timestamp")
    assert json.dumps(rep_a, sort_keys=False) == json.dumps(rep_b, sort_keys=False)
