"""Per-layer metrics of the traced run, named <bvpkit module>.<what>.

Every layer is measured from outside: by timing direct calls into public
bvpkit functions on the workload's own problem and solution, by counting
calls and sample points of the callables handed to bvpkit, and by reading
the spans that the Tracer records around public calls.
"""

import gc
import statistics
from dataclasses import replace

import numpy as np

from bvpkit import (DiscontinuityCurve, GridFunction, IntegrandSpec, apply_T,
                    bounds_report, check_h1, classify_curve, convexification_probe,
                    dk_dt, estimate_HR, find_curve_crossings, grid_eval, integrate,
                    k_eval)
from bvpkit.catalog import make_nonlinearity_from_id
from bvpkit.cli import parse_config

from spans import Count, counted_spec, duration, self_time

# One quadrature panel: the 16- and 8-point Gauss-Legendre nodes on [0.25, 0.5].
_N16, _ = np.polynomial.legendre.leggauss(16)
_N8, _ = np.polynomial.legendre.leggauss(8)
PANEL = 0.375 + 0.125 * np.concatenate((_N16, _N8))
T_ROW = 0.37
APPLY_T_GRIDS = ((129, 3), (513, 2), (2049, 1))  # (grid size, repeats)
CLASSIFY_SAMPLES = 10

UNITS = {
    "kernel.k_eval_us": "us", "kernel.dk_dt_us": "us",
    "quadrature.integrate_ms.smooth": "ms", "quadrature.integrate_ms.singular": "ms",
    "quadrature.panels.smooth": "count", "quadrature.panels.singular": "count",
    "model.grid_eval_us": "us", "model.find_curve_crossings_ms": "ms",
    "model.crossings": "count",
    "hammerstein.apply_T_s.N129": "s", "hammerstein.apply_T_s.N513": "s",
    "hammerstein.apply_T_s.N2049": "s", "hammerstein.bounds_report_s": "s",
    "hammerstein.g_points_per_apply_T": "count",
    "hammerstein.f_calls_per_apply_T": "count",
    "hammerstein.f_points_per_apply_T": "count",
    "hypotheses.classify_curve_ms": "ms", "hypotheses.classify_f_calls": "count",
    "hypotheses.estimate_HR_ms": "ms", "hypotheses.check_h1_ms": "ms",
    "hypotheses.probe_s": "s", "hypotheses.simplex_least_squares_ms": "ms",
    "solver.iterations": "count", "solver.apply_T_calls": "count",
    "solver.relax_final": "ratio", "solver.self_s": "s",
    "example_phi.f_eval_us": "us",
    "cli.parse_config_us": "us", "cli.overhead_s": "s",
    "trace.overhead_s": "s",
}


def per_call(clock, fn, reps, inner=1):
    """Median host-corrected seconds per call over reps samples of inner
    back-to-back calls."""
    def batch():
        for _ in range(inner):
            fn()

    gc.collect()
    samples = []
    for _ in range(reps):
        wall, scale, _ = clock.measure(batch)
        samples.append(wall * scale / inner)
    return statistics.median(samples)


def quadrature_integrands(params):
    """A smooth kernel-row integrand and one with the inv-sqrt singularity at 0."""
    return {"smooth": (lambda s: k_eval(params, 0.5, s) * np.exp(-s), False),
            "singular": (lambda s: k_eval(params, 0.5, s) / np.sqrt(s), True)}


def layer_curves(spec, u):
    """The workload's discontinuity curves; a workload without any gets the
    level curve through the middle of its solution's range instead."""
    if spec.nonlinearity.curves:
        return spec.nonlinearity.curves
    level = 0.5 * float(np.max(u.values) + np.min(u.values))
    return (DiscontinuityCurve(
        a=0.0, b=1.0, value=lambda t: np.full_like(np.asarray(t, dtype=float), level),
        second_derivative=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        label="level"),)


def resample(u, n):
    """u's cubic Hermite interpolant sampled on the uniform n-node grid."""
    nodes = np.linspace(0.0, 1.0, n)
    vals, ders = grid_eval(u, nodes)
    return GridFunction(nodes, vals, ders)


def count_layers(wl, tracer):
    """Exact work counts; they repeat exactly for one seed.

    Needs the tracer installed: apply_T calls are counted from its spans.
    Returns (counts, problems, solution).
    """
    cfg = wl.cfg
    spec = wl.spec()
    cspec, _, _ = counted_spec(spec)
    with tracer.span("layer.solve") as rec:
        sol = wl.solve(cspec)
    problems = wl.check_solution(sol)

    cspec, g, f = counted_spec(spec)
    with tracer.span("layer.apply_T_counts"):
        apply_T(cspec, sol.u)
    counts = {
        "solver.iterations": sol.iterations,
        "solver.apply_T_calls": len(tracer.descendants(rec, "hammerstein.apply_T")),
        "solver.relax_final": sol.relax_final,
        "hammerstein.g_points_per_apply_T": g.points,
        "hammerstein.f_calls_per_apply_T": f.calls,
        "hammerstein.f_points_per_apply_T": f.points,
    }

    for kind, (fn, singular) in quadrature_integrands(spec.params).items():
        c = Count()
        integrate(IntegrandSpec(c.wrap(fn), (0.5,), singular, spec.quad_tol), 0.0, 1.0)
        counts[f"quadrature.panels.{kind}"] = c.calls

    curves = layer_curves(spec, sol.u)
    cspec, _, f = counted_spec(spec)
    for curve in curves:
        classify_curve(cspec, curve, t_min=cfg.t_min)
    counts["hypotheses.classify_f_calls"] = f.calls
    counts["model.crossings"] = sum(len(find_curve_crossings(sol.u, c)) for c in curves)
    return counts, problems, sol


def time_layers(wl, tracer, clock, sol):
    """Median host-corrected time of one call into each layer, on the
    workload's problem, in the unit of its metric."""
    cfg = wl.cfg
    spec = wl.spec()
    p = spec.params
    out = {}

    def timed(name, unit, fn, reps, inner=1):
        with tracer.span(f"layer.{name}"):
            out[name] = unit * per_call(clock, fn, reps, inner)

    timed("kernel.k_eval_us", 1e6, lambda: k_eval(p, T_ROW, PANEL), 9, 300)
    timed("kernel.dk_dt_us", 1e6, lambda: dk_dt(p, T_ROW, PANEL), 9, 300)
    timed("model.grid_eval_us", 1e6, lambda: grid_eval(sol.u, PANEL), 9, 300)
    phi_f = (spec.nonlinearity.eval if cfg.nonlinearity_id == "phi-example"
             else make_nonlinearity_from_id("phi-example", {}).eval)
    u_panel, _ = grid_eval(sol.u, PANEL)
    timed("example_phi.f_eval_us", 1e6, lambda: phi_f(PANEL, u_panel), 9, 100)
    timed("cli.parse_config_us", 1e6, lambda: parse_config(wl.doc), 9, 100)

    for kind, (fn, singular) in quadrature_integrands(p).items():
        ispec = IntegrandSpec(fn, (0.5,), singular, spec.quad_tol)
        timed(f"quadrature.integrate_ms.{kind}", 1e3,
              lambda: integrate(ispec, 0.0, 1.0), 9)

    curves = layer_curves(spec, sol.u)
    timed("model.find_curve_crossings_ms", 1e3,
          lambda: [find_curve_crossings(sol.u, c) for c in curves], 5)

    for n, reps in APPLY_T_GRIDS:
        spec_n, u_n = replace(spec, grid_size=n), resample(sol.u, n)
        timed(f"hammerstein.apply_T_s.N{n}", 1.0, lambda: apply_T(spec_n, u_n), reps)
    timed("hammerstein.bounds_report_s", 1.0, lambda: bounds_report(spec), 3)
    timed("hypotheses.estimate_HR_ms", 1e3, lambda: estimate_HR(spec), 5)
    timed("hypotheses.check_h1_ms", 1e3,
          lambda: check_h1(spec.weight, tol=min(spec.quad_tol, 1e-9)), 5)

    samples = []
    with tracer.span("layer.hypotheses.classify_curve_ms"):
        gc.collect()
        while len(samples) < CLASSIFY_SAMPLES:
            for curve in curves:
                wall, scale, _ = clock.measure(
                    lambda: classify_curve(spec, curve, t_min=cfg.t_min))
                samples.append(wall * scale)
    out["hypotheses.classify_curve_ms"] = 1e3 * statistics.median(samples)

    gc.collect()
    with tracer.span("layer.hypotheses.probe_s") as rec:
        wall, scale, _ = clock.measure(
            lambda: convexification_probe(spec, sol.u, cfg.probe_eps, cfg.probe_samples))
    out["hypotheses.probe_s"] = wall * scale
    out["hypotheses.simplex_least_squares_ms"] = 1e3 * scale * statistics.median(
        duration(s) for s in tracer.descendants(rec, "hypotheses.simplex_least_squares"))
    return out


def pipeline_layers(tracer, untraced, traced, traced_s):
    """Metrics read from whole-pipeline runs: tracing overhead, the CLI's own
    time, and the solver's time outside apply_T.

    untraced, traced_s: host-corrected seconds of pipelines without and with
    tracing; traced: (the "pipeline" span, host scale) of the traced ones.
    Span durations include the clock's sampling, about 2 % of a call.
    """
    def solver_self(s):
        return duration(s) - sum(duration(a) for a in
                                 tracer.descendants(s, "hammerstein.apply_T"))

    return {
        "trace.overhead_s": statistics.median(traced_s) - statistics.median(untraced),
        "cli.overhead_s": statistics.median(
            scale * self_time(tracer, s) for rec, scale in traced
            for s in tracer.children(rec) if s["name"] == "cli.run"),
        "solver.self_s": statistics.median(
            scale * solver_self(s) for rec, scale in traced
            for s in tracer.descendants(rec, "solver.solve_picard")),
    }
