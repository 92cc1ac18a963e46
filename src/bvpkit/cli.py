"""Batch front end: load a JSON problem config, run certification and/or the
solver, and write one machine-readable report.

Exit codes: 0 when every requested task passes, 1 when a task ran and
failed, 2 on configuration errors.  A toolkit error inside a task fails
that task and lands in its report section as {"error", "type"}; a report
is written either way.  Reports are deterministic apart from the timestamp
field.
"""

import argparse
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .catalog import make_nonlinearity_from_id, make_weight_from_id
from .errors import BvpError, ConfigError, DegenerateGamma, NegativeCoefficient
from .hammerstein import bounds_report
from .hypotheses import (HypothesisReport, check_h1, check_h3, classify_curve,
                         convexification_probe, estimate_HR, minimal_R_power)
from .kernel import validate_params
from .model import GridFunction, ProblemSpec, norm_c1
from .solver import solve_picard

TASK_ORDER = ("check", "classify-curves", "solve", "probe")


@dataclass
class RunConfig:
    bc: tuple
    weight_id: str
    weight_params: dict
    nonlinearity_id: str
    nonlinearity_params: dict
    radius: object  # positive number or the string "auto-power"
    auto_power_lambda: float | None
    grid_size: int
    quad_tol: float
    solver_tol: float
    max_iter: int
    relax: float
    t_min: float
    probe_eps: float
    probe_samples: int
    tasks: tuple
    output: str | None


def _require(cond, message, fld):
    if not cond:
        raise ConfigError(message, field=fld)


def parse_config(doc: dict) -> RunConfig:
    """Validate a config document; raises ConfigError naming the bad field."""
    _require(isinstance(doc, dict), "config must be a JSON object", "")
    problem = doc.get("problem")
    _require(isinstance(problem, dict), "missing problem section", "problem")

    bc = problem.get("bc")
    _require(isinstance(bc, (list, tuple)) and len(bc) == 4,
             "bc must be [alpha, beta, gamma, delta]", "problem.bc")
    try:
        validate_params(*[float(x) for x in bc])
    except (NegativeCoefficient, DegenerateGamma, ValueError, TypeError) as exc:
        raise ConfigError(f"invalid bc coefficients: {exc}", field="problem.bc")

    weight = problem.get("weight")
    _require(isinstance(weight, dict) and "id" in weight,
             "weight must be an object with an id", "problem.weight")
    nl = problem.get("nonlinearity")
    _require(isinstance(nl, dict) and "id" in nl,
             "nonlinearity must be an object with an id", "problem.nonlinearity")

    r = problem.get("R")
    auto_lam = None
    if isinstance(r, str):
        _require(r == "auto-power", f"unknown R mode {r!r}", "problem.R")
        auto_lam = nl.get("lambda")
    elif isinstance(r, dict):
        _require(r.get("mode") == "auto-power", "R object must set mode=auto-power",
                 "problem.R")
        auto_lam = r.get("lambda", nl.get("lambda"))
        r = "auto-power"
    else:
        _require(isinstance(r, (int, float)) and r > 0,
                 "R must be a positive number or auto-power", "problem.R")
        r = float(r)
    if r == "auto-power":
        _require(auto_lam is not None and 0.0 < float(auto_lam) < 1.0,
                 "auto-power needs lambda in (0, 1)", "problem.R.lambda")
        auto_lam = float(auto_lam)

    num = doc.get("numerics", {})
    _require(isinstance(num, dict), "numerics must be an object", "numerics")

    def positive(name, default, cast=float):
        val = num.get(name, default)
        try:
            val = cast(val)
        except (TypeError, ValueError):
            raise ConfigError(f"{name} must be a number", field=f"numerics.{name}")
        _require(val > 0, f"{name} must be positive", f"numerics.{name}")
        return val

    grid_size = positive("grid_size", 129, int)
    _require(grid_size >= 3 and grid_size % 2 == 1,
             "grid_size must be odd and >= 3", "numerics.grid_size")
    relax = positive("relax", 1.0)
    _require(relax <= 1.0, "relax must lie in (0, 1]", "numerics.relax")

    tasks = doc.get("tasks")
    _require(isinstance(tasks, (list, tuple)) and tasks, "tasks must be nonempty",
             "tasks")
    for t in tasks:
        _require(t in TASK_ORDER, f"unknown task {t!r}", "tasks")
    tasks = tuple(t for t in TASK_ORDER if t in tasks)

    output = doc.get("output")
    _require(output is None or isinstance(output, str), "output must be a path",
             "output")

    return RunConfig(
        bc=tuple(float(x) for x in bc),
        weight_id=str(weight["id"]),
        weight_params={k: v for k, v in weight.items() if k != "id"},
        nonlinearity_id=str(nl["id"]),
        nonlinearity_params={k: v for k, v in nl.items() if k != "id"},
        radius=r, auto_power_lambda=auto_lam,
        grid_size=grid_size,
        quad_tol=positive("quad_tol", 1e-9),
        solver_tol=positive("solver_tol", 1e-8),
        max_iter=positive("max_iter", 50, int),
        relax=relax,
        t_min=positive("t_min", 1e-6),
        probe_eps=positive("probe_eps", 1e-3),
        probe_samples=positive("probe_samples", 5, int),
        tasks=tasks, output=output)


def config_echo(cfg: RunConfig) -> dict:
    """Normalized config block for the report; re-parses to the same RunConfig."""
    r = cfg.radius
    if r == "auto-power":
        r = {"mode": "auto-power", "lambda": cfg.auto_power_lambda}
    return {
        "problem": {
            "bc": list(cfg.bc),
            "weight": {"id": cfg.weight_id, **cfg.weight_params},
            "nonlinearity": {"id": cfg.nonlinearity_id, **cfg.nonlinearity_params},
            "R": r,
        },
        "numerics": {
            "grid_size": cfg.grid_size, "quad_tol": cfg.quad_tol,
            "solver_tol": cfg.solver_tol, "max_iter": cfg.max_iter,
            "relax": cfg.relax, "t_min": cfg.t_min,
            "probe_eps": cfg.probe_eps, "probe_samples": cfg.probe_samples,
        },
        "tasks": list(cfg.tasks),
        "output": cfg.output,
    }


def _classification_dict(c):
    return {"curve": c.curve, "verdict": c.verdict, "psi_margin": c.psi_margin,
            "epsilon": c.epsilon_used, "t_min": c.t_min_clip,
            "clipped_measure": c.clipped_measure, "n_t": c.n_t, "n_y": c.n_y}


@contextmanager
def _recording_errors(report: dict, passed: dict, section: str, *tasks):
    """A toolkit error raised in the block goes into report[section] and
    fails the given tasks instead of propagating."""
    try:
        yield
    except BvpError as exc:
        report[section] = {"error": str(exc), "type": type(exc).__name__}
        passed.update(dict.fromkeys(tasks, False))


def _finish(report: dict, passed: dict):
    report["meta"] = {
        "tool": "bvpkit",
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "tasks_passed": passed,
    }
    return (0 if all(passed.values()) else 1), report


def run(cfg: RunConfig):
    """Execute the requested tasks; returns (exit_code, report dict)."""
    weight = make_weight_from_id(cfg.weight_id, cfg.weight_params)
    nonlinearity = make_nonlinearity_from_id(cfg.nonlinearity_id,
                                             cfg.nonlinearity_params)
    params = validate_params(*cfg.bc)

    def spec_with(radius):
        return ProblemSpec(params=params, weight=weight, nonlinearity=nonlinearity,
                           radius=radius, quad_tol=cfg.quad_tol,
                           grid_size=cfg.grid_size)

    report = {"config": config_echo(cfg), "hypotheses": None, "bounds": None,
              "curves": None, "solution": None, "probe": None, "meta": None}
    passed = {}

    bounds = None
    if cfg.radius == "auto-power":
        with _recording_errors(report, passed, "bounds", *cfg.tasks):
            bounds = bounds_report(spec_with(1.0))
            radius = float(minimal_R_power(bounds.m_total, cfg.auto_power_lambda))
        if passed:  # no radius, so no task can run
            return _finish(report, passed)
    else:
        radius = float(cfg.radius)
    spec = spec_with(radius)

    hyp = None
    if "check" in cfg.tasks:
        with _recording_errors(report, passed, "hypotheses", "check"):
            if bounds is None:
                bounds = bounds_report(spec)
            nodes = spec.nodes
            t_grid = nodes[(nodes >= cfg.t_min) & (nodes > 0.0)]
            h1 = check_h1(weight, tol=min(cfg.quad_tol, 1e-9))
            h2 = estimate_HR(spec, t_grid=t_grid)
            # Under auto-power the radius was chosen so that max(2,R)**lam times
            # (M1+M2) fits inside R; the ball check is evaluated against that
            # premise, with the sampled profile reported alongside (the sampled
            # sup can exceed the power bound near jump accumulation points).
            if cfg.radius == "auto-power":
                hr_sup = max(2.0, radius) ** cfg.auto_power_lambda
                hr_source = "power-bound"
            else:
                hr_sup = h2.sup
                hr_source = h2.source
            h3 = check_h3(spec, bounds, hr_sup)
            hyp = HypothesisReport(h1=h1, h2=h2, h3=h3,
                                   h4=nonlinearity.measurability, h5=[])
            report["bounds"] = {"m1": bounds.m1, "m2": bounds.m2,
                                "m_total": bounds.m_total,
                                "argmax_t_m1": bounds.argmax_t_m1,
                                "argmax_t_m2": bounds.argmax_t_m2,
                                "quad_tol": bounds.quad_tol,
                                "resolved_radius": radius}
            report["hypotheses"] = {
                "h1": {"pass": h1.passed, "l1_norm": h1.l1_norm, "detail": h1.detail,
                       "l1_bound_hint": weight.l1_bound_hint},
                "h2": {"pass": h2.passed, "sup": h2.sup,
                       "uniformity_flag": h2.uniformity_flag, "source": h2.source},
                "h3": {"pass": h3.passed, "product": h3.product, "hr_sup": h3.hr_sup,
                       "hr_source": hr_source, "radius": radius},
                "h4": nonlinearity.measurability,
            }
            passed["check"] = h1.passed and h2.passed and h3.passed

    if "classify-curves" in cfg.tasks:
        with _recording_errors(report, passed, "curves", "classify-curves"):
            results = [classify_curve(spec, c, t_min=cfg.t_min)
                       for c in nonlinearity.curves]
            report["curves"] = [_classification_dict(c) for c in results]
            passed["classify-curves"] = all(c.verdict != "indeterminate"
                                            for c in results)
            if hyp is not None:
                report["hypotheses"]["overall"] = replace(hyp, h5=results).overall

    solution = None
    if "solve" in cfg.tasks:
        with _recording_errors(report, passed, "solution", "solve"):
            solution = solve_picard(spec, relax=cfg.relax, tol=cfg.solver_tol,
                                    max_iter=cfg.max_iter)
            report["solution"] = {
                "t": spec.nodes.tolist(),
                "u": solution.u.values.tolist(),
                "du": solution.u.derivatives.tolist(),
                "residual": solution.residual,
                "iterations": solution.iterations,
                "bc_residual_left": solution.bc_residual_left,
                "bc_residual_right": solution.bc_residual_right,
                "inside_ball": solution.inside_ball,
                "converged": solution.converged,
                "norm_c1": norm_c1(solution.u),
                "curve_crossings": [[label, count]
                                    for label, count in solution.curve_crossings],
                "relax_final": solution.relax_final,
            }
            passed["solve"] = solution.converged and solution.inside_ball

    if "probe" in cfg.tasks:
        with _recording_errors(report, passed, "probe", "probe"):
            u_probe = solution.u if solution is not None else GridFunction.zero(spec.nodes)
            probe = convexification_probe(spec, u_probe, cfg.probe_eps,
                                          cfg.probe_samples)
            report["probe"] = {
                "hull_distance": probe.hull_distance,
                "witness_coeffs": probe.witness_coeffs.tolist(),
                "history": probe.history,
                "eps": probe.eps,
                "n_samples": probe.n_samples,
                "target": "solution" if solution is not None else "zero",
            }
            passed["probe"] = True

    return _finish(report, passed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bvp",
        description="certify and solve u'' + g(t) f(t,u) = 0 with separated BCs")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute the tasks requested by a config")
    runp.add_argument("--config", required=True, help="path to a JSON run config")
    runp.add_argument("--out", help="report path (overrides the config)")
    runp.add_argument("--grid-size", type=int, help="override numerics.grid_size")
    runp.add_argument("--tol", type=float, help="override numerics.quad_tol")
    runp.add_argument("--solver-tol", type=float, help="override numerics.solver_tol")
    runp.add_argument("--task", action="append", choices=list(TASK_ORDER),
                      help="run only these tasks (repeatable)")
    args = parser.parse_args(argv)

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if not isinstance(doc, dict):
        print("config error: top level must be an object", file=sys.stderr)
        return 2
    doc = dict(doc)
    doc.setdefault("numerics", {})
    if args.grid_size is not None:
        doc["numerics"]["grid_size"] = args.grid_size
    if args.tol is not None:
        doc["numerics"]["quad_tol"] = args.tol
    if args.solver_tol is not None:
        doc["numerics"]["solver_tol"] = args.solver_tol
    if args.task:
        doc["tasks"] = args.task
    if args.out is not None:
        doc["output"] = args.out

    try:
        cfg = parse_config(doc)
        code, report = run(cfg)
    except ConfigError as exc:
        where = f" (field: {exc.field})" if exc.field else ""
        print(f"config error: {exc}{where}", file=sys.stderr)
        return 2

    out_path = cfg.output or "report.json"
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")

    for task in cfg.tasks:
        status = report["meta"]["tasks_passed"].get(task)
        print(f"{task}: {'PASS' if status else 'FAIL'}")
    print(f"report written to {out_path}")
    return code


if __name__ == "__main__":
    sys.exit(main())
