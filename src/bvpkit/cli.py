"""Batch front end: load a JSON problem config, run certification and/or the
solver, and write one machine-readable report.

problem.R is a positive radius or "auto-power", which needs the phi-example
nonlinearity and takes its lambda: R is then the least integer >= 2 with
R**(1-lambda) >= M1+M2, and H3 is checked against |f| <= max(2,R)**lambda.

The tasks check and classify-curves are served by one certify_hypotheses
call.  Exit codes: 0 when every requested task passes, 1 when a task ran and
failed, 2 on configuration errors.  A toolkit, value or arithmetic error
inside a task fails that task and lands in its report section as
{"error", "type"}; a certification error fails each requested certification
task in its section.  A report is written either way: strict JSON, with a
non-finite number as null, deterministic apart from the timestamp field.
"""

import argparse
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .catalog import make_nonlinearity_from_id, make_weight_from_id, number, phi_example
from .errors import BvpError, ConfigError, DegenerateGamma, NegativeCoefficient
from .hammerstein import bounds_report
from .hypotheses import certify_hypotheses, convexification_probe, minimal_R_power
from .kernel import validate_params
from .model import GridFunction, ProblemSpec, norm_c1
from .solver import solve_picard

TASK_ORDER = ("check", "classify-curves", "solve", "probe")
# the tasks served by one certify_hypotheses call, and their report sections
CERTIFY_SECTIONS = {"check": "hypotheses", "classify-curves": "curves"}
# numerics key -> (type, default), in report order; every value must be positive
NUMERICS = {"grid_size": (int, 129), "quad_tol": (float, 1e-9),
            "solver_tol": (float, 1e-8), "max_iter": (int, 50),
            "relax": (float, 1.0), "t_min": (float, 1e-6),
            "probe_eps": (float, 1e-3), "probe_samples": (int, 5)}


@dataclass
class RunConfig:
    bc: tuple
    weight_id: str
    weight_params: dict
    nonlinearity_id: str
    nonlinearity_params: dict
    radius: object  # positive number or the string "auto-power"
    auto_power_lambda: float | None  # phi-example's lambda when radius is auto-power
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


def _known(section: dict, fld: str, keys):
    """Reject a key of section that parse_config does not read."""
    for key in section:
        _require(key in keys, f"unknown key {key!r}", f"{fld}.{key}" if fld else key)


def _accepted(fld, fn, *args, what=""):
    """fn(*args), its rejection of a config value (by catalog.number,
    validate_params or a catalog constructor) failing as a ConfigError that
    names fld, with what before the reason."""
    try:
        return fn(*args)
    except (TypeError, ValueError, NegativeCoefficient, DegenerateGamma) as exc:
        raise ConfigError(f"{what}{exc}", field=fld) from exc


def parse_config(doc: dict) -> RunConfig:
    """Validate a config document; raises ConfigError naming the bad field.
    run() rejects the unknown catalog ids and bad catalog parameters it passes."""
    _require(isinstance(doc, dict), "config must be a JSON object", "")
    _known(doc, "", ("problem", "numerics", "tasks", "output"))
    problem = doc.get("problem")
    _require(isinstance(problem, dict), "missing problem section", "problem")
    _known(problem, "problem", ("bc", "weight", "nonlinearity", "R"))

    bc = problem.get("bc")
    _require(isinstance(bc, (list, tuple)) and len(bc) == 4,
             "bc must be [alpha, beta, gamma, delta]", "problem.bc")
    bc = tuple(_accepted("problem.bc", number, x) for x in bc)
    _accepted("problem.bc", validate_params, *bc, what="invalid bc coefficients: ")

    weight = problem.get("weight")
    _require(isinstance(weight, dict) and "id" in weight,
             "weight must be an object with an id", "problem.weight")
    nl = problem.get("nonlinearity")
    _require(isinstance(nl, dict) and "id" in nl,
             "nonlinearity must be an object with an id", "problem.nonlinearity")

    nl_params = {k: v for k, v in nl.items() if k != "id"}
    r = problem.get("R")
    auto_lam = None
    if r == "auto-power":  # the premise max(2,R)**lambda takes f's own lambda
        _require(nl["id"] == "phi-example",
                 f"auto-power needs the phi-example nonlinearity, not {nl['id']!r}",
                 "problem.R")
        auto_lam = _accepted("problem.nonlinearity", phi_example, nl_params,
                             what="invalid problem.nonlinearity parameters: ").lam
    else:
        r = _accepted("problem.R", number, r, what='R is a positive number or "auto-power": ')
        _require(r > 0, "R must be positive", "problem.R")

    num = doc.get("numerics", {})
    _require(isinstance(num, dict), "numerics must be an object", "numerics")
    _known(num, "numerics", NUMERICS)

    numerics = {}
    for name, (kind, default) in NUMERICS.items():
        fld = f"numerics.{name}"
        numerics[name] = _accepted(fld, number, num.get(name, default), kind)
        _require(numerics[name] > 0, f"{name} must be positive", fld)
    _require(numerics["grid_size"] >= 3, "grid_size must be >= 3", "numerics.grid_size")
    _require(numerics["relax"] <= 1.0, "relax must lie in (0, 1]", "numerics.relax")
    _require(numerics["t_min"] < 1.0, "t_min must lie in (0, 1)", "numerics.t_min")

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
        bc=bc,
        weight_id=str(weight["id"]),
        weight_params={k: v for k, v in weight.items() if k != "id"},
        nonlinearity_id=str(nl["id"]),
        nonlinearity_params=nl_params,
        radius=r, auto_power_lambda=auto_lam, **numerics,
        tasks=tasks, output=output)


def config_echo(cfg: RunConfig) -> dict:
    """Normalized config block for the report; re-parses to the same RunConfig."""
    return {
        "problem": {
            "bc": list(cfg.bc),
            "weight": {"id": cfg.weight_id, **cfg.weight_params},
            "nonlinearity": {"id": cfg.nonlinearity_id, **cfg.nonlinearity_params},
            "R": cfg.radius,
        },
        "numerics": {name: getattr(cfg, name) for name in NUMERICS},
        "tasks": list(cfg.tasks),
        "output": cfg.output,
    }


# result-dataclass field -> report key, in every section
_RENAMES = {"passed": "pass", "epsilon_used": "epsilon", "t_min_clip": "t_min"}


def _strict(val):
    """A result value as strict JSON (RFC 8259 has no Infinity or NaN): arrays
    as lists, and a non-finite float, in a list or tuple too, as None."""
    if isinstance(val, np.ndarray):
        return val.tolist() if np.isfinite(val).all() else _strict(val.tolist())
    if isinstance(val, (list, tuple)):
        return type(val)(map(_strict, val))
    return None if isinstance(val, float) and not np.isfinite(val) else val


def _section(result, drop=(), **extra) -> dict:
    """A result dataclass as a report section: its fields in declaration
    order, renamed and without those in drop, then extra; values _strict."""
    items = [(_RENAMES.get(f.name, f.name), getattr(result, f.name))
             for f in fields(result) if f.name not in drop]
    return {key: _strict(val) for key, val in items + list(extra.items())}


@contextmanager
def _recording_errors(report: dict, passed: dict, sections: dict):
    """A toolkit, value or arithmetic error raised in the block fails every
    task of sections ({task: report section}) and goes into each task's
    section instead of propagating."""
    try:
        yield
    except (BvpError, ValueError, ArithmeticError) as exc:
        for task, section in sections.items():
            report[section] = {"error": str(exc), "type": type(exc).__name__}
            passed[task] = False


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
    weight = _accepted("problem.weight", make_weight_from_id, cfg.weight_id,
                       cfg.weight_params, what="invalid problem.weight parameters: ")
    nonlinearity = _accepted("problem.nonlinearity", make_nonlinearity_from_id,
                             cfg.nonlinearity_id, cfg.nonlinearity_params,
                             what="invalid problem.nonlinearity parameters: ")
    auto = cfg.radius == "auto-power"  # then M1 + M2 at R = 1 pick the radius
    spec = ProblemSpec(params=validate_params(*cfg.bc), weight=weight,
                       nonlinearity=nonlinearity, radius=1.0 if auto else float(cfg.radius),
                       quad_tol=cfg.quad_tol, grid_size=cfg.grid_size)

    report = {"config": config_echo(cfg), "hypotheses": None, "bounds": None,
              "curves": None, "solution": None, "probe": None, "meta": None}
    passed = {}

    bounds = hr_sup = None
    if auto:
        with _recording_errors(report, passed, dict.fromkeys(cfg.tasks, "bounds")):
            bounds = bounds_report(spec)
            radius = minimal_R_power(bounds.m_total, cfg.auto_power_lambda)
            spec = replace(spec, radius=float(radius))
        if passed:  # no radius, so no task can run
            return _finish(report, passed)
        # The radius was chosen so that max(2,R)**lam times (M1+M2) fits
        # inside R; H3 is checked against that premise, with the sampled
        # profile reported alongside (the sampled sup can exceed the power
        # bound near jump accumulation points).
        hr_sup = max(2.0, spec.radius) ** cfg.auto_power_lambda

    certify = {task: section for task, section in CERTIFY_SECTIONS.items()
               if task in cfg.tasks}
    if certify:
        with _recording_errors(report, passed, certify):
            hyp = certify_hypotheses(spec, t_min=cfg.t_min, bounds=bounds,
                                     hr_sup=hr_sup)
            if "check" in certify:
                report["bounds"] = _section(hyp.bounds, drop={"l1_norm"},
                                            m_total=hyp.bounds.m_total,
                                            resolved_radius=spec.radius)
                hr_source = "power-bound" if hr_sup is not None else hyp.h2.source
                report["hypotheses"] = {
                    "h1": _section(hyp.h1),
                    "h2": _section(hyp.h2, drop={"profile", "t_grid"}),
                    "h3": _section(hyp.h3, drop={"m1", "m2"}, hr_source=hr_source),
                    "h4": hyp.h4,
                }
                passed["check"] = hyp.checks_passed
            if "classify-curves" in certify:
                report["curves"] = [_section(c) for c in hyp.h5]
                passed["classify-curves"] = hyp.curves_passed
                if "check" in certify:
                    report["hypotheses"]["overall"] = hyp.overall

    solution = None
    if "solve" in cfg.tasks:
        with _recording_errors(report, passed, {"solve": "solution"}):
            solution = solve_picard(spec, relax=cfg.relax, tol=cfg.solver_tol,
                                    max_iter=cfg.max_iter)
            report["solution"] = _section(
                solution, drop={"u", "update_norms"}, t=spec.nodes,
                u=solution.u.values, du=solution.u.derivatives,
                norm_c1=norm_c1(solution.u))
            passed["solve"] = solution.converged and solution.inside_ball

    if "probe" in cfg.tasks:
        with _recording_errors(report, passed, {"probe": "probe"}):
            u_probe = solution.u if solution is not None else GridFunction.zero(spec.nodes)
            probe = convexification_probe(spec, u_probe, cfg.probe_eps,
                                          cfg.probe_samples)
            report["probe"] = _section(
                probe, target="solution" if solution is not None else "zero")
            passed["probe"] = True

    return _finish(report, passed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bvp",
        description="certify and solve u'' + g(t) f(t,u) = 0 with separated BCs")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute the tasks requested by a config")
    runp.add_argument("--config", required=True, help="path to a JSON run config")
    runp.add_argument("--out", help="report path (overrides the config's output)")
    args = parser.parse_args(argv)

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:  # bad JSON, not UTF-8, too many digits
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        cfg = parse_config(doc)
        if args.out is not None:
            cfg = replace(cfg, output=args.out)
        code, report = run(cfg)
        out_path = cfg.output or "report.json"
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                json.dump(report, fh, indent=2)
                fh.write("\n")
        except OSError as exc:
            raise ConfigError(str(exc), field="output") from exc
    except ConfigError as exc:
        where = f" (field: {exc.field})" if exc.field else ""
        print(f"config error: {exc}{where}", file=sys.stderr)
        return 2

    for task in cfg.tasks:
        status = report["meta"]["tasks_passed"].get(task)
        print(f"{task}: {'PASS' if status else 'FAIL'}")
    print(f"report written to {out_path}")
    return code


if __name__ == "__main__":
    sys.exit(main())
