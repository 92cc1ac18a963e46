"""Benchmark workloads: run configs drawn from a seed, and the checks that
every output of bvpkit on them must pass.

Each workload draws its inputs from a small box in which the expected
outcomes below hold for every seed:

- divisor: the shipped demo config (inv-sqrt weight, BC 1,1,1,1, phi-example
  with 8+8 curves, auto-power R, N=129), with lambda drawn near 1/3 and the
  classifier tube epsilon drawn around 0.05.
- picard: constant weight, Dirichlet BC, f = 1 + c*u with c in [-1.5, -1.25],
  R=10, N=257; the fixed point has a closed form.
- step-crossing: constant weight, Dirichlet BC, step f (1 below, 2 above a
  threshold in [0.045, 0.06]), R=4, N=129, all four tasks.

The picard and step-crossing boxes are as narrow as they are so that every
seed takes the same number of Picard sweeps (16 and 9): a box that straddles
a change in the sweep count makes the seed, not the program, the largest
source of run-to-run spread.

Run as a script, this file is the set-up probe that run.py times in a fresh
interpreter: import bvpkit, parse one config and build its ProblemSpec.
"""

import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DIVISOR_CONFIG = ROOT / "demos" / "configs" / "divisor_example.json"

if not (SRC / "bvpkit" / "__init__.py").is_file():
    raise SystemExit(f"bvpkit sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from bvpkit import (ProblemSpec, bounds_report, minimal_R_power,  # noqa: E402
                    norm_c1, solve_picard, validate_params)
from bvpkit.catalog import make_nonlinearity_from_id, make_weight_from_id  # noqa: E402
from bvpkit.cli import parse_config  # noqa: E402

BC_TOL = 1e-8


def build_spec(cfg, radius: float) -> ProblemSpec:
    """The ProblemSpec that `bvp run` builds for a parsed config."""
    return ProblemSpec(params=validate_params(*cfg.bc),
                       weight=make_weight_from_id(cfg.weight_id, cfg.weight_params),
                       nonlinearity=make_nonlinearity_from_id(cfg.nonlinearity_id,
                                                              cfg.nonlinearity_params),
                       radius=radius, quad_tol=cfg.quad_tol, grid_size=cfg.grid_size)


def resolve_radius(cfg) -> float:
    """The radius `bvp run` uses: the configured one, or the auto-power pick."""
    if cfg.radius != "auto-power":
        return float(cfg.radius)
    m_total = bounds_report(build_spec(cfg, 1.0)).m_total
    return float(minimal_R_power(m_total, cfg.auto_power_lambda))


def _near(name, value, target, tol):
    if abs(value - target) > tol:
        return [f"{name} = {value!r}, expected {target} +/- {tol}"]
    return []


def _certified(name, residual, norm, tol):
    if not residual <= tol * (1.0 + norm):
        return [f"{name}: residual {residual!r} > tol*(1+||u||) = {tol * (1.0 + norm)!r}"]
    return []


class Workload:
    """One seeded workload: its config document and its output checks.

    The check_* methods return a list of problems; an empty list passes.
    """

    name = ""
    why = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.inputs = {}
        self.doc = self.make_doc(random.Random(seed))
        self.cfg = parse_config(self.doc)
        self.radius = resolve_radius(self.cfg)

    def make_doc(self, rng) -> dict:
        raise NotImplementedError

    def spec(self) -> ProblemSpec:
        return build_spec(self.cfg, self.radius)

    def solve(self, spec):
        """solve_picard from 0 with the config's solver settings, as `bvp run` calls it."""
        cfg = self.cfg
        return solve_picard(spec, relax=cfg.relax, tol=cfg.solver_tol, max_iter=cfg.max_iter)

    def check_report(self, result) -> list:
        code, report = result
        problems = [] if code == 0 else [f"bvp run exit code {code}"]
        failed = [t for t, ok in report["meta"]["tasks_passed"].items() if not ok]
        if failed:
            problems.append(f"tasks failed: {failed}")
        return problems

    def check_certificate(self, hyp) -> list:
        problems = [] if hyp.h1.passed else [f"H1 failed: {hyp.h1.detail}"]
        return problems + _near("M1+M2", hyp.h3.m1 + hyp.h3.m2, *self.m_total)

    def check_solution(self, sol) -> list:
        problems = []
        if not (sol.converged and sol.inside_ball):
            problems.append(f"solve: converged={sol.converged} inside_ball={sol.inside_ball}")
        problems += _certified("solve", sol.residual, norm_c1(sol.u), self.cfg.solver_tol)
        for side, v in (("left", sol.bc_residual_left), ("right", sol.bc_residual_right)):
            if not v <= BC_TOL:
                problems.append(f"solve: {side} BC residual {v!r} > {BC_TOL}")
        return problems


class Divisor(Workload):
    name = "divisor"
    why = ("certification-heavy: singular-weight M1/M2 quadrature, a Python-loop "
           "classifier over 16 curves and divisor-count f; Picard converges in 2 sweeps")
    m_total = (2.336, 0.005)
    radius_expected = 4.0

    def make_doc(self, rng):
        with open(DIVISOR_CONFIG, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc.pop("output", None)
        nl = doc["problem"]["nonlinearity"]
        # lambda in this box keeps the auto-power radius at 4
        nl["lambda"] = rng.uniform(0.31, 0.36)
        nl["epsilon"] = rng.uniform(0.03, 0.07)
        self.inputs = {"lambda": nl["lambda"], "epsilon": nl["epsilon"]}
        return doc

    def _curves_ok(self, verdicts):
        expected = 2 * self.cfg.nonlinearity_params["curve_count"]
        if len(verdicts) != expected or set(verdicts) != {"inviable_upper"}:
            return [f"curve verdicts {verdicts}, expected {expected} x inviable_upper"]
        return []

    def check_report(self, result):
        problems = super().check_report(result)
        report = result[1]
        b, s = report["bounds"], report["solution"]
        problems += _near("M1+M2", b["m_total"], *self.m_total)
        if b["resolved_radius"] != self.radius_expected:
            problems.append(f"R = {b['resolved_radius']}, expected {self.radius_expected}")
        problems += self._curves_ok([c["verdict"] for c in report["curves"]])
        problems += _certified("report", s["residual"], s["norm_c1"], self.cfg.solver_tol)
        for key in ("bc_residual_left", "bc_residual_right"):
            if not s[key] <= BC_TOL:
                problems.append(f"report: {key} = {s[key]!r} > {BC_TOL}")
        return problems

    def check_certificate(self, hyp):
        return super().check_certificate(hyp) + self._curves_ok([c.verdict for c in hyp.h5])


class Picard(Workload):
    name = "picard"
    why = ("Picard really iterates (16 sweeps, one relaxation halving): all "
           "apply_T, integrate and k_eval/grid_eval, with no curves to classify")
    # Dirichlet kernel, constant weight: M1 = 1/8 at t = 1/2, M2 = 1/2 at t = 0
    m_total = (0.625, 1e-6)
    node_tol = 1e-8

    def make_doc(self, rng):
        c = rng.uniform(-1.5, -1.25)
        self.inputs = {"c": c}
        return {"problem": {"bc": [1, 0, 1, 0],
                            "weight": {"id": "constant", "value": 1.0},
                            "nonlinearity": {"id": "polynomial", "coeffs": [1.0, c]},
                            "R": 10},
                "numerics": {"grid_size": 257},
                "tasks": ["check", "solve"]}

    def exact(self, t):
        """u'' + 1 + c*u = 0, u(0) = u(1) = 0, for c = -k**2 < 0."""
        k2 = -self.inputs["c"]
        k = np.sqrt(k2)
        return (1.0 - np.cosh(k * (np.asarray(t) - 0.5)) / np.cosh(k / 2.0)) / k2

    def _nodes_ok(self, t, u):
        err = float(np.max(np.abs(np.asarray(u) - self.exact(t))))
        if not err <= self.node_tol:
            return [f"node error vs closed form {err!r} > {self.node_tol}"]
        return []

    def check_report(self, result):
        s = result[1]["solution"]
        return super().check_report(result) + self._nodes_ok(s["t"], s["u"])

    def check_solution(self, sol):
        return super().check_solution(sol) + self._nodes_ok(sol.u.nodes, sol.u.values)


class StepCrossing(Workload):
    name = "step-crossing"
    why = ("same apply_T layer, but the iterate crosses the threshold twice: crossing "
           "search, breakpoint-split panels, and a 5-sample hull probe")
    m_total = (0.625, 1e-6)
    crossings = 2

    def make_doc(self, rng):
        thr = rng.uniform(0.045, 0.06)
        self.inputs = {"threshold": thr}
        return {"problem": {"bc": [1, 0, 1, 0],
                            "weight": {"id": "constant", "value": 1.0},
                            "nonlinearity": {"id": "step", "low": 1.0, "high": 2.0,
                                             "threshold": thr},
                            "R": 4},
                "numerics": {"grid_size": 129, "probe_samples": 5},
                "tasks": ["check", "classify-curves", "solve", "probe"]}

    def _crossings_ok(self, pairs):
        counts = [n for _, n in pairs]
        if counts != [self.crossings]:
            return [f"curve crossings {pairs}, expected one curve crossed {self.crossings} times"]
        return []

    def check_report(self, result):
        report = result[1]
        s, probe = report["solution"], report["probe"]
        problems = super().check_report(result) + self._crossings_ok(s["curve_crossings"])
        if not probe["hull_distance"] <= 2.0 * s["residual"]:
            problems.append(f"hull distance {probe['hull_distance']!r} > "
                            f"2*residual = {2.0 * s['residual']!r}")
        return problems

    def check_certificate(self, hyp):
        verdicts = [c.verdict for c in hyp.h5]
        problems = [] if verdicts == ["inviable_lower"] else [
            f"curve verdicts {verdicts}, expected ['inviable_lower']"]
        return super().check_certificate(hyp) + problems

    def check_solution(self, sol):
        return super().check_solution(sol) + self._crossings_ok(sol.curve_crossings)


WORKLOADS = {w.name: w for w in (Divisor, Picard, StepCrossing)}


def set_up(doc: dict, radius: float) -> ProblemSpec:
    """What a user pays before the first task: parse the config, build the spec."""
    return build_spec(parse_config(doc), radius)


if __name__ == "__main__":
    spec = set_up(json.loads(sys.argv[1]), float(sys.argv[2]))
    print(f"ok {spec.grid_size}")
