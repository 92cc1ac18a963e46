import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import bvpkit
from bvpkit import (PhiExample, ProblemSpec, bounds_report, certify_hypotheses,
                    validate_params)
from bvpkit.catalog import make_nonlinearity_from_id, make_weight_from_id
from bvpkit.cli import NUMERICS, RunConfig, config_echo, main, parse_config, run
from bvpkit.errors import ConfigError

CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"


def demo_doc(name, **numerics):
    """demos/configs/<name>.json with the given numerics entries set."""
    doc = json.loads((CONFIGS / f"{name}.json").read_text())
    doc["numerics"].update(numerics)
    return doc


def read_report(path):
    """The report at path, read by a parser that rejects Infinity and NaN."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(path.read_text(), parse_constant=reject)


def smoke_doc(**overrides):
    doc = {
        "problem": {
            "bc": [1, 0, 1, 0],
            "weight": {"id": "constant", "value": 1.0},
            "nonlinearity": {"id": "constant", "value": 1.0},
            "R": 1.0,
        },
        "numerics": {"quad_tol": 1e-10, "solver_tol": 1e-9},
        "tasks": ["check", "solve"],
    }
    doc.update(overrides)
    return doc


def divisor_doc():
    return {
        "problem": {
            "bc": [1, 1, 1, 1],
            "weight": {"id": "inv-sqrt"},
            "nonlinearity": {"id": "phi-example", "lambda": 1 / 3,
                             "curve_count": 8, "epsilon": 0.05},
            "R": "auto-power",
        },
        "numerics": {"grid_size": 129, "quad_tol": 1e-9, "solver_tol": 1e-8},
        "tasks": ["check", "classify-curves", "solve"],
    }


class TestParse:
    def test_negative_alpha_names_field(self):
        doc = smoke_doc()
        doc["problem"]["bc"] = [-1, 0, 1, 0]
        with pytest.raises(ConfigError) as exc:
            parse_config(doc)
        assert exc.value.field == "problem.bc"

    def test_neumann_rejected(self):
        doc = smoke_doc()
        doc["problem"]["bc"] = [0, 1, 0, 1]
        with pytest.raises(ConfigError):
            parse_config(doc)

    def test_unknown_task(self):
        with pytest.raises(ConfigError):
            parse_config(smoke_doc(tasks=["frobnicate"]))

    def test_empty_tasks(self):
        with pytest.raises(ConfigError):
            parse_config(smoke_doc(tasks=[]))

    def test_auto_power_needs_lambda(self):
        # the premise max(2,R)**lambda takes phi-example's lambda; a constant
        # nonlinearity has none
        doc = smoke_doc()
        doc["problem"]["R"] = "auto-power"
        with pytest.raises(ConfigError) as exc:
            parse_config(doc)
        assert exc.value.field == "problem.R"

    @pytest.mark.parametrize("params, lam", [({}, PhiExample.lam), ({"lambda": 0.3}, 0.3)])
    def test_auto_power_lambda_is_the_phi_example_lambda(self, params, lam):
        doc = divisor_doc()
        doc["problem"]["nonlinearity"] = {"id": "phi-example", **params}
        cfg = parse_config(doc)
        assert cfg.auto_power_lambda == lam
        assert config_echo(cfg)["problem"]["R"] == "auto-power"
        assert parse_config(config_echo(cfg)) == cfg

    def test_t_min_below_one(self):
        doc = smoke_doc()
        doc["numerics"]["t_min"] = 2
        with pytest.raises(ConfigError) as exc:
            parse_config(doc)
        assert exc.value.field == "numerics.t_min"

    def test_any_grid_size_from_three(self):
        doc = smoke_doc()
        doc["numerics"]["grid_size"] = 128
        assert parse_config(doc).grid_size == 128
        doc["numerics"]["grid_size"] = 2
        with pytest.raises(ConfigError) as exc:
            parse_config(doc)
        assert exc.value.field == "numerics.grid_size"

    def test_task_order_normalized(self):
        cfg = parse_config(smoke_doc(tasks=["solve", "check"]))
        assert cfg.tasks == ("check", "solve")

    def test_round_trip(self):
        cfg = parse_config(divisor_doc())
        again = parse_config(config_echo(cfg))
        assert again == cfg


def _get(doc, path):
    """The entry of doc at a dotted path (an int part indexes a list)."""
    for key in path.split("."):
        doc = doc[int(key) if key.isdigit() else key]
    return doc


def _set(doc, path, value):
    """doc with the entry at a dotted path (an int part indexes a list) set."""
    *head, last = [int(k) if k.isdigit() else k for k in path.split(".")]
    node = doc
    for key in head:
        node = node[key]
    node[last] = value
    return doc


def auto_power_problem(nl):
    """A problem section with R = "auto-power" and the nonlinearity nl."""
    return {"bc": [1, 0, 1, 0], "weight": {"id": "constant"}, "R": "auto-power",
            "nonlinearity": nl}


class TestStrictNumbers:
    """Booleans are not numbers, and integer numerics take no fraction."""

    @pytest.mark.parametrize("path, value, fld", [
        ("problem.R", True, "problem.R"),
        *[(f"problem.bc.{i}", True, "problem.bc") for i in range(4)],
        *[(f"numerics.{name}", True, f"numerics.{name}") for name in NUMERICS],
        ("numerics.grid_size", 129.9, "numerics.grid_size"),
        ("numerics.max_iter", 50.5, "numerics.max_iter"),
        ("numerics.probe_samples", 5.5, "numerics.probe_samples"),
        ("numerics.solver_tol", float("inf"), "numerics.solver_tol"),
        ("numerics.relax", float("nan"), "numerics.relax"),
        pytest.param("numerics.quad_tol", 10 ** 400, "numerics.quad_tol",
                     id="numerics.quad_tol-int-beyond-float"),
        pytest.param("problem.bc.1", 10 ** 400, "problem.bc", id="problem.bc-int-beyond-float"),
        ("problem.R", float("inf"), "problem.R"),
        # R is a number or "auto-power", never an object; under auto-power a
        # bad lambda is the phi-example nonlinearity's
        ("problem.R", {"mode": "auto-power", "lambda": 0.5}, "problem.R"),
        ("problem", auto_power_problem({"id": "phi-example", "lambda": [0.3]}),
         "problem.nonlinearity"),
        ("problem", auto_power_problem({"id": "phi-example", "lambda": "x"}),
         "problem.nonlinearity"),
        ("problem", auto_power_problem({"id": "phi-example", "lambda": "0.3"}),
         "problem.nonlinearity"),
        ("numerics.quad_tl", 1e-3, "numerics.quad_tl"),
        # f = 5 has no lambda for the premise max(2,R)**lambda
        ("problem", auto_power_problem({"id": "constant", "value": 5.0}), "problem.R"),
        ("tsks", ["check"], "tsks"),
        # the object form is rejected whole: a bad lambda in it names problem.R
        ("problem.R", {"mode": "auto-power", "lambda": "0.3"}, "problem.R"),
    ])
    def test_rejected_with_exit_two(self, tmp_path, capsys, path, value, fld):
        cfg_path = tmp_path / "cfg.json"
        out_path = tmp_path / "report.json"
        cfg_path.write_text(json.dumps(_set(smoke_doc(), path, value)))
        with pytest.raises(ConfigError) as exc:
            parse_config(_set(smoke_doc(), path, value))
        assert exc.value.field == fld
        assert main(["run", "--config", str(cfg_path), "--out", str(out_path)]) == 2
        assert f"(field: {fld})" in capsys.readouterr().err
        assert not out_path.exists()

    def test_integral_floats_are_integers(self):
        doc = smoke_doc()
        doc["numerics"].update(grid_size=65.0, max_iter=7.0, probe_samples=3.0)
        cfg = parse_config(doc)
        assert (cfg.grid_size, cfg.max_iter, cfg.probe_samples) == (65, 7, 3)
        assert all(type(getattr(cfg, name)) is kind
                   for name, (kind, _) in NUMERICS.items())

    def test_echo_keeps_the_report_key_order(self):
        cfg = parse_config(smoke_doc())
        assert list(config_echo(cfg)["numerics"].items()) == [
            ("grid_size", 129), ("quad_tol", 1e-10), ("solver_tol", 1e-9),
            ("max_iter", 50), ("relax", 1.0), ("t_min", 1e-6), ("probe_eps", 1e-3),
            ("probe_samples", 5)]


class TestRun:
    def test_smoke_report(self):
        code, report = run(parse_config(smoke_doc()))
        assert code == 0
        assert report["bounds"]["m1"] == pytest.approx(0.125, abs=1e-8)
        assert report["bounds"]["m2"] == pytest.approx(0.5, abs=1e-8)
        assert report["solution"]["converged"]
        assert report["solution"]["residual"] <= 1e-8
        assert set(report.keys()) == {"config", "hypotheses", "bounds", "curves",
                                      "solution", "probe", "meta"}

    def test_unknown_catalog_id(self, tmp_path, capsys):
        for section in ("weight", "nonlinearity"):
            doc = smoke_doc()
            doc["problem"][section] = {"id": "mystery"}
            with pytest.raises(ConfigError) as exc:
                run(parse_config(doc))
            assert exc.value.field == f"problem.{section}.id"
            cfg_path = tmp_path / "cfg.json"
            out_path = tmp_path / "report.json"
            cfg_path.write_text(json.dumps(doc))
            assert main(["run", "--config", str(cfg_path), "--out", str(out_path)]) == 2
            assert f"(field: problem.{section}.id)" in capsys.readouterr().err
            assert not out_path.exists()

    def test_failing_check_exits_one(self):
        doc = smoke_doc()
        doc["problem"]["R"] = 0.5  # H3 fails: 0.625 > 0.5
        doc["tasks"] = ["check"]
        code, report = run(parse_config(doc))
        assert code == 1
        assert not report["hypotheses"]["h3"]["pass"]

    def test_auto_power_error_fails_every_task(self):
        # the radius cannot be resolved, so no task runs
        doc = smoke_doc()
        doc["problem"]["nonlinearity"] = {"id": "phi-example", "lambda": 0.5}
        doc["problem"]["R"] = "auto-power"
        doc["numerics"]["quad_tol"] = 1e-300
        code, report = run(parse_config(doc))
        assert code == 1
        assert report["bounds"]["type"] == "MaxDepthExceeded"
        assert report["meta"]["tasks_passed"] == {"check": False, "solve": False}
        assert report["hypotheses"] is None and report["solution"] is None

    def test_auto_power_value_error_is_reported(self):
        # M1 + M2 = 0 for a zero weight, so minimal_R_power raises ValueError
        doc = smoke_doc()
        doc["problem"]["weight"] = {"id": "constant", "value": 0}
        doc["problem"]["nonlinearity"] = {"id": "phi-example", "lambda": 0.5}
        doc["problem"]["R"] = "auto-power"
        code, report = run(parse_config(doc))
        assert code == 1
        assert report["bounds"]["type"] == "ValueError"
        assert report["meta"]["tasks_passed"] == {"check": False, "solve": False}

    def test_probe_past_the_grid_is_reported(self):
        # at 17 nodes bump 16's window [0, 1/16] holds no node inside, so the
        # probe takes at most 31 samples rather than perturb by rounding error
        doc = smoke_doc(tasks=["probe"])
        doc["numerics"].update(grid_size=17, probe_samples=31)
        assert run(parse_config(doc))[0] == 0
        doc["numerics"]["probe_samples"] = 300
        code, report = run(parse_config(doc))
        assert code == 1
        assert set(report["probe"]) == {"error", "type"}
        assert report["probe"]["type"] == "ValueError"
        assert "n_samples must be <= 31" in report["probe"]["error"]
        assert report["meta"]["tasks_passed"] == {"probe": False}

    def test_probe_without_solve_uses_zero(self):
        doc = smoke_doc(tasks=["probe"])
        doc["numerics"]["probe_samples"] = 3
        code, report = run(parse_config(doc))
        assert code == 0
        assert report["probe"]["target"] == "zero"
        assert report["probe"]["hull_distance"] == pytest.approx(0.625, abs=1e-2)


def spec_of(cfg, radius):
    """The ProblemSpec that run() builds for cfg at the given radius."""
    return ProblemSpec(params=validate_params(*cfg.bc),
                       weight=make_weight_from_id(cfg.weight_id, cfg.weight_params),
                       nonlinearity=make_nonlinearity_from_id(cfg.nonlinearity_id,
                                                              cfg.nonlinearity_params),
                       radius=radius, quad_tol=cfg.quad_tol, grid_size=cfg.grid_size)


def step_doc():
    doc = smoke_doc(tasks=["check", "classify-curves"])
    doc["problem"]["nonlinearity"] = {"id": "step", "low": 1.0, "high": 2.0,
                                      "threshold": 0.05}
    doc["problem"]["R"] = 4.0
    return doc


class TestCertificationPath:
    """check and classify-curves are one certify_hypotheses call."""

    def test_auto_power_h3_is_the_library_h3(self):
        cfg = parse_config(divisor_doc())
        code, report = run(cfg)
        assert code == 0
        radius = report["bounds"]["resolved_radius"]
        lam = cfg.auto_power_lambda
        h3 = certify_hypotheses(spec_of(cfg, radius), t_min=cfg.t_min,
                                bounds=bounds_report(spec_of(cfg, 1.0)),
                                hr_sup=max(2.0, radius) ** lam).h3
        assert report["hypotheses"]["h3"] == {
            "pass": h3.passed, "product": h3.product, "hr_sup": h3.hr_sup,
            "radius": h3.radius, "hr_source": "power-bound"}

    def test_certification_error_fails_both_tasks(self):
        doc = step_doc()
        doc["numerics"]["quad_tol"] = 1e-300
        code, report = run(parse_config(doc))
        assert code == 1
        assert report["meta"]["tasks_passed"] == {"check": False,
                                                  "classify-curves": False}
        for section in ("hypotheses", "curves"):
            assert set(report[section]) == {"error", "type"}
            assert report[section]["type"] == "MaxDepthExceeded"

    def test_classify_only_writes_only_curves(self):
        code, report = run(parse_config(step_doc() | {"tasks": ["classify-curves"]}))
        assert code == 0
        assert report["hypotheses"] is None and report["bounds"] is None
        assert [c["verdict"] for c in report["curves"]] == ["inviable_lower"]
        assert report["curves"][0]["epsilon"] == 0.05
        assert report["curves"][0]["t_min"] == 1e-6

    def test_t_min_clips_hr_grid_and_hr_sup_is_the_premise(self):
        cfg = parse_config(step_doc())
        spec = spec_of(cfg, 4.0)
        rep = certify_hypotheses(spec, t_min=0.5)
        assert np.array_equal(rep.h2.t_grid, spec.nodes[spec.nodes >= 0.5])
        assert rep.h3.hr_sup == rep.h2.sup == 2.0
        assert all(c.t_min_clip == 0.5 for c in rep.h5)
        rep = certify_hypotheses(spec, t_min=0.5, hr_sup=3.0)
        assert rep.h2.sup == 2.0
        assert rep.h3.hr_sup == 3.0
        assert rep.h3.product == 3.0 * (rep.h3.m1 + rep.h3.m2)


class TestCatalog:
    @pytest.mark.parametrize("nl_id, params, bound_at_r2", [
        ("constant", {"value": -2.0}, 2.0),
        ("polynomial", {"coeffs": [1.0, -0.5, 0.25]}, 3.0),
        ("step", {"low": 1.0, "high": -3.0, "threshold": 0.1}, 3.0)])
    def test_local_bound_is_one_array_call(self, nl_id, params, bound_at_r2):
        nl = make_nonlinearity_from_id(nl_id, params)
        t = np.linspace(0.0, 1.0, 7)
        out = nl.local_bound.__wrapped__(t, 2.0)
        assert out.shape == t.shape
        assert np.all(out == bound_at_r2)


class TestMain:
    def test_full_cli_smoke(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        out_path = tmp_path / "report.json"
        cfg_path.write_text(json.dumps(smoke_doc()))
        code = main(["run", "--config", str(cfg_path), "--out", str(out_path)])
        assert code == 0
        report = json.loads(out_path.read_text())
        assert report["meta"]["tool"] == "bvpkit"
        assert report["meta"]["tasks_passed"] == {"check": True, "solve": True}

    @pytest.mark.parametrize("flag", [["--grid-size", "65"], ["--tol", "1e-3"],
                                      ["--solver-tol", "1e-3"], ["--task", "check"]],
                             ids=lambda flag: flag[0])
    def test_setting_flags_are_usage_errors(self, tmp_path, capsys, flag):
        # every setting comes from the config; --out is the only override
        cfg_path = tmp_path / "cfg.json"
        out_path = tmp_path / "report.json"
        cfg_path.write_text(json.dumps(smoke_doc()))
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(cfg_path), "--out", str(out_path), *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not out_path.exists()

    def test_bad_config_exits_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        doc = smoke_doc()
        doc["problem"]["bc"] = [-1, 0, 1, 0]
        cfg_path.write_text(json.dumps(doc))
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert "problem.bc" in capsys.readouterr().err

    @pytest.mark.parametrize("section, entry", [
        ("weight", {"id": "constant", "value": "x"}),
        ("nonlinearity", {"id": "polynomial", "coeffs": 5}),
        ("nonlinearity", {"id": "phi-example", "lambda": 2}),
        ("weight", {"id": "constant", "value": True}),
        ("weight", {"id": "inv-sqrt", "scale": float("inf")}),
        ("nonlinearity", {"id": "phi-example", "curve_count": 8.7}),
        ("nonlinearity", {"id": "phi-example", "curve_count": True}),
        ("nonlinearity", {"id": "step", "threshold": "0.1"}),
        ("nonlinearity", {"id": "polynomial", "coeffs": [1.0, 10 ** 400]}),
        ("weight", {"id": "constant", "valu": 5.0}),
        ("nonlinearity", {"id": "phi-example", "lamda": 0.3}),
    ])
    def test_bad_catalog_parameter_exits_two(self, tmp_path, capsys, section, entry):
        cfg_path = tmp_path / "cfg.json"
        out_path = tmp_path / "report.json"
        doc = smoke_doc()
        doc["problem"][section] = entry
        cfg_path.write_text(json.dumps(doc))
        assert main(["run", "--config", str(cfg_path), "--out", str(out_path)]) == 2
        assert f"(field: problem.{section})" in capsys.readouterr().err
        assert not out_path.exists()

    def test_non_object_numerics_exits_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        out_path = tmp_path / "report.json"
        cfg_path.write_text(json.dumps(smoke_doc(numerics=[])))
        assert main(["run", "--config", str(cfg_path), "--out", str(out_path)]) == 2
        assert "numerics must be an object" in capsys.readouterr().err
        assert not out_path.exists()

    def test_non_object_config_exits_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        out_path = tmp_path / "report.json"
        cfg_path.write_text(json.dumps([1, 2]))
        assert main(["run", "--config", str(cfg_path), "--out", str(out_path)]) == 2
        assert "config must be a JSON object" in capsys.readouterr().err
        assert not out_path.exists()

    def test_unwritable_output_exits_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        out_path = tmp_path / "missing" / "r.json"
        cfg_path.write_text(json.dumps(smoke_doc()))
        assert main(["run", "--config", str(cfg_path), "--out", str(out_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert "(field: output)" in err
        assert not out_path.exists()

    def test_missing_file_exits_two(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2

    def test_task_error_is_reported(self, tmp_path):
        # no quadrature meets tol 1e-300: each task fails with a typed error,
        # and the report is still written
        cfg_path = tmp_path / "cfg.json"
        out_path = tmp_path / "report.json"
        doc = demo_doc("dirichlet_smoke", quad_tol=1e-300)
        cfg_path.write_text(json.dumps(doc))
        code = main(["run", "--config", str(cfg_path), "--out", str(out_path)])
        assert code == 1
        report = json.loads(out_path.read_text())
        assert report["meta"]["tasks_passed"] == {"check": False, "solve": False}
        for section in ("hypotheses", "solution"):
            assert report[section]["type"] == "MaxDepthExceeded"
            assert "bisection levels" in report[section]["error"]

    @pytest.mark.parametrize("problem, tasks, fields", [
        # f = 1e308 + 1e308 u: H_R and H3's product are inf, and T's panel
        # integrals overflow
        pytest.param({"weight": {"id": "constant", "value": 1},
                      "nonlinearity": {"id": "polynomial", "coeffs": [1e308, 1e308]}, "R": 10},
                     ["check", "solve"],
                     {"hypotheses.h2.sup": None, "hypotheses.h3.product": None,
                      "hypotheses.h3.hr_sup": None, "solution.type": "NonFiniteIntegrand",
                      "solution.error": "integral of |integrand| overflows on [0.0, 0.0625]"},
                     id="integral"),
        # g * f overflows in T's integrand
        pytest.param({"weight": {"id": "inv-sqrt", "scale": 1e200},
                      "nonlinearity": {"id": "polynomial", "coeffs": [1e200, 1e200]}, "R": 4},
                     ["solve"],
                     {"solution.type": "NonFiniteIntegrand",
                      "solution.error": "integrand not finite on [0.0, 0.0625]"},
                     id="integrand"),
        # g overflows near 0, where the sweep plan and M1/M2's integrand sample it
        pytest.param({"weight": {"id": "inv-sqrt", "scale": 1e307},
                      "nonlinearity": {"id": "constant", "value": 1}, "R": 4},
                     ["check", "solve"],
                     {"hypotheses.type": "NonFiniteIntegrand",
                      "hypotheses.error": "integrand not finite on [0.0, 0.0625]",
                      "solution.type": "NonFiniteIntegrand",
                      "solution.error": "integrand not finite on [0.0, 0.0625]"},
                     id="weight"),
        # g * f overflows along the curve and over its tube
        pytest.param({"weight": {"id": "constant", "value": 2},
                      "nonlinearity": {"id": "step", "low": 1e308, "high": -1e308,
                                       "threshold": 0.5}, "R": 4},
                     ["check", "classify-curves"],
                     {"curves.0.verdict": "indeterminate", "curves.0.psi_margin": None},
                     id="classifier"),
    ])
    def test_overflow_is_named_and_the_report_is_strict_json(self, tmp_path, capsys, problem,
                                                             tasks, fields):
        # each overflow is a failed task, or a null, in a strict JSON report,
        # and no numpy warning is raised on the way
        cfg_path = tmp_path / "cfg.json"
        out_path = tmp_path / "report.json"
        doc = {"problem": {"bc": [1, 0, 1, 0], **problem}, "numerics": {"grid_size": 17},
               "tasks": tasks}
        cfg_path.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["run", "--config", str(cfg_path), "--out", str(out_path)])
        assert code == 1
        assert capsys.readouterr().err == ""
        report = read_report(out_path)
        assert report["meta"]["tasks_passed"] == dict.fromkeys(tasks, False)
        assert {path: _get(report, path) for path in fields} == fields

    @pytest.mark.parametrize("doc, crossed", [
        (demo_doc("dirichlet_smoke"), {}),
        (demo_doc("divisor_example"), {}),
        # any grid_size >= 3 runs, an even one too
        (demo_doc("dirichlet_smoke", grid_size=128), {}),
        # step f with threshold 0.05: the solution crosses it twice, so the
        # crossing search and the split panels run inside bvp run
        ({"problem": {"bc": [1, 0, 1, 0], "weight": {"id": "constant", "value": 1.0},
                      "nonlinearity": {"id": "step", "low": 1.0, "high": 2.0,
                                       "threshold": 0.05},
                      "R": 4},
          "numerics": {"grid_size": 129, "probe_samples": 5},
          "tasks": ["check", "classify-curves", "solve", "probe"]},
         {"step-threshold": 2}),
    ], ids=["dirichlet_smoke", "divisor_example", "dirichlet_smoke-128-nodes", "step-crossing"])
    def test_config_passes_with_a_strict_json_report(self, tmp_path, doc, crossed):
        cfg_path = tmp_path / "cfg.json"
        out_path = tmp_path / "report.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["run", "--config", str(cfg_path), "--out", str(out_path)]) == 0
        report = read_report(out_path)
        assert {name: n for name, n in report["solution"]["curve_crossings"] if n} == crossed

    def test_importing_the_package_loads_numpy_alone(self):
        # a fresh interpreter: the test run itself has scipy, sympy and friends loaded
        script = ("import sys; import bvpkit, bvpkit.cli, bvpkit.catalog; "
                  "print(sorted({'scipy', 'sympy', 'hypothesis', 'pytest'} & set(sys.modules)))")
        src = str(Path(bvpkit.__file__).resolve().parent.parent)
        out = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, check=True).stdout
        assert out == "[]\n"

    def test_malformed_json_exits_two(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{not json")
        assert main(["run", "--config", str(cfg_path)]) == 2

    @pytest.mark.parametrize("content", [
        b'{"problem": {"R": 1' + b"0" * 5000 + b"}}",  # past the int-conversion limit
        b'{"problem": "\xff\xfe"}',  # not UTF-8
    ], ids=["5001-digit-integer", "non-utf8"])
    def test_undecodable_config_exits_two(self, tmp_path, capsys, content):
        cfg_path = tmp_path / "cfg.json"
        out_path = tmp_path / "report.json"
        cfg_path.write_bytes(content)
        assert main(["run", "--config", str(cfg_path), "--out", str(out_path)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not out_path.exists()
