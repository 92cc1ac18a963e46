import json
from pathlib import Path

import pytest

from bvpkit.cli import RunConfig, config_echo, main, parse_config, run
from bvpkit.errors import ConfigError


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

    def test_even_grid_rejected(self):
        doc = smoke_doc()
        doc["numerics"]["grid_size"] = 128
        with pytest.raises(ConfigError) as exc:
            parse_config(doc)
        assert exc.value.field == "numerics.grid_size"

    def test_unknown_task(self):
        with pytest.raises(ConfigError):
            parse_config(smoke_doc(tasks=["frobnicate"]))

    def test_empty_tasks(self):
        with pytest.raises(ConfigError):
            parse_config(smoke_doc(tasks=[]))

    def test_auto_power_needs_lambda(self):
        doc = smoke_doc()
        doc["problem"]["R"] = "auto-power"
        with pytest.raises(ConfigError) as exc:
            parse_config(doc)
        assert "lambda" in exc.value.field

    def test_task_order_normalized(self):
        cfg = parse_config(smoke_doc(tasks=["solve", "check"]))
        assert cfg.tasks == ("check", "solve")

    def test_round_trip(self):
        cfg = parse_config(divisor_doc())
        again = parse_config(config_echo(cfg))
        assert again == cfg


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

    def test_unknown_catalog_id(self):
        doc = smoke_doc()
        doc["problem"]["weight"] = {"id": "mystery"}
        with pytest.raises(ConfigError):
            run(parse_config(doc))

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
        doc["problem"]["R"] = {"mode": "auto-power", "lambda": 0.5}
        doc["numerics"]["quad_tol"] = 1e-300
        code, report = run(parse_config(doc))
        assert code == 1
        assert report["bounds"]["type"] == "MaxDepthExceeded"
        assert report["meta"]["tasks_passed"] == {"check": False, "solve": False}
        assert report["hypotheses"] is None and report["solution"] is None

    def test_probe_without_solve_uses_zero(self):
        doc = smoke_doc(tasks=["probe"])
        doc["numerics"]["probe_samples"] = 3
        code, report = run(parse_config(doc))
        assert code == 0
        assert report["probe"]["target"] == "zero"
        assert report["probe"]["hull_distance"] == pytest.approx(0.625, abs=1e-2)


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

    def test_flag_overrides(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        out_path = tmp_path / "report.json"
        cfg_path.write_text(json.dumps(smoke_doc()))
        code = main(["run", "--config", str(cfg_path), "--out", str(out_path),
                     "--grid-size", "65", "--task", "check"])
        assert code == 0
        report = json.loads(out_path.read_text())
        assert report["config"]["numerics"]["grid_size"] == 65
        assert report["config"]["tasks"] == ["check"]
        assert report["solution"] is None

    def test_bad_config_exits_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        doc = smoke_doc()
        doc["problem"]["bc"] = [-1, 0, 1, 0]
        cfg_path.write_text(json.dumps(doc))
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert "problem.bc" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2

    def test_task_error_is_reported(self, tmp_path):
        # no quadrature meets tol 1e-300: each task fails with a typed error,
        # and the report is still written
        out_path = tmp_path / "report.json"
        cfg_path = Path(__file__).resolve().parent.parent / "demos" / "configs" \
            / "dirichlet_smoke.json"
        code = main(["run", "--config", str(cfg_path), "--tol", "1e-300",
                     "--out", str(out_path)])
        assert code == 1
        report = json.loads(out_path.read_text())
        assert report["meta"]["tasks_passed"] == {"check": False, "solve": False}
        for section in ("hypotheses", "solution"):
            assert report[section]["type"] == "MaxDepthExceeded"
            assert "bisection levels" in report[section]["error"]

    def test_malformed_json_exits_two(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{not json")
        assert main(["run", "--config", str(cfg_path)]) == 2
