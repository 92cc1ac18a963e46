"""Driving the batch front end from Python.

The same pipeline the `bvp` command exposes is available as a library call:
parse a config document, run it, inspect the report.  Reports are plain
JSON-ready dictionaries, deterministic apart from the timestamp, so they
diff cleanly between runs and machines.
"""

import json
from pathlib import Path

from bvpkit.cli import parse_config, run

config_dir = Path(__file__).parent / "configs"
doc = json.loads((config_dir / "divisor_example.json").read_text())

cfg = parse_config(doc)
exit_code, report = run(cfg)

print(f"exit code: {exit_code}")
print(f"tasks: {report['meta']['tasks_passed']}")
print(f"M1+M2 = {report['bounds']['m_total']:.6f}, "
      f"auto-selected R = {report['bounds']['resolved_radius']}")
print(f"h1 (weight integrable): {report['hypotheses']['h1']['pass']}, "
      f"integral = {report['hypotheses']['h1']['l1_norm']}")
print(f"h3 (ball estimate):     {report['hypotheses']['h3']['pass']} "
      f"under the {report['hypotheses']['h3']['hr_source']} premise")
verdicts = {c["verdict"] for c in report["curves"]}
print(f"curve verdicts: {verdicts}")
sol = report["solution"]
print(f"solve: converged={sol['converged']} residual={sol['residual']:.2e} "
      f"norm={sol['norm_c1']:.4f} in {sol['iterations']} iterations")

out = Path("divisor_example_report.json")
out.write_text(json.dumps(report, indent=2) + "\n")
print(f"full report written to {out}")
