"""Print one SHA-256 per output of bvpkit on a fixed set of inputs.

Run from a checkout: python3 scripts/output_digests.py > digests.txt.  A diff
of that file between two checkouts shows every output a change moved by one
bit.  The inputs are seeds 1-5 of each bench workload (bench/workloads.py,
read only), where each seed gives its `bvp run` report without
meta.timestamp, the solution's node values and derivatives, and the hull
probe from that solution at n in {1, 2, 5, 9} and eps in {1e-3, 1e-2}; and
both demo configs' reports.  That is 152 lines of `<label> <digest>`.
"""

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from workloads import WORKLOADS  # noqa: E402  (puts this checkout's src first)

from bvpkit.cli import parse_config, run  # noqa: E402
from bvpkit.hypotheses import convexification_probe  # noqa: E402


def show(label, *parts):
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part if isinstance(part, bytes) else repr(part).encode())
    print(label, digest.hexdigest())


def show_report(label, cfg):
    _, report = run(cfg)
    del report["meta"]["timestamp"]
    show(label, json.dumps(report, sort_keys=True))


for name, workload in WORKLOADS.items():
    for seed in range(1, 6):
        w = workload(seed)
        show_report(f"{name}/{seed}/report", w.cfg)
        spec = w.spec()
        u = w.solve(spec).u
        show(f"{name}/{seed}/u", u.values.tobytes(), u.derivatives.tobytes())
        for n in (1, 2, 5, 9):
            for eps in (1e-3, 1e-2):
                p = convexification_probe(spec, u, eps, n)
                show(f"{name}/{seed}/probe/{n}/{eps}", p.hull_distance,
                     p.witness_coeffs.tobytes(), p.history)
for path in sorted((ROOT / "demos" / "configs").glob("*.json")):
    show_report(f"demo/{path.stem}", parse_config(json.loads(path.read_text())))
