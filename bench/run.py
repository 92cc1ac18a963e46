"""bvpkit benchmark: one workload, in one process, with every output checked.

    python3 bench/run.py --workload divisor|picard|step-crossing \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; bvpkit is imported from its src/.  Each
workload is a closed loop with one caller: the next call starts only after
the previous one returned.

--trace 0 measures the end-to-end metrics with tracing off: `bvp run` as a
library call (pipeline_s), certify_hypotheses (certify_s), solve_picard
(solve_s), fresh-interpreter set-up (setup_s) and peak RSS.  --trace 1 is
the traced run: it records spans around public bvpkit calls, writes them to
bench/out/, and reports the per-layer metrics.  Times are host-corrected
seconds (see hostclock.py).  The last line of standard output is one JSON
object: correct, attempted, failed and metrics.
"""

import os

# One BLAS/OpenMP thread: set before numpy loads so that the library sees it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402  (exits when the checkout has no bvpkit sources)
import numpy as np  # noqa: E402

from bvpkit import certify_hypotheses, cli  # noqa: E402

import layers  # noqa: E402
from hostclock import HostClock  # noqa: E402
from spans import Tracer  # noqa: E402

OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_SPAWNS = 7
MIN_STEP_S = 0.25
SETUP_TIMEOUT = 60


class Ops:
    """Attempted and failed operations; a raise or a failed check is a failure."""

    def __init__(self, clock):
        self.clock = clock
        self.attempted = 0
        self.failures = []
        self.walls = {}

    def call(self, name, fn, check):
        """Run fn once; return (host-corrected seconds, scale, result), or
        (None, None, None) if it raised.  The check runs after the clock stops."""
        self.attempted += 1
        gc.collect()
        try:
            wall, scale, result = self.clock.measure(fn)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            return None, None, None
        self.walls.setdefault(name, []).append(wall)
        problems = check(result)
        if problems:
            self.failures.append(f"{name}: {'; '.join(problems)}")
        return wall * scale, scale, result


def environment():
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "platform": platform.platform()}


def setup_once(wl):
    """Wall seconds for a fresh interpreter to import bvpkit, parse the
    config and build the spec."""
    cmd = [sys.executable, str(Path(workloads.__file__)), json.dumps(wl.doc), repr(wl.radius)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0 or not proc.stdout.startswith("ok"):
        raise RuntimeError(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return elapsed


def pipeline(wl):
    # Looked up on the module, so that an installed Tracer sees both calls.
    return cli.run(cli.parse_config(wl.doc))


def tail(samples):
    """The highest percentile with at least ten samples beyond it, else the max."""
    n = len(samples)
    if n < 20:
        return "max", max(samples)
    pct = int(100 * (1 - 10 / n))
    return f"p{pct}", statistics.quantiles(samples, n=100)[pct - 1]


def summarize(name, samples, walls):
    """Median of host-corrected samples, printed with its tail and the wall median."""
    label, value = tail(samples)
    med = statistics.median(samples)
    print(f"{name:<14} median {med:.6g} s  {label} {value:.6g} s  n={len(samples)}  "
          f"(wall median {statistics.median(walls):.6g} s)")
    return med


def run_e2e(wl, seconds, ops):
    spec = wl.spec()
    samples = {"setup_s": [], "pipeline_s": [], "certify_s": [], "solve_s": []}

    ops.call("setup (warm-up)", lambda: setup_once(wl), lambda r: [])
    for _ in range(SETUP_SPAWNS):
        dt, _, _ = ops.call("setup_s", lambda: setup_once(wl), lambda r: [])
        if dt is not None:
            samples["setup_s"].append(dt)

    steps = (("pipeline_s", lambda: pipeline(wl), wl.check_report),
             ("certify_s", lambda: certify_hypotheses(spec), wl.check_certificate),
             ("solve_s", lambda: wl.solve(spec), wl.check_solution))
    # Warm-up, checked but not timed: the pipeline runs every code path that
    # certify and solve run.
    ops.call("pipeline_s (warm-up)", steps[0][1], steps[0][2])
    # Closed loop over the steps until the time is up; each step runs at least
    # once.  After its first sample, a step shorter than MIN_STEP_S runs
    # several times per round, for more samples.
    reps = {name: 1 for name, _, _ in steps}
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds == 0 or time.perf_counter() < deadline:
        for name, fn, check in steps:
            for _ in range(reps[name]):
                if rounds and time.perf_counter() >= deadline:
                    break
                dt, _, _ = ops.call(name, fn, check)
                if dt is not None:
                    samples[name].append(dt)
                    if rounds == 0:
                        reps[name] = max(1, round(MIN_STEP_S / dt))
        rounds += 1

    if not all(samples.values()):
        raise SystemExit(f"no successful sample for some metric: {ops.failures[:5]}")
    metrics = {k: {"value": summarize(k, v, ops.walls[k]), "unit": "s"}
               for k, v in samples.items()}
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"{'peak_rss_mb':<14} {rss_mb:.6g} MB")
    metrics["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
    return metrics, samples


def run_traced(wl, seconds, ops):
    tracer = Tracer(wl.name)
    deadline = time.perf_counter() + seconds
    ops.call("pipeline (warm-up)", lambda: pipeline(wl), wl.check_report)
    with tracer.installed():
        ops.attempted += 1
        counts, problems, sol = layers.count_layers(wl, tracer)
        if problems:
            ops.failures.append(f"layer solve: {'; '.join(problems)}")
        times = layers.time_layers(wl, tracer, ops.clock, sol)

    def traced_pipeline():
        with tracer.span("pipeline"):
            return pipeline(wl)

    # Alternate untraced and traced pipelines until the time is up; at least one pair.
    untraced, traced, traced_s = [], [], []
    while True:
        for traced_run in (len(untraced) % 2 == 1, len(untraced) % 2 == 0):
            if traced_run:
                with tracer.installed():
                    dt, scale, _ = ops.call("pipeline (traced)", traced_pipeline,
                                            wl.check_report)
                if dt is not None:
                    traced.append((tracer.named("pipeline")[-1], scale))
                    traced_s.append(dt)
            else:
                dt, _, _ = ops.call("pipeline", lambda: pipeline(wl), wl.check_report)
                if dt is not None:
                    untraced.append(dt)
        if time.perf_counter() >= deadline:
            break
    if not (untraced and traced):
        raise SystemExit(f"no successful pipeline: {ops.failures[:5]}")

    values = {**counts, **times,
              **layers.pipeline_layers(tracer, untraced, traced, traced_s)}
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in layers.UNITS.items()}
    for name, m in metrics.items():
        print(f"{name:<36} {m['value']:.6g} {m['unit']}")

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{wl.name}-seed{wl.seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
    print(f"{len(tracer.spans)} spans written to {path.relative_to(workloads.ROOT)}")
    return metrics, {"pipeline_untraced_s": untraced, "pipeline_traced_s": traced_s}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    env = environment()
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    wl = workloads.WORKLOADS[args.workload](args.seed)
    print(f"workload {wl.name} seed {wl.seed} inputs {wl.inputs}")

    ops = Ops(HostClock())
    if args.trace:
        metrics, samples = run_traced(wl, args.seconds, ops)
    else:
        metrics, samples = run_e2e(wl, args.seconds, ops)

    failed = len(ops.failures)
    for line in ops.failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"fail_ratio {failed}/{ops.attempted} = {failed / ops.attempted:.6g}")

    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": wl.name, "seed": wl.seed, "inputs": wl.inputs,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "metrics": metrics, "samples": samples, "wall_samples": ops.walls,
              "attempted": ops.attempted, "failures": ops.failures}
    with open(OUT_DIR / f"result-{wl.name}-seed{wl.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(json.dumps({"correct": failed == 0, "attempted": ops.attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
