"""Self-test of the benchmark itself (not of bvpkit):

- two traced count passes with one seed give identical work counts;
- a second seed draws other inputs, and every output check still passes;
- the output checks reject a wrong solution.

    python3 bench/selftest.py [workload ...]

Exits 0 when every check holds.  It is not named test_*.py, so the repo's
test suite does not collect it.
"""

import sys
from dataclasses import replace

from run import pipeline  # first: run pins BLAS threads before numpy loads

import layers
import workloads
from bvpkit import certify_hypotheses
from spans import Tracer


def counts(name, seed):
    wl = workloads.WORKLOADS[name](seed)
    tracer = Tracer(name)
    with tracer.installed():
        got, problems, _ = layers.count_layers(wl, tracer)
    assert not problems, problems
    return got


def check_workload(name):
    first, second = counts(name, 1), counts(name, 1)
    assert first == second, f"{name}: counts differ for one seed:\n{first}\n{second}"
    assert set(first) <= set(layers.UNITS), set(first) - set(layers.UNITS)

    wl1, wl2 = workloads.WORKLOADS[name](1), workloads.WORKLOADS[name](2)
    assert wl1.inputs != wl2.inputs, f"{name}: seeds 1 and 2 drew the same inputs"
    spec = wl2.spec()
    problems = wl2.check_report(pipeline(wl2))
    problems += wl2.check_certificate(certify_hypotheses(spec))
    sol = wl2.solve(spec)
    problems += wl2.check_solution(sol)
    assert not problems, f"{name} seed 2: {problems}"

    shifted = replace(sol, u=replace(sol.u, values=sol.u.values + 1e-3), residual=1e-3)
    assert wl2.check_solution(shifted), f"{name}: a wrong solution passed the checks"
    print(f"{name}: ok  {first}")


def main(names):
    for name in names or sorted(workloads.WORKLOADS):
        check_workload(name)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
