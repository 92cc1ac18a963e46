"""Wall time corrected for the drifting speed of a shared host.

On a small shared machine the speed of one core drifts by up to 2x within
seconds as other tenants come and go, far more than the regressions the
benchmark must detect.  So while a measured call runs, a timer signal
interrupts it every PERIOD_S to time a short calibration loop; one more loop
runs right before and one right after the call.  The call's time is its wall
time minus the time spent in those interruptions, scaled by
REF_S / (mean loop time).  It reads as seconds on a host where the loop
takes REF_S.  The slowest tenth of the loops is left out of the mean: a loop
that happens to be descheduled for 10-20 ms would otherwise raise the mean
of a hundred 0.5 ms loops by a quarter, while the same pause costs the call
itself under one percent.

The loop is a fixed miniature of what bvpkit's apply_T runs: cubic Hermite
evaluation on a grid, a kernel row, a step nonlinearity, 16/8-point
Gauss-Legendre panels and a heap.  A host slowdown slows it as much as it
slows the program; a simpler loop of numpy calls tracked the program half as
well.  The loop does not call bvpkit, so a change to the program moves the
corrected time as it moves the wall time.

Signal handlers run in the main thread between bytecodes: no thread is
started, and numpy calls are never interrupted mid-way.
"""

import heapq
import math
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.04
REF_S = 0.0004
_N16, _W16 = np.polynomial.legendre.leggauss(16)
_N8, _W8 = np.polynomial.legendre.leggauss(8)
_NODES = np.linspace(0.0, 1.0, 65)
_VALS = np.sin(np.pi * _NODES)
_DERS = np.pi * np.cos(np.pi * _NODES)


def _integrand(s, t):
    s = np.asarray(s, dtype=float)
    if np.any(s < 0.0) or np.any(s > 1.0):
        raise ValueError("s outside [0, 1]")
    idx = np.clip(np.searchsorted(_NODES, s, side="right") - 1, 0, _NODES.size - 2)
    h = _NODES[idx + 1] - _NODES[idx]
    x = (s - _NODES[idx]) / h
    x2 = x * x
    u = (_VALS[idx] * (1.0 - 3.0 * x2 + 2.0 * x2 * x)
         + _VALS[idx + 1] * (3.0 * x2 - 2.0 * x2 * x)
         + h * _DERS[idx] * (x - 2.0 * x2 + x2 * x))
    k = np.where(s <= t, (1.0 - t) * s, t * (1.0 - s))
    return k * np.where(u < 0.5, 1.0, 2.0)


def loop_s() -> float:
    """Wall seconds of one pass of the calibration loop."""
    t0 = time.perf_counter()
    heap = []
    for j in range(6):
        lo, hi = j / 6.0, (j + 1) / 6.0
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        v = _integrand(np.concatenate((mid + half * _N16, mid + half * _N8)), 0.37)
        i16 = half * float(_W16 @ v[:16])
        i8 = half * float(_W8 @ v[16:])
        heapq.heappush(heap, (-abs(i16 - i8), j, i16))
    while heap:
        heapq.heappop(heap)
    return time.perf_counter() - t0


class HostClock:
    """Measures calls in host-corrected seconds.  Owns SIGALRM while it lives."""

    def __init__(self):
        self._inside = None
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame):
        if self._inside is not None:
            self._inside.append(loop_s())

    def measure(self, fn):
        """Run fn once; return (wall seconds net of sampling, scale, result).
        The corrected time of the call, or of a span inside it, is wall * scale."""
        before = loop_s()
        inside = []
        self._inside = inside
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            self._inside = None
            wall = time.perf_counter() - t0
        loops = sorted([before, *inside, loop_s()])
        kept = loops[:len(loops) - math.ceil(len(loops) / 10)] if len(loops) > 2 else loops
        return wall - sum(inside), REF_S / statistics.fmean(kept), result
