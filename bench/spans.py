"""Tracing from outside the program: spans around public bvpkit calls and
counters on the callables the benchmark hands to bvpkit.

Nothing in bvpkit is edited.  While a Tracer is installed, every binding of
a traced public function in a loaded bvpkit module is replaced by a wrapper
that records a span, so calls between bvpkit modules are traced too.  Spans
stay in memory until the run writes them out.
"""

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

import bvpkit
from bvpkit import cli

# Public calls that get a span.  k_eval, grid_eval and integrate run once per
# panel or node; they are timed by direct calls instead of spans.
TRACED = [getattr(bvpkit, name) for name in (
    "apply_T", "residual", "bounds_report", "find_curve_crossings", "check_h1",
    "estimate_HR", "check_h3", "classify_curve", "certify_hypotheses",
    "convexification_probe", "simplex_least_squares", "solve_picard",
    "minimal_R_power")] + [cli.parse_config, cli.run]


def label(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Spans (id, name, start, end, parent, workload) in call order."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans = []
        self._open = []
        self._patched = []

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None,
               "workload": self.workload, "start": None, "end": None}
        self.spans.append(rec)
        self._open.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def _wrap(self, fn):
        name = label(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def install(self):
        wrappers = {id(fn): (fn, self._wrap(fn)) for fn in TRACED}
        for modname, mod in list(sys.modules.items()):
            if modname != "bvpkit" and not modname.startswith("bvpkit."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))

    def uninstall(self):
        for mod, attr, value in self._patched:
            setattr(mod, attr, value)
        self._patched.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # --- analysis -------------------------------------------------------

    def children(self, rec):
        return [s for s in self.spans if s["parent"] == rec["id"]]

    def descendants(self, rec, name):
        out, todo = [], [rec["id"]]
        while todo:
            pid = todo.pop()
            for s in self.spans:
                if s["parent"] == pid:
                    todo.append(s["id"])
                    if s["name"] == name:
                        out.append(s)
        return out

    def named(self, name):
        return [s for s in self.spans if s["name"] == name]


def duration(rec) -> float:
    return rec["end"] - rec["start"]


def self_time(tracer: Tracer, rec) -> float:
    """A span's duration minus the part its direct children cover."""
    return duration(rec) - sum(duration(c) for c in tracer.children(rec))


class Count:
    """Calls and sample points seen by one wrapped callable."""

    def __init__(self):
        self.calls = 0
        self.points = 0

    def wrap(self, fn):
        def counted(*args, **kwargs):
            self.calls += 1
            self.points += max(int(np.size(a)) for a in args)
            return fn(*args, **kwargs)
        return counted


def counted_spec(spec):
    """spec with its weight and nonlinearity callables wrapped by counters."""
    g, f = Count(), Count()
    spec = replace(spec,
                   weight=replace(spec.weight, eval=g.wrap(spec.weight.eval)),
                   nonlinearity=replace(spec.nonlinearity,
                                        eval=f.wrap(spec.nonlinearity.eval)))
    return spec, g, f
