"""Built-in weights and nonlinearities addressable from run configs.

Config files cannot carry arbitrary code, so the command-line front end is
limited to this catalog; library users construct Weight/Nonlinearity
directly.  The callables below receive float arrays (see model.vectorized).
"""

import math

import numpy as np

from .errors import ConfigError
from .example_phi import PhiExample, make_nonlinearity
from .model import DiscontinuityCurve, Nonlinearity, Weight


def number(val, kind=float):
    """val as kind (float or int) if it is a finite JSON number: not a bool,
    within float range, and integral when kind is int.  Raises TypeError or
    ValueError otherwise."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise TypeError(f"expected a number, got {val!r}")
    try:
        finite = math.isfinite(val)
    except OverflowError:
        raise ValueError("expected a finite number, got an int beyond float range") from None
    if not finite or (kind is int and val != int(val)):
        raise ValueError(f"expected a finite {kind.__name__}, got {val!r}")
    return kind(val)


def _only(params: dict, *names):
    """Reject a parameter that the catalog entry does not read (ValueError)."""
    for key in params:
        if key not in names:
            raise ValueError(f"unknown parameter {key!r}")


def phi_example(params: dict) -> PhiExample:
    """The phi-example entry's PhiExample; an absent parameter keeps its default."""
    _only(params, "lambda", "curve_count", "epsilon")
    return PhiExample(lam=number(params.get("lambda", PhiExample.lam)),
                      curve_count=number(params.get("curve_count", PhiExample.curve_count), int),
                      epsilon=number(params.get("epsilon", PhiExample.epsilon)))


def make_weight_from_id(weight_id: str, params: dict) -> Weight:
    if weight_id == "constant":
        _only(params, "value")
        c = number(params.get("value", 1.0))
        return Weight(eval=lambda t, _c=c: np.full_like(t, _c), singular_left=False,
                      power=0.0)
    if weight_id == "inv-sqrt":
        _only(params, "scale")
        scale = number(params.get("scale", 1.0))
        return Weight(eval=lambda t, _s=scale: _s / np.sqrt(t), singular_left=True,
                      power=-0.5)
    raise ConfigError(f"unknown weight id {weight_id!r}", field="problem.weight.id")


def make_nonlinearity_from_id(nl_id: str, params: dict) -> Nonlinearity:
    if nl_id == "constant":
        _only(params, "value")
        c = number(params.get("value", 1.0))
        return Nonlinearity(eval=lambda t, u, _c=c: np.full_like(t, _c),
                            local_bound=lambda t, r, _c=c: np.full_like(t, abs(_c)), degree=0)
    if nl_id == "polynomial":
        _only(params, "coeffs")
        coeffs = [number(c) for c in params.get("coeffs", [1.0])]

        def f(t, u, _c=tuple(coeffs)):
            out = np.zeros_like(u)
            for j, cj in enumerate(_c):
                out = out + cj * u ** j
            return out

        def bound(t, r, _c=tuple(coeffs)):
            # an overflow is an inf bound, which H2 and H3 report as null
            with np.errstate(over="ignore", invalid="ignore"):
                return np.full_like(t, sum(abs(cj) * r ** j for j, cj in enumerate(_c)))

        return Nonlinearity(eval=f, local_bound=bound, degree=max(len(coeffs) - 1, 0))
    if nl_id == "step":
        _only(params, "low", "high", "threshold", "epsilon")
        low = number(params.get("low", 1.0))
        high = number(params.get("high", 0.0))
        thr = number(params.get("threshold", 0.0))
        eps = number(params.get("epsilon", 0.05))

        def f(t, u, _lo=low, _hi=high, _thr=thr):
            return np.where(u < _thr, _lo, _hi)

        curve = DiscontinuityCurve(
            a=0.0, b=1.0,
            value=lambda t, _thr=thr: np.full_like(t, _thr),
            second_derivative=np.zeros_like,
            epsilon=eps, label="step-threshold")
        bound = max(abs(low), abs(high))
        return Nonlinearity(eval=f, curves=(curve,), degree=0,
                            local_bound=lambda t, r: np.full_like(t, bound))
    if nl_id == "phi-example":
        return make_nonlinearity(phi_example(params))
    raise ConfigError(f"unknown nonlinearity id {nl_id!r}",
                      field="problem.nonlinearity.id")
