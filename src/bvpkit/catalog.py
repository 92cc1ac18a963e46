"""Built-in weights and nonlinearities addressable from run configs.

Config files cannot carry arbitrary code, so the command-line front end is
limited to this catalog; library users construct Weight/Nonlinearity
directly.  The callables below receive float arrays (see model.vectorized).
"""

import numpy as np

from .errors import ConfigError
from .example_phi import PhiExample, make_nonlinearity, make_weight
from .model import DiscontinuityCurve, Nonlinearity, Weight


def make_weight_from_id(weight_id: str, params: dict) -> Weight:
    if weight_id == "constant":
        c = float(params.get("value", 1.0))
        return Weight(eval=lambda t, _c=c: np.full_like(t, _c),
                      singular_left=False, l1_bound_hint=abs(c), label="constant")
    if weight_id == "inv-sqrt":
        scale = float(params.get("scale", 1.0))
        if scale == 1.0:
            return make_weight()
        return Weight(eval=lambda t, _s=scale: _s / np.sqrt(t),
                      singular_left=True, l1_bound_hint=2.0 * abs(scale),
                      label="inv-sqrt")
    raise ConfigError(f"unknown weight id {weight_id!r}", field="problem.weight.id")


def make_nonlinearity_from_id(nl_id: str, params: dict) -> Nonlinearity:
    if nl_id == "constant":
        c = float(params.get("value", 1.0))
        return Nonlinearity(eval=lambda t, u, _c=c: np.full_like(t, _c),
                            local_bound=lambda t, r, _c=c: abs(_c),
                            label="constant")
    if nl_id == "polynomial":
        coeffs = [float(c) for c in params.get("coeffs", [1.0])]

        def f(t, u, _c=tuple(coeffs)):
            out = np.zeros_like(u)
            for j, cj in enumerate(_c):
                out = out + cj * u ** j
            return out

        def bound(t, r, _c=tuple(coeffs)):
            return sum(abs(cj) * r ** j for j, cj in enumerate(_c))

        return Nonlinearity(eval=f, local_bound=bound, label="polynomial")
    if nl_id == "step":
        low = float(params.get("low", 1.0))
        high = float(params.get("high", 0.0))
        thr = float(params.get("threshold", 0.0))
        eps = float(params.get("epsilon", 0.05))

        def f(t, u, _lo=low, _hi=high, _thr=thr):
            return np.where(u < _thr, _lo, _hi)

        curve = DiscontinuityCurve(
            a=0.0, b=1.0,
            value=lambda t, _thr=thr: np.full_like(t, _thr),
            second_derivative=np.zeros_like,
            epsilon=eps, label="step-threshold")
        return Nonlinearity(eval=f, curves=(curve,),
                            local_bound=lambda t, r: max(abs(low), abs(high)),
                            label="step")
    if nl_id == "phi-example":
        ex = PhiExample(lam=float(params.get("lambda", 1.0 / 3.0)),
                        curve_count=int(params.get("curve_count", 8)),
                        epsilon=float(params.get("epsilon", 0.05)))
        return make_nonlinearity(ex)
    raise ConfigError(f"unknown nonlinearity id {nl_id!r}",
                      field="problem.nonlinearity.id")
