"""The finite-sample convex-hull probe.

Discontinuous operators are handled through a convexified set-valued
relaxation: u survives if it lies in the closed convex hull of operator
images of arbitrarily close functions.  The probe is a finite shadow of
that test: perturb u inside an eps-ball, apply T to each sample, and
measure the distance from u to the hull of the images by simplex-constrained
least squares (Frank-Wolfe with away steps).
"""

import numpy as np

from bvpkit import (DIRICHLET, convexification_probe, residual, simplex_least_squares,
                    solve_picard)
from bvpkit.model import GridFunction, Nonlinearity, ProblemSpec, Weight

print("== the projection subroutine on a textbook instance ==")
vertices = np.array([[1.0, 0.0], [0.0, 1.0]])
lam, dist = simplex_least_squares(vertices, np.zeros(2))
print(f"distance from the origin to the segment (1,0)-(0,1): {dist:.12f}")
print(f"(closed form sqrt(2)/2 = {np.sqrt(2) / 2:.12f}), witness {lam}")

ones = Weight(eval=lambda t: np.ones_like(np.asarray(t, float)))
poly = Nonlinearity(eval=lambda t, u: 0.1 * np.asarray(u, float) + 1.0,
                    local_bound=lambda t, r: 0.1 * r + 1.0)
spec = ProblemSpec(params=DIRICHLET, weight=ones, nonlinearity=poly,
                   radius=1.0, quad_tol=1e-10, grid_size=129)

print("\n== at a converged solution the hull collapses onto u itself ==")
sol = solve_picard(spec, tol=1e-12)
probe = convexification_probe(spec, sol.u, eps=1e-3, n_samples=5)
print(f"residual          = {sol.residual:.3e}")
print(f"hull distance     = {probe.hull_distance:.3e}")
print(f"per-enrichment history: {[f'{d:.2e}' for d in probe.history]}")

print("\n== away from the fixed point the distance measures the defect ==")
zero = GridFunction.zero(spec.nodes)
gap = residual(spec, zero)
for eps in (1e-2, 1e-3, 1e-4):
    probe = convexification_probe(spec, zero, eps=eps, n_samples=5)
    print(f"eps = {eps:7.0e}: hull distance {probe.hull_distance:.8f} "
          f"(operator defect {gap:.8f})")
print("as eps shrinks, the convexified image collapses onto {Tu} and the "
      "distance converges to ||u - Tu||")
