"""Spline spaces and interpolation operators.

Builds cubic C1 interpolants of a smooth function, measures their errors in
four norms across a dyadic mesh sequence, and demonstrates the two special
properties of the cumulative-integral interpolant: its derivative matches the
sampled derivative at nodes *and* midpoints, so unit-speed inputs satisfy the
midpoint-enforced inextensibility constraint exactly.
"""

import numpy as np

from elastica_fem import (ConstraintVariant, Mesh1D, interp_j3,
                          unit_speed_violation)
from elastica_fem.cli import console_main

# the table of `elastica-fem interp-study`: cubic C1 interpolants of sin on
# [0, 2pi], M = 8 ... 128, errors in four norms and their observed orders
print("Cubic C1 interpolation of sin on [0, 2pi] (expected orders 4, 4, 3, 2)")
if console_main(["interp-study"]) != 0:
    raise SystemExit(1)

print("\nCumulative-integral initializer on the unit circle")
z0_deriv = lambda x: np.stack([-np.sin(x), np.cos(x)], axis=-1)
for M in (8, 32):
    mesh = Mesh1D.uniform(0.0, 2.0 * np.pi, M)
    curve = interp_j3([1.0, 0.0], z0_deriv, mesh, 2)
    viol = unit_speed_violation(curve, ConstraintVariant.P2)
    gap = np.linalg.norm(curve.values[-1] - [1.0, 0.0])
    print(f"  M={M:3d}: max | |u'(z)|^2 - 1 | over nodes+midpoints = {viol:.2e}, "
          f"endpoint closure gap = {gap:.2e}")
