"""Newton solution of the stationarity system and saddle-point diagnostics.

Starting from the interpolants of the exact curve and multiplier, Newton's
method on the coupled optimality system converges quadratically in a couple
of steps.  The two solvability conditions of the saddle-point problem (kernel
coercivity of the second-variation block, inf-sup of the constraint block)
are estimated numerically and stay bounded away from zero under refinement.

The clamped helix also shows that the multiplier depends on the boundary
setup: with both endpoint values pinned it is the constant -freq^2 of the
helix, not -|u''|^2.
"""

import numpy as np

from elastica_fem import ConstraintVariant, Mesh1D, assemble_matrices
from elastica_fem.cli import console_main
from elastica_fem.experiments import HELIX_FREQ, named_experiment
from elastica_fem.stationary import make_interpolant_pair, newton_solve

P2 = ConstraintVariant.P2

for name in ("circle", "helix"):
    spec = named_experiment(name)
    mesh = Mesh1D.uniform(*spec.interval, 20)
    mats = assemble_matrices(mesh, spec.dim)
    pair = make_interpolant_pair(spec.exact.oracle, spec.exact.multiplier,
                                 mesh, spec.dim, P2)
    sol, log = newton_solve(pair, P2, spec.bc, mats)
    print(f"{name}: newton residuals " +
          " -> ".join(f"{r:.2e}" for r in log["residual_norms"]))
    print(f"  multiplier in the interior: {np.median(sol.lam):+.6f}")
print(f"  (helix reference: -freq^2 = {-HELIX_FREQ**2:+.6f}, "
      f"-freq^4 = {-HELIX_FREQ**4:+.6f})")

# the table of `elastica-fem diagnostics circle -M 10,20,40`: residual dual
# norm, coercivity alpha, inf-sup beta and Newton iterations per mesh
print("\nDiagnostics on the circle across meshes:")
if console_main(["diagnostics", "circle", "-M", "10,20,40"]) != 0:
    raise SystemExit(1)
print("the interpolant-pair residual vanishes under refinement while both "
      "stability estimates stay bounded away from zero")
