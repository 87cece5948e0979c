"""Seeded problem instances: a rigid motion of the built-in experiments.

The seed draws a rotation Q in SO(d) and a translation t.  Both act on the
initial curve, on the exact-solution oracle and on the boundary targets, so
energies and errors are the same for every seed while the floating-point
data (and hence roundoff and pivot order) are not.  A tuning that only works
on one fixed instance therefore does not carry over from seed to seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from elastica_fem import experiments
from elastica_fem.analysis import ExactSolution
from elastica_fem.assembly import BoundaryConditions
from elastica_fem.splines import FunctionOracle

_COMPLEX_STEP = 1e-30


def rigid_motion(seed: int, dim: int) -> tuple:
    """(Q, t): a Haar-random rotation with det +1 and a translation in
    [-1, 1]^dim, drawn from ``seed`` alone (one stream per dimension)."""
    rng = np.random.default_rng([seed, dim])
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q, rng.uniform(-1.0, 1.0, dim)


def _moved_value(f: Callable, Q: np.ndarray, t: np.ndarray) -> Callable:
    return lambda x: np.asarray(f(x)) @ Q.T + t


def _moved_deriv(f: Callable, Q: np.ndarray) -> Callable:
    return lambda x: np.asarray(f(x)) @ Q.T


def _moved_oracle(f: FunctionOracle, Q, t) -> FunctionOracle:
    return FunctionOracle(_moved_value(f.value, Q, t), _moved_deriv(f.deriv, Q))


def _moved_target(v, Q, t=None):
    if v is None:
        return None
    return Q @ v if t is None else Q @ v + t


@dataclass
class Problem:
    """One experiment after the seeded rigid motion."""

    spec: experiments.ExperimentSpec
    second: Callable[[np.ndarray], np.ndarray]   # exact u'' for quadrature


def make_problem(name: str, seed: int) -> Problem:
    """The named built-in experiment moved by the rigid motion of ``seed``."""
    spec = experiments.named_experiment(name)
    Q, t = rigid_motion(seed, spec.dim)
    bc = spec.bc
    moved_bc = BoundaryConditions(
        value_a=_moved_target(bc.value_a, Q, t),
        deriv_a=_moved_target(bc.deriv_a, Q),
        value_b=_moved_target(bc.value_b, Q, t),
        deriv_b=_moved_target(bc.deriv_b, Q),
        periodic=bc.periodic)
    ex = spec.exact
    exact = ExactSolution(_moved_oracle(ex.oracle, Q, t), ex.h2_seminorm_sq,
                          ex.multiplier, ex.name)
    moved = spec.override(z0=_moved_oracle(spec.z0, Q, t), exact=exact,
                          bc=moved_bc)
    deriv = exact.oracle.deriv

    def second(x):
        # complex-step derivative of the analytic u': exact to roundoff
        x = np.asarray(x, dtype=float)
        return np.imag(deriv(x + 1j * _COMPLEX_STEP)) / _COMPLEX_STEP

    return Problem(moved, second)
