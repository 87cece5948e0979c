"""Error norms against known exact solutions and convergence-order tools."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from .assembly import SystemMatrices
from .splines import FunctionOracle, HermiteCurve, interp_hermite

_CLAMP_WARN = -1e-12  # squared errors below this trigger a cancellation warning


@dataclass
class ExactSolution:
    """A known stationary curve: oracle for u and u', the analytic value of
    the integral of |u''|^2, and (optionally) the multiplier -|u''|^2."""

    oracle: FunctionOracle
    h2_seminorm_sq: float
    multiplier: Optional[Callable[[np.ndarray], np.ndarray]] = None
    name: str = ""


def h2_error(Z: HermiteCurve, exact: ExactSolution,
             matrices: SystemMatrices) -> float:
    """H2 seminorm of u - Z via the identity
    |u - Z|^2 = |u|^2 + |Z|^2 - 2 * (interpolant of u)'' : Z''
    which avoids quadrature of the exact solution.

    The three-term combination cancels almost completely when Z is nearly
    exact; small negative values are clamped at zero and anything below
    -1e-12 is reported as a warning.
    """
    dofs = Z.dofs
    ui = interp_hermite(exact.oracle, Z.mesh, Z.dim).dofs
    zz, zu = matrices.bending_forms(dofs, ui)
    val = exact.h2_seminorm_sq + zz - 2.0 * zu
    if val < _CLAMP_WARN:
        warnings.warn(f"squared H2 error {val:.3e} clamped to zero "
                      "(cancellation below the roundoff budget)")
    return float(np.sqrt(max(val, 0.0)))


def weak_errors(Z: HermiteCurve, exact: ExactSolution,
                matrices: SystemMatrices) -> tuple:
    """(L2 norm, H1 seminorm) of the interpolated error: the cubic C1 curve
    whose nodal values/derivatives are u(x_i) - Z(x_i), u'(x_i) - Z'(x_i)."""
    e = interp_hermite(exact.oracle, Z.mesh, Z.dim).dofs - Z.dofs
    l2 = np.sqrt(max(matrices.quad_mass(e), 0.0))
    h1 = np.sqrt(max(matrices.quad_gradient(e), 0.0))
    return float(l2), float(h1)


def eoc(errors: Sequence[float], hs: Sequence[float]) -> List[float]:
    """Experimental orders of convergence between consecutive rows."""
    if len(errors) != len(hs) or len(errors) < 2:
        raise ValueError("need two or more matching error/h entries")
    errors = np.asarray(errors, dtype=float)
    hs = np.asarray(hs, dtype=float)
    if np.any(errors <= 0.0) or np.any(hs <= 0.0):
        raise ValueError("errors and mesh sizes must be positive")
    return [float(np.log(errors[i] / errors[i + 1]) / np.log(hs[i] / hs[i + 1]))
            for i in range(len(errors) - 1)]


_GAUSS10_T, _GAUSS10_W = np.polynomial.legendre.leggauss(10)


def quadrature_error(curve: HermiteCurve, f_deriv: Callable, order: int
                     ) -> float:
    """L2 norm of (order-th derivative of curve) - f_deriv by 10-point
    composite Gauss quadrature; independent of the Gram-matrix error
    formulas."""
    mesh = curve.mesh
    t = 0.5 * (_GAUSS10_T + 1.0)
    x = (mesh.nodes[:-1, None] + np.outer(mesh.element_lengths, t)).ravel()
    diff = curve.eval(x, order) - np.atleast_2d(
        np.asarray(f_deriv(x), dtype=float)).reshape(x.size, curve.dim)
    sq = np.einsum("nd,nd->n", diff, diff).reshape(mesh.num_elements, t.size)
    per_elem = sq @ (0.5 * _GAUSS10_W)
    return float(np.sqrt(np.dot(mesh.element_lengths, per_elem)))


def linf_error(curve: HermiteCurve, f: Callable) -> float:
    """max |curve - f| over a grid of 30 samples per element."""
    mesh, t = curve.mesh, np.linspace(0.0, 1.0, 30)
    x = np.unique(mesh.nodes[:-1, None] + np.outer(mesh.element_lengths, t))
    diff = curve.eval(x) - np.atleast_2d(
        np.asarray(f(x), dtype=float)).reshape(x.size, curve.dim)
    return float(np.abs(diff).max())
