"""Spline spaces on a 1D mesh: C1 piecewise cubics (nodal value/derivative
degrees of freedom), continuous piecewise quadratics (node + midpoint values),
interpolation operators, and Simpson-lumped products.

DOF layout of a cubic spline curve, used by every assembly routine: node-major,
per node first the d value components, then the d derivative components, i.e.
value (i, c) sits at index 2*d*i + c and derivative (i, c) at 2*d*i + d + c.
Derivative DOFs store physical derivatives (no h-scaling).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .mesh import ConstraintVariant, Mesh1D


@dataclass
class FunctionOracle:
    """Analytic function of one variable with optional derivatives.

    Callables accept an array of points with shape (n,) and return samples
    of shape (n,) for scalar functions or (n, d) for curves.
    """

    value: Callable[[np.ndarray], np.ndarray]
    deriv: Optional[Callable[[np.ndarray], np.ndarray]] = None
    second: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __call__(self, x):
        return self.value(x)


def _samples(f, x, dim):
    """Evaluate a callable at points x and normalize to shape (len(x), dim)."""
    vals = np.asarray(f(np.asarray(x, dtype=float)), dtype=float)
    if vals.ndim == 1:
        vals = vals[:, None]
    if vals.shape != (len(x), dim):
        raise ValueError(f"oracle returned shape {vals.shape}, expected ({len(x)}, {dim})")
    return vals


# Cubic Hermite reference basis on t in [0,1], ordered (value_L, deriv_L,
# value_R, deriv_R).  Derivative-DOF entries must be multiplied by the element
# length h; the k-th x-derivative carries an extra factor h^(-k).
def _hermite_reference(t: np.ndarray, order: int) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if order == 0:
        return np.stack([
            1.0 - 3.0 * t**2 + 2.0 * t**3,
            t - 2.0 * t**2 + t**3,
            3.0 * t**2 - 2.0 * t**3,
            -(t**2) + t**3,
        ])
    if order == 1:
        return np.stack([
            -6.0 * t + 6.0 * t**2,
            1.0 - 4.0 * t + 3.0 * t**2,
            6.0 * t - 6.0 * t**2,
            -2.0 * t + 3.0 * t**2,
        ])
    if order == 2:
        return np.stack([
            -6.0 + 12.0 * t,
            -4.0 + 6.0 * t,
            6.0 - 12.0 * t,
            -2.0 + 6.0 * t,
        ])
    if order == 3:
        one = np.ones_like(t)
        return np.stack([12.0 * one, 6.0 * one, -12.0 * one, 6.0 * one])
    raise ValueError("derivative order must be in 0..3")


def hermite_basis(t: np.ndarray, h: np.ndarray, order: int) -> np.ndarray:
    """Physical Hermite basis (4, n): k-th x-derivative at local coordinates t
    on elements of lengths h."""
    ref = _hermite_reference(t, order)
    h = np.asarray(h, dtype=float)
    scale = np.array([1.0, 0.0, 1.0, 0.0])[:, None] * h ** (-order) \
        + np.array([0.0, 1.0, 0.0, 1.0])[:, None] * h ** (1 - order)
    return ref * scale


# (mass, stiffness) on [0, 1] of the constraint-node spaces, each entry
# rounded once: P2's quadratics at (left, mid, right) and P1's hats.
_CONSTRAINT_GRAMS = {
    ConstraintVariant.P2: (np.array([[4, 2, -1], [2, 16, 2], [-1, 2, 4]]) / 30,
                           np.array([[7, -8, 1], [-8, 16, -8], [1, -8, 7]]) / 3),
    ConstraintVariant.P1: (np.array([[2, 1], [1, 2]]) / 6,
                           np.array([[1.0, -1.0], [-1.0, 1.0]]))}


@dataclass(frozen=True)
class HermiteCurve:
    """Element of the C1 piecewise-cubic space in d components.

    ``values[i]`` and ``derivs[i]`` hold u(x_i) and u'(x_i).
    """

    mesh: Mesh1D
    dim: int
    values: np.ndarray
    derivs: np.ndarray

    def __post_init__(self):
        n = self.mesh.nodes.size
        values = np.ascontiguousarray(self.values, dtype=float).reshape(n, self.dim)
        derivs = np.ascontiguousarray(self.derivs, dtype=float).reshape(n, self.dim)
        values.flags.writeable = False
        derivs.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "derivs", derivs)

    @property
    def dofs(self) -> np.ndarray:
        """Flat DOF vector in the canonical node-major layout."""
        return np.concatenate([self.values, self.derivs], axis=1).ravel()

    @classmethod
    def from_dofs(cls, mesh: Mesh1D, dim: int, dofs: np.ndarray) -> "HermiteCurve":
        n = mesh.nodes.size
        arr = np.asarray(dofs, dtype=float).reshape(n, 2 * dim)
        return cls(mesh, dim, arr[:, :dim], arr[:, dim:])

    def eval(self, x, order: int = 0) -> np.ndarray:
        """Value of the ``order``-th derivative at points x in [a, b].

        Orders 0 and 1 are single-valued everywhere (the spline is C1); for
        orders 2 and 3 the piecewise polynomial jumps at interior nodes and
        the value of the left element is returned there.
        """
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        side = "right" if order <= 1 else "left"
        e = self.mesh.element_of(x_arr, side=side)
        h = self.mesh.element_lengths[e]
        t = (x_arr - self.mesh.nodes[e]) / h
        basis = hermite_basis(t, h, order)  # (4, n)
        local = np.stack([self.values[e], self.derivs[e],
                          self.values[e + 1], self.derivs[e + 1]])  # (4, n, d)
        out = np.einsum("bn,bnd->nd", basis, local)
        if np.ndim(x) == 0:
            return out[0]
        return out

    def derivative_at_constraint_nodes(self, variant: ConstraintVariant) -> np.ndarray:
        """u' at the constraint nodes of the variant, ordered like
        ``Mesh1D.constraint_nodes``; at the midpoints, exactly t = 1/2."""
        h = self.mesh.element_lengths[:, None]
        out = np.empty((2 * self.mesh.num_elements + 1, self.dim))
        out[0::2] = self.derivs
        out[1::2] = (1.5 / h) * (self.values[1:] - self.values[:-1]) \
            - 0.25 * (self.derivs[:-1] + self.derivs[1:])
        return out[::variant.stride]


@dataclass(frozen=True)
class QuadraticField:
    """Continuous piecewise-quadratic field: values at nodes and midpoints.

    ``values[2i]`` sits at node x_i, ``values[2i+1]`` at midpoint m_{i+1};
    a value shared by two elements is stored once.  Its L2 norm is exact,
    from the P2 reference mass of ``_CONSTRAINT_GRAMS``.
    """

    mesh: Mesh1D
    dim: int
    values: np.ndarray

    def __post_init__(self):
        n = 2 * self.mesh.num_elements + 1
        values = np.ascontiguousarray(self.values, dtype=float).reshape(n, self.dim)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def l2_norm_sq(self) -> float:
        """The integral of |v|^2: the sum over elements of h v^T M v."""
        mass = _CONSTRAINT_GRAMS[ConstraintVariant.P2][0]
        local = np.stack([self.values[0:-2:2], self.values[1::2], self.values[2::2]])
        return float(np.dot(self.mesh.element_lengths,
                            np.einsum("aed,ab,bed->e", local, mass, local)))


def interp_hermite(f: FunctionOracle, mesh: Mesh1D, dim: int) -> HermiteCurve:
    """Cubic C1 interpolant: matches f and f' at every node."""
    if f.deriv is None:
        raise ValueError("cubic Hermite interpolation needs a derivative")
    values = _samples(f.value, mesh.nodes, dim)
    derivs = _samples(f.deriv, mesh.nodes, dim)
    return HermiteCurve(mesh, dim, values, derivs)


def _cumulative(start_value, increments: np.ndarray, dim: int) -> np.ndarray:
    """Node values start, start + inc_0, ... summed left to right with
    compensated (Kahan) summation, one component at a time on Python
    floats: the same IEEE arithmetic as on numpy scalars, at a fraction
    of the cost per step."""
    values = np.empty((increments.shape[0] + 1, dim))
    values[0] = np.asarray(start_value, dtype=float).reshape(dim)
    for c in range(dim):
        acc, comp = float(values[0, c]), 0.0
        column = [acc]
        for inc in increments[:, c].tolist():
            y = inc - comp
            s = acc + y
            comp = (s - acc) - y
            acc = s
            column.append(acc)
        values[:, c] = column
    return values


def interp_j3(start_value, fprime, mesh: Mesh1D, dim: int) -> HermiteCurve:
    """Cubic C1 curve with derivative interpolating f' at nodes and midpoints
    and values accumulated by exact integration of that quadratic derivative.

    The node values are cumulative Simpson sums (exact on quadratics), run
    left-to-right with compensated summation; consequently the curve's
    derivative equals f' at every node and midpoint.
    """
    d_nodes = _samples(fprime, mesh.nodes, dim)
    d_mids = _samples(fprime, mesh.midpoints, dim)
    h = mesh.element_lengths[:, None]
    increments = (h / 6.0) * (d_nodes[:-1] + 4.0 * d_mids + d_nodes[1:])

    return HermiteCurve(mesh, dim, _cumulative(start_value, increments, dim),
                        d_nodes)


def interp_j2(start_value, fprime, mesh: Mesh1D, dim: int) -> HermiteCurve:
    """C1 piecewise-quadratic curve: derivative is the piecewise-linear
    interpolant of f', values accumulated by exact trapezoid sums.

    The result is returned in Hermite form (quadratics are cubics); its
    derivative matches f' at the nodes only.
    """
    d_nodes = _samples(fprime, mesh.nodes, dim)
    h = mesh.element_lengths[:, None]
    increments = (h / 2.0) * (d_nodes[:-1] + d_nodes[1:])

    return HermiteCurve(mesh, dim, _cumulative(start_value, increments, dim),
                        d_nodes)


def lumped_weights(mesh: Mesh1D, variant: ConstraintVariant = ConstraintVariant.P2) -> np.ndarray:
    """Integrals of the nodal basis functions over the interval, ordered like
    the constraint nodes.

    P2: Simpson weights (h_i/6 per adjacent element at nodes, 2h_i/3 at
    midpoints); P1: trapezoid weights.  All weights are positive and sum to
    the interval length.
    """
    h = mesh.element_lengths
    if variant is ConstraintVariant.P1:
        w = np.zeros(mesh.num_elements + 1)
        w[:-1] += h / 2.0
        w[1:] += h / 2.0
        return w
    w = np.zeros(2 * mesh.num_elements + 1)
    w[0:-1:2] += h / 6.0
    w[2::2] += h / 6.0
    w[1::2] = 2.0 * h / 3.0
    return w


def lumped_product(f: QuadraticField, g: QuadraticField,
                   variant: ConstraintVariant = ConstraintVariant.P2) -> float:
    """Lumped L2 product: the integral of the nodal interpolant of the
    pointwise dot product f.g.

    P2 amounts to the elementwise Simpson rule on node/midpoint samples, P1
    to the elementwise trapezoid rule on nodal samples.  Symmetric and
    bilinear in f and g.
    """
    if f.mesh is not g.mesh and not np.array_equal(f.mesh.nodes, g.mesh.nodes):
        raise ValueError("lumped product requires fields on the same mesh")
    if f.dim != g.dim:
        raise ValueError("lumped product requires fields of equal dimension")
    prod = np.einsum("nd,nd->n", f.values, g.values)
    return float(np.dot(lumped_weights(f.mesh, variant), prod[::variant.stride]))


def unit_speed_violation(curve: HermiteCurve, variant: ConstraintVariant,
                         tangents: Optional[np.ndarray] = None) -> float:
    """max over the constraint nodes of | |u'(z)|^2 - 1 |; ``tangents``, when
    given, is the curve's ``derivative_at_constraint_nodes(variant)``."""
    d = curve.derivative_at_constraint_nodes(variant) if tangents is None else tangents
    return float(np.abs(np.einsum("nd,nd->n", d, d) - 1.0).max())
