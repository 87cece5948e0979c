"""Assembly of mass/bending/first-order matrices, bending energy, and the
linearized-constraint matrix including boundary-condition rows."""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .mesh import ConstraintVariant, Mesh1D
from .splines import HermiteCurve, _hermite_reference

_GAUSS4_T, _GAUSS4_W = np.polynomial.legendre.leggauss(4)
# mapped to [0,1]; longdouble so elementwise quadratic forms keep ~19 digits
_QT = (0.5 * (_GAUSS4_T + 1.0)).astype(np.longdouble)
_QW = (0.5 * _GAUSS4_W).astype(np.longdouble)


def _reference_gram(order: int) -> np.ndarray:
    """4x4 reference Gram of the t-derivatives of the Hermite basis,
    exact for the polynomial integrands (degree <= 6 vs 4-point Gauss)."""
    basis = _hermite_reference(_QT.astype(float), order).astype(np.longdouble)
    return np.einsum("q,aq,bq->ab", _QW, basis, basis)


def _element_blocks(mesh: Mesh1D, order: int) -> np.ndarray:
    """(M, 4, 4) longdouble element matrices of the order-th derivative
    product, with the physical h-scaling of value/derivative DOFs applied."""
    gram = _reference_gram(order)
    h = mesh.element_lengths.astype(np.longdouble)
    scale = np.ones((h.size, 4), dtype=np.longdouble)
    scale[:, 1] = h
    scale[:, 3] = h
    blocks = gram[None, :, :] * scale[:, :, None] * scale[:, None, :]
    return blocks * h[:, None, None] ** (1 - 2 * order)


def _local_dofs(mesh: Mesh1D, dim: int, dofs: np.ndarray) -> np.ndarray:
    """(M, 4, dim) per-element DOFs ordered (value_L, deriv_L, value_R, deriv_R)."""
    arr = np.asarray(dofs).reshape(mesh.nodes.size, 2 * dim)
    vals, ders = arr[:, :dim], arr[:, dim:]
    out = np.empty((mesh.num_elements, 4, dim), dtype=arr.dtype)
    out[:, 0] = vals[:-1]
    out[:, 1] = ders[:-1]
    out[:, 2] = vals[1:]
    out[:, 3] = ders[1:]
    return out


@dataclass
class SystemMatrices:
    """Mass, bending, and first-order matrices of the cubic C1 space.

    Sparse float64 matrices feed the linear solvers; the stored longdouble
    element blocks provide matrix-vector products and quadratic forms with
    roundoff far below the stationarity tolerances of the flow tests.
    """

    mesh: Mesh1D
    dim: int
    mass: sp.csr_matrix
    bending: sp.csr_matrix
    gradient: sp.csr_matrix
    _blocks: dict = field(repr=False, default_factory=dict)

    @property
    def num_dofs(self) -> int:
        return 2 * self.dim * self.mesh.nodes.size

    def _quad(self, key: str, u: np.ndarray, v: Optional[np.ndarray] = None) -> float:
        blocks = self._blocks[key]
        ul = _local_dofs(self.mesh, self.dim, np.asarray(u, dtype=np.longdouble))
        vl = ul if v is None else _local_dofs(self.mesh, self.dim,
                                              np.asarray(v, dtype=np.longdouble))
        return float(np.einsum("ead,eab,ebd->", ul, blocks, vl))

    def _apply(self, key: str, u: np.ndarray) -> np.ndarray:
        blocks = self._blocks[key]
        ul = _local_dofs(self.mesh, self.dim, np.asarray(u, dtype=np.longdouble))
        contrib = np.einsum("eab,ebd->ead", blocks, ul)
        n = self.mesh.nodes.size
        out = np.zeros((n, 2 * self.dim), dtype=np.longdouble)
        out[:-1, :self.dim] += contrib[:, 0]
        out[:-1, self.dim:] += contrib[:, 1]
        out[1:, :self.dim] += contrib[:, 2]
        out[1:, self.dim:] += contrib[:, 3]
        return out.ravel().astype(float)

    def apply_bending(self, u: np.ndarray) -> np.ndarray:
        """S @ u, accumulated elementwise in extended precision."""
        return self._apply("bending", u)

    def quad_bending(self, u, v=None) -> float:
        """u^T S v (v defaults to u)."""
        return self._quad("bending", u, v)

    def quad_mass(self, u, v=None) -> float:
        return self._quad("mass", u, v)

    def quad_gradient(self, u, v=None) -> float:
        return self._quad("gradient", u, v)

    def h2_gram(self) -> sp.csr_matrix:
        """Gram matrix of the full H2 norm: mass + gradient + bending."""
        return (self.mass + self.gradient + self.bending).tocsr()

    def h2_norm(self, u: np.ndarray) -> float:
        s = self.quad_mass(u) + self.quad_gradient(u) + self.quad_bending(u)
        return float(np.sqrt(max(s, 0.0)))


def assemble_matrices(mesh: Mesh1D, dim: int) -> SystemMatrices:
    """Assemble the three system matrices with elementwise Gauss quadrature
    that is exact for the polynomial integrands; results are symmetrized."""
    n_scalar = 2 * mesh.nodes.size
    e = np.arange(mesh.num_elements)
    local = np.stack([2 * e, 2 * e + 1, 2 * e + 2, 2 * e + 3], axis=1)  # (M, 4)
    rows = np.repeat(local, 4, axis=1).ravel()
    cols = np.tile(local, (1, 4)).ravel()

    mats = {}
    blocks = {}
    for key, order in (("mass", 0), ("gradient", 1), ("bending", 2)):
        blk = _element_blocks(mesh, order)
        blocks[key] = blk
        a = sp.coo_matrix((blk.astype(float).ravel(), (rows, cols)),
                          shape=(n_scalar, n_scalar)).tocsr()
        a = 0.5 * (a + a.T)
        if dim > 1:
            a = sp.kron(a, sp.eye(dim), format="csr")
        mats[key] = a.tocsr()
    return SystemMatrices(mesh, dim, mats["mass"], mats["bending"],
                          mats["gradient"], blocks)


def bending_energy(curve: HermiteCurve, matrices: SystemMatrices) -> float:
    """One half of the integral of |u''|^2; zero exactly for affine curves."""
    return 0.5 * matrices.quad_bending(curve.dofs)


@dataclass
class BoundaryConditions:
    """Essential conditions at the interval endpoints.

    Each target is a d-vector or None (free).  Targets are only used to
    validate the initial curve of a flow; the flow itself constrains all
    increments at fixed DOFs to zero, so targets never enter a right-hand
    side.  ``periodic`` ties the two endpoints together instead and excludes
    endpoint fixing.
    """

    value_a: Optional[np.ndarray] = None
    deriv_a: Optional[np.ndarray] = None
    value_b: Optional[np.ndarray] = None
    deriv_b: Optional[np.ndarray] = None
    periodic: bool = False

    def __post_init__(self):
        for name in ("value_a", "deriv_a", "value_b", "deriv_b"):
            v = getattr(self, name)
            if v is not None:
                setattr(self, name, np.asarray(v, dtype=float).ravel())
        if self.periodic and any(getattr(self, n) is not None for n in
                                 ("value_a", "deriv_a", "value_b", "deriv_b")):
            raise ValueError("periodic boundary conditions exclude endpoint fixing")

    @classmethod
    def free(cls) -> "BoundaryConditions":
        return cls()

    @classmethod
    def clamped(cls, value_a, deriv_a, value_b, deriv_b) -> "BoundaryConditions":
        return cls(value_a=value_a, deriv_a=deriv_a, value_b=value_b, deriv_b=deriv_b)

    def fixed_dof_indices(self, mesh: Mesh1D, dim: int) -> np.ndarray:
        """Indices of DOFs pinned by endpoint conditions (empty if periodic)."""
        last = 2 * dim * (mesh.nodes.size - 1)
        idx = []
        if self.value_a is not None:
            idx.extend(range(0, dim))
        if self.deriv_a is not None:
            idx.extend(range(dim, 2 * dim))
        if self.value_b is not None:
            idx.extend(range(last, last + dim))
        if self.deriv_b is not None:
            idx.extend(range(last + dim, last + 2 * dim))
        return np.array(sorted(idx), dtype=int)

    def validate_initial(self, curve: HermiteCurve) -> None:
        """Check the initial curve against the targets.

        The cumulative-integral initializer reproduces endpoint values at b
        only up to O(h^4), so the value check there carries an h^4 allowance.
        """
        tol = 1e-8
        h = curve.mesh.h
        drift = max(tol, 100.0 * h**4 * (curve.mesh.b - curve.mesh.a))
        checks = [
            ("value_a", curve.values[0], self.value_a, tol),
            ("deriv_a", curve.derivs[0], self.deriv_a, tol),
            ("value_b", curve.values[-1], self.value_b, drift),
            ("deriv_b", curve.derivs[-1], self.deriv_b, tol),
        ]
        for name, got, want, t in checks:
            if want is None:
                continue
            err = float(np.abs(got - want).max())
            if err > t:
                raise ValueError(
                    f"initial curve violates boundary target {name}: |error| = {err:.3e}")


@dataclass
class ConstraintMatrix:
    """Rows of the linearized constraint Y'(z) . t(z) = 0 at the constraint
    nodes, followed by homogeneous boundary-condition rows.

    A tangential row at an endpoint whose derivative is fully fixed (or tied
    by periodicity) is redundant and dropped so the saddle-point matrix stays
    nonsingular.  ``tangent_nodes`` records which constraint-node indices
    kept their row.
    """

    matrix: sp.csr_matrix
    tangent_nodes: np.ndarray
    num_bc_rows: int

    @property
    def num_rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def num_tangent_rows(self) -> int:
        return self.num_rows - self.num_bc_rows


@dataclass(frozen=True, eq=False)
class ConstraintPattern:
    """Fixed CSR structure of constraint rows on one (mesh, dim, variant, BC).

    Tangential rows at the constraint nodes ``tangent_nodes`` come first:
    their entry k holds ``coef[k] * t.ravel()[tangent[k]]``, with t the
    (num constraint nodes, dim) tangents of the current curve.  The
    ``num_bc_rows`` boundary rows after them are constant and stored in
    ``template``, whose column indices are ascending within each row.
    """

    template: sp.csr_matrix
    coef: np.ndarray
    tangent: np.ndarray
    tangent_nodes: np.ndarray
    num_bc_rows: int

    def fill(self, tangents: np.ndarray,
             weights: Optional[np.ndarray] = None) -> sp.csr_matrix:
        """The rows for the given tangents, optionally scaling row z by
        ``weights[z]``; each call returns a matrix with its own data."""
        t = tangents if weights is None else tangents * weights[:, None]
        data = self.template.data.copy()
        np.multiply(self.coef, t.ravel()[self.tangent],
                    out=data[:self.coef.size])
        # a shallow copy shares the index arrays and skips the format checks
        # of the csr constructor, which cost more than the fill itself
        matrix = copy.copy(self.template)
        matrix.data = data
        return matrix


def tangential_stencil(mesh: Mesh1D, dim: int, variant: ConstraintVariant,
                       keep: np.ndarray):
    """Entries of the rows Y -> Y'(z) . t(z) at the constraint nodes
    ``keep``, row by row with ascending columns: (indptr, indices, coef,
    tangent).  Entry k is ``coef[k] * t.ravel()[tangent[k]]`` for tangents
    t of shape (num constraint nodes, dim), so ``tangent[k]`` is also the
    row of component ``tangent[k] % dim`` at constraint node
    ``tangent[k] // dim``."""
    is_node = np.ones(keep.size, dtype=bool) if variant is ConstraintVariant.P1 \
        else keep % 2 == 0
    indptr = np.concatenate(
        [[0], np.cumsum(np.where(is_node, dim, 4 * dim))]).astype(np.int32)
    indices = np.empty(indptr[-1], dtype=np.int32)
    coef = np.empty(indptr[-1])
    tangent = np.empty(indptr[-1], dtype=np.intp)
    comp = np.arange(dim)
    starts = indptr[:-1]

    # node rows: Y'(x_i) is the derivative DOF block of node i
    z = keep[is_node]
    node = z if variant is ConstraintVariant.P1 else z // 2
    pos = starts[is_node, None] + comp
    indices[pos] = 2 * dim * node[:, None] + dim + comp
    coef[pos] = 1.0
    tangent[pos] = dim * z[:, None] + comp

    if variant is ConstraintVariant.P2:
        z = keep[~is_node]
        elem = (z - 1) // 2
        h = mesh.element_lengths[elem]
        local = np.arange(4 * dim)
        pos = starts[~is_node, None] + local
        # Y'(m_i) = (3/2h)(v_R - v_L) - (1/4)(d_L + d_R), per component; the
        # element's DOFs (v_L, d_L, v_R, d_R) are contiguous
        indices[pos] = 2 * dim * elem[:, None] + local
        quarter = np.full(h.size, -0.25)
        coef[pos] = np.repeat(np.stack([-1.5 / h, quarter, 1.5 / h, quarter],
                                       axis=1), dim, axis=1)
        tangent[pos] = dim * z[:, None] + np.tile(comp, 4)
    return indptr, indices, coef, tangent


def _pattern(mesh: Mesh1D, dim: int, variant: ConstraintVariant,
             keep: np.ndarray, bc_rows=()) -> ConstraintPattern:
    """Tangential rows at the constraint nodes ``keep``, then the boundary
    rows ``bc_rows``, each a tuple of (ascending columns, values)."""
    indptr, indices, coef, tangent = tangential_stencil(mesh, dim, variant,
                                                        keep)
    bc_counts = np.cumsum([len(cols) for cols, _ in bc_rows], dtype=int)
    indptr = np.concatenate([indptr, indptr[-1] + bc_counts]).astype(np.int32)
    indices = np.concatenate(
        [indices, [c for cols, _ in bc_rows for c in cols]]).astype(np.int32)
    data = np.concatenate([np.zeros(coef.size),
                           [v for _, vals in bc_rows for v in vals]])
    template = sp.csr_matrix((data, indices, indptr),
                             shape=(keep.size + len(bc_rows),
                                    2 * dim * mesh.nodes.size))
    return ConstraintPattern(template, coef, tangent, keep, len(bc_rows))


def constraint_pattern(mesh: Mesh1D, dim: int, variant: ConstraintVariant,
                       bc: BoundaryConditions) -> ConstraintPattern:
    """Structure of ``assemble_constraint``'s matrix: the tangential rows
    that survive the boundary conditions, then one homogeneous row per
    fixed DOF (or per periodic tie)."""
    nz = mesh.constraint_nodes(variant).size
    drop = set()
    if bc.deriv_a is not None:
        drop.add(0)
    if bc.deriv_b is not None or bc.periodic:
        drop.add(nz - 1)
    keep = np.array([i for i in range(nz) if i not in drop], dtype=int)

    last = 2 * dim * (mesh.nodes.size - 1)
    if bc.periodic:
        # value rows then derivative rows
        bc_rows = [((block + c, last + block + c), (1.0, -1.0))
                   for block in (0, dim) for c in range(dim)]
    else:
        bc_rows = [((base + c,), (1.0,))
                   for target, base in ((bc.value_a, 0), (bc.deriv_a, dim),
                                        (bc.value_b, last),
                                        (bc.deriv_b, last + dim))
                   if target is not None for c in range(dim)]
    return _pattern(mesh, dim, variant, keep, bc_rows)


def tangential_rows(Zn: HermiteCurve, variant: ConstraintVariant,
                    keep: Optional[np.ndarray] = None,
                    weights: Optional[np.ndarray] = None) -> sp.csr_matrix:
    """Sparse rows mapping a DOF vector Y to (Y'(z) . t(z))_z with
    t = Zn' at the constraint nodes ``keep`` (default: all).

    ``weights`` optionally scales row z by a positive factor (used for the
    lumped saddle-point form); scaling does not change the kernel.
    """
    tangents = Zn.derivative_at_constraint_nodes(variant)
    if keep is None:
        keep = np.arange(tangents.shape[0])
    return _pattern(Zn.mesh, Zn.dim, variant, keep).fill(tangents, weights)


def assemble_constraint(Zn: HermiteCurve, variant: ConstraintVariant,
                        bc: BoundaryConditions,
                        pattern: Optional[ConstraintPattern] = None
                        ) -> ConstraintMatrix:
    """Constraint matrix of one flow step: tangential rows at the constraint
    nodes of ``variant`` plus homogeneous boundary rows.  The right-hand side
    of these rows is always zero.

    ``pattern``, when given, must be ``constraint_pattern`` of the same
    mesh, dim, variant and conditions; a flow builds it once per run.
    """
    if pattern is None:
        pattern = constraint_pattern(Zn.mesh, Zn.dim, variant, bc)
    return ConstraintMatrix(
        matrix=pattern.fill(Zn.derivative_at_constraint_nodes(variant)),
        tangent_nodes=pattern.tangent_nodes, num_bc_rows=pattern.num_bc_rows)
