"""Assembly of the mass/bending/first-order bands and the bending energy;
the constraint derivative map D as its stencil table, the boundary-condition
restriction P as an index map and the rows T(Z) D P on the reduced DOFs."""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .mesh import ConstraintVariant, Mesh1D
from .splines import HermiteCurve, QuadraticField, _hermite_reference

_GAUSS4_T, _GAUSS4_W = np.polynomial.legendre.leggauss(4)
# mapped to [0,1]; longdouble for the element matrices (see _element_blocks)
_QT = (0.5 * (_GAUSS4_T + 1.0)).astype(np.longdouble)
_QW = (0.5 * _GAUSS4_W).astype(np.longdouble)
_REFERENCE_GRAMS = [(b * _QW) @ b.T for b in (   # of each derivative order
    _hermite_reference(_QT.astype(float), k).astype(np.longdouble)
    for k in range(3))]


def _element_blocks(mesh: Mesh1D, order: int) -> np.ndarray:
    """(M, 4, 4) longdouble element matrices of the order-th derivative
    product, with the physical h-scaling of value/derivative DOFs applied.
    4-point Gauss is exact for these integrands (degree <= 6), but its nodes
    and the basis values are float64 and only the sums longdouble: the
    reference Grams are within 8.0e-16 (bending) to 9.4e-16 (mass),
    relative, of their rational entries.

    They only build the CSR matrices, unsymmetrized; ``assemble_matrices``
    casts them to float64 and symmetrizes their sum.  In longdouble, entries
    that are 0 in exact arithmetic round to exact zeros (bending on the
    circle at M=5, d=1: 8 of the 64 entries the elements couple, none if
    built in float64); the CSR pattern keeps them, as zeros."""
    h = mesh.element_lengths.astype(np.longdouble)
    scale = np.where([False, True, False, True], h[:, None], 1.0)
    blocks = _REFERENCE_GRAMS[order] * scale[:, :, None] * scale[:, None, :]
    return blocks * h[:, None, None] ** (1 - 2 * order)


def _csr(data, indices, indptr, shape) -> sp.csr_matrix:
    """One CSR construction, its index arrays int32 as scipy picks them."""
    return sp.csr_matrix((data, np.asarray(indices, dtype=np.int32),
                          np.asarray(indptr, dtype=np.int32)), shape=shape)


@dataclass
class SystemMatrices:
    """Mass, bending, and first-order matrices of the cubic C1 space as
    scalar bands; ``combine`` makes the CSR of a sum for the solvers.

    The float64 CSR ``mass`` feeds the mass form, whose entries do not
    cancel.  The other forms come from derivatives of u, not from the
    cancelling O(1/h^k) entries: H1 from u' at the P2 constraint nodes,
    bending and S @ u from u'' at the element ends in longdouble.
    """

    mesh: Mesh1D
    dim: int
    mass: sp.csr_matrix
    bands: np.ndarray = field(repr=False)   # scalar bands of M, G and S
    _cache: dict = field(repr=False, default_factory=dict)

    def _bending_scales(self):
        """Per element: the rows of a and b over (delta, d_L, d_R), 1/h, h/3."""
        def build():
            h = self.mesh.element_lengths.astype(np.longdouble)[:, None]
            rows = np.hstack([1.0 / h**2, 1.0 / h, 1.0 / h])[:, None, :]
            return np.array([[6, -4, -2], [-6, 2, 4]]) * rows, 1.0 / h, h / 3.0
        return self.cached("bending_scales", build)

    def _curvature_ends(self, u: np.ndarray):
        """(a, b): u'' at the left and right end of every element, (..., M,
        dim) longdouble each for stacked DOF vectors: a = 6 delta/h^2 - (4 d_L
        + 2 d_R)/h, b = -6 delta/h^2 + (2 d_L + 4 d_R)/h, delta = v_R - v_L.
        Their O(1/h) terms cancel here, not as 12/h^3 terms of the blocks."""
        u = np.asarray(u, dtype=np.longdouble)
        w = u.reshape(u.shape[:-1] + (self.mesh.nodes.size, 2, self.dim))
        x = np.concatenate([w[..., 1:, :1, :] - w[..., :-1, :1, :],   # delta
                            w[..., :-1, 1:, :], w[..., 1:, 1:, :]], axis=-2)
        ends = self._bending_scales()[0] @ x
        return ends[..., 0, :], ends[..., 1, :]

    def _bending_load(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """S @ u: -+(a - b)/h on the value rows, -a and +b on the derivative rows."""
        shear = self._bending_scales()[1] * (a - b)
        out = np.zeros((self.mesh.nodes.size, 2, self.dim), dtype=np.longdouble)
        out[1:, 0], out[1:, 1] = shear, b
        out[:-1, 0] -= shear
        out[:-1, 1] -= a
        return out.ravel().astype(float)

    def apply_bending(self, u: np.ndarray) -> np.ndarray:
        """S @ u, from u'' at the element ends in extended precision."""
        return self._bending_load(*self._curvature_ends(u))

    def quad_bending(self, u, v=None) -> float:
        """u^T S v (v defaults to u): the sum of h/3 (a c + (a e + b c)/2
        + b e) over elements, (a, b) and (c, e) the end values of u'', v''."""
        h3 = self._bending_scales()[2]
        if v is None:
            a, b = self._curvature_ends(u)
            return float(np.sum(h3 * (a * a + a * b + b * b)))
        (a, c), (b, e) = self._curvature_ends(np.stack([u, v]))
        return float(np.sum(h3 * (a * c + 0.5 * (a * e + b * c) + b * e)))

    def quad_mass(self, u) -> float:
        return float(u @ (self.mass @ u))

    def quad_gradient(self, u) -> float:
        """The integral of |u'|^2, exact from the quadratic u' at the P2
        constraint nodes; u^T G u would sum G's cancelling O(1/h) entries."""
        d = HermiteCurve.from_dofs(self.mesh, self.dim, u) \
            .derivative_at_constraint_nodes(ConstraintVariant.P2)
        return QuadraticField(self.mesh, self.dim, d).l2_norm_sq()

    def step_forms(self, v: np.ndarray, z: np.ndarray):
        """(v^T M v, v^T S v, z^T S z / 2, S @ z) in one pass over the pair:
        a flow step's velocity forms, new energy and next right-hand side."""
        a, b = self._curvature_ends(np.stack([v, z]))
        sq = np.sum(self._bending_scales()[2] * (a * a + a * b + b * b),
                    axis=(1, 2))
        return (float(v @ (self.mass @ v)), float(sq[0]), 0.5 * float(sq[1]),
                self._bending_load(a[1], b[1]))

    def cached(self, key, build):
        """``build()``, called on the first use of ``key`` and kept with
        these matrices; for maps that depend only on the mesh and dim."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def derivative_map(self, variant: ConstraintVariant):
        """``derivative_map`` of this mesh and dim, built on first use."""
        return self.cached(variant, lambda: derivative_map(self.mesh, self.dim,
                                                          variant))

    def combine(self, dim: Optional[int] = None, **coefs: float) -> sp.csr_matrix:
        """c1 * m1 + ... of the named matrices on their bands, as scipy sums;
        for ``dim`` components (1: the scalar matrix), by default ``self.dim``."""
        total = sum(c * self.bands[("mass", "gradient", "bending").index(name)]
                    for name, c in coefs.items())
        return _band_csr(total, dim or self.dim)

    def h2_norm(self, u: np.ndarray) -> float:
        s = self.quad_mass(u) + self.quad_gradient(u) + self.quad_bending(u)
        return float(np.sqrt(max(s, 0.0)))


def assemble_matrices(mesh: Mesh1D, dim: int) -> SystemMatrices:
    """Assemble the three system matrices with elementwise Gauss quadrature
    that is exact for the polynomial integrands, as symmetrized bands.

    The float64 element blocks of the three orders, stacked, are summed
    into 7-diagonal scalar bands A (band[i, k] = A[i, i + k - 3]) and
    symmetrized as 0.5 (A + A^T); ``_band_csr`` expands the mass alone:
    COO assembly, 0.5 (A + A^T) and (x) I bit for bit, exact zeros kept."""
    n, m = 2 * mesh.nodes.size, mesh.num_elements
    blk = np.stack([_element_blocks(mesh, o) for o in range(3)]).astype(float)
    band = np.zeros((3, n + 6, 7))                     # 3 zero rows each side
    # row a of element e's block: scalar row 2e + a, columns 2e..2e+3; an
    # entry gets at most two terms, whose sum does not depend on order
    for a in range(4):
        band[:, 3 + a:3 + a + 2 * m:2, 3 - a:7 - a] += blk[:, :, a]
    # (A^T)[i, k] = A[i + k - 3, 6 - k]
    half = 0.5 * (band[:, 3:-3] + np.stack([band[:, k:k + n, 6 - k]
                                            for k in range(7)], axis=2))
    return SystemMatrices(mesh, dim, _band_csr(half[0], dim), half)


def _band_csr(band: np.ndarray, dim: int) -> sp.csr_matrix:
    """One CSR construction of band[i, k] = A[i, i+k-3] (x) I_dim on every
    entry that an element couples, zero or not: row i's columns 2 (i//2) - 2
    + t, t < 6, within the matrix (4 in the first and last two rows)."""
    n = band.shape[0]
    i = np.arange(n)[:, None, None]
    j = np.repeat(i // 2 * 2 - 2 + np.arange(6), dim, axis=1)    # (n, dim, 6)
    keep, lengths = (j >= 0) & (j < n), np.where((i < 2) | (i >= n - 2), 4, 6)
    indptr = np.append(0, np.cumsum(np.repeat(lengths, dim)))
    at, cols = (6 * i + j + 3)[keep], (dim * j + np.arange(dim)[:, None])[keep]
    return _csr(band.ravel()[at], cols, indptr, (dim * n,) * 2)


def csr_pattern(rows: np.ndarray, cols: np.ndarray, shape):
    """(indptr, indices, slot) of entries (rows, cols) as ``np.unique(rows *
    shape[1] + cols, return_inverse=True)`` gives them; entries in CSR order
    already (all but those periodic ends tie) skip the sort."""
    key = rows * shape[1] + cols
    if np.all(key[1:] > key[:-1]):
        return (np.searchsorted(rows, np.arange(shape[0] + 1)), cols,
                np.arange(key.size))
    order = np.argsort(key, kind="stable")     # linear on presorted runs
    first = np.append(True, np.diff(key[order]) != 0)   # first of each key
    slot = np.empty_like(order)
    slot[order] = np.cumsum(first) - 1
    kept = order[first]
    return np.searchsorted(rows[kept], np.arange(shape[0] + 1)), cols[kept], slot


def derivative_map(mesh: Mesh1D, dim: int, variant: ConstraintVariant):
    """The constant map D from curve DOFs Y to the derivative components
    Y'(z)_c at the constraint nodes z of ``variant``, as its stencil table
    (cols, vals), each (nodes, dim, 4): D's row dim*z + c has vals[z, c] at
    the ascending cols[z, c]; a mesh node's row has zeros in slots 1 to 3.

    Evaluations keep ``HermiteCurve``'s differenced stencil, not ``D @ dofs``,
    which sums the cancelling +-1.5/h terms one by one and so differs from it
    by up to 1.6e-15 at M=20 and 1.5e-13 at M=1280 (oval-h2, j3 curve)."""
    m, comp = mesh.num_elements, np.arange(dim)
    # (constraint node, component, entry); unused entries stay 0
    cols = np.zeros((2 * m + 1, dim, 4), dtype=np.intp)
    vals = np.zeros(cols.shape)
    # at node i, constraint node 2i: the derivative DOF of node i
    cols[::2, :, 0] = 2 * dim * np.arange(m + 1)[:, None] + dim + comp
    vals[::2, :, 0] = 1.0
    # at the midpoint of element e, constraint node 2e+1: (3/2h)(v_R - v_L)
    # - (1/4)(d_L + d_R) on its DOFs (v_L, d_L, v_R, d_R), dim apart
    cols[1::2] = 2 * dim * np.arange(m)[:, None, None] + comp[:, None] \
        + dim * np.arange(4)
    h = mesh.element_lengths[:, None, None]
    quarter = np.full(h.shape, -0.25)
    vals[1::2] = np.concatenate([-1.5 / h, quarter, 1.5 / h, quarter], axis=2)
    return cols[::variant.stride], vals[::variant.stride]


TARGETS = ("value_a", "deriv_a", "value_b", "deriv_b")


@dataclass
class BoundaryConditions:
    """Essential conditions at the interval endpoints.

    Each target is a d-vector or None (free).  Targets are only used to
    validate the initial curve of a flow; solvers work on the reduced DOFs
    of ``restriction``, so increments at fixed DOFs are zero and targets
    never enter a right-hand side.  ``periodic`` ties the two endpoints
    together instead and excludes endpoint fixing.
    """

    value_a: Optional[np.ndarray] = None
    deriv_a: Optional[np.ndarray] = None
    value_b: Optional[np.ndarray] = None
    deriv_b: Optional[np.ndarray] = None
    periodic: bool = False

    def __post_init__(self):
        for name in TARGETS:
            v = getattr(self, name)
            if v is not None:
                setattr(self, name, np.asarray(v, dtype=float).ravel())
        if self.periodic and any(getattr(self, n) is not None
                                 for n in TARGETS):
            raise ValueError("periodic boundary conditions exclude endpoint fixing")

    @classmethod
    def free(cls) -> "BoundaryConditions":
        return cls()

    @classmethod
    def clamped(cls, value_a, deriv_a, value_b, deriv_b) -> "BoundaryConditions":
        return cls(value_a=value_a, deriv_a=deriv_a, value_b=value_b, deriv_b=deriv_b)

    def check_dim(self, dim: int) -> None:
        """Raise ValueError unless every target has ``dim`` components."""
        for name in TARGETS:
            v = getattr(self, name)
            if v is not None and v.size != dim:
                raise ValueError(f"{name} needs {dim} components, got {v.size}")

    def restriction(self, mesh: Mesh1D, dim: int, full: bool = False):
        """The map P from k reduced DOFs to the full DOFs, as (columns, k):
        ``columns[i]`` is full DOF i's reduced DOF, k where it is fixed, so
        P v_r = append(v_r, 0)[columns] is exactly 0 there.

        This is where the conditions become linear algebra.  With periodic
        ends the last node's DOFs take node 0's reduced DOFs, so the two
        ends are tied exactly.  Every other DOF is a reduced DOF of its own,
        in the full order.  With ``full``, each keeps the number of its own
        full DOF, and k is the number of full DOFs.
        """
        self.check_dim(dim)
        n = 2 * dim * mesh.nodes.size
        last = n - 2 * dim
        # the full DOF whose reduced DOF each DOF takes; -1 when fixed
        source = np.arange(n)
        for name, base in zip(TARGETS, (0, dim, last, last + dim)):
            if getattr(self, name) is not None:
                source[base:base + dim] = -1
        if self.periodic:
            source[last:] = np.arange(2 * dim)
        reduced = np.flatnonzero(source == np.arange(n))
        k = n if full else reduced.size
        columns = source if full else np.searchsorted(reduced, source)
        return np.where(source >= 0, columns, k), k

    def validate_initial(self, curve: HermiteCurve) -> None:
        """Check the initial curve against the targets.

        The cumulative-integral initializer reproduces endpoint values at b
        only up to O(h^4), so the value check there carries an h^4 allowance.
        """
        self.check_dim(curve.dim)
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


@dataclass(frozen=True, eq=False)
class ConstraintPattern:
    """Fixed CSR structure of the tangential rows T(Z) D P on the ``size``
    reduced DOFs of one (mesh, dim, variant, BC).

    Row r belongs to constraint node ``rows[r]``.  Entry k of the matrix
    holds ``coef[k] * t.ravel()[tangent[k]]``, with t the (num constraint
    nodes, dim) tangents of the current curve, so ``tangent[k]`` is also
    the row of D the entry comes from.  ``template`` holds the structure
    with ascending, unique column indices in every row.  (``columns``,
    ``size``) is the P of ``BoundaryConditions.restriction``."""

    template: sp.csr_matrix
    coef: np.ndarray
    tangent: np.ndarray
    rows: np.ndarray
    columns: np.ndarray
    size: int

    def fill(self, tangents: np.ndarray,
             weights: Optional[np.ndarray] = None) -> sp.csr_matrix:
        """The rows for the given tangents, optionally scaling the row of
        constraint node z by ``weights[z]``; each call returns a matrix with
        its own data."""
        t = tangents if weights is None else tangents * weights[:, None]
        # a shallow copy shares the index arrays and skips the format checks
        # of the csr constructor, which cost more than the fill itself
        matrix = copy.copy(self.template)
        matrix.data = self.coef * t.ravel()[self.tangent]
        return matrix

    def restrict(self, A: sp.csr_matrix, dim: int = 1) -> sp.csr_matrix:
        """P^T A P in canonical CSR form, and A's diagonal entry in each empty
        column of a square P; entries that cancel stay as explicit zeros, so
        A's pattern alone sets the result's; ties sum in A's order.
        With ``dim``, A is the scalar matrix of a (x) I_dim, and so is the
        result."""
        k, c = self.size // dim, self.columns[::dim] // dim
        rows, cols = np.repeat(c, np.diff(A.indptr)), c[A.indices]
        kept = np.maximum(rows, cols) < k
        indptr, indices, slot = csr_pattern(rows[kept], cols[kept], (k, k))
        data = np.bincount(slot, A.data[kept], indices.size).astype(float)
        # an empty column's row is empty too; its diagonal entry goes there
        gone = np.flatnonzero(np.bincount(c, minlength=k + 1)[:k] == 0)
        if gone.size:
            data, indices = (np.insert(x, indptr[gone], y) for x, y in (
                (data, A.diagonal()[gone]), (indices, gone)))
            indptr = indptr + np.searchsorted(gone, np.arange(k + 1))
        return _csr(data, indices, indptr, (k, k))


def constraint_pattern(D, P, dim: int, variant: ConstraintVariant,
                       rows: Optional[np.ndarray] = None) -> ConstraintPattern:
    """Structure of the rows of T(Z) D P at the constraint nodes ``rows``,
    for D of ``derivative_map`` and P of ``BoundaryConditions.restriction``.

    By default every constraint node has a row, except a mesh node whose
    derivative DOFs are not their own reduced DOFs (fixed, or tied to node
    0's): its row would vanish or repeat another.  Bit for bit D @ P's rows.
    """
    columns, k = P
    if rows is None:
        # the DOF that owns a column is its first row
        first, dof = np.full(k + 1, columns.size), np.arange(columns.size)
        np.minimum.at(first, columns, dof)
        own = (first[columns] == dof) & (columns < k)
        # over the P2 sequence, whose even entries are the mesh nodes
        keep = np.ones(columns.size // dim - 1, dtype=bool)
        keep[::2] = own.reshape(-1, 2, dim)[:, 1].all(axis=1)
        rows = np.flatnonzero(keep[::variant.stride])
    # node rows[r]'s D rows: dim x 4 slots, the used ones read 4 x dim
    d_cols, d_vals = (x[rows].transpose(0, 2, 1) for x in D)
    r, a, c = np.nonzero(d_vals)
    cols = columns[d_cols[r, a, c]]
    kept = cols < k
    # the columns that periodic ties merge sum, as in D P
    indptr, indices, slot = csr_pattern(r[kept], cols[kept], (rows.size, k))
    coef = np.bincount(slot, d_vals[r, a, c][kept], indices.size).astype(float)
    tangent = np.empty(indices.size, dtype=np.intp)
    tangent[slot] = (dim * rows[r] + c)[kept]
    nz = coef != 0      # D P drops the sums that cancel (periodic, M = 1)
    indptr = np.append(0, np.cumsum(nz))[indptr]
    indices, coef, tangent = indices[nz], coef[nz], tangent[nz]
    template = _csr(np.zeros(indices.size), indices, indptr, (rows.size, k))
    return ConstraintPattern(template, coef, tangent, rows, columns, k)


def assemble_constraint(Zn: HermiteCurve, variant: ConstraintVariant,
                        bc: BoundaryConditions,
                        pattern: Optional[ConstraintPattern] = None
                        ) -> sp.csr_matrix:
    """Constraint rows of one flow step on the reduced DOFs: the tangential
    rows T(Zn) D P of ``constraint_pattern``, with a zero right-hand side.
    ``pattern``, when given, must be a ``constraint_pattern`` of the same
    mesh, dim and variant over a restriction of these conditions (full or
    not), whose columns it sets; ``flow.StepStructure`` holds one."""
    if pattern is None:
        pattern = constraint_pattern(
            derivative_map(Zn.mesh, Zn.dim, variant),
            bc.restriction(Zn.mesh, Zn.dim), Zn.dim, variant)
    return pattern.fill(Zn.derivative_at_constraint_nodes(variant))
