from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial
from numpy.testing import assert_allclose

from elastica_fem import (BoundaryConditions, ConstraintVariant, FlowConfig,
                          FunctionOracle, HermiteCurve, Mesh1D,
                          assemble_constraint, assemble_matrices, interp_j3,
                          run)
from elastica_fem.assembly import (_element_blocks, constraint_pattern,
                                   derivative_map)
from elastica_fem.experiments import (HELIX_FREQ, circle_initial,
                                      helix_initial, named_experiment)
from elastica_fem.splines import interp_hermite
from elastica_fem.stationary import make_interpolant_pair

from conftest import (bending_matrix, derivative_matrix, element_pattern,
                      random_graded_mesh, restriction_matrix)

P1, P2 = ConstraintVariant.P1, ConstraintVariant.P2

# reference Hermite basis on [0,1] as exact polynomial algebra; this oracle is
# independent of the Gauss quadrature used in assembly
HERMITE_POLYS = [
    Polynomial([1.0, 0.0, -3.0, 2.0]),
    Polynomial([0.0, 1.0, -2.0, 1.0]),
    Polynomial([0.0, 0.0, 3.0, -2.0]),
    Polynomial([0.0, 0.0, -1.0, 1.0]),
]


def element_matrix_oracle(h: float, order: int) -> np.ndarray:
    out = np.empty((4, 4))
    for a in range(4):
        for b in range(4):
            pa = HERMITE_POLYS[a].deriv(order) if order else HERMITE_POLYS[a]
            pb = HERMITE_POLYS[b].deriv(order) if order else HERMITE_POLYS[b]
            integral = (pa * pb).integ()
            val = integral(1.0) - integral(0.0)
            scale_a = h if a in (1, 3) else 1.0
            scale_b = h if b in (1, 3) else 1.0
            out[a, b] = val * scale_a * scale_b * h ** (1 - 2 * order)
    return out


class TestSystemMatrices:
    def test_single_element_bending_against_oracle(self):
        mesh = Mesh1D.uniform(0.0, 1.0, 1)
        mats = assemble_matrices(mesh, 1)
        S = bending_matrix(mats).toarray()
        assert S[0, 0] == pytest.approx(12.0, abs=1e-12)
        assert_allclose(S, element_matrix_oracle(1.0, 2), atol=1e-12)

    @pytest.mark.parametrize("order,key", [(0, "mass"), (1, "gradient"),
                                           (2, "bending")])
    def test_element_blocks_random_mesh(self, rng, order, key):
        mesh = random_graded_mesh(rng, max_elements=6)
        mats = assemble_matrices(mesh, 1)
        full = mats.combine(**{key: 1.0}).toarray()
        # accumulate the oracle the same way assembly does
        n = 2 * mesh.nodes.size
        expect = np.zeros((n, n))
        for e, h in enumerate(mesh.element_lengths):
            idx = np.arange(2 * e, 2 * e + 4)
            expect[np.ix_(idx, idx)] += element_matrix_oracle(h, order)
        assert_allclose(full, expect, atol=1e-11 * max(1.0, np.abs(expect).max()))

    def test_mass_total(self):
        mesh = Mesh1D(np.array([0.0, 0.4, 1.1, 3.0]))
        mats = assemble_matrices(mesh, 2)
        ones = HermiteCurve(mesh, 2, np.ones((4, 2)), np.zeros((4, 2))).dofs
        assert mats.quad_mass(ones) == pytest.approx(2 * 3.0, rel=1e-13)
        assert ones @ (mats.mass @ ones) == pytest.approx(2 * 3.0, rel=1e-12)

    def test_bending_annihilates_affine(self, rng):
        mesh = random_graded_mesh(rng, length=2.0)
        for d in (1, 2, 3):
            mats = assemble_matrices(mesh, d)
            slope = rng.normal(size=d)
            offset = rng.normal(size=d)
            vals = offset[None, :] + np.outer(mesh.nodes, slope)
            derivs = np.tile(slope, (mesh.nodes.size, 1))
            dofs = HermiteCurve(mesh, d, vals, derivs).dofs
            assert np.abs(bending_matrix(mats) @ dofs).max() < 1e-10
            assert mats.quad_bending(dofs) == pytest.approx(0.0, abs=1e-12)

    def test_nullspace_dimensions(self, rng):
        mesh = Mesh1D.uniform(0.0, 1.0, 4)
        for d in (1, 2):
            mats = assemble_matrices(mesh, d)
            n = mats.mass.shape[0]
            assert np.linalg.matrix_rank(bending_matrix(mats).toarray(),
                                         tol=1e-9) == n - 2 * d
            assert np.linalg.matrix_rank(mats.combine(gradient=1.0).toarray(),
                                         tol=1e-9) == n - d
            eigs = np.linalg.eigvalsh(mats.mass.toarray())
            assert eigs.min() > 0.0

    def test_spd_and_symmetry(self, rng):
        mesh = random_graded_mesh(rng, max_elements=7)
        mats = assemble_matrices(mesh, 2)
        for key in ("mass", "gradient", "bending"):
            A = mats.combine(**{key: 1.0}).toarray()
            assert np.array_equal(A, A.T)

    def test_quad_forms_match_sparse(self, rng):
        mesh = random_graded_mesh(rng, max_elements=9)
        mats = assemble_matrices(mesh, 2)
        u = rng.normal(size=mats.mass.shape[0])
        v = rng.normal(size=mats.mass.shape[0])
        S = bending_matrix(mats)
        assert mats.quad_bending(u, v) == pytest.approx(u @ (S @ v),
                                                        rel=1e-9, abs=1e-9)
        assert mats.quad_mass(u) == pytest.approx(u @ (mats.mass @ u), rel=1e-11)
        assert mats.quad_gradient(u) == pytest.approx(
            u @ (mats.combine(gradient=1.0) @ u), rel=1e-11)
        assert_allclose(mats.apply_bending(u), S @ u,
                        atol=1e-8 * max(1.0, np.abs(S @ u).max()))


def scipy_assembly(mesh, dim):
    """The matrices built through scipy's general constructors: COO
    triplets of the element blocks summed to CSR, 0.5 (A + A^T), and the
    Kronecker product with the identity of size dim."""
    n = 2 * mesh.nodes.size
    e = np.arange(mesh.num_elements)
    local = np.stack([2 * e, 2 * e + 1, 2 * e + 2, 2 * e + 3], axis=1)
    rows = np.repeat(local, 4, axis=1).ravel()
    cols = np.tile(local, (1, 4)).ravel()
    out = []
    for order in (0, 1, 2):
        blk = _element_blocks(mesh, order).astype(float)
        a = sp.coo_matrix((blk.ravel(), (rows, cols)), shape=(n, n)).tocsr()
        a = 0.5 * (a + a.T)
        if dim > 1:
            a = sp.kron(a, sp.eye(dim), format="csr")
        out.append(a.tocsr())
    return out


def assert_same_as_scipy_assembly(mesh, dim):
    # scipy's sums drop the entries that cancel exactly; the matrices keep
    # them, as zeros, on the pattern of the element blocks
    mats = assemble_matrices(mesh, dim)
    pattern = element_pattern(mesh, dim)
    rows = np.repeat(np.arange(pattern.shape[0]), np.diff(pattern.indptr))
    for got, want in zip((mats.mass, mats.combine(gradient=1.0),
                          mats.combine(bending=1.0)),
                         scipy_assembly(mesh, dim)):
        assert got.shape == want.shape
        assert got.has_canonical_format
        for attr in ("indptr", "indices"):
            assert np.array_equal(getattr(got, attr), getattr(pattern, attr))
        # bit for bit, signed zeros included
        assert np.array_equal(got.data.view(np.int64), want.toarray()[
            rows, pattern.indices].view(np.int64))


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("M", [1, 5, 20, 1280])
@pytest.mark.parametrize("name", ["circle", "helix", "oval-h2"])
def test_matrices_bitwise_equal_scipy_assembly(name, M, dim):
    assert_same_as_scipy_assembly(
        Mesh1D.uniform(*named_experiment(name).interval, M), dim)


@given(st.lists(st.floats(min_value=0.05, max_value=3.0, allow_nan=False),
                min_size=1, max_size=60),
       st.integers(min_value=1, max_value=3))
@settings(max_examples=40, deadline=None)
def test_graded_matrices_bitwise_equal_scipy_assembly(widths, dim):
    assert_same_as_scipy_assembly(
        Mesh1D(np.concatenate([[0.0], np.cumsum(widths)])), dim)


def test_assembly_uses_no_general_sparse_constructors(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("assemble_matrices builds CSR arrays directly")
    for name in ("coo_matrix", "kron", "eye"):
        monkeypatch.setattr(sp, name, forbidden)
    mats = assemble_matrices(Mesh1D.uniform(0.0, 1.0, 6), 2)
    assert mats.mass.shape == (28, 28)


# the Hermite element matrices as (table, k): entry (i, j) is table[i][j]
# times h^(p_i + p_j + k), with p = 1 on the derivative DOFs (1, 3) and 0 on
# the value DOFs; mass, H1 and the classical beam element
MASS = ([[Fraction(x, 420) for x in row] for row in
         [[156, 22, 54, -13], [22, 4, 13, -3], [54, 13, 156, -22],
          [-13, -3, -22, 4]]], 1)
GRAD = ([[Fraction(x, 30) for x in row] for row in
         [[36, 3, -36, 3], [3, 4, -3, -1], [-36, -3, 36, -3], [3, -1, -3, 4]]],
        -1)
BEAM = ([[12, 6, -12, 6], [6, 4, -6, 2], [-12, -6, 12, -6], [6, 2, -6, 4]], -3)


def exact_sum(terms) -> float:
    """The sum of Fractions rounded once to float: pairwise over unreduced
    (numerator, denominator) pairs, which skips the gcd of every step."""
    items = [(t.numerator, t.denominator) for t in terms]
    while len(items) > 1:
        items = [(p * s + r * q, q * s) for (p, q), (r, s)
                 in zip(items[::2], items[1::2])] + items[len(items) & ~1:]
    p, q = items[0]
    return p / q    # int / int rounds correctly


def rational_forms(mesh, dim, element, u, v=None):
    """u^T K u in rational arithmetic on the float64 DOFs and element
    lengths, rounded once to float, for K assembled from ``element``, one
    of MASS, GRAD and BEAM; with ``v``, the triple (u^T K u, u^T K v, K u),
    each rounded once.  K u and u^T K v are formed only then."""
    table, k = element
    # K is symmetric: its diagonal once and each entry above it twice
    upper = [(i, j, table[i][j] * (2 - (i == j)))
             for i in range(4) for j in range(i, 4)]
    U, V = (None if w is None else np.asarray(w).reshape(mesh.nodes.size, 2, dim)
            for w in (u, v))
    Su = [[[Fraction(0)] * dim for _ in range(2)] for _ in mesh.nodes]
    uu, uv = [], []
    for e, h in enumerate(mesh.element_lengths):
        # ul and vl hold h^p times the DOFs (p = 1 on the derivative DOFs),
        # so that K_ij u_j = h^(k + p_i) table_ij ul_j
        h = Fraction(h)
        hk = h ** k
        for c in range(dim):
            ul = [Fraction(U[e + i // 2, i % 2, c]) for i in range(4)]
            ul[1] *= h
            ul[3] *= h
            if V is None:
                uu.append(hk * sum(t * ul[i] * ul[j] for i, j, t in upper))
                continue
            vl = [Fraction(V[e + i // 2, i % 2, c]) for i in range(4)]
            vl[1] *= h
            vl[3] *= h
            Kw = [sum(table[i][j] * ul[j] for j in range(4)) for i in range(4)]
            uu.append(hk * sum(x * y for x, y in zip(ul, Kw)))
            uv.append(hk * sum(x * y for x, y in zip(vl, Kw)))
            for i in range(4):
                Su[e + i // 2][i % 2][c] += hk * Kw[i] * (h if i % 2 else 1)
    if V is None:
        return exact_sum(uu)
    return exact_sum(uu), exact_sum(uv), np.array(
        [[[float(x) for x in row] for row in node] for node in Su]).ravel()


class TestExactBendingForms:
    """The forms against rational arithmetic on the same float64 inputs.
    A j3 curve's u'' is O(1), while an element block holds terms of size
    12/h^3; forms summed from those miss these bounds by one to four orders
    of magnitude.  The H1 form summed from the O(1/h) entries of
    ``gradient`` misses them by a factor of up to 600 at M=1280."""

    @pytest.mark.parametrize("name, M, graded", [
        ("circle", 1280, False), ("circle", 320, True), ("helix", 320, True)])
    def test_j3_curve(self, rng, name, M, graded):
        spec = named_experiment(name)
        a, b = spec.interval
        if graded:
            nodes = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 1.4, M))])
            mesh = Mesh1D(a + (b - a) * nodes / nodes[-1])
        else:
            mesh = Mesh1D.uniform(a, b, M)
        mats = assemble_matrices(mesh, spec.dim)
        u = interp_j3(spec.z0.value(np.array([a])).reshape(spec.dim),
                      spec.z0.deriv, mesh, spec.dim).dofs
        v = interp_hermite(spec.exact.oracle, mesh, spec.dim).dofs
        uu, uv, Su = rational_forms(mesh, spec.dim, BEAM, u, v)
        assert abs(mats.quad_bending(u) - uu) <= 1e-15 * uu
        assert abs(mats.quad_bending(u, v) - uv) <= 1e-15 * abs(uv)
        assert np.abs(mats.apply_bending(u) - Su).max() \
            <= 1e-12 * np.abs(Su).max()
        # the interpolation error e = I_h u_exact - u as well as u itself
        for w in (u, v - u):
            for quad, element in ((mats.quad_mass, MASS),
                                  (mats.quad_gradient, GRAD)):
                exact = rational_forms(mesh, spec.dim, element, w)
                assert abs(quad(w) - exact) <= 1e-15 * exact


class TestBendingEnergy:
    def test_straight_segment_zero(self):
        mesh = Mesh1D.uniform(0.0, 1.0, 3)
        mats = assemble_matrices(mesh, 2)
        vals = np.stack([mesh.nodes, np.zeros(4)], axis=1)
        derivs = np.tile([1.0, 0.0], (4, 1))
        curve = HermiteCurve(mesh, 2, vals, derivs)
        assert 0.5 * mats.quad_bending(curve.dofs) == pytest.approx(
            0.0, abs=1e-14)

    def test_circle_energy_second_order(self):
        z0 = circle_initial()
        errs = []
        for M in (8, 16, 32):
            mesh = Mesh1D.uniform(0.0, 2.0 * np.pi, M)
            mats = assemble_matrices(mesh, 2)
            curve = interp_j3([1.0, 0.0], z0.deriv, mesh, 2)
            errs.append(abs(0.5 * mats.quad_bending(curve.dofs) - np.pi))
        assert errs[0] < 0.06
        assert errs[1] / errs[0] < 0.35 and errs[2] / errs[1] < 0.35

    def test_helix_energy(self):
        z0 = helix_initial()
        length = 2.0 * np.sqrt(np.pi**2 + 1.0)
        target = 0.5 * HELIX_FREQ**4 * length
        mesh = Mesh1D.uniform(0.0, length, 40)
        mats = assemble_matrices(mesh, 3)
        curve = interp_j3(z0.value(np.array([0.0]))[0], z0.deriv, mesh, 3)
        assert 0.5 * mats.quad_bending(curve.dofs) == pytest.approx(target, rel=2e-4)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_p1_is_p2_at_the_mesh_nodes(rng, dim):
    """Every P1 constraint-node quantity is the even entries of the P2 one,
    bit for bit."""
    for _ in range(5):
        mesh = random_graded_mesh(rng, max_elements=9)
        n = mesh.nodes.size
        curve = HermiteCurve(mesh, dim, rng.normal(size=(n, dim)),
                             rng.normal(size=(n, dim)))
        assert np.array_equal(mesh.constraint_nodes(P1),
                              mesh.constraint_nodes(P2)[::2])
        assert np.array_equal(curve.derivative_at_constraint_nodes(P1),
                              curve.derivative_at_constraint_nodes(P2)[::2])
        d2 = derivative_matrix(derivative_map(mesh, dim, P2), mesh).toarray()
        assert np.array_equal(
            derivative_matrix(derivative_map(mesh, dim, P1), mesh).toarray(),
            d2.reshape(-1, dim, d2.shape[1])[::2].reshape(-1, d2.shape[1]))
        # the multiplier's DOFs: P1's interior node values are P2's [1::2]
        oracle = FunctionOracle(lambda x: np.ones((x.size, dim)),
                                lambda x: np.zeros((x.size, dim)))
        multiplier = Polynomial(rng.normal(size=4))
        lam1, lam2 = (make_interpolant_pair(oracle, multiplier, mesh, dim,
                                            v).lam for v in (P1, P2))
        assert np.array_equal(lam1, lam2[1::2])


class TestConstraintMatrix:
    """The rows T(Z) D P of the linearized constraint on the reduced DOFs
    of the restriction P, and P itself."""

    def test_straight_line_single_element_p2(self):
        mesh = Mesh1D.uniform(0.0, 1.0, 1)
        Z = HermiteCurve(mesh, 2, [[0.0, 0.0], [1.0, 0.0]],
                         [[1.0, 0.0], [1.0, 0.0]])
        B = assemble_constraint(Z, P2, BoundaryConditions.free())
        # free ends: P is the identity and every constraint node has a row
        assert B.shape == (3, Z.dofs.size)
        # tangent is e1 everywhere: rows pick the first-component derivative
        Y = HermiteCurve(mesh, 2, [[0.0, 0.0], [1.0, 0.0]],
                         [[0.0, 0.0], [0.0, 0.0]])
        by = B @ Y.dofs
        assert_allclose(by, [0.0, 1.5, 0.0], atol=1e-14)
        # hand value: u'(1/2) of the cubic with zero values, derivs 2 and 3,
        # is 2 - 14t + 15t^2 at t=1/2, i.e. -1.25
        Y2 = HermiteCurve(mesh, 2, np.zeros((2, 2)), [[2.0, 5.0], [3.0, -1.0]])
        assert_allclose(B @ Y2.dofs, [2.0, -1.25, 3.0], atol=1e-14)

    def test_row_counts_p1_clamped(self):
        z0 = circle_initial()
        bc = BoundaryConditions.clamped((1, 0), (0, 1), (1, 0), (0, 1))
        for M in (3, 6, 11):
            mesh = Mesh1D.uniform(0.0, 2.0 * np.pi, M)
            Z = interp_j3([1.0, 0.0], z0.deriv, mesh, 2)
            B = assemble_constraint(Z, P1, bc)
            # endpoint rows go with the fixed derivatives, and the 8 fixed
            # DOFs are not among the columns
            assert B.shape == (M - 1, Z.dofs.size - 8)

    def test_midpoint_row_support(self):
        z0 = circle_initial()
        mesh = Mesh1D.uniform(0.0, 2.0 * np.pi, 5)
        Z = interp_j3([1.0, 0.0], z0.deriv, mesh, 2)
        bc = BoundaryConditions.free()
        pattern = constraint_pattern(derivative_map(mesh, 2, P2),
                                     bc.restriction(mesh, 2), 2, P2)
        B = assemble_constraint(Z, P2, bc, pattern=pattern).toarray()
        d = 2
        assert np.array_equal(pattern.rows, np.arange(2 * 5 + 1))
        for row_idx, z_idx in enumerate(pattern.rows):
            if z_idx % 2 == 1:  # midpoint of element e
                e = (z_idx - 1) // 2
                cols = np.nonzero(B[row_idx])[0]
                lo, hi = 2 * d * e, 2 * d * (e + 2)
                assert cols.size <= 4 * d
                assert np.all((cols >= lo) & (cols < hi))

    def test_kernel_satisfies_pointwise_constraint(self):
        self.check_kernel_pointwise(BoundaryConditions.free())

    def test_kernel_with_fixed_ends_satisfies_pointwise_constraint(self):
        self.check_kernel_pointwise(BoundaryConditions(
            value_a=(1.0, 0.0), deriv_a=(0.0, 1.0), deriv_b=(0.0, 1.0)))

    @staticmethod
    def check_kernel_pointwise(bc):
        z0 = circle_initial()
        mesh = Mesh1D.uniform(0.0, 2.0 * np.pi, 6)
        Z = interp_j3([1.0, 0.0], z0.deriv, mesh, 2)
        P = restriction_matrix(bc.restriction(mesh, 2))
        kernel = sla.null_space(assemble_constraint(Z, P2, bc).toarray())
        pts = mesh.constraint_nodes(P2)
        for k in range(min(5, kernel.shape[1])):
            Y = HermiteCurve.from_dofs(mesh, 2, P @ kernel[:, k])
            yprime = Y.eval(pts, order=1)  # independent re-evaluation
            zprime = Z.eval(pts, order=1)
            # at an endpoint without a row the derivative itself is fixed
            dots = np.einsum("nd,nd->n", yprime, zprime)
            assert np.abs(dots).max() < 1e-10

    def test_circle_rotation_field_in_kernel(self):
        z0 = circle_initial()
        mesh = Mesh1D.uniform(0.0, 2.0 * np.pi, 9)
        Z = interp_j3([1.0, 0.0], z0.deriv, mesh, 2)
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        Y = HermiteCurve(mesh, 2, Z.values @ rot.T, Z.derivs @ rot.T)
        B = assemble_constraint(Z, P2, BoundaryConditions.free())
        assert np.abs(B @ Y.dofs).max() < 1e-12

    @pytest.mark.parametrize("M", [1, 2, 4])
    @pytest.mark.parametrize("variant", [P1, P2])
    def test_rows_are_tangents_times_derivative_map(self, rng, variant, M):
        z0 = circle_initial()
        mesh = Mesh1D.uniform(0.0, 2.0 * np.pi, M)
        Z = interp_j3([1.0, 0.0], z0.deriv, mesh, 2)
        t = Z.derivative_at_constraint_nodes(variant)
        # T(Z) D: row z is sum_c t[z, c] * (row 2z + c of D)
        TD = sp.csr_matrix(
            (t.ravel(), (np.repeat(np.arange(t.shape[0]), 2),
                         np.arange(t.size))),
            shape=(t.shape[0], t.size)) @ derivative_matrix(
                derivative_map(mesh, 2, variant), mesh)
        for bc in (BoundaryConditions.free(), BoundaryConditions(periodic=True),
                   BoundaryConditions(value_a=(1.0, 0.0), deriv_a=(0.0, 1.0),
                                      deriv_b=(0.0, 1.0))):
            P = bc.restriction(mesh, 2)
            pattern = constraint_pattern(derivative_map(mesh, 2, variant), P,
                                         2, variant)
            B = assemble_constraint(Z, variant, bc, pattern=pattern)
            # unique, ascending columns (periodic M=1 merges two ends' DOFs)
            assert B.has_canonical_format
            assert_allclose(B.toarray(),
                            (TD @ restriction_matrix(P)).toarray()[pattern.rows],
                            rtol=0, atol=1e-14)

    def test_periodic_rows(self):
        z0 = circle_initial()
        for M in (1, 4, 7):
            mesh = Mesh1D.uniform(0.0, 2.0 * np.pi, M)
            Z = interp_j3([1.0, 0.0], z0.deriv, mesh, 2)
            B = assemble_constraint(Z, P2, BoundaryConditions(periodic=True))
            # the row at b repeats the row at a; the last node has no
            # columns of its own
            assert B.shape == (2 * M, Z.dofs.size - 4)

    def test_periodic_ends_tied_exactly(self, rng):
        mesh = Mesh1D.uniform(0.0, 2.0 * np.pi, 4)
        for d in (1, 2, 3):
            P = restriction_matrix(
                BoundaryConditions(periodic=True).restriction(mesh, d))
            v_r = rng.normal(size=P.shape[1])
            v = P @ v_r
            assert np.array_equal(v[-2 * d:], v[:2 * d])
            assert np.array_equal(v[:-2 * d], v_r)

    def test_periodic_translations_in_kernel(self):
        z0 = circle_initial()
        mesh = Mesh1D.uniform(0.0, 2.0 * np.pi, 4)
        Z = interp_j3([1.0, 0.0], z0.deriv, mesh, 2)
        B = assemble_constraint(Z, P2, BoundaryConditions(periodic=True))
        for c in range(2):
            shift = np.zeros(B.shape[1])
            shift[c::4] = 1.0  # constant translation of component c
            assert np.abs(B @ shift).max() < 1e-14

    @pytest.mark.parametrize("dim", [2, 3])
    def test_fixed_dofs_exactly_zero(self, rng, dim):
        mesh = Mesh1D.uniform(0.0, 1.0, 5)
        targets = [np.zeros(dim)] * 4
        cases = [(BoundaryConditions.clamped(*targets), 4 * dim),
                 (BoundaryConditions(value_a=targets[0], deriv_a=targets[1],
                                     deriv_b=targets[3]), 3 * dim),
                 (BoundaryConditions.free(), 0)]
        for bc, num_fixed in cases:
            P = restriction_matrix(bc.restriction(mesh, dim))
            fixed = np.flatnonzero(np.diff(P.indptr) == 0)
            assert fixed.size == num_fixed
            free = np.setdiff1d(np.arange(P.shape[0]), fixed)
            for _ in range(3):
                v_r = rng.normal(size=P.shape[1])
                v = P @ v_r
                assert np.all(v[fixed] == 0.0)
                assert np.array_equal(v[free], v_r)

    def test_target_length_checked(self):
        mesh = Mesh1D.uniform(0.0, 2.0 * np.pi, 4)
        bc = BoundaryConditions(value_a=(1.0, 0.0, 0.0), deriv_a=(0.0, 1.0))
        with pytest.raises(ValueError,
                           match="value_a needs 2 components, got 3"):
            bc.restriction(mesh, 2)
        cfg = FlowConfig(tau=0.1, T=0.1, constraint=P2, bc=bc)
        with pytest.raises(ValueError,
                           match="value_a needs 2 components, got 3"):
            run(cfg, mesh, circle_initial(), 2)

    def test_bc_target_validation(self):
        z0 = circle_initial()
        mesh = Mesh1D.uniform(0.0, 2.0 * np.pi, 8)
        Z = interp_j3([1.0, 0.0], z0.deriv, mesh, 2)
        good = BoundaryConditions(value_a=(1.0, 0.0), deriv_a=(0.0, 1.0),
                                  deriv_b=(0.0, 1.0))
        good.validate_initial(Z)
        bad = BoundaryConditions(value_a=(0.0, 0.0), deriv_a=(0.0, 1.0),
                                 deriv_b=(0.0, 1.0))
        with pytest.raises(ValueError, match="value_a"):
            bad.validate_initial(Z)

    def test_periodic_excludes_fixing(self):
        with pytest.raises(ValueError):
            BoundaryConditions(value_a=(0.0, 0.0), periodic=True)
