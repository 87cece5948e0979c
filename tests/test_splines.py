from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial
from numpy.testing import assert_allclose

from elastica_fem import (ConstraintVariant, FunctionOracle, HermiteCurve,
                          Mesh1D, QuadraticField, interp_hermite, interp_j2,
                          interp_j3, lumped_product, lumped_weights,
                          unit_speed_violation)
from elastica_fem.analysis import eoc, linf_error, quadrature_error
from elastica_fem.splines import _CONSTRAINT_GRAMS, _cumulative

from conftest import random_graded_mesh, smooth_unit_speed_curve

P1, P2 = ConstraintVariant.P1, ConstraintVariant.P2


def poly_oracle(p: Polynomial, dim=1):
    return FunctionOracle(value=lambda x: p(x), deriv=lambda x: p.deriv()(x),
                          second=lambda x: p.deriv(2)(x))


class TestHermiteEval:
    def test_midpoint_of_step_data(self):
        # symbolic Hermite basis: value at t=1/2 is 3t^2 - 2t^3 = 1/2
        mesh = Mesh1D.uniform(0.0, 1.0, 1)
        curve = HermiteCurve(mesh, 1, [[0.0], [1.0]], [[0.0], [0.0]])
        assert_allclose(curve.eval(0.5), [0.5], rtol=0, atol=0)

    def test_order1_at_nodes_is_stored_dof(self, rng):
        mesh = random_graded_mesh(rng)
        n = mesh.nodes.size
        curve = HermiteCurve(mesh, 2, rng.normal(size=(n, 2)),
                             rng.normal(size=(n, 2)))
        vals = curve.eval(mesh.nodes, order=1)
        assert np.array_equal(vals, curve.derivs)
        assert np.array_equal(curve.eval(mesh.nodes, order=0), curve.values)

    def test_cubic_reproduces_linears(self):
        mesh = Mesh1D(np.array([0.0, 0.4, 1.0, 1.5]))
        curve = HermiteCurve(mesh, 1, mesh.nodes[:, None],
                             np.ones((4, 1)))
        x = np.linspace(0.0, 1.5, 37)
        assert_allclose(curve.eval(x, order=2), 0.0, atol=1e-12)
        assert_allclose(curve.eval(x, order=0)[:, 0], x, atol=1e-14)

    def test_outside_domain_raises(self):
        mesh = Mesh1D.uniform(0.0, 1.0, 2)
        curve = HermiteCurve(mesh, 1, np.zeros((3, 1)), np.zeros((3, 1)))
        with pytest.raises(ValueError):
            curve.eval(-0.1)

    def test_second_derivative_left_element_convention(self):
        # data with a genuine kink in u'' at the interior node
        mesh = Mesh1D.uniform(0.0, 2.0, 2)
        curve = HermiteCurve(mesh, 1, [[0.0], [0.0], [0.0]],
                             [[0.0], [1.0], [0.0]])
        left = curve.eval(np.nextafter(1.0, 0.0), order=2)
        right = curve.eval(np.nextafter(1.0, 2.0), order=2)
        at_node = curve.eval(1.0, order=2)
        assert abs(at_node[0] - left[0]) < 1e-9
        assert abs(at_node[0] - right[0]) > 0.1

    def test_dof_roundtrip(self, rng):
        mesh = random_graded_mesh(rng)
        n = mesh.nodes.size
        curve = HermiteCurve(mesh, 3, rng.normal(size=(n, 3)),
                             rng.normal(size=(n, 3)))
        again = HermiteCurve.from_dofs(mesh, 3, curve.dofs)
        assert np.array_equal(again.values, curve.values)
        assert np.array_equal(again.derivs, curve.derivs)


class TestInterpolants:
    def test_hermite_reproduces_cubics(self, rng):
        p = Polynomial(rng.normal(size=4))
        mesh = random_graded_mesh(rng, length=2.0)
        curve = interp_hermite(poly_oracle(p), mesh, 1)
        x = np.linspace(mesh.a, mesh.b, 101)
        assert_allclose(curve.eval(x)[:, 0], p(x), atol=1e-11)

    def test_hermite_linear_exact(self):
        mesh = Mesh1D.uniform(-1.0, 3.0, 5)
        f = FunctionOracle(value=lambda x: 2.0 * x - 1.0,
                           deriv=lambda x: 2.0 * np.ones_like(x))
        curve = interp_hermite(f, mesh, 1)
        x = np.linspace(-1.0, 3.0, 23)
        assert_allclose(curve.eval(x)[:, 0], 2.0 * x - 1.0, atol=1e-13)

    def test_hermite_sin_fourth_order(self):
        f = FunctionOracle(value=np.sin, deriv=np.cos)
        errs, hs = [], []
        for M in (16, 32, 64):
            mesh = Mesh1D.uniform(0.0, 2.0 * np.pi, M)
            errs.append(linf_error(interp_hermite(f, mesh, 1), f.value))
            hs.append(mesh.h)
        rates = eoc(errs, hs)
        assert all(abs(r - 4.0) < 0.2 for r in rates)


class TestJ3:
    def test_linear_exact(self):
        mesh = Mesh1D(np.array([0.0, 0.3, 1.1, 2.0]))
        curve = interp_j3([1.0], lambda x: 2.0 * np.ones_like(x), mesh, 1)
        x = np.linspace(0.0, 2.0, 31)
        assert_allclose(curve.eval(x)[:, 0], 1.0 + 2.0 * x, atol=1e-14)

    def test_circle_unit_speed_at_constraint_nodes(self):
        deriv = lambda x: np.stack([-np.sin(x), np.cos(x)], axis=-1)
        mesh = Mesh1D.uniform(0.0, 2.0 * np.pi, 12)
        curve = interp_j3([1.0, 0.0], deriv, mesh, 2)
        assert unit_speed_violation(curve, P2) <= 1e-14

    def test_endpoint_drift_fourth_order(self):
        deriv = lambda x: np.stack([-np.sin(x), np.cos(x)], axis=-1)
        # closed circle: the elementwise integration errors cancel around the
        # period, so the drift sits at roundoff, far below any h^4 bound
        for M in (8, 16, 32, 64):
            mesh = Mesh1D.uniform(0.0, 2.0 * np.pi, M)
            curve = interp_j3([1.0, 0.0], deriv, mesh, 2)
            drift = np.linalg.norm(curve.values[-1] - [1.0, 0.0])
            assert drift <= 0.1 * mesh.h**4
        # open arc: clean fourth-order decay
        drifts, hs = [], []
        for M in (8, 16, 32, 64):
            mesh = Mesh1D.uniform(0.0, 2.5, M)
            curve = interp_j3([1.0, 0.0], deriv, mesh, 2)
            drifts.append(np.linalg.norm(
                curve.values[-1] - [np.cos(2.5), np.sin(2.5)]))
            hs.append(mesh.h)
        rates = eoc(drifts, hs)
        assert all(abs(r - 4.0) < 0.3 for r in rates)

    def test_derivative_matches_at_midpoints(self, rng):
        curve_oracle = smooth_unit_speed_curve(rng)
        mesh = random_graded_mesh(rng, length=4.0)
        curve = interp_j3([0.0, 0.0], curve_oracle.deriv, mesh, 2)
        expect = curve_oracle.deriv(mesh.midpoints)
        assert_allclose(curve.derivative_at_constraint_nodes(P2)[1::2], expect,
                        atol=1e-13)

    def test_unit_speed_property_random_curves(self, rng):
        for _ in range(10):
            oracle = smooth_unit_speed_curve(rng)
            mesh = random_graded_mesh(rng, length=5.0)
            curve = interp_j3([0.0, 0.0], oracle.deriv, mesh, 2)
            assert unit_speed_violation(curve, P2) <= 1e-13

    def test_j2_unit_speed_at_nodes_only(self):
        deriv = lambda x: np.stack([-np.sin(x), np.cos(x)], axis=-1)
        mesh = Mesh1D.uniform(0.0, 2.0 * np.pi, 8)
        curve = interp_j2([1.0, 0.0], deriv, mesh, 2)
        assert unit_speed_violation(curve, P1) <= 1e-14
        # piecewise quadratic: third derivative vanishes
        x = np.linspace(0.1, 2.0 * np.pi - 0.1, 40)
        assert_allclose(curve.eval(x, order=3), 0.0, atol=1e-10)

    def test_cumulative_bitwise_equal_vector_recurrence(self, rng):
        """The per-component Kahan sums equal the same recurrence run on
        (dim,) numpy arrays, bit for bit."""
        M, dim = 1280, 3
        inc = rng.normal(size=(M, dim)) * 10.0 ** rng.integers(-6, 7, (M, dim))
        inc[1::2] = -inc[::2] * (1.0 + 1e-13)     # pairs that nearly cancel
        start = rng.normal(size=dim)
        want = np.empty((M + 1, dim))
        want[0] = start
        acc, comp = start.copy(), np.zeros(dim)
        for i, x in enumerate(inc):
            y = x - comp
            s = acc + y
            comp = (s - acc) - y
            acc = s
            want[i + 1] = acc
        got = _cumulative(start, inc, dim)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestConstraintGrams:
    # the nodal bases on [0, 1] as Fraction coefficients, lowest degree first
    BASES = {P2: [[1, -3, 2], [0, 4, -4], [0, -1, 2]], P1: [[1, -1], [0, 1]]}

    @staticmethod
    def exact_gram(basis, order):
        polys = [[Fraction(c) for c in p] for p in basis]
        for _ in range(order):
            polys = [[k * c for k, c in enumerate(p)][1:] for p in polys]
        return [[sum(a * b / (i + j + 1) for i, a in enumerate(p)
                     for j, b in enumerate(q)) for q in polys] for p in polys]

    @pytest.mark.parametrize("variant", [P1, P2])
    def test_entries_are_the_rounded_rationals(self, variant):
        for order, table in enumerate(_CONSTRAINT_GRAMS[variant]):
            exact = self.exact_gram(self.BASES[variant], order)
            assert table.dtype == np.float64
            assert table.tolist() == [[float(x) for x in row] for row in exact]
            assert np.array_equal(table, table.T)

    def test_l2_norm_is_the_mass_form(self, rng):
        mesh = Mesh1D(np.array([0.0, 0.3, 1.1, 2.0]))
        f = QuadraticField(mesh, 2, rng.normal(size=(7, 2)))
        mass = self.exact_gram(self.BASES[P2], 0)
        want = sum(Fraction(h) * mass[a][b] * Fraction(f.values[2 * e + a, c])
                   * Fraction(f.values[2 * e + b, c])
                   for e, h in enumerate(mesh.element_lengths)
                   for a in range(3) for b in range(3) for c in range(2))
        assert f.l2_norm_sq() == pytest.approx(float(want), rel=1e-15)


class TestLumped:
    def test_constants_integrate_to_length(self):
        mesh = Mesh1D(np.array([0.0, 0.5, 1.2, 2.0]))
        one = QuadraticField(mesh, 1, np.ones((7, 1)))
        assert_allclose(lumped_product(one, one, P2), 2.0, rtol=1e-14)
        assert_allclose(lumped_product(one, one, P1), 2.0, rtol=1e-14)

    def test_simpson_exact_for_x_squared(self):
        # (x, x)_{h,2} on [0,1]: Simpson integrates x^2 exactly to 1/3
        mesh = Mesh1D.uniform(0.0, 1.0, 1)
        f = QuadraticField(mesh, 1, mesh.constraint_nodes(P2))
        assert lumped_product(f, f, P2) == pytest.approx(1.0 / 3.0, abs=1e-16)

    def test_mismatch_errors(self):
        m1 = Mesh1D.uniform(0.0, 1.0, 2)
        m2 = Mesh1D.uniform(0.0, 1.0, 3)
        f = QuadraticField(m1, 1, np.ones((5, 1)))
        g = QuadraticField(m2, 1, np.ones((7, 1)))
        with pytest.raises(ValueError):
            lumped_product(f, g, P2)
        h = QuadraticField(m1, 2, np.ones((5, 2)))
        with pytest.raises(ValueError):
            lumped_product(f, h, P2)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_positive_definite_and_bilinear(self, seed):
        rng = np.random.default_rng(seed)
        mesh = random_graded_mesh(rng, max_elements=8)
        n = 2 * mesh.num_elements + 1
        f = QuadraticField(mesh, 2, rng.normal(size=(n, 2)))
        g = QuadraticField(mesh, 2, rng.normal(size=(n, 2)))
        a, b = rng.normal(), rng.normal()
        fg = QuadraticField(mesh, 2, a * f.values + b * g.values)
        lhs = lumped_product(fg, g, P2)
        rhs = a * lumped_product(f, g, P2) + b * lumped_product(g, g, P2)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
        assert lumped_product(f, g, P2) == pytest.approx(
            lumped_product(g, f, P2), rel=1e-14)
        assert lumped_product(f, f, P2) > 0.0

    def test_weights_uniform_two_elements(self):
        mesh = Mesh1D.uniform(0.0, 1.0, 2)
        w = lumped_weights(mesh, P2)
        assert_allclose(w, [1 / 12, 1 / 3, 1 / 6, 1 / 3, 1 / 12], rtol=1e-15)
        assert_allclose(w.sum(), 1.0, rtol=1e-15)

    def test_weights_single_element(self):
        mesh = Mesh1D.uniform(0.0, 1.0, 1)
        assert_allclose(lumped_weights(mesh, P2), [1 / 6, 2 / 3, 1 / 6])

    def test_weights_positive_and_sum(self, rng):
        for _ in range(20):
            mesh = random_graded_mesh(rng)
            for variant in (P1, P2):
                w = lumped_weights(mesh, variant)
                assert np.all(w > 0.0)
                assert w.sum() == pytest.approx(mesh.b - mesh.a, rel=1e-13)

    def test_norm_equivalence_band(self, rng):
        ratios = []
        for _ in range(300):
            mesh = random_graded_mesh(rng, max_elements=25)
            d = int(rng.integers(1, 4))
            n = 2 * mesh.num_elements + 1
            f = QuadraticField(mesh, d, rng.normal(size=(n, d)))
            ratios.append(lumped_product(f, f, P2) / f.l2_norm_sq())
        assert min(ratios) >= 0.2 and max(ratios) <= 5.0


class TestSimpsonExactness:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_elementwise_simpson_exact_on_cubics(self, seed):
        rng = np.random.default_rng(seed)
        mesh = random_graded_mesh(rng, max_elements=10)
        p = Polynomial(rng.normal(size=4))
        P = p.integ()
        for i in range(mesh.num_elements):
            a, b = mesh.nodes[i], mesh.nodes[i + 1]
            m = mesh.midpoints[i]
            simpson = (b - a) / 6.0 * (p(a) + 4.0 * p(m) + p(b))
            exact = P(b) - P(a)
            scale = max(1.0, abs(exact), abs(P(a)), abs(P(b)),
                        (b - a) / 6.0 * (abs(p(a)) + 4 * abs(p(m)) + abs(p(b))))
            assert abs(simpson - exact) <= 1e-13 * scale


def test_interp_h2_eoc_orders():
    # interpolation error orders 4 (L2), 3 (H1), 2 (H2) for a smooth function
    f = FunctionOracle(value=np.sin, deriv=np.cos, second=lambda x: -np.sin(x))
    errs = {0: [], 1: [], 2: []}
    hs = []
    targets = {0: f.value, 1: f.deriv, 2: f.second}
    for M in (8, 16, 32, 64, 128):
        mesh = Mesh1D.uniform(0.0, 2.0 * np.pi, M)
        curve = interp_hermite(f, mesh, 1)
        hs.append(mesh.h)
        for k in (0, 1, 2):
            errs[k].append(quadrature_error(curve, targets[k], k))
    for k, order in ((0, 4.0), (1, 3.0), (2, 2.0)):
        rates = eoc(errs[k], hs)
        assert all(abs(r - order) <= 0.2 for r in rates), (k, rates)


def test_rhs_interpolation_identity(rng):
    # bending pairing with a smooth curve equals the pairing with its
    # cubic interpolant, for every discrete test function
    from elastica_fem import assemble_matrices
    f = FunctionOracle(value=np.sin, deriv=np.cos, second=lambda x: -np.sin(x))
    mesh = Mesh1D.uniform(0.0, 2.0 * np.pi, 9)
    mats = assemble_matrices(mesh, 1)
    fi = interp_hermite(f, mesh, 1)
    for _ in range(5):
        n = mesh.nodes.size
        v = HermiteCurve(mesh, 1, rng.normal(size=(n, 1)), rng.normal(size=(n, 1)))
        lhs = mats.quad_bending(v.dofs, fi.dofs)
        # fine Gauss quadrature of the true pairing v'' . f''
        tq, wq = np.polynomial.legendre.leggauss(12)
        t = 0.5 * (tq + 1.0)
        acc = 0.0
        for e in range(mesh.num_elements):
            x = mesh.nodes[e] + mesh.element_lengths[e] * t
            acc += mesh.element_lengths[e] * 0.5 * np.dot(
                wq, v.eval(x, 2)[:, 0] * f.second(x))
        assert lhs == pytest.approx(acc, rel=1e-10, abs=1e-10)
