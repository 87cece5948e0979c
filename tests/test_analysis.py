import numpy as np
import pytest
from numpy.polynomial import Polynomial
from numpy.testing import assert_allclose

from elastica_fem import (ConstraintVariant, ExactSolution, FunctionOracle,
                          HermiteCurve, Mesh1D, assemble_matrices, eoc,
                          h2_error, interp_hermite, interp_j3,
                          quadrature_error, weak_errors)
from elastica_fem.experiments import (circle_exact, helix_exact, oval_exact,
                                      named_experiment)

from conftest import fit_rate


class TestEoc:
    def test_examples(self):
        assert eoc([0.4, 0.1], [0.2, 0.1]) == pytest.approx([2.0])
        assert eoc([0.4, 0.2], [0.2, 0.1]) == pytest.approx([1.0])
        assert eoc([0.3, 0.3], [0.2, 0.1]) == pytest.approx([0.0])

    def test_invalid(self):
        with pytest.raises(ValueError):
            eoc([0.1], [0.2])
        with pytest.raises(ValueError):
            eoc([0.1, -0.1], [0.2, 0.1])
        with pytest.raises(ValueError):
            eoc([0.1, 0.1], [0.2, 0.0])

    def test_fit_rate(self):
        hs = [0.4, 0.2, 0.1, 0.05]
        errs = [3.0 * h**2 for h in hs]
        assert fit_rate(errs, hs) == pytest.approx(2.0, abs=1e-12)


def quadrature_h2_seminorm_sq(oracle_second, a, b, n=400):
    """Independent fine-quadrature oracle for the integral of |u''|^2."""
    tq, wq = np.polynomial.legendre.leggauss(10)
    edges = np.linspace(a, b, n + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        x = 0.5 * (hi - lo) * tq + 0.5 * (hi + lo)
        vals = np.atleast_2d(np.asarray(oracle_second(x)))
        if vals.shape[0] != x.size:
            vals = vals.T
        total += 0.5 * (hi - lo) * np.dot(wq, np.einsum("nd,nd->n", vals, vals))
    return total


class TestAnalyticSeminorms:
    def test_circle(self):
        second = lambda x: np.stack([-np.cos(x), -np.sin(x)], axis=-1)
        val = quadrature_h2_seminorm_sq(second, 0.0, 2.0 * np.pi)
        assert circle_exact().h2_seminorm_sq == pytest.approx(val, rel=1e-12)

    def test_helix(self):
        ex = helix_exact()
        lp = np.pi / np.sqrt(np.pi**2 + 1.0)
        b = 2.0 * np.sqrt(np.pi**2 + 1.0)
        second = lambda x: np.stack(
            [-lp**2 * np.cos(lp * x), -lp**2 * np.sin(lp * x),
             np.zeros_like(x)], axis=-1)
        val = quadrature_h2_seminorm_sq(second, 0.0, b)
        assert ex.h2_seminorm_sq == pytest.approx(val, rel=1e-12)

    def test_oval_target(self):
        second = lambda x: np.stack(
            [-0.5 * np.cos(0.5 * x), -0.5 * np.sin(0.5 * x)], axis=-1)
        val = quadrature_h2_seminorm_sq(second, 0.0, 4.0 * np.pi)
        assert oval_exact().h2_seminorm_sq == pytest.approx(val, rel=1e-12)

    def test_exact_solutions_unit_speed(self):
        for ex, interval in ((circle_exact(), (0, 2 * np.pi)),
                             (helix_exact(), (0, 2 * np.sqrt(np.pi**2 + 1))),
                             (oval_exact(), (0, 4 * np.pi))):
            # 50 elements with 7 samples each, the ends shared
            x = np.linspace(interval[0], interval[1], 301)
            d = np.asarray(ex.oracle.deriv(x), dtype=float)
            assert np.abs(np.einsum("nd,nd->n", d, d) - 1.0).max() <= 1e-12


def exact_second(name):
    """u'' of the circle or helix exact solution."""
    if name == "circle":
        return lambda x: np.stack([-np.cos(x), -np.sin(x)], axis=-1)
    lp = np.pi / np.sqrt(np.pi**2 + 1.0)
    return lambda x: np.stack([-lp**2 * np.cos(lp * x),
                               -lp**2 * np.sin(lp * x), np.zeros_like(x)],
                              axis=-1)


class TestH2Error:
    def test_exact_cubic_gives_zero(self, rng):
        # u a vector cubic polynomial: representable exactly on any mesh
        px = Polynomial(rng.normal(size=4))
        py = Polynomial(rng.normal(size=4))
        mesh = Mesh1D.uniform(0.0, 1.0, 5)
        mats = assemble_matrices(mesh, 2)
        oracle = FunctionOracle(
            value=lambda x: np.stack([px(x), py(x)], axis=-1),
            deriv=lambda x: np.stack([px.deriv()(x), py.deriv()(x)], axis=-1))
        ix = (px.deriv(2)**2).integ()
        iy = (py.deriv(2)**2).integ()
        seminorm_sq = (ix(1.0) - ix(0.0)) + (iy(1.0) - iy(0.0))
        exact = ExactSolution(oracle, h2_seminorm_sq=seminorm_sq)
        Z = interp_hermite(oracle, mesh, 2)
        assert h2_error(Z, exact, mats) <= 1e-6  # sqrt of roundoff-level value

    @pytest.mark.parametrize("name", ["circle", "helix"])
    def test_interpolant_error_matches_fine_quadrature(self, name):
        spec = named_experiment(name)
        ex = spec.exact
        a, b = spec.interval
        mesh = Mesh1D.uniform(a, b, 16)
        mats = assemble_matrices(mesh, spec.dim)
        Z = interp_hermite(ex.oracle, mesh, spec.dim)
        formula = h2_error(Z, ex, mats)
        direct = quadrature_error(Z, exact_second(name), order=2)
        assert formula == pytest.approx(direct, rel=1e-8)

    @pytest.mark.parametrize("name", ["circle", "helix"])
    def test_j3_error_at_fine_mesh(self, name, recwarn):
        # the squared error (~5e-12) is the difference of O(1) forms, so it
        # needs forms accurate to far below 1e-12 relative
        spec = named_experiment(name)
        mesh = Mesh1D.uniform(*spec.interval, 1280)
        start = spec.exact.oracle.value(np.array([mesh.a])).reshape(spec.dim)
        Z = interp_j3(start, spec.exact.oracle.deriv, mesh, spec.dim)
        formula = h2_error(Z, spec.exact, assemble_matrices(mesh, spec.dim))
        assert not [w for w in recwarn if "clamped" in str(w.message)]
        direct = quadrature_error(Z, exact_second(name), order=2)
        assert formula == pytest.approx(direct, rel=1e-3)

    def test_cancellation_clamp_warns(self):
        # an understated analytic seminorm drives the identity negative
        spec = named_experiment("circle")
        mesh = Mesh1D.uniform(0.0, 2.0 * np.pi, 8)
        mats = assemble_matrices(mesh, 2)
        Z = interp_hermite(spec.exact.oracle, mesh, 2)
        lied = ExactSolution(spec.exact.oracle,
                             h2_seminorm_sq=spec.exact.h2_seminorm_sq - 1e-2)
        with pytest.warns(UserWarning, match="clamped"):
            assert h2_error(Z, lied, mats) == 0.0


class TestWeakErrors:
    def test_matching_curve_gives_zero(self):
        spec = named_experiment("circle")
        mesh = Mesh1D.uniform(0.0, 2.0 * np.pi, 10)
        mats = assemble_matrices(mesh, 2)
        Z = interp_hermite(spec.exact.oracle, mesh, 2)
        l2, h1 = weak_errors(Z, spec.exact, mats)
        assert l2 == 0.0 and h1 == 0.0

    def test_j3_curve_small_weak_errors(self):
        # node values drift by O(h^4), derivatives match exactly
        spec = named_experiment("circle")
        mesh = Mesh1D.uniform(0.0, 2.5, 16)
        mats = assemble_matrices(mesh, 2)
        Z = interp_j3([1.0, 0.0], spec.exact.oracle.deriv, mesh, 2)
        l2, h1 = weak_errors(Z, spec.exact, mats)
        assert 0.0 < l2 < 1e-5
        assert h1 < 1e-4
