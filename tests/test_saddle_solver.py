import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose

from elastica_fem import (KKTSingularError, SaddleSystem, SchurSolver,
                          saddle_solver, solve_kkt)


def kkt_residual(system, x, lam):
    """Norms of A x + B^T lam - rhs_top and B x - rhs_bottom."""
    top = system.A @ x + system.B.T @ lam - system.rhs_top
    bottom = system.B @ x - system.rhs_bottom
    return float(np.linalg.norm(top)), float(np.linalg.norm(bottom))


def dense_schur_oracle(A, B, b, c):
    """Textbook elimination: lam = (B A^-1 B^T)^-1(B A^-1 b - c)."""
    Ainv_b = np.linalg.solve(A, b)
    Ainv_Bt = np.linalg.solve(A, B.T)
    lam = np.linalg.solve(B @ Ainv_Bt, B @ Ainv_b - c)
    return Ainv_b - Ainv_Bt @ lam, lam


def random_system(rng, n, m, rhs_bottom_zero=False):
    Q = rng.normal(size=(n, n))
    A = Q @ Q.T + n * np.eye(n)
    B = rng.normal(size=(m, n))
    b = rng.normal(size=n)
    c = np.zeros(m) if rhs_bottom_zero else rng.normal(size=m)
    return SaddleSystem(A, B, b, c)


def test_hand_example():
    sys = SaddleSystem(np.eye(2), np.array([[1.0, 0.0]]),
                       np.array([1.0, 1.0]), np.zeros(1))
    x, lam = solve_kkt(sys)
    assert_allclose(x, [0.0, 1.0], atol=1e-14)
    assert_allclose(lam, [1.0], atol=1e-14)


def test_empty_constraint_block():
    rng = np.random.default_rng(3)
    A = np.diag(rng.uniform(1.0, 2.0, 5))
    b = rng.normal(size=5)
    sys = SaddleSystem(A, np.zeros((0, 5)), b, np.zeros(0))
    x, lam = solve_kkt(sys)
    assert_allclose(x, b / np.diag(A), rtol=1e-13)
    assert lam.size == 0


def test_against_schur_oracle(rng):
    for _ in range(25):
        sys = random_system(rng, 20, 5)
        x, lam = solve_kkt(sys)
        x_o, lam_o = dense_schur_oracle(sys.A.toarray(), sys.B.toarray(),
                                        sys.rhs_top, sys.rhs_bottom)
        assert np.linalg.norm(x - x_o) <= 1e-8 * (1.0 + np.linalg.norm(x_o))
        assert np.linalg.norm(lam - lam_o) <= 1e-8 * (1.0 + np.linalg.norm(lam_o))


def test_schur_equivalence_up_to_n200(rng):
    for n, m in ((50, 12), (120, 40), (200, 60)):
        sys = random_system(rng, n, m)
        x, lam = solve_kkt(sys)
        x_o, lam_o = dense_schur_oracle(sys.A.toarray(), sys.B.toarray(),
                                        sys.rhs_top, sys.rhs_bottom)
        rel = np.linalg.norm(x - x_o) / (1.0 + np.linalg.norm(x_o))
        assert rel <= 1e-8


def test_residual_tolerance(rng):
    for _ in range(10):
        sys = random_system(rng, 30, 8)
        x, lam = solve_kkt(sys)
        top, bottom = kkt_residual(sys, x, lam)
        rhs_norm = np.hypot(np.linalg.norm(sys.rhs_top),
                            np.linalg.norm(sys.rhs_bottom))
        assert np.hypot(top, bottom) <= 1e-10 * rhs_norm
        # constraint rows essentially exact
        assert bottom <= 1e-10 * (1.0 + np.linalg.norm(sys.rhs_bottom))


def test_kkt_residual_perturbation(rng):
    sys = random_system(rng, 15, 4)
    x, lam = solve_kkt(sys)
    delta = rng.normal(size=15) * 1e-3
    top, _ = kkt_residual(sys, x + delta, lam)
    assert top == pytest.approx(np.linalg.norm(sys.A @ delta), rel=1e-6)


def test_band_residual_is_the_transpose_product(rng):
    # the band's residual product sums B^T lam from B's entries in B's
    # order: the transpose product, bit for bit; its accepted solutions
    # meet the normwise backward-error bound
    sys = random_system(rng, 12, 5)
    B = sp.random(5, 12, density=0.4, format="csr", random_state=4)
    for system in (sys, SaddleSystem(sys.A, B, sys.rhs_top, sys.rhs_bottom)):
        band = saddle_solver.BandedKKT(system.A, system.B)
        band.factor(system.A, system.B)
        x, lam = rng.normal(size=12), rng.normal(size=5) * 1e3
        k_sol = band._product(band._stack, np.concatenate([x, lam]))
        assert np.array_equal(k_sol, np.concatenate(
            [system.A @ x + system.B.T @ lam, system.B @ x]))
        x, lam = solve_kkt(system)
        norm_k = np.sqrt(np.linalg.norm(system.A.data) ** 2
                         + 2.0 * np.linalg.norm(system.B.data) ** 2)
        rhs = np.concatenate([system.rhs_top, system.rhs_bottom])
        assert np.hypot(*kkt_residual(system, x, lam)) <= 1e-14 * (
            norm_k * np.linalg.norm(np.concatenate([x, lam]))
            + np.linalg.norm(rhs))
    # a repeated entry would be scattered twice; the band refuses it
    B = sp.csr_matrix((np.append(B.data, 0.5),
                       np.append(B.indices, B.indices[0]),
                       np.append(B.indptr[:-1], B.nnz + 1)), shape=B.shape)
    with pytest.raises(ValueError, match="unique column indices"):
        saddle_solver.BandedKKT(sys.A, B)


def test_singular_detection():
    rng = np.random.default_rng(5)
    A = np.eye(4)
    B = np.array([[1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])  # duplicate row
    with pytest.raises(KKTSingularError) as info:
        solve_kkt(SaddleSystem(A, B, rng.normal(size=4), rng.normal(size=2)))
    assert info.value.deficiency >= 1


def test_large_singular_kkt_skips_svd(monkeypatch):
    # the band's own pivots give the deficiency at every size; the SVD is
    # left to SchurSolver
    calls = []
    real = saddle_solver.sla.svdvals

    def spy(K):
        calls.append(K.shape[0])
        return real(K)

    monkeypatch.setattr(saddle_solver.sla, "svdvals", spy)
    rng = np.random.default_rng(5)
    for n in (400, 4):
        B = np.zeros((2, n))
        B[:, 0] = 1.0                             # duplicate row
        with pytest.raises(KKTSingularError) as info:
            solve_kkt(SaddleSystem(sp.eye(n), B, rng.normal(size=n),
                                   rng.normal(size=2)))
        assert info.value.deficiency >= 1
    assert calls == []


def test_schur_solver_matches_direct(rng):
    A = None
    for _ in range(100):
        n = int(rng.integers(6, 40))
        m = int(rng.integers(1, max(2, n // 3)))
        sys = random_system(rng, n, m)
        solver = SchurSolver(sys.A)
        x_s, lam_s = solver.solve(sys.B, sys.rhs_top, sys.rhs_bottom)
        x_d, lam_d = solve_kkt(sys)
        assert np.linalg.norm(x_s - x_d) <= 1e-8 * (1.0 + np.linalg.norm(x_d))
        assert np.linalg.norm(lam_s - lam_d) <= 1e-8 * (1.0 + np.linalg.norm(lam_d))


def test_schur_solver_reuses_factorization(rng):
    n, m = 30, 7
    Q = rng.normal(size=(n, n))
    A = Q @ Q.T + n * np.eye(n)
    solver = SchurSolver(sp.csr_matrix(A))
    for _ in range(4):
        B = rng.normal(size=(m, n))
        b = rng.normal(size=n)
        x_s, lam_s = solver.solve(sp.csr_matrix(B), b)
        x_o, lam_o = dense_schur_oracle(A, B, b, np.zeros(m))
        assert_allclose(x_s, x_o, atol=1e-9 * (1 + np.abs(x_o).max()))


def test_shape_validation():
    with pytest.raises(ValueError):
        SaddleSystem(np.eye(3), np.ones((2, 4)), np.ones(3), np.ones(2))
    with pytest.raises(ValueError):
        SaddleSystem(np.eye(3), np.ones((2, 3)), np.ones(3), np.ones(1))


def test_one_factor_serves_many_right_hand_sides(rng):
    # apply after one factor gives the bits of a full solve per right-hand
    # side, so a Lanczos run can factor its KKT matrix once
    system = random_system(rng, 30, 8)
    band = saddle_solver.BandedKKT(system.A, system.B)
    band.factor(system.A, system.B)
    for _ in range(3):
        rhs = rng.normal(size=38)
        sol = saddle_solver.BandedKKT(system.A, system.B).solve(
            SaddleSystem(system.A, system.B, rhs[:30], rhs[30:]), rhs)
        assert np.array_equal(band.apply(rhs), sol)
