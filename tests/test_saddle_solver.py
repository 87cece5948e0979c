import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse import csgraph
from numpy.testing import assert_allclose

from elastica_fem import KKTSingularError, SaddleSystem, saddle_solver

from conftest import solve


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
    return SaddleSystem(sp.csr_matrix(A), sp.csr_matrix(B), b, c)


def test_hand_example():
    sys = SaddleSystem(np.eye(2), np.array([[1.0, 0.0]]),
                       np.array([1.0, 1.0]), np.zeros(1))
    x, lam = solve(sys)
    assert_allclose(x, [0.0, 1.0], atol=1e-14)
    assert_allclose(lam, [1.0], atol=1e-14)


def test_empty_constraint_block():
    rng = np.random.default_rng(3)
    A = np.diag(rng.uniform(1.0, 2.0, 5))
    b = rng.normal(size=5)
    sys = SaddleSystem(A, np.zeros((0, 5)), b, np.zeros(0))
    x, lam = solve(sys)
    assert_allclose(x, b / np.diag(A), rtol=1e-13)
    assert lam.size == 0


def test_against_schur_oracle(rng):
    for _ in range(25):
        sys = random_system(rng, 20, 5)
        x, lam = solve(sys)
        x_o, lam_o = dense_schur_oracle(sys.A.toarray(), sys.B.toarray(),
                                        sys.rhs_top, sys.rhs_bottom)
        assert np.linalg.norm(x - x_o) <= 1e-8 * (1.0 + np.linalg.norm(x_o))
        assert np.linalg.norm(lam - lam_o) <= 1e-8 * (1.0 + np.linalg.norm(lam_o))


def test_schur_equivalence_up_to_n200(rng):
    for n, m in ((50, 12), (120, 40), (200, 60)):
        sys = random_system(rng, n, m)
        x, lam = solve(sys)
        x_o, lam_o = dense_schur_oracle(sys.A.toarray(), sys.B.toarray(),
                                        sys.rhs_top, sys.rhs_bottom)
        rel = np.linalg.norm(x - x_o) / (1.0 + np.linalg.norm(x_o))
        assert rel <= 1e-8


def test_residual_tolerance(rng):
    for _ in range(10):
        sys = random_system(rng, 30, 8)
        x, lam = solve(sys)
        top, bottom = kkt_residual(sys, x, lam)
        rhs_norm = np.hypot(np.linalg.norm(sys.rhs_top),
                            np.linalg.norm(sys.rhs_bottom))
        assert np.hypot(top, bottom) <= 1e-10 * rhs_norm
        # constraint rows essentially exact
        assert bottom <= 1e-10 * (1.0 + np.linalg.norm(sys.rhs_bottom))


def test_kkt_residual_perturbation(rng):
    sys = random_system(rng, 15, 4)
    x, lam = solve(sys)
    delta = rng.normal(size=15) * 1e-3
    top, _ = kkt_residual(sys, x + delta, lam)
    assert top == pytest.approx(np.linalg.norm(sys.A @ delta), rel=1e-6)


def test_band_holds_the_block_matrix(rng, monkeypatch):
    # K in the band's order is [[A, B^T], [B, 0]] permuted, bit for bit;
    # the factored band holds d_i K_ij d_j at each entry's position; the
    # accepted solutions meet the normwise backward-error bound
    factored, gbtrf = [], saddle_solver.lapack.dgbtrf

    def spy(ab, *args, **kwargs):
        factored.append(np.array(ab))
        return gbtrf(ab, *args, **kwargs)

    monkeypatch.setattr(saddle_solver.lapack, "dgbtrf", spy)
    sys = random_system(rng, 12, 5)
    B = sp.random(5, 12, density=0.4, format="csr", random_state=4)
    # a path graph numbered at random: the along-curve order is wider than
    # half of K, and the reverse Cuthill-McKee order is taken
    scramble = rng.permutation(12)
    path = sp.diags([np.ones(11), np.full(12, 4.0), np.ones(11)], [-1, 0, 1])
    path_b = sp.csr_matrix(([1.0, -1.0, 2.0, 1.0], ([0, 0, 1, 1],
                                                    [3, 4, 8, 9])),
                           shape=(2, 12))
    scrambled = SaddleSystem(
        path.tocsr()[scramble][:, scramble].sorted_indices(),
        path_b[:, scramble].sorted_indices(), rng.normal(size=12),
        rng.normal(size=2))
    for system in (sys, SaddleSystem(sys.A, B, sys.rhs_top, sys.rhs_bottom),
                   scrambled):
        band = saddle_solver.BandedKKT(system.A, system.B)
        band.factor(system.A, system.B)
        ab, bw = factored[-1], band.bandwidth
        m = system.B.shape[0]
        block = np.block([[system.A.toarray(), system.B.T.toarray()],
                          [system.B.toarray(), np.zeros((m, m))]])
        inv = np.argsort(band.perm)
        assert np.array_equal(band._k[inv][:, inv].toarray(), block)
        K, d = band._k.tocoo(), band._d_perm
        expected = np.zeros_like(ab)
        expected[2 * bw + K.row - K.col, K.col] = K.data * (d[K.row]
                                                            * d[K.col])
        assert np.array_equal(ab[bw:], expected[bw:])
        x, lam = solve(system)
        norm_k = np.sqrt(np.linalg.norm(system.A.data) ** 2
                         + 2.0 * np.linalg.norm(system.B.data) ** 2)
        rhs = np.concatenate([system.rhs_top, system.rhs_bottom])
        assert np.hypot(*kkt_residual(system, x, lam)) <= 1e-14 * (
            norm_k * np.linalg.norm(np.concatenate([x, lam]))
            + np.linalg.norm(rhs))
    assert np.array_equal(band.perm, csgraph.reverse_cuthill_mckee(
        sp.csr_matrix(block), symmetric_mode=True))
    assert band.bandwidth <= 2
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
        solve(SaddleSystem(A, B, rng.normal(size=4), rng.normal(size=2)))
    assert info.value.deficiency >= 1


def test_large_singular_kkt_skips_svd(monkeypatch):
    # the band's own pivots give the deficiency at every size, with no SVD
    calls = []
    real = scipy.linalg.svdvals

    def spy(K):
        calls.append(K.shape[0])
        return real(K)

    monkeypatch.setattr(scipy.linalg, "svdvals", spy)
    rng = np.random.default_rng(5)
    for n in (400, 4):
        B = np.zeros((2, n))
        B[:, 0] = 1.0                             # duplicate row
        with pytest.raises(KKTSingularError) as info:
            solve(SaddleSystem(sp.eye(n), B, rng.normal(size=n),
                                   rng.normal(size=2)))
        assert info.value.deficiency >= 1
    assert calls == []


def test_shape_validation():
    with pytest.raises(ValueError, match="block shapes"):
        solve(SaddleSystem(np.eye(3), np.ones((2, 4)), np.ones(3),
                               np.ones(2)))
    with pytest.raises(ValueError, match="right-hand side"):
        solve(SaddleSystem(np.eye(3), np.eye(2, 3), np.ones(3),
                               np.ones(1)))


def test_one_factor_serves_many_right_hand_sides(rng):
    # apply after one factor gives the bits of a full solve per right-hand
    # side, so a Lanczos run can factor its KKT matrix once
    system = random_system(rng, 30, 8)
    band = saddle_solver.BandedKKT(system.A, system.B)
    band.factor(system.A, system.B)
    for _ in range(3):
        rhs = rng.normal(size=38)
        sol = solve(SaddleSystem(system.A, system.B, rhs[:30],
                                     rhs[30:]))
        assert np.array_equal(band.apply(rhs), np.concatenate(sol))
