"""Direct computation of discrete stationary points: residual of the
saddle-point optimality system, its exact Jacobian, a Newton iteration, and
numerical checks of the two Brezzi conditions (kernel coercivity, inf-sup).

The optimality system couples the curve with a scalar multiplier in the
zero-boundary constraint-node space, held as its values at the interior
constraint nodes.  Boundary conditions on the curve are imposed, for trial
and test functions alike, by the same restriction P to reduced DOFs as in
the flow module; for endpoint conditions P selects the free DOFs.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Tuple

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg import blas, lapack

from . import saddle_solver
from .assembly import (TARGETS, BoundaryConditions, ConstraintPattern,
                       SystemMatrices, constraint_pattern)
from .mesh import ConstraintVariant, Mesh1D
from .saddle_solver import BandedKKT, KKTSingularError, SaddleSystem
from .splines import (_CONSTRAINT_GRAMS, FunctionOracle, HermiteCurve,
                      interp_hermite, lumped_weights)


class NewtonError(RuntimeError):
    def __init__(self, message: str, residual_norms):
        super().__init__(message)
        self.residual_norms = list(residual_norms)


@dataclass(frozen=True)
class SaddlePoint:
    """Curve plus scalar multiplier, held as its DOFs: the 1-D array of its
    values at the interior constraint nodes (M-1 for P1, 2M-1 for P2); the
    endpoint values are zero (zero-boundary constraint-node space)."""

    u: HermiteCurve
    lam: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.lam, dtype=float)
        M = self.u.mesh.num_elements
        if lam.ndim != 1 or lam.size not in (M - 1, 2 * M - 1):
            raise ValueError(f"multiplier needs M-1 or 2M-1 values, M={M}")
        object.__setattr__(self, "lam", lam)

    @cached_property
    def tangents(self) -> np.ndarray:
        """u' at the P2 constraint nodes (P1's are every other one),
        evaluated once for every routine that takes this point."""
        return self.u.derivative_at_constraint_nodes(ConstraintVariant.P2)


def _multiplier_nodes(p: SaddlePoint, variant: ConstraintVariant) -> np.ndarray:
    """p's multiplier at the constraint nodes of ``variant``, ends included."""
    if p.lam.size != 2 * p.u.mesh.num_elements // variant.stride - 1:
        raise ValueError(f"{p.lam.size} multiplier values do not fit the "
                         f"{variant.name} constraint nodes")
    return np.concatenate(([0.0], p.lam, [0.0]))


def _weights(matrices: SystemMatrices, variant: ConstraintVariant
             ) -> np.ndarray:
    """``lumped_weights`` of the mesh, built once per variant."""
    return matrices.cached(("weights", variant),
                           lambda: lumped_weights(matrices.mesh, variant))


def _pattern(matrices: SystemMatrices, variant: ConstraintVariant,
             bc: BoundaryConditions) -> ConstraintPattern:
    """Constraint rows at the interior constraint nodes on the reduced DOFs
    of P, whose ``restriction`` is the P of every stationary routine; built
    once per variant and set of fixed ends."""
    if bc.periodic:
        raise ValueError("stationary solver supports endpoint conditions only")
    mesh, dim = matrices.mesh, matrices.dim
    bc.check_dim(dim)
    return matrices.cached(
        (variant,) + tuple(getattr(bc, name) is None for name in TARGETS),
        lambda: constraint_pattern(
            matrices.derivative_map(variant), bc.restriction(mesh, dim), dim,
            variant, rows=np.arange(1, mesh.constraint_nodes(variant).size - 1)))


def _jacobian_pattern(matrices: SystemMatrices, variant: ConstraintVariant,
                      bc: BoundaryConditions):
    """(S, slot, row, coef, band), cached under the constraint pattern: S =
    P^T S P, whose pattern, set by the elements, is that of every restricted
    matrix of the mesh (A = P^T (S + D^T diag(w) D) P and the H2 Gram among
    them), and the one ``BandedKKT`` on it.  A's data is S's plus the
    bincount over ``slot`` of w[row] * coef, w_r (D_ri D_rj) for each pair
    (i, j) of entries in a row r of D.  Each term has its place whatever w
    is; (i, j) and (j, i) sum equal terms in one order: A is symmetric."""
    pattern = _pattern(matrices, variant, bc)

    def build():
        D, c = matrices.derivative_map(variant), pattern.columns
        S = pattern.restrict(matrices.bending)
        lo, hi = D.indptr[:-1, None], D.indptr[1:, None]
        entry = lo + np.arange((hi - lo).max())
        both = (entry < hi)[:, :, None] & (entry < hi)[:, None, :]
        e, f, r = (np.broadcast_to(x, both.shape)[both] for x in (
            entry[:, :, None], entry[:, None, :],
            np.arange(D.shape[0])[:, None, None]))
        rows, cols, k = c[D.indices[e]], c[D.indices[f]], S.shape[0]
        kept = np.maximum(rows, cols) < k
        keys = np.repeat(np.arange(k), np.diff(S.indptr)) * k + S.indices
        terms = rows[kept] * k + cols[kept]
        slot = np.searchsorted(keys, terms)
        if not np.array_equal(np.append(keys, -1)[slot], terms):
            raise ValueError("a Jacobian term lies off the elements' pattern")
        return (S, slot, r[kept], (D.data[e] * D.data[f])[kept],
                BandedKKT(S, pattern.template))
    return matrices.cached(pattern, build)


def residual(p: SaddlePoint, variant: ConstraintVariant, bc: BoundaryConditions,
             matrices: SystemMatrices) -> Tuple[np.ndarray, np.ndarray]:
    """Residual blocks of the optimality system.

    Curve block (reduced test DOFs, P^T applied): bending load plus the
    lumped multiplier term sum_z beta_z lam(z) u'(z).phi'(z).  Multiplier
    block (interior constraint nodes): (beta_z/2) (|u'(z)|^2 - 1).
    """
    beta = _weights(matrices, variant)
    du = p.tangents[::variant.stride]
    D = matrices.derivative_map(variant)
    w = (beta * _multiplier_nodes(p, variant))[:, None] * du
    r_u = matrices.apply_bending(p.u.dofs) + np.bincount(   # D.T @ w's sums
        D.indices, D.data * np.repeat(w.ravel(), np.diff(D.indptr)), D.shape[1])

    speed = np.einsum("nd,nd->n", du, du)
    r_mu = 0.5 * beta[1:-1] * (speed[1:-1] - 1.0)
    pattern = _pattern(matrices, variant, bc)     # P^T r_u as a bincount
    return np.bincount(pattern.columns, r_u, pattern.restriction.shape[1] + 1)[:-1], r_mu


def _constraint_block(p: SaddlePoint, variant: ConstraintVariant,
                      bc: BoundaryConditions, matrices: SystemMatrices
                      ) -> sp.csr_matrix:
    """B = beta T(u) D P: the beta-weighted tangential rows at the interior
    constraint nodes (the same kernel as the flow's unweighted rows)."""
    return _pattern(matrices, variant, bc).fill(
        p.tangents[::variant.stride], _weights(matrices, variant))


def jacobian(p: SaddlePoint, variant: ConstraintVariant, bc: BoundaryConditions,
             matrices: SystemMatrices) -> Tuple[sp.csr_matrix, sp.csr_matrix]:
    """Jacobian blocks (P^T A P, B) of the optimality system on the reduced
    DOFs, on the same index arrays at every p: A is the bending form plus
    the lumped multiplier term (``_jacobian_pattern``), B is
    ``_constraint_block``."""
    S, slot, row, coef, _ = _jacobian_pattern(matrices, variant, bc)
    w = np.repeat(_weights(matrices, variant)
                  * _multiplier_nodes(p, variant), p.u.dim)
    A = copy.copy(S)     # shares the index arrays, as ``fill`` does
    A.data = np.bincount(slot, w[row] * coef, S.nnz) + S.data
    return A, _constraint_block(p, variant, bc, matrices)


def make_interpolant_pair(u_oracle: FunctionOracle, multiplier: Callable,
                          mesh: Mesh1D, dim: int,
                          variant: ConstraintVariant) -> SaddlePoint:
    """Starting guess for Newton: the cubic interpolant of the exact curve
    and the zero-boundary constraint-node interpolant of its multiplier."""
    pts = mesh.constraint_nodes(variant)[1:-1]
    return SaddlePoint(interp_hermite(u_oracle, mesh, dim),
                       np.ravel(multiplier(pts)))


def newton_solve(p0: SaddlePoint, variant: ConstraintVariant,
                 bc: BoundaryConditions, matrices: SystemMatrices,
                 tol: Optional[float] = None, max_iter: int = 25
                 ) -> Tuple[SaddlePoint, dict]:
    """Plain Newton iteration on the optimality system.

    Stops when the Euclidean norm of the stacked residual drops below
    ``tol``, by default its roundoff floor max(1e-11, 0.1 eps |S|_inf
    |u0|_inf sqrt(n)): S the bending matrix, u0 the starting DOFs, n the
    residual length.  A step-halving fallback engages only when a full step
    would increase the residual norm.  Each iteration factors the mesh's KKT
    band with its Jacobian, equilibrated by the first.  Returns the solution
    and a log with the residual norms and the tol used; a failed KKT solve,
    or a residual above tol with no free curve DOF, raises ``NewtonError``.
    """
    mesh, dim = p0.u.mesh, p0.u.dim
    p, columns = p0, _pattern(matrices, variant, bc).columns
    r_u, r_mu = residual(p, variant, bc, matrices)
    norms = [float(np.sqrt(np.dot(r_u, r_u) + np.dot(r_mu, r_mu)))]
    halvings = 0
    if tol is None:
        S = matrices.bending    # |S|_inf, rows summed as scipy sums them
        tol = max(1e-11, float(0.1 * np.finfo(float).eps
                               * np.add.reduceat(abs(S.data), S.indptr[:-1]).max()
                               * np.abs(p0.u.dofs).max()
                               * np.sqrt(r_u.size + r_mu.size)))
    if not r_u.size and norms[0] > tol:     # P fixes every curve DOF
        raise NewtonError("no free curve DOFs", norms)

    band = _jacobian_pattern(matrices, variant, bc)[-1]
    band.rescale()      # by the first Jacobian
    for _ in range(max_iter):
        if norms[-1] <= tol:
            break
        A, B = jacobian(p, variant, bc, matrices)
        try:
            du, dlam = saddle_solver.solve_kkt(   # a wrapper of it sees Newton
                SaddleSystem(A, B, -r_u, -r_mu), band)
        except KKTSingularError as exc:
            raise NewtonError(f"KKT solve failed: {exc}", norms) from exc

        step_scale = 1.0
        while True:     # P du as the gather of flow.step
            cand = SaddlePoint(
                HermiteCurve.from_dofs(mesh, dim, p.u.dofs + np.append(
                    step_scale * du, 0.0)[columns]),
                p.lam + step_scale * dlam)
            r_u_new, r_mu_new = residual(cand, variant, bc, matrices)
            norm_new = float(np.sqrt(np.dot(r_u_new, r_u_new)
                                     + np.dot(r_mu_new, r_mu_new)))
            if norm_new <= tol or norm_new < norms[-1] or step_scale < 1e-8:
                break
            step_scale *= 0.5
            halvings += 1
        if norm_new > tol and norm_new >= norms[-1]:
            raise NewtonError("Newton step halving stalled", norms + [norm_new])
        p, r_u, r_mu = cand, r_u_new, r_mu_new
        norms.append(norm_new)

    if norms[-1] > tol:
        raise NewtonError(
            f"Newton did not reach tolerance {tol:.1e} in {max_iter} iterations "
            f"(last residual {norms[-1]:.3e})", norms)
    log = {"residual_norms": norms, "iterations": len(norms) - 1,
           "step_halvings": halvings, "converged": True, "tol": tol}
    return p, log


# ---------------------------------------------------------------------------
# discrete norms and Brezzi diagnostics, on Cholesky factors U^T U of the
# Gram matrices in LAPACK's upper band storage

def _upper_band(A: sp.csr_matrix) -> np.ndarray:
    """Upper band storage, ab[u + i - j, j] = A[i, j], of a symmetric A."""
    off = A.indices - np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    ab, up = np.zeros((off.max() + 1, A.shape[0])), off >= 0
    ab[off.max() - off[up], A.indices[up]] = A.data[up]
    return ab


def _tri(U: np.ndarray, x: np.ndarray, trans=0, solve=False) -> np.ndarray:
    """U x, or U^-1 x with ``solve``; transposed if ``trans`` is 1."""
    return (blas.dtbsv if solve else blas.dtbmv)(U.shape[0] - 1, U, x,
                                                 trans=trans)


def _multiplier_factors(mesh: Mesh1D, variant: ConstraintVariant
                        ) -> Tuple[np.ndarray, np.ndarray]:
    """Cholesky factors of the mass and H1 Grams of the multiplier space on
    the interior constraint nodes (zero boundary values), summed from the
    reference tables ``splines._CONSTRAINT_GRAMS`` scaled by h and 1/h."""
    mass_ref, stiff_ref = _CONSTRAINT_GRAMS[variant]
    # element e holds the constraint nodes step*e, ..., step*(e+1); its
    # entry (a, b), a <= b, goes to band row step + a - b, column step*e + b
    step, h = mass_ref.shape[0] - 1, mesh.element_lengths
    a, b = np.triu_indices(step + 1)
    nz = step * mesh.num_elements + 1
    flat = ((step + a - b) * nz + b
            + step * np.arange(mesh.num_elements)[:, None]).ravel()
    # dropping the first node leaves its couplings in the unread corner
    mass, stiff = (np.bincount(flat, v.ravel(), (step + 1) * nz)
                   .reshape(step + 1, nz)[:, 1:-1]
                   for v in (h[:, None] * mass_ref[a, b],
                             stiff_ref[a, b] / h[:, None]))
    return sla.cholesky_banded(mass), sla.cholesky_banded(mass + stiff)


_LANCZOS_CAP = 80


def _extreme_eigenvalue(matvec: Callable, n: int, which: str,
                        tol: float = 0.0) -> float:
    """Largest (``which="LA"``) or smallest (``"SA"``) eigenvalue of the
    symmetric operator ``matvec`` on R^n, by Lanczos with full
    reorthogonalization from a fixed start, so that a rerun gives the same
    bits.  With s the largest |Ritz value|, r the wanted one's residual and
    gap its distance to the next, it stops at r <= tol s, or for ``tol`` 0
    at r^2 <= eps s gap (the Ritz value's error r^2/gap, Parlett ch. 11) or
    r <= eps s; measured against s, a value near 0 converges.  A basis
    spanning R^n gives the exact value; an invariant Krylov space keeps its
    value and the run restarts orthogonal to it.  Past ``_LANCZOS_CAP``
    basis vectors it raises ``ValueError``."""
    sign, eps = (1.0 if which == "LA" else -1.0), np.finfo(float).eps
    rng = np.random.default_rng(0)
    a, b, V = np.empty(_LANCZOS_CAP), np.empty(_LANCZOS_CAP), np.empty((0, n))
    w, start, best, scale = rng.standard_normal(n), 0, -np.inf, 0.0
    for k in range(min(n, _LANCZOS_CAP)):
        if k == len(V):             # the basis grows 16 vectors at a time
            V = np.concatenate([V, np.empty((16, n))])
        V[k] = w / np.linalg.norm(w)
        w = sign * matvec(V[k])
        a[k] = V[k] @ w
        for _ in range(2):          # two Gram-Schmidt passes
            w -= V[:k + 1].T @ (V[:k + 1] @ w)
        b[k] = np.linalg.norm(w)
        # Ritz values of the tridiagonal since the last restart
        theta, z, _ = lapack.dstev(a[start:k + 1], b[start:max(k, start + 1)])
        scale = max(scale, -theta[0], theta[-1])
        r = b[k] * abs(z[-1, -1])
        gap = theta[-1] - theta[-2] if k > start else 0.0
        if k + 1 == n or b[k] > eps * scale and (
                r <= tol * scale if tol else
                r * r <= eps * scale * gap or r <= eps * scale):
            return float(sign * max(best, theta[-1]))
        if b[k] <= eps * scale:     # an invariant Krylov space: exact
            best, start, w = max(best, theta[-1]), k + 1, rng.standard_normal(n)
            for _ in range(2):
                w -= V[:k + 1].T @ (V[:k + 1] @ w)
    raise ValueError(f"Lanczos did not converge in {_LANCZOS_CAP} steps")


@dataclass
class DiscreteNorms:
    """The H2 Gram G = U^T U = P^T (M + G1 + S) P of the reduced curve DOFs
    with its factor; factors of the mass and H1 Gram H of the zero-boundary
    multiplier space, from its closed-form reference tables
    (``_multiplier_factors``).  The dual norm on multiplier DOFs is the
    computable surrogate mu -> sqrt(t^T H t), t = mass^-1 r, r the load
    vector of mu."""

    gram: sp.csr_matrix
    gram_factor: np.ndarray
    mass_factor: np.ndarray
    h1_factor: np.ndarray

    @classmethod
    def build(cls, matrices: SystemMatrices, bc: BoundaryConditions,
              variant: ConstraintVariant) -> "DiscreteNorms":
        if matrices.mesh.constraint_nodes(variant).size <= 2:
            raise ValueError("the multiplier space is empty")
        pattern = _pattern(matrices, variant, bc)
        if not pattern.restriction.shape[1]:
            raise ValueError("no free curve DOFs")
        gram = pattern.restrict(
            matrices.combine(mass=1.0, gradient=1.0, bending=1.0))
        return cls(gram, sla.cholesky_banded(_upper_band(gram)),
                   *_multiplier_factors(matrices.mesh, variant))

    def curve_dual_norm(self, r_u: np.ndarray) -> float:
        """Dual norm |U^-T r_u| of a curve-block functional w.r.t. the H2
        norm."""
        return float(np.linalg.norm(_tri(self.gram_factor, r_u, 1, True)))

    def multiplier_dual_norm(self, r_mu: np.ndarray) -> float:
        """Dual norm of a multiplier-block functional: coefficients are mapped
        to the representing field (mass solve), then measured in the H1 Gram."""
        t = sla.cho_solve_banded((self.mass_factor, False), r_mu)
        return float(np.linalg.norm(_tri(self.h1_factor, t)))


def residual_dual_norm(p: SaddlePoint, variant: ConstraintVariant,
                       bc: BoundaryConditions, matrices: SystemMatrices,
                       norms: DiscreteNorms) -> float:
    """Dual norm of the full optimality residual at p in ``norms``."""
    r_u, r_mu = residual(p, variant, bc, matrices)
    return float(np.hypot(norms.curve_dual_norm(r_u),
                          norms.multiplier_dual_norm(r_mu)))


def coercivity_estimate(p: SaddlePoint, variant: ConstraintVariant,
                        bc: BoundaryConditions, matrices: SystemMatrices,
                        norms: DiscreteNorms) -> float:
    """Smallest eigenvalue alpha of the primal form A on ker B, relative to
    the H2 Gram G = U^T U of ``norms``: positive values certify discrete
    kernel coercivity.

    A shift sigma below the smallest eigenvalue of the pencil (A, G),
    placed by Lanczos on U^-T A U^-1 and certified by a Cholesky factor of
    A - sigma G, is below alpha (interlacing).  Then alpha = sigma + 1/nu,
    nu the largest eigenvalue of y -> U x with x the curve part of the
    solution of [[A - sigma G, B^T], [B, 0]] for (U^T y, 0), the mesh's KKT
    band factored once.  Unshifted, 1/nu would miss a negative alpha.
    """
    A, B = jacobian(p, variant, bc, matrices)
    G, band = norms.gram, _jacobian_pattern(matrices, variant, bc)[-1]
    band.check(G, B)        # G on the band's pattern, before any use
    U, n, tail = norms.gram_factor, A.shape[0], np.zeros(B.shape[0])
    lowest = _extreme_eigenvalue(lambda y: _tri(U, A @ _tri(U, y, 0, True),
                                                1, True), n, "SA", 1e-2)
    gap = 0.1 * (1.0 + abs(lowest))
    A_band, G_band = _upper_band(A), _upper_band(G)
    # a Ritz value may miss the bottom of the spectrum
    while lapack.dpbtrf(A_band - (lowest - gap) * G_band)[1]:
        gap *= 2.0
    A.data -= (lowest - gap) * G.data       # A - sigma G, on the band's pattern
    try:
        band.rescale()
        band.factor(A, B)
        nu = _extreme_eigenvalue(lambda y: _tri(U, band.apply(np.concatenate(
            [_tri(U, y, 1), tail]))[:n]), n, "LA")
    except KKTSingularError as exc:
        raise ValueError("constraint block is rank deficient") from exc
    return float(lowest - gap + 1.0 / nu)


def infsup_estimate(p: SaddlePoint, variant: ConstraintVariant,
                    bc: BoundaryConditions, matrices: SystemMatrices,
                    norms: DiscreteNorms) -> float:
    """Smallest generalized singular value beta of the constraint block
    under the H2 Gram G on curve DOFs and N = mass H^-1 mass on multiplier
    DOFs (Chapelle & Bathe, "The inf-sup test", Comput. Struct. 47, 1993).

    beta^2 = 1/nu, nu the largest eigenvalue of U_H^-T mass W^-1 mass
    U_H^-1 (H = U_H^T U_H and G from ``norms``, W = B G^-1 B^T).  W^-1 r
    is -lam of the solution of [[G, B^T], [B, 0]] for (0, r), the mesh's
    KKT band factored once; beta is 0 when it is singular.
    """
    B = _constraint_block(p, variant, bc, matrices)
    G, band = norms.gram, _jacobian_pattern(matrices, variant, bc)[-1]
    H, F, head = norms.h1_factor, norms.mass_factor, np.zeros(B.shape[1])

    def mass(x):
        return _tri(F, _tri(F, x), 1)

    def matvec(y):
        r = band.apply(np.concatenate([head, mass(_tri(H, y, 0, True))]))
        return -_tri(H, mass(r[head.size:]), 1, True)

    try:
        band.rescale()
        band.factor(G, B)
        return float(np.sqrt(1.0 / _extreme_eigenvalue(matvec, B.shape[0],
                                                        "LA")))
    except KKTSingularError:
        return 0.0
