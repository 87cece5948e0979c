"""Direct computation of discrete stationary points: residual of the
saddle-point optimality system, its exact Jacobian, a Newton iteration, and
numerical checks of the two Brezzi conditions (kernel coercivity, inf-sup).

The optimality system couples the curve with a scalar multiplier living in
the constraint-node space with zero boundary values.  Boundary conditions on
the curve are imposed, for trial and test functions alike, by the same
restriction P to reduced DOFs as in the flow module; for endpoint
conditions P selects the free DOFs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .assembly import (TARGETS, BoundaryConditions, ConstraintPattern,
                       SystemMatrices, constraint_pattern)
from .mesh import ConstraintVariant, Mesh1D
from .splines import (FunctionOracle, HermiteCurve, QuadraticField,
                      interp_hermite, lumped_weights)


class NewtonError(RuntimeError):
    def __init__(self, message: str, residual_norms):
        super().__init__(message)
        self.residual_norms = list(residual_norms)


@dataclass(frozen=True)
class SaddlePoint:
    """Curve plus scalar multiplier; the multiplier's endpoint values are
    exactly zero (zero-boundary constraint-node space)."""

    u: HermiteCurve
    lam: QuadraticField

    def __post_init__(self):
        if self.lam.dim != 1:
            raise ValueError("multiplier must be scalar")
        if self.lam.values[0, 0] != 0.0 or self.lam.values[-1, 0] != 0.0:
            raise ValueError("multiplier must vanish at the endpoints")


def multiplier_field(mesh: Mesh1D, interior_values: np.ndarray,
                     variant: ConstraintVariant) -> QuadraticField:
    """Scalar multiplier from its active DOFs (values at interior constraint
    nodes), embedded in the quadratic storage; endpoints are zero.  For the
    node-only variant the field is piecewise linear (midpoints are means)."""
    vals = np.zeros(2 * mesh.num_elements + 1)
    vals[::variant.stride][1:-1] = np.asarray(interior_values, dtype=float).ravel()
    if variant is ConstraintVariant.P1:
        vals[1::2] = 0.5 * (vals[:-1:2] + vals[2::2])
    return QuadraticField(mesh, 1, vals)


def multiplier_dofs(lam: QuadraticField, variant: ConstraintVariant) -> np.ndarray:
    """Active DOFs (interior constraint-node values) of a multiplier field."""
    return lam.values[::variant.stride, 0][1:-1].copy()


def _pattern(matrices: SystemMatrices, variant: ConstraintVariant,
             bc: BoundaryConditions) -> ConstraintPattern:
    """Constraint rows at the interior constraint nodes on the reduced DOFs
    of P, whose ``restriction`` is the P of every stationary routine; built
    once per variant and set of fixed ends."""
    if bc.periodic:
        raise ValueError("stationary solver supports endpoint conditions only")
    mesh, dim = matrices.mesh, matrices.dim
    bc.check_dim(dim)
    nz = mesh.constraint_nodes(variant).size
    return matrices.cached(
        (variant,) + tuple(getattr(bc, name) is None for name in TARGETS),
        lambda: constraint_pattern(matrices.derivative_map(variant),
                                   bc.restriction(mesh, dim), dim, variant,
                                   rows=np.arange(1, nz - 1)))


def residual(p: SaddlePoint, variant: ConstraintVariant, bc: BoundaryConditions,
             matrices: SystemMatrices) -> Tuple[np.ndarray, np.ndarray]:
    """Residual blocks of the optimality system.

    Curve block (reduced test DOFs, P^T applied): bending load plus the
    lumped multiplier term sum_z beta_z lam(z) u'(z).phi'(z).  Multiplier
    block (interior constraint nodes): (beta_z/2) (|u'(z)|^2 - 1).
    """
    beta = lumped_weights(p.u.mesh, variant)
    du = p.u.derivative_at_constraint_nodes(variant)
    lam_z = p.lam.values[::variant.stride, 0]

    D = matrices.derivative_map(variant)
    w = (beta * lam_z)[:, None] * du
    r_u = matrices.apply_bending(p.u.dofs) + D.T @ w.ravel()

    speed = np.einsum("nd,nd->n", du, du)
    r_mu = 0.5 * beta[1:-1] * (speed[1:-1] - 1.0)
    return _pattern(matrices, variant, bc).restriction_t @ r_u, r_mu


def jacobian(p: SaddlePoint, variant: ConstraintVariant, bc: BoundaryConditions,
             matrices: SystemMatrices
             ) -> Tuple[sp.csr_matrix, sp.csr_matrix, np.ndarray]:
    """Jacobian blocks (P^T A P, B) of the optimality system on the reduced
    DOFs, and the full index ``free`` of each reduced DOF (P = I[:, free]).

    A is the bending form plus the lumped multiplier term; B = beta T(u) D P
    holds the beta-weighted tangential rows at the interior constraint
    nodes (the same kernel as the flow's unweighted rows).
    """
    dim = p.u.dim
    beta = lumped_weights(p.u.mesh, variant)
    lam_z = p.lam.values[::variant.stride, 0]

    D = matrices.derivative_map(variant)
    weights = np.repeat(beta * lam_z, dim)
    A = (matrices.bending + D.T @ sp.diags(weights) @ D).tocsr()
    A = 0.5 * (A + A.T)

    pattern = _pattern(matrices, variant, bc)
    B = pattern.fill(p.u.derivative_at_constraint_nodes(variant), beta)
    return (pattern.restrict(A), B,
            np.flatnonzero(np.diff(pattern.restriction.indptr)))


def make_interpolant_pair(u_oracle: FunctionOracle,
                          multiplier: Optional[Callable],
                          mesh: Mesh1D, dim: int,
                          variant: ConstraintVariant) -> SaddlePoint:
    """Starting guess for Newton: the cubic interpolant of the exact curve
    and the zero-boundary constraint-node interpolant of its multiplier.

    Without an analytic multiplier, -|u_h''|^2 of the interpolant is sampled
    at the constraint nodes (sides averaged at the nodes, where the discrete
    second derivative jumps)."""
    u = interp_hermite(u_oracle, mesh, dim)
    if multiplier is not None:
        pts = mesh.constraint_nodes(variant)[1:-1]
        vals = np.asarray(multiplier(pts), dtype=float).ravel()
    else:
        vals = default_multiplier_values(u, variant)
    return SaddlePoint(u, multiplier_field(mesh, vals, variant))


def default_multiplier_values(u: HermiteCurve, variant: ConstraintVariant
                              ) -> np.ndarray:
    """-|u''|^2 at the interior constraint nodes of the variant."""
    mesh = u.mesh
    mids = u.eval(mesh.midpoints, order=2)
    # average the one-sided second derivatives at interior nodes
    left = u.eval(mesh.nodes[1:-1], order=2)
    basis_right = u.eval(np.nextafter(mesh.nodes[1:-1], mesh.b), order=2)
    nodes_sq = 0.5 * (np.einsum("nd,nd->n", left, left)
                      + np.einsum("nd,nd->n", basis_right, basis_right))
    vals = np.zeros(2 * mesh.num_elements + 1)
    vals[2:-1:2] = -nodes_sq
    vals[1::2] = -np.einsum("nd,nd->n", mids, mids)
    return vals[::variant.stride][1:-1]


def newton_solve(p0: SaddlePoint, variant: ConstraintVariant,
                 bc: BoundaryConditions, matrices: SystemMatrices,
                 tol: Optional[float] = None, max_iter: int = 25
                 ) -> Tuple[SaddlePoint, dict]:
    """Plain Newton iteration on the optimality system.

    Stops when the Euclidean norm of the stacked residual drops below
    ``tol``, by default its roundoff floor max(1e-11, 0.1 eps |S|_inf
    |u0|_inf sqrt(n)): S the bending matrix, u0 the starting DOFs, n the
    residual length.  A step-halving fallback engages only when a full step
    would increase the residual norm.  Returns the solution and a log with
    the residual norms and the tol used; a failed KKT solve raises
    ``NewtonError``.
    """
    from .saddle_solver import KKTSingularError, SaddleSystem, solve_kkt

    mesh, dim = p0.u.mesh, p0.u.dim
    P = _pattern(matrices, variant, bc).restriction
    p = p0
    r_u, r_mu = residual(p, variant, bc, matrices)
    norms = [float(np.sqrt(np.dot(r_u, r_u) + np.dot(r_mu, r_mu)))]
    halvings = 0
    if tol is None:
        tol = max(1e-11, float(0.1 * np.finfo(float).eps
                               * abs(matrices.bending).sum(axis=1).max()
                               * np.abs(p0.u.dofs).max()
                               * np.sqrt(r_u.size + r_mu.size)))

    for _ in range(max_iter):
        if norms[-1] <= tol:
            break
        A, B, _ = jacobian(p, variant, bc, matrices)
        try:
            du, dlam = solve_kkt(SaddleSystem(A, B, -r_u, -r_mu))
        except KKTSingularError as exc:
            raise NewtonError(f"KKT solve failed: {exc}", norms) from exc

        step_scale = 1.0
        u_dofs = p.u.dofs
        lam_dofs = multiplier_dofs(p.lam, variant)
        while True:
            cand = SaddlePoint(
                HermiteCurve.from_dofs(mesh, dim,
                                       u_dofs + P @ (step_scale * du)),
                multiplier_field(mesh, lam_dofs + step_scale * dlam, variant))
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
# discrete norms and Brezzi diagnostics

def _multiplier_fe_matrices(mesh: Mesh1D, variant: ConstraintVariant
                            ) -> Tuple[np.ndarray, np.ndarray]:
    """(mass, stiffness) of the multiplier space restricted to the interior
    constraint nodes (zero boundary values)."""
    h = mesh.element_lengths
    if variant is ConstraintVariant.P2:
        mass_ref = np.array([[4.0, 2.0, -1.0], [2.0, 16.0, 2.0],
                             [-1.0, 2.0, 4.0]]) / 30.0
        stiff_ref = np.array([[7.0, -8.0, 1.0], [-8.0, 16.0, -8.0],
                              [1.0, -8.0, 7.0]]) / 3.0
    else:
        mass_ref = np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0
        stiff_ref = np.array([[1.0, -1.0], [-1.0, 1.0]])
    # element e holds the constraint nodes step*e, ..., step*(e+1)
    step = mass_ref.shape[0] - 1
    loc = step * np.arange(mesh.num_elements)[:, None] + np.arange(step + 1)
    nz = step * mesh.num_elements + 1
    mass = np.zeros((nz, nz))
    stiff = np.zeros((nz, nz))
    for e in range(mesh.num_elements):
        idx = np.ix_(loc[e], loc[e])
        mass[idx] += h[e] * mass_ref
        stiff[idx] += stiff_ref / h[e]
    return mass[1:-1, 1:-1], stiff[1:-1, 1:-1]


@dataclass
class DiscreteNorms:
    """Gram matrix of the H2 norm on the reduced curve DOFs, and the
    computable surrogate of the dual norm on multiplier DOFs
    (mu -> sqrt(r^T K^{-1} r) with r the load vector of mu and K the H1 Gram
    of the zero-boundary multiplier basis)."""

    h2_gram: np.ndarray
    mult_mass: np.ndarray
    mult_h1: np.ndarray

    @classmethod
    def build(cls, matrices: SystemMatrices, bc: BoundaryConditions,
              variant: ConstraintVariant) -> "DiscreteNorms":
        pattern = _pattern(matrices, variant, bc)
        mass, stiff = _multiplier_fe_matrices(matrices.mesh, variant)
        return cls(pattern.restrict(matrices.mass + matrices.gradient
                                    + matrices.bending).toarray(),
                   mass, mass + stiff)

    def curve_dual_norm(self, r_u: np.ndarray) -> float:
        """Dual norm of a curve-block functional w.r.t. the H2 norm."""
        return float(np.sqrt(max(r_u @ sla.solve(self.h2_gram, r_u,
                                                 assume_a="pos"), 0.0)))

    def multiplier_dual_norm(self, r_mu: np.ndarray) -> float:
        """Dual norm of a multiplier-block functional: coefficients are mapped
        to the representing field (mass solve), then measured in the H1 Gram."""
        t = sla.solve(self.mult_mass, r_mu, assume_a="pos")
        return float(np.sqrt(max(t @ self.mult_h1 @ t, 0.0)))

    def multiplier_norm_matrix(self) -> np.ndarray:
        """Gram of the dual-norm surrogate on multiplier DOFs:
        N = mass * H1gram^{-1} * mass."""
        return self.mult_mass @ sla.solve(self.mult_h1, self.mult_mass,
                                          assume_a="pos")


def residual_dual_norm(p: SaddlePoint, variant: ConstraintVariant,
                       bc: BoundaryConditions, matrices: SystemMatrices,
                       norms: Optional[DiscreteNorms] = None) -> float:
    """Dual norm of the full optimality residual at p."""
    if norms is None:
        norms = DiscreteNorms.build(matrices, bc, variant)
    r_u, r_mu = residual(p, variant, bc, matrices)
    return float(np.hypot(norms.curve_dual_norm(r_u),
                          norms.multiplier_dual_norm(r_mu)))


def coercivity_estimate(p: SaddlePoint, variant: ConstraintVariant,
                        bc: BoundaryConditions, matrices: SystemMatrices,
                        norms: Optional[DiscreteNorms] = None) -> float:
    """Smallest eigenvalue of the primal form restricted to ker B, relative
    to the H2 Gram: positive values certify discrete kernel coercivity."""
    if norms is None:
        norms = DiscreteNorms.build(matrices, bc, variant)
    A, B, _ = jacobian(p, variant, bc, matrices)
    Bd = B.toarray()
    # null_space's rank tolerance is matrix_rank's: eps * max(m, n) * s_max
    Z = sla.null_space(Bd)
    if Bd.shape[1] - Z.shape[1] < Bd.shape[0]:
        raise ValueError("constraint block is rank deficient")
    a_red = Z.T @ A.toarray() @ Z
    g_red = Z.T @ norms.h2_gram @ Z
    return float(sla.eigh(0.5 * (a_red + a_red.T), g_red,
                          eigvals_only=True, subset_by_index=[0, 0])[0])


def infsup_estimate(p: SaddlePoint, variant: ConstraintVariant,
                    bc: BoundaryConditions, matrices: SystemMatrices,
                    norms: Optional[DiscreteNorms] = None) -> float:
    """Smallest generalized singular value of the constraint block under the
    H2 Gram on curve DOFs and the dual-norm Gram on multiplier DOFs."""
    if norms is None:
        norms = DiscreteNorms.build(matrices, bc, variant)
    _, B, _ = jacobian(p, variant, bc, matrices)
    Bd = B.toarray()
    W = Bd @ sla.solve(norms.h2_gram, Bd.T, assume_a="pos")
    N = norms.multiplier_norm_matrix()
    lam_min = sla.eigh(0.5 * (W + W.T), 0.5 * (N + N.T),
                       eigvals_only=True, subset_by_index=[0, 0])[0]
    return float(np.sqrt(max(lam_min, 0.0)))
