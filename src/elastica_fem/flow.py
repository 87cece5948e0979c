"""Constrained gradient-flow time stepping for the bending energy.

Each step linearizes the inextensibility constraint about the previous
iterate: with A = M + tau*S (L2 flow) or (1 + tau)*S (H2 flow), B = T(Z^n) D P
and P the restriction of ``BoundaryConditions.restriction``, the velocity
v = P v_r solves

    [[P^T A P, B^T], [B, 0]] (v_r, Lambda) = (-P^T S Z^n, 0),

and Z^{n+1} = Z^n + tau * v.  The row of node k says t_k . d_k = 0 for its
derivative DOFs d_k; the frame Q_k = [t_k/|t_k|, N_k] (``tangent_frames``)
turns it into "tangential component = 0", an uncoupled row like that of an
eliminated DOF (the null-space method of Benzi, Golub & Liesen, Acta
Numerica 14, 2005, sec. 6).  So a step solves for w, v_r = Q w, with Q^T P^T
A P Q, the midpoint rows times Q (P2; none for P1) and Q^T applied to the
rhs, in the full DOF numbering (``StepStructure``).  A step makes no sparse
matrix, and carries S Z^{n+1} and the tangents of Z^{n+1}, which also give
the constraint drift, to the next.  No projection or renormalization is
applied between steps; the drift is monitored only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

# assemble_constraint stays a name here for perfbench's tracer
from .assembly import (BoundaryConditions, ConstraintPattern, SystemMatrices,
                       _csr, assemble_constraint, assemble_matrices,
                       constraint_pattern)
from .mesh import ConstraintVariant, Mesh1D
from .saddle_solver import BandedKKT, SaddleSystem, solve_kkt
from .splines import (FunctionOracle, HermiteCurve, interp_j2, interp_j3,
                      unit_speed_violation)


class FlowSolveError(RuntimeError):
    """Solver failure with the step index attached."""

    def __init__(self, step_index: int, cause: Exception):
        super().__init__(f"saddle solve failed at flow step {step_index}: {cause}")
        self.step_index = step_index


@dataclass
class FlowConfig:
    tau: float
    T: float
    variant: str = "l2"                      # "l2" or "h2"
    constraint: ConstraintVariant = ConstraintVariant.P2
    bc: BoundaryConditions = None

    def __post_init__(self):
        if self.tau <= 0.0:
            raise ValueError("time step must be positive")
        if self.T < 0.0:
            raise ValueError("final time must be nonnegative")
        if self.variant not in ("l2", "h2"):
            raise ValueError(f"unknown flow variant: {self.variant!r}")
        if self.bc is None:
            self.bc = BoundaryConditions.free()

    @property
    def num_steps(self) -> int:
        # t_n = n*tau only fills [0, T] exactly for divisors; round otherwise
        return int(round(self.T / self.tau))


@dataclass
class FlowState:
    n: int
    curve: HermiteCurve
    energy: float
    last_velocity_norm: float
    constraint_violation: float
    # S @ curve.dofs and u' at its constraint nodes, for the next step
    bending_load: np.ndarray = field(repr=False)
    tangents: np.ndarray = field(repr=False)
    max_identity_violation: float = 0.0
    max_constraint_residual: float = 0.0


def init_state(z0: FunctionOracle, mesh: Mesh1D, dim: int,
               constraint: ConstraintVariant, initializer: str = "j3",
               matrices: Optional[SystemMatrices] = None) -> FlowState:
    """Initial flow state.

    "j3": cubic initializer whose derivative interpolates z0' at nodes and
    midpoints; satisfies the P2 constraint exactly when z0 is unit speed.
    "j2": piecewise-quadratic initializer (linear derivative interpolant);
    satisfies the P1 constraint exactly.
    """
    if z0.deriv is None:
        raise ValueError("flow initialization needs the derivative of z0")
    pts = mesh.constraint_nodes(constraint)
    speeds = np.linalg.norm(np.atleast_2d(
        np.asarray(z0.deriv(pts), dtype=float).reshape(pts.size, -1)), axis=1)
    worst = float(np.abs(speeds - 1.0).max())
    if worst > 1e-8:
        raise ValueError(
            f"initial curve is not unit speed at a constraint node: |error| = {worst:.3e}")

    start = np.asarray(z0.value(np.array([mesh.a])), dtype=float).reshape(dim)
    if initializer == "j3":
        curve = interp_j3(start, z0.deriv, mesh, dim)
    elif initializer == "j2":
        curve = interp_j2(start, z0.deriv, mesh, dim)
    else:
        raise ValueError(f"unknown initializer: {initializer!r}")

    if matrices is None:
        matrices = assemble_matrices(mesh, dim)
    tangents = curve.derivative_at_constraint_nodes(constraint)
    return FlowState(
        n=0,
        curve=curve,
        energy=0.5 * matrices.quad_bending(curve.dofs),
        last_velocity_norm=float("nan"),
        constraint_violation=unit_speed_violation(curve, constraint, tangents),
        bending_load=matrices.apply_bending(curve.dofs),
        tangents=tangents,
    )


_ONE_ZERO = np.array([1.0, 0.0])       # the heads of StepStructure's H and V
_ROTATION = np.array([[1.0, 0.0, 0.0, 1.0], [0.0, -1.0, 1.0, 0.0]])


def tangent_frames(t: np.ndarray) -> np.ndarray:
    """(K, d, d) orthonormal frames Q_k = [x_k, N_k], x_k = t_k/|t_k|, of the
    rows t_k of a (K, d) array: for d = 2 the rotation taking e_1 to x_k;
    else the Householder reflection that swaps e_1 and -s x_k, s the
    sign of x_k's first component (1 + s x_k1 does not cancel), with its
    first column times -s."""
    x = t / np.sqrt(np.add.reduce(t * t, axis=1))[:, None]
    if t.shape[1] == 2:
        return (x @ _ROTATION).reshape(-1, 2, 2)
    s, eye = np.where(x[:, :1] < 0.0, -1.0, 1.0), np.eye(t.shape[1])
    u = x + s * eye[0]
    Q = eye - u[:, :, None] * (u / (1.0 + s * x[:, :1]))[:, None]
    Q[:, :, 0] *= -s
    return Q


def _rotation_maps(pattern: ConstraintPattern, a: sp.csr_matrix, d: int,
                   variant: ConstraintVariant, mesh: Mesh1D):
    """``StepStructure``'s fields for the constraint ``pattern`` of a
    square restriction and the scalar a of P^T A P = a (x) I_d."""
    ns, bt, c, r = a.shape[0], pattern.template, np.arange(d), np.arange(1, d)
    n, node_row = ns * d, pattern.rows * variant.stride % 2 == 0
    nodes = pattern.rows[node_row]
    k, deriv = nodes.size, (nodes * variant.stride + 1)[:, None] * d + c
    frame = np.full(ns + 1, -1)          # of each scalar DOF (and none)
    frame[deriv[:, 0] // d] = np.arange(k)

    def q_at(j, f):          # (..., d) positions in H of Q_f's column j
        return 2 + (f[..., None] * d + c) * d + j[..., None]
    t_at = 2 + d * d * k
    f_at = t_at + d * mesh.constraint_nodes(variant).size
    # a's entries, each row padded to one width, blocks over (i, j, entry)
    width = np.diff(a.indptr).max()
    sr = np.repeat(np.arange(ns), width)
    e = (a.indptr[:-1, None] + np.arange(width)).ravel()
    valid = e < a.indptr[sr + 1]
    e[~valid] = 0
    sc = a.indices[e]
    fr, fc = frame[sr], frame[sc]
    both = valid & (fr >= 0) & (fc >= 0) & (sr != sc)
    pairs, pair = np.unique((np.minimum(fr, fc) * k + np.maximum(fr, fc))
                            [both], return_inverse=True)
    # H's position of entry (i, j) of each entry's block: base + an
    # offset by its kind, 0 on the diagonal of an unrotated pair or of a
    # node's own block (Q_k^T Q_k = I)
    kind = np.where((fr >= 0) & (fc >= 0), 3 + (fr > fc),
                    np.where(fc >= 0, 1, np.where(fr >= 0, 2, 0)))
    kind[(sr == sc) | ~valid] = 0
    base = np.where(kind == 1, 2 + fc * d * d,
                    np.where(kind == 2, 2 + fr * d * d, f_at + n + 1 - d))
    base[both] += pair * (d - 1) ** 2
    i, j = c[:, None], c
    offset = np.array([0 * (i + j), i * d + j, j * d + i, i * (d - 1) + j,
                       j * (d - 1) + i])
    i, j = c[:, None, None], c[:, None]
    # a tangential component keeps its diagonal entry only
    keep = valid & np.where(kind == 0, i == j,
                            ((fr < 0) | (i > 0)) & ((fc < 0) | (j > 0)))
    # the kept (i, j, entry) in CSR order, (row, i, entry, j)
    r_, i, l_, j = np.nonzero(keep.reshape(d, d, ns, width).transpose(2, 0, 3, 1))
    kept, rows = r_ * width + l_, r_ * d + i
    g = base[kept] + offset[kind[kept], i, j]
    g[kind[kept] == 0] = 0
    A = _csr(np.zeros(rows.size), sc[kept] * d + j,
             np.searchsorted(rows, np.arange(n + 1)), (n, n))
    del r_, l_, i, j, rows      # what is alive at the end sets the peak
    # B: the midpoint rows off the tangential columns, t_m^T Q_k over the
    # (rotated node, midpoint) pairs
    b_rows = np.repeat(np.arange(bt.shape[0]), np.diff(bt.indptr))
    fb, comp = frame[bt.indices // d], bt.indices % d
    on_q = ~node_row[b_rows] & (fb >= 0)
    mids, mid = np.unique((fb * bt.shape[1] + pattern.tangent // d)[on_q],
                          return_inverse=True)
    y_at = f_at + n + 1 + pairs.size * (d - 1) ** 2
    b_at = t_at + pattern.tangent
    b_at[on_q] = y_at + mid * (d - 1) + comp[on_q] - 1
    in_b = ~node_row[b_rows] & ((fb < 0) | (comp > 0))
    b_row = (np.cumsum(~node_row) - 1)[b_rows[in_b]]
    B = _csr(np.zeros(b_row.size), bt.indices[in_b], np.searchsorted(
        b_row, np.arange(node_row.size - k + 1)), (node_row.size - k, n))
    # the rhs: -f, 0 on the tangential components, -Q_k^T f_k
    rhs = f_at + np.arange(n)
    rhs[deriv[:, 0]] = 1
    rhs[deriv[:, 1:]] = y_at + mids.size * (d - 1) + np.arange(
        k * (d - 1)).reshape(k, d - 1)
    # the products Q_a^T Q_b, t_m^T Q_k and Q_k^T f_k on N's columns
    pa, pb = np.divmod(pairs, max(k, 1))
    yf, yz = np.divmod(mids, bt.shape[1])
    z = np.arange(k)[:, None]
    pieces = [np.broadcast_arrays(x, y) for x, y in (
        (q_at(r[:, None], pa[:, None, None]), q_at(r, pb[:, None, None])),
        (t_at + yz[:, None, None] * d + c, q_at(r, yf[:, None])),
        (q_at(r, z), f_at + deriv[:, None]))]
    products = np.stack([np.concatenate([x.reshape(-1, d) for x in side])
                         for side in zip(*pieces)]).transpose(0, 2, 1).copy()
    # v = P Q w: over N's columns, 1 w (unrotated) or 0 0 (fixed)
    cols, rv = pattern.columns, np.arange(1, max(d, 2))[:, None]
    fv, cv = frame[cols // d], cols % d
    rotated = (fv >= 0) & (rv < d)
    velocity = np.where(rotated, [2 + (fv * d + cv) * d + rv,
                                  t_at + cols - cv + rv], 1)
    velocity[:, 0] = np.where(rotated[0], velocity[:, 0], np.where(
        (cols < n) & (fv < 0), [np.zeros(n, dtype=np.intp), t_at + cols], 1))
    scale = np.concatenate([a.data[e[kept]], pattern.coef[in_b],
                            pattern.coef, np.full(n, -1.0)])
    gather = np.concatenate([g, b_at[in_b], t_at + pattern.tangent, rhs])
    return A, B, b_rows, nodes, products, velocity, scale, gather


@dataclass(frozen=True, eq=False)
class StepStructure:
    """What stays fixed over a run: the rotated system's ``A`` and ``B`` on
    fixed index arrays (``kkt`` sets their values), their ``BandedKKT``, the
    constraint ``pattern`` with the row of each entry, and index maps.

    With the square restriction (``restriction(full=True)``), P^T A P =
    a (x) I_d.  Each entry of the rotated A is a_kl times 1 (on the
    diagonal of an unrotated pair and of a node's own block, Q_k^T Q_k =
    I), an entry of Q_l or Q_k^T, or (Q_k^T Q_l)_ij, k != l, so that its
    diagonal is a's; each of B Q_N a coefficient of D times t_c
    or (Q_k^T t_m)_j; each of the rhs -f_i or -(Q_k^T f_k)_j.  So the values
    of A, of B, of the rows of ``pattern`` (D's coefficients times t) and of
    the rhs are ``scale * H[gather]``, H = (1, 0, Q, t, f) followed by the
    sums over c of ``H[products[0]] * H[products[1]]``; v = P Q w sums
    ``V[velocity[0]] * V[velocity[1]]``, V = (1, 0, Q, w).  Each sum runs
    in the order of the components, as a sparse product with Q sums it.
    ``nodes`` holds the constraint node of each rotated node."""

    A: sp.csr_matrix
    B: sp.csr_matrix
    band: BandedKKT
    pattern: ConstraintPattern
    b_rows: np.ndarray
    nodes: np.ndarray
    products: np.ndarray
    velocity: np.ndarray
    scale: np.ndarray
    gather: np.ndarray

    @classmethod
    def build(cls, config: FlowConfig, matrices: SystemMatrices
              ) -> "StepStructure":
        d, variant = matrices.dim, config.constraint
        pattern = constraint_pattern(
            matrices.derivative_map(variant),
            config.bc.restriction(matrices.mesh, d, full=True), d, variant)
        a = pattern.restrict(matrices.combine(1, mass=1.0, bending=config.tau)
                             if config.variant == "l2"
                             else matrices.combine(1, bending=1.0 + config.tau), d)
        # the band is built once the maps' temporaries are freed
        A, B, *maps = _rotation_maps(pattern, a, d, variant, matrices.mesh)
        return cls(A, B, BandedKKT(A, B), pattern, *maps)

    def kkt(self, state: FlowState
            ) -> Tuple[SaddleSystem, np.ndarray, np.ndarray]:
        """The rotated system of the step from ``state``, on ``A`` and
        ``B``; the frames Q; the values of the rows of ``pattern``."""
        t, A, B, n = state.tangents, self.A, self.B, self.A.shape[0]
        Q = tangent_frames(t[self.nodes])
        H = np.concatenate([_ONE_ZERO, Q.ravel(), t.ravel(), np.bincount(
            self.pattern.columns, state.bending_load, n + 1)])
        H = np.concatenate([H, np.add.reduce(
            H[self.products[0]] * H[self.products[1]], axis=0)])
        values = H[self.gather]
        values *= self.scale
        a, b = A.indices.size, A.indices.size + B.indices.size
        A.data, B.data = values[:a], values[a:b]
        return (SaddleSystem(A, B, values[-n:], np.zeros(B.shape[0])), Q,
                values[b:-n])


def step(state: FlowState, config: FlowConfig, matrices: SystemMatrices,
         structure: Optional[StepStructure] = None) -> FlowState:
    """One time step; returns the new state.

    ``structure`` is built for this call when not given; ``run`` builds it
    once for all its steps.

    The energy-decrease identity of the scheme is monitored: for the L2 flow
    E(Z^{n+1}) = E(Z^n) - tau*|v|_L2^2 - (tau^2/2)*|v''|_L2^2 with v the
    discrete velocity, and analogously with the H2 product for the H2 flow.
    The linearized-constraint residual is the largest of every row of
    T(Z^n) D P, at the nodes and the midpoints, at v_r.
    """
    Z, tau, variant = state.curve, config.tau, config.constraint
    if structure is None:
        structure = StepStructure.build(config, matrices)
    system, Q, rows = structure.kkt(state)
    try:
        v_r, _ = solve_kkt(system, band=structure.band)
    except Exception as exc:
        raise FlowSolveError(state.n, exc) from exc
    # v = P Q w (w is 0 on the tangential components): fixed DOFs of v are
    # exactly 0 and periodic ends exactly equal
    V, pattern = np.concatenate([_ONE_ZERO, Q.ravel(), v_r]), structure.pattern
    v = np.add.reduce(V[structure.velocity[0]] * V[structure.velocity[1]], axis=0)

    new_dofs = Z.dofs + tau * v
    new_curve = HermiteCurve.from_dofs(Z.mesh, Z.dim, new_dofs)
    new_tangents = new_curve.derivative_at_constraint_nodes(variant)

    # the new energy comes from Z^{n+1} itself, so the identity checks it
    v_mass, v_bend, new_energy, new_load = matrices.step_forms(v, new_dofs)
    if config.variant == "l2":
        identity_err = abs(new_energy - state.energy + tau * v_mass
                           + 0.5 * tau**2 * v_bend)
    else:
        identity_err = abs(new_energy - state.energy + (tau + 0.5 * tau**2) * v_bend)
    identity_err /= max(1.0, abs(state.energy))

    tang = np.bincount(structure.b_rows, rows * v[pattern.template.indices],
                       pattern.rows.size)
    constraint_res = float(np.abs(tang).max(initial=0.0))

    return FlowState(
        n=state.n + 1,
        curve=new_curve,
        energy=new_energy,
        last_velocity_norm=float(np.sqrt(max(v_mass, 0.0))),
        constraint_violation=unit_speed_violation(new_curve, variant, new_tangents),
        max_identity_violation=max(state.max_identity_violation, identity_err),
        max_constraint_residual=max(state.max_constraint_residual, constraint_res),
        bending_load=new_load,
        tangents=new_tangents,
    )


def run(config: FlowConfig, mesh: Mesh1D, z0: FunctionOracle, dim: int,
        initializer: str = "j3", matrices: Optional[SystemMatrices] = None,
        snapshot_stride: int = 0
        ) -> Tuple[FlowState, List[Tuple[int, HermiteCurve]]]:
    """Run the flow for round(T/tau) steps.

    Returns the final state and, for a positive ``snapshot_stride``, the list
    of (step index, curve) snapshots including the initial curve.
    """
    if matrices is None:
        matrices = assemble_matrices(mesh, dim)
    state = init_state(z0, mesh, dim, config.constraint, initializer, matrices)
    config.bc.validate_initial(state.curve)
    structure = StepStructure.build(config, matrices) if config.num_steps \
        else None

    snapshots: List[Tuple[int, HermiteCurve]] = []
    if snapshot_stride > 0:
        snapshots.append((0, state.curve))
    for _ in range(config.num_steps):
        state = step(state, config, matrices, structure=structure)
        if snapshot_stride > 0 and state.n % snapshot_stride == 0:
            snapshots.append((state.n, state.curve))
    if snapshot_stride > 0 and snapshots[-1][0] != state.n:
        snapshots.append((state.n, state.curve))
    return state, snapshots


def dump_trajectory(snapshots: List[Tuple[int, HermiteCurve]], tau: float,
                    path: str) -> None:
    """Blank-line separated blocks of "x u1 u2 [u3]" rows, 10 per element."""
    with open(path, "w") as fh:
        for n, curve in snapshots:
            mesh, t = curve.mesh, np.linspace(0.0, 1.0, 10, endpoint=False)
            x = np.append(mesh.nodes[:-1, None] + np.outer(mesh.element_lengths, t), mesh.b)
            vals = curve.eval(x)
            fh.write(f"# step {n} t={n * tau:.6g}\n")
            for xi, row in zip(x, vals):
                fh.write(" ".join(f"{v:.12g}" for v in (xi, *row)) + "\n")
            fh.write("\n")
