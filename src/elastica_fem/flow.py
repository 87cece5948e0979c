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


H2_FREE = ("the H2 flow needs value_a or value_b fixed: (1 + tau) S and the "
           "tangent rows leave the translations free")


class FlowSolveError(RuntimeError):
    """Solver failure with the step index and a note on its cause attached."""

    def __init__(self, step_index: int, cause: Exception, note: str):
        super().__init__(f"saddle solve failed at flow step {step_index}: {cause}{note}")
        self.step_index = step_index


@dataclass
class FlowConfig:
    tau: float
    T: float
    variant: str = "l2"                      # "l2" or "h2"
    constraint: ConstraintVariant = ConstraintVariant.P2
    bc: BoundaryConditions = field(default_factory=BoundaryConditions.free)

    def __post_init__(self):
        if not (0.0 < self.tau < np.inf and 0.0 <= self.T < np.inf):
            raise ValueError("need tau in (0, inf) and T in [0, inf), got "
                             f"tau = {self.tau:g}, T = {self.T:g}")
        steps = self.T / self.tau
        if not (steps < np.inf and abs(steps - round(steps)) <= 1e-9 * steps):
            raise ValueError(f"T/tau = {steps:g} is not a whole number")
        if self.variant not in ("l2", "h2"):
            raise ValueError(f"unknown flow variant: {self.variant!r}")

    @property
    def num_steps(self) -> int:
        # T is a whole number of steps up to rounding (__post_init__)
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
    twice_energy, load = matrices.bending_forms(curve.dofs)
    return FlowState(
        n=0,
        curve=curve,
        energy=0.5 * twice_energy,
        last_velocity_norm=float("nan"),
        constraint_violation=unit_speed_violation(curve, constraint, tangents),
        bending_load=load,
        tangents=tangents,
    )


_ONE_ZERO = np.array([1.0, 0.0])       # the heads of StepStructure's H and V
_UNSET = np.broadcast_to(0.0, (2 ** 31 - 1,))   # data that kkt will set
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
    s, x = np.where(x[:, 0] < 0.0, -1.0, 1.0), x.T.copy()   # frames last
    eye = np.eye(t.shape[1])[:, :, None]
    u = x + s * eye[0]
    Q = eye - u[:, None] * (u / (1.0 + s * x[0]))
    Q[:, 0] *= -s
    return Q.transpose(2, 0, 1)


def _rotation_maps(pattern: ConstraintPattern, a: sp.csr_matrix, d: int,
                   variant: ConstraintVariant, mesh: Mesh1D):
    """``StepStructure``'s fields for the constraint ``pattern`` of a square
    restriction and the scalar a of P^T A P = a (x) I_d.  Entry (r, s) of a
    gives A's block at rows r d + i, columns s d + j, whose kept (i, j) and
    H's places follow from (i, j) and its class (1: diagonal or unrotated,
    2: rotated column, 3: rotated row, 4 and 5: both rotated, r's frame
    first or second).  Rows of one sequence of classes share their slots
    (i, entry, j) in CSR order: all rows' kept slots, in order, are A's."""
    ns, bt, c = a.shape[0], pattern.template, np.arange(d)
    n, node_row = ns * d, pattern.rows * variant.stride % 2 == 0
    nodes = pattern.rows[node_row]
    k, deriv = nodes.size, (nodes * variant.stride + 1)[:, None] * d + c
    frame = np.full(ns + 1, -1)          # of each scalar DOF (and none)
    frame[deriv[:, 0] // d] = np.arange(k)
    t_at = 2 + d * d * k
    f_at = t_at + d * mesh.constraint_nodes(variant).size
    # a's entries, rows padded to one width, as (entry, row) arrays; a's
    # pattern is symmetric: each pair r < s of rotated DOFs is in 4 and 5
    e = a.indptr[:-1] + np.arange(np.diff(a.indptr).max())[:, None]
    valid = e < a.indptr[1:]
    e[~valid] = 0
    sc = a.indices[e]
    fr, fc = frame[:ns], frame[sc]
    cls = 1 + (fc >= 0) + 2 * (fr >= 0) + ((fc >= 0) & (fr > fc))
    cls = np.where(valid & (sc != np.arange(ns)), cls, valid)
    pairs = np.sort((fr * k + fc)[cls == 4])
    base = np.where(cls == 2, 2 + fc * d * d, (cls == 3) * (2 + fr * d * d))
    for x, y in ((4, fr * k + fc), (5, fc * k + fr)):
        base[cls == x] = f_at + n + 1 + np.searchsorted(
            pairs, y[cls == x]) * (d - 1) ** 2
    # by class and slot: kept or not, and the offset of the place from base
    i, l, j = np.indices((d, e.shape[0], d)).reshape(3, -1)
    keep = np.array([i < 0, i == j, j > 0, i > 0] + [(i > 0) & (j > 0)] * 2)
    offset = np.array([0 * i, 0 * i, i * d + j, j * d + i,
                       (i - 1) * (d - 1) + j - 1, (j - 1) * (d - 1) + i - 1])
    kinds, row, kind = np.unique(6 ** np.arange(e.shape[0]) @ cls,
                                 return_index=True, return_inverse=True)
    kinds = cls[l[:, None], row].T, np.arange(l.size)
    keep, offset = keep[kinds], offset[kinds].astype(np.int16)
    indptr = np.append(0, np.cumsum(keep.reshape(row.size, d, -1).sum(2)[kind]))
    # B: the midpoint rows off the tangential columns, t_m^T Q_k over the
    # (rotated node, midpoint) pairs, each listed at its component 0
    b_rows, node = np.repeat(np.arange(bt.shape[0]), np.diff(bt.indptr)), bt.indices // d
    fb, comp, mid_row = frame[node], bt.indices - node * d, ~node_row[b_rows]
    q = np.flatnonzero(mid_row & (fb >= 0))
    key = fb[q] * n + pattern.tangent[q] // d
    mids = np.sort(key[comp[q] == 0])
    y_at = f_at + n + 1 + pairs.size * (d - 1) ** 2
    b_at = t_at + pattern.tangent
    b_at[q] = y_at + np.searchsorted(mids, key) * (d - 1) + comp[q] - 1
    # a midpoint row left with no entry (its DOFs fixed or tangential) is 0 = 0
    in_b = np.flatnonzero(mid_row & ((fb < 0) | (comp > 0)))
    per_row = np.bincount(b_rows[in_b])
    per_row, m = per_row[per_row > 0], np.count_nonzero(per_row)
    B = _csr(_UNSET[:in_b.size], bt.indices[in_b],
             np.append(0, np.cumsum(per_row)), (m, n))
    # scale * H[gather]: A (by each kept slot's row, slot and entry of a),
    # B, the rows of pattern, the rhs (-f, 0 or -Q_k^T f_k on the frames)
    ends = np.cumsum([indptr[-1], B.indices.size, bt.indices.size, n])
    scale, gather = np.empty(ends[-1]), np.empty(ends[-1], dtype=np.intp)
    kept = np.flatnonzero(keep[kind])
    gather[:ends[0]] = offset[kind].ravel()[kept]
    entry = kept // l.size
    kept -= entry * l.size
    cols = j.astype(np.int32)[kept]
    entry += (l * ns)[kept]
    del kept, keep, offset, kind
    cols += (sc * d).ravel()[entry]
    A = _csr(_UNSET[:cols.size], cols, indptr, (n, n))
    scale[:ends[0]] = a.data[e].ravel()[entry]
    gather[:ends[0]] += base.ravel()[entry]
    del e, valid, sc, fc, cls, base, entry, cols
    scale[ends[0]:], gather[ends[0]:] = np.concatenate(
        [pattern.coef[in_b], pattern.coef, np.full(n, -1.0)]), np.concatenate(
        [b_at[in_b], t_at + pattern.tangent, f_at + np.arange(n)])
    gather[ends[2] + deriv[:, 0]] = 1
    gather[ends[2] + deriv[:, 1:]] = y_at + mids.size * (d - 1) + np.arange(
        k * (d - 1)).reshape(k, d - 1)
    # the products Q_a^T Q_b, t_m^T Q_k, Q_k^T f_k: H[products[0, :, p]] .
    # H[products[1, :, p]] over the components
    (pa, pb), (yf, yz) = np.divmod(pairs, max(k, 1)), np.divmod(mids, n)
    c4, r = c[:, None, None, None], np.arange(1, d)

    def q_at(f, col):        # (d, ...) places in H of Q_f's column col
        return 2 + (f[:, None, None] * d + c4) * d + col
    products = np.concatenate([np.stack(np.broadcast_arrays(x, y)).reshape(
        2, d, -1) for x, y in (
            (q_at(pa, r[:, None]), q_at(pb, r)),
            (t_at + yz[:, None, None] * d + c4, q_at(yf, r[:, None])),
            (q_at(np.arange(k), r[:, None]), f_at + deriv.T[..., None, None]))],
        axis=2)
    # v = P Q w: over N's columns, 1 w (unrotated) or 0 0 (fixed)
    cols, rv = pattern.columns, np.arange(1, max(d, 2))[:, None]
    fv, cv = frame[cols // d], cols % d
    rotated = (fv >= 0) & (rv < d)
    velocity = np.where(rotated, [2 + (fv * d + cv) * d + rv,
                                  t_at + cols - cv + rv], 1)
    velocity[:, 0] = np.where(rotated[0], velocity[:, 0], np.where(
        (cols < n) & (fv < 0), [np.zeros(n, dtype=np.intp), t_at + cols], 1))
    return (SaddleSystem(A, B, _UNSET[:n], _UNSET[:m]), b_rows, nodes,
            products, velocity, scale, gather)


@dataclass(frozen=True, eq=False)
class StepStructure:
    """What stays fixed over a run: its ``config`` and ``matrices``, the
    rotated ``system``, whose A and B keep their index arrays and whose
    values ``kkt`` sets, their ``BandedKKT``, the constraint ``pattern``
    with the row of each entry, and index maps.  With P^T A P = a (x) I_d,
    each entry of the rotated A is a_kl times 1, an entry of Q_l or Q_k^T,
    or (Q_k^T Q_l)_ij (``_rotation_maps``); each of B Q_N a coefficient of D
    times t_c or (Q_k^T t_m)_j; each of the rhs -f_i or -(Q_k^T f_k)_j.  So
    the values of A, B, the rows of ``pattern`` and the rhs are ``scale *
    H[gather]``, H = (1, 0, Q, t, f) followed by the sums over c of
    ``H[products[0]] * H[products[1]]``; v = P Q w sums ``V[velocity[0]] *
    V[velocity[1]]``, V = (1, 0, Q, w).  Each sum runs in the order of the
    components, as a sparse product with Q sums it.  ``nodes`` are the
    rotated nodes'."""

    config: FlowConfig
    matrices: SystemMatrices
    system: SaddleSystem
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
        s, *maps = _rotation_maps(pattern, a, d, variant, matrices.mesh)
        return cls(config, matrices, s, BandedKKT(s.A, s.B), pattern, *maps)

    def kkt(self, state: FlowState
            ) -> Tuple[SaddleSystem, np.ndarray, np.ndarray]:
        """``system`` with the values of the step from ``state`` (each call
        overwrites the last's); the frames Q; the values of the rows of
        ``pattern``."""
        t, A, B = state.tangents, self.system.A, self.system.B
        n = A.shape[0]
        Q = tangent_frames(t[self.nodes])
        f = 2 + Q.size + t.size + n + 1
        H = np.empty(f + self.products.shape[2])
        np.concatenate([_ONE_ZERO, Q.ravel(), t.ravel(), np.bincount(
            self.pattern.columns, state.bending_load, n + 1)], out=H[:f])
        x = H[self.products]
        np.add.reduce(np.multiply(x[0], x[1], out=x[0]), axis=0, out=H[f:])
        values = H[self.gather]
        values *= self.scale
        a, b = A.indices.size, A.indices.size + B.indices.size
        A.data, B.data, self.system.rhs_top = values[:a], values[a:b], values[-n:]
        return self.system, Q, values[b:-n]


def step(state: FlowState, structure: StepStructure) -> FlowState:
    """One time step with the KKT ``structure`` of a run, whose config (tau,
    flow and constraint variants) and matrices it takes; returns the new
    state.  ``run`` builds the structure once for all its steps.  A failed
    solve notes P2 midpoint tangents that vanish and H2 flows fixing no value.

    The energy-decrease identity of the scheme is monitored: for the L2 flow
    E(Z^{n+1}) = E(Z^n) - tau*|v|_L2^2 - (tau^2/2)*|v''|_L2^2 with v the
    discrete velocity, and analogously with the H2 product for the H2 flow.
    The linearized-constraint residual is the largest of every row of
    T(Z^n) D P, at the nodes and the midpoints, at v_r.
    """
    config, matrices = structure.config, structure.matrices
    Z, tau, variant = state.curve, config.tau, config.constraint
    system, Q, rows = structure.kkt(state)
    try:
        v_r, _ = solve_kkt(system, band=structure.band)
    except Exception as exc:
        speed = np.linalg.norm(state.tangents, axis=1)   # P2: midpoints odd
        elements = ", ".join(map(str, np.flatnonzero(
            (speed[1::2] <= 1e-12 * speed.max()) & (variant is ConstraintVariant.P2))))
        note = elements and (f"; u' vanishes at the midpoint of element "
                             f"{elements}, so its constraint row is 0")
        if config.variant == "h2" and config.bc.value_a is None \
                and config.bc.value_b is None:
            note += f"; {H2_FREE}"
        raise FlowSolveError(state.n, exc, note) from exc
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
        state = step(state, structure)
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
            fh.write(f"# step {n} t={n * tau:.6g}\n")
            np.savetxt(fh, np.column_stack([x, curve.eval(x)]), fmt="%.12g")
            fh.write("\n")
