"""Constrained gradient-flow time stepping for the bending energy.

Each step linearizes the inextensibility constraint about the previous
iterate and solves one saddle-point system on the reduced DOFs v_r of the
restriction P (``BoundaryConditions.restriction``)

    [[P^T A P, B^T], [B, 0]] (v_r, Lambda) = (-P^T S Z^n, 0),   B = T(Z^n) D P,

with A = M + tau*S for the L2 flow or A = (1 + tau)*S for the H2 flow, then
updates Z^{n+1} = Z^n + tau * P v_r.  The system is solved in the full DOF
numbering, each eliminated DOF on an uncoupled row.  A step makes no sparse
matrix (``StepStructure``), and carries S Z^{n+1} and the tangents of
Z^{n+1}, which also give the constraint drift, to the next.  No projection
or renormalization is applied between steps; the drift is monitored only.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

# assemble_constraint stays a name here for perfbench's tracer
from .assembly import (BoundaryConditions, ConstraintPattern, SystemMatrices,
                       assemble_constraint, assemble_matrices, constraint_pattern)
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
    max_identity_violation: float = 0.0
    max_constraint_residual: float = 0.0
    # S @ curve.dofs and u' at its constraint nodes, for the next step; None: compute
    bending_load: Optional[np.ndarray] = field(default=None, repr=False)
    tangents: Optional[np.ndarray] = field(default=None, repr=False)


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
        tangents=tangents,
    )


@dataclass(frozen=True, eq=False)
class StepStructure:
    """What stays fixed over a run: the reduced system matrix, the pattern
    of the constraint rows, their matrix ``B`` on the pattern's index arrays
    (a step sets its values), the banded KKT storage, and the row of each
    entry of B.  The pattern's restriction Q is P in the full numbering; a
    DOF that owns no reduced DOF keeps an uncoupled row with A's diagonal
    entry and a zero right-hand side, so the KKT keeps order N + m and
    Q v' = P v_r.  Q v', Q^T f and B v' are gathers and bincounts over the
    pattern's ``columns`` and ``b_rows``."""

    A: sp.csr_matrix
    pattern: ConstraintPattern
    B: sp.csr_matrix
    band: BandedKKT
    b_rows: np.ndarray

    @classmethod
    def build(cls, config: FlowConfig, matrices: SystemMatrices
              ) -> "StepStructure":
        pattern = constraint_pattern(
            matrices.derivative_map(config.constraint),
            config.bc.restriction(matrices.mesh, matrices.dim, full=True),
            matrices.dim, config.constraint)
        A = pattern.restrict(matrices.combine(mass=1.0, bending=config.tau)
                             if config.variant == "l2"
                             else matrices.combine(bending=1.0 + config.tau))
        B = copy.copy(pattern.template)
        return cls(A, pattern, B, BandedKKT(A, B),
                   np.repeat(np.arange(B.shape[0]), np.diff(B.indptr)))


def step(state: FlowState, config: FlowConfig, matrices: SystemMatrices,
         structure: Optional[StepStructure] = None) -> FlowState:
    """One time step; returns the new state.

    ``structure`` is built for this call when not given; ``run`` builds it
    once for all its steps.

    The energy-decrease identity of the scheme is monitored: for the L2 flow
    E(Z^{n+1}) = E(Z^n) - tau*|v|_L2^2 - (tau^2/2)*|v''|_L2^2 with v the
    discrete velocity, and analogously with the H2 product for the H2 flow.
    """
    Z, tau, variant = state.curve, config.tau, config.constraint
    if structure is None:
        structure = StepStructure.build(config, matrices)
    load = matrices.apply_bending(Z.dofs) if state.bending_load is None \
        else state.bending_load
    tangents = Z.derivative_at_constraint_nodes(variant) \
        if state.tangents is None else state.tangents
    B, pattern, n = structure.B, structure.pattern, structure.A.shape[0]
    B.data = pattern.coef * tangents.ravel()[pattern.tangent]
    system = SaddleSystem(structure.A, B, np.bincount(pattern.columns, -load, n + 1)[:n],
                          np.zeros(B.shape[0]))
    try:
        v_r, _ = solve_kkt(system, band=structure.band)
    except Exception as exc:
        raise FlowSolveError(state.n, exc) from exc
    # fixed DOFs of v are exactly 0 and periodic ends exactly equal
    v = np.append(v_r, 0.0)[pattern.columns]

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

    tang = np.bincount(structure.b_rows, B.data * v_r[B.indices], B.shape[0])
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
