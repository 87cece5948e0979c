"""Built-in experiment definitions, the sweep driver, and CSV table output.

Each named experiment pins the interval, initial curve, boundary conditions,
time horizon, and time steps of one of the reference convergence studies.
Tables are validated by convergence rate, not by value: the reference error
values live in external data files that are not part of this repository.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace
from typing import List, Optional

import numpy as np

from . import flow as flow_mod
from .analysis import ExactSolution, eoc, h2_error, weak_errors
from .assembly import BoundaryConditions, assemble_matrices
from .mesh import ConstraintVariant, Mesh1D
from .splines import FunctionOracle
from .stationary import study_row

DEFAULT_MESH_SIZES = (10, 20, 40, 80, 160)


def circle_initial() -> FunctionOracle:
    return FunctionOracle(
        value=lambda x: np.stack([np.cos(x), np.sin(x)], axis=-1),
        deriv=lambda x: np.stack([-np.sin(x), np.cos(x)], axis=-1),
    )


def circle_exact() -> ExactSolution:
    return ExactSolution(circle_initial(), h2_seminorm_sq=2.0 * np.pi,
                         multiplier=lambda x: -np.ones_like(x), name="circle")


_HELIX_S = float(np.sqrt(np.pi**2 + 1.0))
HELIX_FREQ = np.pi / _HELIX_S    # angular frequency of the reference helix
HELIX_PITCH = 1.0 / _HELIX_S


def helix_initial() -> FunctionOracle:
    lp, mp = HELIX_FREQ, HELIX_PITCH
    return FunctionOracle(
        value=lambda x: np.stack(
            [np.cos(lp * x), np.sin(lp * x), mp * x], axis=-1),
        deriv=lambda x: np.stack(
            [-lp * np.sin(lp * x), lp * np.cos(lp * x), mp * np.ones_like(x)],
            axis=-1),
    )


def helix_exact() -> ExactSolution:
    # For clamped ends the multiplier solving u'''' = (lam u')' is the
    # constant -freq^2; the -|u''|^2 formula applies only when the endpoint
    # value at b is free.
    return ExactSolution(
        helix_initial(),
        h2_seminorm_sq=HELIX_FREQ**4 * 2.0 * _HELIX_S,
        multiplier=lambda x: -HELIX_FREQ**2 * np.ones_like(x),
        name="helix")


def _oval_pieces(x):
    """x as an array, its output array and the masks of the four pieces:
    upper half circle, left segment, lower half circle, right segment."""
    x = np.asarray(x, dtype=float)
    return x, np.empty(x.shape + (2,)), (
        x <= np.pi, (x > np.pi) & (x <= 2 * np.pi),
        (x > 2 * np.pi) & (x <= 3 * np.pi), x > 3 * np.pi)


def _oval_value(x):
    x, out, (c1, c2, c3, c4) = _oval_pieces(x)
    out[c1] = np.stack([np.cos(x[c1]), np.sin(x[c1])], axis=-1)
    out[c2] = np.stack([-np.ones(int(c2.sum())), np.pi - x[c2]], axis=-1)
    out[c3] = np.stack([np.cos(x[c3] - np.pi), np.sin(x[c3] - np.pi) - np.pi],
                       axis=-1)
    out[c4] = np.stack([np.ones(int(c4.sum())), x[c4] - 4 * np.pi], axis=-1)
    return out


def _oval_deriv(x):
    x, out, (c1, c2, c3, c4) = _oval_pieces(x)
    out[c1] = np.stack([-np.sin(x[c1]), np.cos(x[c1])], axis=-1)
    out[c2] = np.tile([0.0, -1.0], (int(c2.sum()), 1))
    out[c3] = np.stack([-np.sin(x[c3] - np.pi), np.cos(x[c3] - np.pi)], axis=-1)
    out[c4] = np.tile([0.0, 1.0], (int(c4.sum()), 1))
    return out


def oval_initial() -> FunctionOracle:
    """Two half circles joined by straight segments; C1 and unit speed."""
    return FunctionOracle(value=_oval_value, deriv=_oval_deriv)


def oval_exact() -> ExactSolution:
    """The round two-loop limit curve of the oval flow."""
    return ExactSolution(
        FunctionOracle(
            value=lambda x: np.stack(
                [2.0 * np.cos(0.5 * x) - 1.0, 2.0 * np.sin(0.5 * x)], axis=-1),
            deriv=lambda x: np.stack(
                [-np.sin(0.5 * x), np.cos(0.5 * x)], axis=-1),
        ),
        h2_seminorm_sq=np.pi,
        multiplier=lambda x: -0.25 * np.ones_like(x),
        name="oval")


@dataclass
class ExperimentSpec:
    name: str
    interval: tuple
    dim: int
    z0: FunctionOracle
    exact: Optional[ExactSolution]
    bc: BoundaryConditions
    mesh_sizes: List[int] = field(default_factory=lambda: list(DEFAULT_MESH_SIZES))
    taus: List[float] = field(default_factory=lambda: [0.1, 0.05])
    T: float = 50.0
    flow_variant: str = "l2"          # "l2", "h2", or "newton"
    constraint: ConstraintVariant = ConstraintVariant.P2
    initializer: str = "j3"
    norms: List[str] = field(default_factory=lambda: ["h2"])
    long_running: bool = False         # excluded from default acceptance

    def __post_init__(self):
        if self.flow_variant not in ("l2", "h2", "newton"):
            raise ValueError(f"unknown flow variant: {self.flow_variant!r}")
        if self.initializer not in ("j3", "j2"):
            raise ValueError(f"unknown initializer: {self.initializer!r}")
        for n in self.norms:
            if n not in ("h2", "l2", "h1"):
                raise ValueError(f"unknown norm: {n!r}")
        if min(self.mesh_sizes, default=0) < 1:
            raise ValueError("need one or more mesh sizes, each >= 1")
        if self.flow_variant == "h2" and self.bc.value_a is None \
                and self.bc.value_b is None:
            raise ValueError(flow_mod.H2_FREE)
        if self.flow_variant != "newton" and not self.taus:
            raise ValueError("a flow needs at least one time step tau")
        # a table needs one row per mesh size and one column per tau=%g label
        for items in (self.mesh_sizes, self.norms, [f"{tau:g}" for tau in self.taus]):
            if len(set(items)) < len(items):
                raise ValueError(f"repeated entries in {items}")
        for tau in self.taus:
            flow_mod.FlowConfig(tau, self.T)    # as a flow checks them

    def override(self, **kwargs) -> "ExperimentSpec":
        return replace(self, **kwargs)


def named_experiment(name: str, constraint: ConstraintVariant = ConstraintVariant.P2,
                     **overrides) -> ExperimentSpec:
    """Built-in experiment instances with their reference configurations."""
    if name == "circle":
        spec = ExperimentSpec(
            name="circle", interval=(0.0, 2.0 * np.pi), dim=2,
            z0=circle_initial(), exact=circle_exact(),
            bc=BoundaryConditions(value_a=(1.0, 0.0), deriv_a=(0.0, 1.0),
                                  deriv_b=(0.0, 1.0)),
            taus=[1.0 / 10.0, 1.0 / 20.0], T=50.0)
    elif name == "helix":
        lp, mp = HELIX_FREQ, HELIX_PITCH
        b = 2.0 * _HELIX_S
        spec = ExperimentSpec(
            name="helix", interval=(0.0, b), dim=3,
            z0=helix_initial(), exact=helix_exact(),
            bc=BoundaryConditions.clamped(
                (1.0, 0.0, 0.0), (0.0, lp, mp), (1.0, 0.0, mp * b), (0.0, lp, mp)),
            taus=[1.0 / 10.0, 1.0 / 20.0], T=50.0)
    elif name == "oval":
        spec = ExperimentSpec(
            name="oval", interval=(0.0, 4.0 * np.pi), dim=2,
            z0=oval_initial(), exact=oval_exact(),
            bc=BoundaryConditions(value_a=(1.0, 0.0), deriv_a=(0.0, 1.0),
                                  deriv_b=(0.0, 1.0)),
            taus=[1.0 / 2000.0, 1.0 / 4000.0], T=5000.0, long_running=True)
    elif name == "oval-h2":
        spec = named_experiment("oval").override(
            name="oval-h2", taus=[1.0 / 200.0, 1.0 / 400.0], T=50.0,
            flow_variant="h2", long_running=False)
    else:
        raise ValueError(f"unknown experiment: {name!r}")
    if constraint is not spec.constraint:
        spec = spec.override(constraint=constraint)
    if overrides:
        spec = spec.override(**overrides)
    return spec


@dataclass
class TableColumn:
    label: str
    errors: List[Optional[float]]
    eocs: List[Optional[float]]


@dataclass
class ExperimentTable:
    hs: List[float]
    columns: List[TableColumn]
    meta: dict
    failures: List[str] = field(default_factory=list)
    snapshots: list = field(default_factory=list)   # see run_experiment

    def column(self, label: str) -> TableColumn:
        for col in self.columns:
            if col.label == label:
                return col
        raise KeyError(label)


def _column_eocs(errors: List[Optional[float]], hs: List[float]
                 ) -> List[Optional[float]]:
    """``eoc`` of each row against the one before; None in the first row
    and where either error is missing or not positive."""
    return [None] + [
        None if a is None or b is None or a <= 0.0 or b <= 0.0
        else eoc([a, b], hs[i - 1:i + 1])[0]
        for i, (a, b) in enumerate(zip(errors, errors[1:]), start=1)]


def run_experiment(spec: ExperimentSpec,
                   snapshot_stride: int = 0) -> ExperimentTable:
    """Run the (mesh, tau) sweep and tabulate the requested error norms with
    their experimental orders of convergence.

    Cell failures are recorded and marked in the table; remaining cells are
    still computed.  The first flow cell (coarsest mesh, first tau) keeps
    its ``flow.run`` snapshots of ``snapshot_stride`` in ``snapshots``.
    """
    if spec.exact is None:
        raise ValueError("experiment needs an exact solution to measure errors")
    t0 = time.perf_counter()
    a, b = spec.interval
    series = [("newton", None)] if spec.flow_variant == "newton" \
        else [(f"tau={tau:g}", tau) for tau in spec.taus]

    hs: List[float] = []
    cells: dict = {(s, n): [] for s, _ in series for n in spec.norms}
    failures: List[str] = []

    snapshots: list = []
    for M in spec.mesh_sizes:
        mesh = Mesh1D.uniform(a, b, M)
        matrices = assemble_matrices(mesh, spec.dim)
        hs.append(mesh.h)
        for label, tau in series:
            try:
                if tau is None:
                    row = study_row(spec, matrices, brezzi=False)
                    if row.errors:      # the cell's failure is Newton's
                        raise row.errors["newton"]
                    curve = row.newton[0].u
                else:
                    cfg = flow_mod.FlowConfig(
                        tau=tau, T=spec.T, variant=spec.flow_variant,
                        constraint=spec.constraint, bc=spec.bc)
                    first = len(hs) == 1 and label == series[0][0]
                    state, snaps = flow_mod.run(
                        cfg, mesh, spec.z0, spec.dim, spec.initializer,
                        matrices, snapshot_stride if first else 0)
                    snapshots += snaps
                    curve = state.curve
                weak = weak_errors(curve, spec.exact, matrices) \
                    if ("l2" in spec.norms or "h1" in spec.norms) else None
                for norm in spec.norms:
                    cells[(label, norm)].append(
                        h2_error(curve, spec.exact, matrices) if norm == "h2"
                        else weak[norm == "h1"])   # weak = (L2, H1)
            except Exception as exc:
                failures.append(f"M={M} {label}: {exc}")
                for norm in spec.norms:
                    cells[(label, norm)].append(None)

    columns = [TableColumn(label=f"{s}:{n}", errors=cells[(s, n)],
                           eocs=_column_eocs(cells[(s, n)], hs))
               for s, _ in series for n in spec.norms]
    meta = {
        "experiment": spec.name,
        "constraint": spec.constraint.value,
        "flow": spec.flow_variant,
        "initializer": spec.initializer,
        "mesh_sizes": list(spec.mesh_sizes),
        "taus": list(spec.taus) if spec.flow_variant != "newton" else [],
        "T": spec.T,
        "norms": list(spec.norms),
        "wall_time_s": round(time.perf_counter() - t0, 3),
    }
    return ExperimentTable(hs, columns, meta, failures, snapshots)


def stationarity_check(name: str, constraint: ConstraintVariant,
                       initializer: str, mesh_size: int = 20) -> float:
    """Velocity norm of the first flow step (tau 0.1) from the initializer."""
    spec = named_experiment(name, constraint=constraint, initializer=initializer)
    a, b = spec.interval
    mesh = Mesh1D.uniform(a, b, mesh_size)
    matrices = assemble_matrices(mesh, spec.dim)
    cfg = flow_mod.FlowConfig(tau=0.1, T=0.1, variant="l2",
                              constraint=constraint, bc=spec.bc)
    state, _ = flow_mod.run(cfg, mesh, spec.z0, spec.dim,
                            initializer=initializer, matrices=matrices)
    return state.last_velocity_norm


def _fmt_error(e: Optional[float]) -> str:
    return "FAILED" if e is None else f"{e:.3e}"


def _fmt_eoc(r: Optional[float]) -> str:
    return "--" if r is None else f"{r:.2f}"


def emit_csv(table: ExperimentTable, path: str) -> None:
    """Headerless CSV: h, then alternating error/eoc columns; errors with 4
    significant digits, eocs with 2 decimals, first-row eocs as "--".
    A companion .meta file echoes the configuration and timing."""
    with open(path, "w") as fh:
        for i, h in enumerate(table.hs):
            cells = [f"{h:.3e}"]
            for col in table.columns:
                cells.append(_fmt_error(col.errors[i]))
                cells.append(_fmt_eoc(col.eocs[i]))
            fh.write(",".join(cells) + "\n")
    meta_path = os.path.splitext(path)[0] + ".meta"
    with open(meta_path, "w") as fh:
        for key, val in table.meta.items():
            fh.write(f"{key} = {val}\n")
        fh.write(f"columns = h,{','.join(c.label for c in table.columns)}\n")
        for f in table.failures:
            fh.write(f"failure = {f}\n")
