"""Command-line interface: run experiments, stationarity checks, saddle-point
diagnostics, and interpolation studies.

Exit codes: 0 success, 1 numerical failure, 2 usage error.  The output
directory defaults to the current directory and can be overridden with
--output-dir or the ELASTICA_FEM_OUTPUT_DIR environment variable.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, replace
from typing import List, Optional

import numpy as np

from . import flow
from .analysis import eoc, linf_error, quadrature_error
from .assembly import BoundaryConditions, assemble_matrices
from .experiments import (ExperimentSpec, emit_csv, named_experiment,
                          run_experiment, stationarity_check)
from .mesh import ConstraintVariant, Mesh1D
from .splines import FunctionOracle, interp_hermite
from .stationary import (DiscreteNorms, NewtonError, make_interpolant_pair,
                         newton_solve, coercivity_estimate, infsup_estimate,
                         residual_dual_norm)

EXPERIMENT_NAMES = ("circle", "helix", "oval", "oval-h2")
OUTPUT_DIR_ENV = "ELASTICA_FEM_OUTPUT_DIR"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@dataclass
class CliConfig:
    subcommand: str
    experiment: Optional[str] = None
    config_path: Optional[str] = None
    mesh_sizes: Optional[List[int]] = None
    taus: Optional[List[float]] = None
    T: Optional[float] = None
    flow: Optional[str] = None
    constraint: Optional[str] = None
    initializer: Optional[str] = None
    norms: Optional[List[str]] = None
    output_dir: Optional[str] = None
    long: bool = False
    snapshot_stride: int = 0
    mesh_size: int = 20


def _int_list(text: str) -> List[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"expected comma-separated integers, got {text!r}")


def _float_list(text: str) -> List[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"expected comma-separated reals, got {text!r}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="elastica-fem",
                     description="Bending-energy minimization of inextensible "
                                 "curves with C1 cubic finite elements")
    sub = parser.add_subparsers(dest="subcommand")

    runp = sub.add_parser("run", help="run a convergence experiment")
    runp.add_argument("experiment", nargs="?", choices=EXPERIMENT_NAMES)
    runp.add_argument("--config", dest="config_path")
    runp.add_argument("--mesh-sizes", "-M", type=_int_list)
    runp.add_argument("--tau", type=_float_list)
    runp.add_argument("--T", type=float)
    runp.add_argument("--flow", choices=("l2", "h2", "newton"))
    runp.add_argument("--constraint", choices=("p1", "p2"))
    runp.add_argument("--initializer", choices=("j3", "j2"))
    runp.add_argument("--norms", type=lambda s: s.split(","))
    runp.add_argument("--output-dir")
    runp.add_argument("--long", action="store_true",
                      help="allow long-running experiments (oval L2 flow)")
    runp.add_argument("--snapshot-stride", type=int, default=0)

    statp = sub.add_parser("stationarity",
                           help="velocity norm of the first flow step")
    statp.add_argument("experiment", choices=EXPERIMENT_NAMES)
    statp.add_argument("--constraint", choices=("p1", "p2"), default="p2")
    statp.add_argument("--initializer", choices=("j3", "j2"), default="j3")
    statp.add_argument("--mesh-size", type=int, default=20)

    diagp = sub.add_parser("diagnostics",
                           help="saddle-point diagnostics across meshes")
    diagp.add_argument("experiment", nargs="?", default="circle",
                       choices=EXPERIMENT_NAMES)
    diagp.add_argument("--constraint", choices=("p1", "p2"), default="p2")
    diagp.add_argument("--mesh-sizes", "-M", type=_int_list)
    diagp.add_argument("--output-dir")

    interp = sub.add_parser("interp-study",
                            help="interpolation error orders for a smooth test function")
    interp.add_argument("--mesh-sizes", "-M", type=_int_list)
    return parser


def parse_args(argv: List[str]) -> CliConfig:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    if ns.subcommand is None:
        raise UsageError("a subcommand is required "
                         "(run, stationarity, diagnostics, interp-study)")
    cfg = CliConfig(subcommand=ns.subcommand)
    for name in ("experiment", "config_path", "mesh_sizes", "taus", "T",
                 "flow", "constraint", "initializer", "norms", "output_dir",
                 "long", "snapshot_stride", "mesh_size"):
        src = {"taus": "tau"}.get(name, name)
        if hasattr(ns, src):
            val = getattr(ns, src)
            if val is not None:
                setattr(cfg, name, val)
    if cfg.subcommand == "run" and cfg.experiment is None and cfg.config_path is None:
        raise UsageError("run requires an experiment name or --config FILE")
    return cfg


_CONFIG_KEYS = ("experiment", "M", "tau", "T", "flow", "constraint",
                "initializer", "norms", "bc.value_a", "bc.deriv_a",
                "bc.value_b", "bc.deriv_b", "bc.periodic")


def load_config(path: str) -> dict:
    """Plain key=value experiment configuration.

    Recognized keys: experiment, M, tau, T, flow, constraint, initializer,
    norms, bc.value_a, bc.deriv_a, bc.value_b, bc.deriv_b, bc.periodic.
    Unknown and duplicate keys are rejected with the offending line number.
    """
    seen = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in _CONFIG_KEYS:
                raise UsageError(f"{path}:{lineno}: unknown key: {key}")
            if key in seen:
                raise UsageError(f"{path}:{lineno}: duplicate key: {key}")
            seen[key] = value
    if "experiment" not in seen:
        raise UsageError(f"{path}: missing key: experiment")
    return seen


def _named_spec(name: str, constraint: Optional[str],
                overrides: dict) -> ExperimentSpec:
    """``named_experiment`` with CLI overrides; invalid values are usage
    errors."""
    if name not in EXPERIMENT_NAMES:
        raise UsageError(f"unknown experiment: {name}")
    try:
        return named_experiment(name, ConstraintVariant(constraint or "p2"),
                                **overrides)
    except ValueError as exc:
        raise UsageError(str(exc))


# config key -> (ExperimentSpec field, parser of the value)
_CONFIG_OVERRIDES = {"M": ("mesh_sizes", _int_list),
                     "tau": ("taus", _float_list), "T": ("T", float),
                     "flow": ("flow_variant", str),
                     "initializer": ("initializer", str),
                     "norms": ("norms", lambda text: text.split(","))}


def _spec_from_config(raw: dict) -> ExperimentSpec:
    overrides = {name: parse(raw[key])
                 for key, (name, parse) in _CONFIG_OVERRIDES.items()
                 if key in raw}
    spec = _named_spec(raw["experiment"], raw.get("constraint"), overrides)
    bc_keys = [k for k in raw if k.startswith("bc.")]
    if bc_keys:
        if raw.get("bc.periodic", "").lower() in ("1", "true", "yes"):
            if any(k in raw for k in ("bc.value_a", "bc.deriv_a",
                                      "bc.value_b", "bc.deriv_b")):
                raise UsageError("conflicting keys: bc.periodic excludes endpoint fixing")
            bc = BoundaryConditions(periodic=True)
        else:
            bc = replace(spec.bc, **{key[3:]: np.array(_float_list(raw[key]))
                                     for key in bc_keys
                                     if key != "bc.periodic"})
            try:
                bc.check_dim(spec.dim)
            except ValueError as exc:
                raise UsageError(f"bc.{exc}")
        spec = spec.override(bc=bc)
    return spec


def _output_dir(cfg: CliConfig) -> str:
    out = cfg.output_dir or os.environ.get(OUTPUT_DIR_ENV) or "."
    os.makedirs(out, exist_ok=True)
    return out


def _cmd_run(cfg: CliConfig) -> int:
    if cfg.config_path is not None:
        spec = _spec_from_config(load_config(cfg.config_path))
    else:
        given = {"mesh_sizes": cfg.mesh_sizes, "taus": cfg.taus, "T": cfg.T,
                 "flow_variant": cfg.flow, "initializer": cfg.initializer,
                 "norms": cfg.norms}
        spec = _named_spec(cfg.experiment, cfg.constraint,
                           {name: value for name, value in given.items()
                            if value is not None and value != []})
    if spec.long_running and not cfg.long:
        raise UsageError(
            f"experiment {spec.name!r} is long-running; pass --long to confirm "
            "(or use oval-h2 for the fast variant)")

    table = run_experiment(spec)
    out = _output_dir(cfg)
    path = os.path.join(out, f"{spec.name}_{spec.constraint.value}_{spec.flow_variant}.csv")
    emit_csv(table, path)
    print(f"wrote {path}")
    if cfg.snapshot_stride > 0 and spec.flow_variant != "newton":
        mesh = Mesh1D.uniform(*spec.interval, spec.mesh_sizes[0])
        fc = flow.FlowConfig(tau=spec.taus[0], T=spec.T,
                             variant=spec.flow_variant,
                             constraint=spec.constraint, bc=spec.bc)
        _, snaps = flow.run(fc, mesh, spec.z0, spec.dim,
                            initializer=spec.initializer,
                            snapshot_stride=cfg.snapshot_stride)
        traj = os.path.join(out, f"{spec.name}_trajectory.txt")
        flow.dump_trajectory(snaps, spec.taus[0], traj)
        print(f"wrote {traj}")
    for col in table.columns:
        eocs = ",".join("--" if r is None else f"{r:.2f}" for r in col.eocs[1:])
        print(f"  {col.label}: eoc {eocs}")
    if table.failures:
        for f in table.failures:
            print(f"FAILED cell: {f}", file=sys.stderr)
        return 1
    return 0


def _cmd_stationarity(cfg: CliConfig) -> int:
    vel = stationarity_check(cfg.experiment,
                             ConstraintVariant(cfg.constraint or "p2"),
                             cfg.initializer or "j3",
                             mesh_size=cfg.mesh_size)
    print(f"first-step velocity norm: {vel:.6e}")
    return 0


def _cmd_diagnostics(cfg: CliConfig) -> int:
    variant = ConstraintVariant(cfg.constraint or "p2")
    spec = named_experiment(cfg.experiment or "circle", constraint=variant)
    if spec.exact is None or spec.exact.multiplier is None:
        raise UsageError(f"experiment {spec.name!r} has no analytic multiplier")
    mesh_sizes = cfg.mesh_sizes or [10, 20, 40]
    a, b = spec.interval
    rows = []
    for M in mesh_sizes:
        mesh = Mesh1D.uniform(a, b, M)
        matrices = assemble_matrices(mesh, spec.dim)
        pair = make_interpolant_pair(spec.exact.oracle, spec.exact.multiplier,
                                     mesh, spec.dim, variant)
        norms = DiscreteNorms.build(matrices, spec.bc, variant)
        dual = residual_dual_norm(pair, variant, spec.bc, matrices, norms)
        alpha = coercivity_estimate(pair, variant, spec.bc, matrices, norms)
        beta = infsup_estimate(pair, variant, spec.bc, matrices, norms)
        line = (f"M={M:4d} h={mesh.h:.3e} residual_dual={dual:.3e} "
                f"alpha={alpha:.4f} beta={beta:.4f}")
        try:
            _, log = newton_solve(pair, variant, spec.bc, matrices)
        except NewtonError as exc:
            rows.append((M, mesh.h, dual, alpha, beta, "FAILED"))
            print(f"FAILED row: {line} newton: {exc}", file=sys.stderr)
            continue
        rows.append((M, mesh.h, dual, alpha, beta, log["iterations"]))
        print(f"{line} newton_iters={log['iterations']}")
    out = _output_dir(cfg)
    path = os.path.join(out, f"diagnostics_{spec.name}_{variant.value}.csv")
    with open(path, "w") as fh:
        for M, h, dual, alpha, beta, iters in rows:
            fh.write(f"{M},{h:.3e},{dual:.3e},{alpha:.6e},{beta:.6e},{iters}\n")
    print(f"wrote {path}")
    return 1 if any(row[-1] == "FAILED" for row in rows) else 0


def _cmd_interp_study(cfg: CliConfig) -> int:
    mesh_sizes = cfg.mesh_sizes or [8, 16, 32, 64, 128]
    f = FunctionOracle(value=np.sin, deriv=np.cos,
                       second=lambda x: -np.sin(x))
    errs = {k: [] for k in ("linf", "l2", "h1", "h2")}
    hs = []
    for M in mesh_sizes:
        mesh = Mesh1D.uniform(0.0, 2.0 * np.pi, M)
        curve = interp_hermite(f, mesh, 1)
        hs.append(mesh.h)
        errs["linf"].append(linf_error(curve, f.value))
        errs["l2"].append(quadrature_error(curve, f.value, 0))
        errs["h1"].append(quadrature_error(curve, f.deriv, 1))
        errs["h2"].append(quadrature_error(curve, f.second, 2))
    print("M     h          Linf       L2         H1         H2")
    for i, M in enumerate(mesh_sizes):
        print(f"{M:<5d} {hs[i]:.3e}  " + "  ".join(
            f"{errs[k][i]:.3e}" for k in ("linf", "l2", "h1", "h2")))
    print("eoc:")
    for k in ("linf", "l2", "h1", "h2"):
        rates = ",".join(f"{r:.2f}" for r in eoc(errs[k], hs))
        print(f"  {k}: {rates}")
    return 0


def main(config: CliConfig) -> int:
    """Dispatch a parsed CLI configuration; returns the process exit code."""
    try:
        if config.subcommand == "run":
            return _cmd_run(config)
        if config.subcommand == "stationarity":
            return _cmd_stationarity(config)
        if config.subcommand == "diagnostics":
            return _cmd_diagnostics(config)
        if config.subcommand == "interp-study":
            return _cmd_interp_study(config)
        raise UsageError(f"unknown subcommand: {config.subcommand!r}")
    except UsageError:
        raise
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main(argv: Optional[List[str]] = None) -> int:
    try:
        config = parse_args(sys.argv[1:] if argv is None else argv)
        return main(config)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(console_main())
