"""Command-line interface: run experiments, stationarity checks, saddle-point
diagnostics, and interpolation studies.

`run` takes an experiment name or --config FILE, not both; a flag given with
--config overrides the file's key.  Exit codes: 0 success, 1 numerical failure,
2 usage error (a mesh size below 1, tau not in (0, inf), T not in [0, inf) or
not a whole number of steps, a negative --snapshot-stride and a positive one
with --flow newton among them).  The output directory is --output-dir, else the
ELASTICA_FEM_OUTPUT_DIR variable, else the current directory.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from typing import List, Optional

import numpy as np

from . import flow
from .analysis import linf_error, quadrature_error
from .assembly import TARGETS, BoundaryConditions, assemble_matrices
from .experiments import (ExperimentSpec, _column_eocs, _fmt_eoc, emit_csv,
                          named_experiment, run_experiment, stationarity_check)
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


def _mesh_size(text: str) -> int:
    try:
        M = int(text)
    except ValueError:
        raise UsageError(f"expected an integer mesh size, got {text!r}")
    if M < 1:
        raise UsageError(f"mesh sizes must be >= 1, got {M}")
    return M


def _mesh_sizes(text: str) -> List[int]:
    sizes = [_mesh_size(tok) for tok in text.split(",") if tok.strip()]
    if len(set(sizes)) < len(sizes):
        raise UsageError(f"mesh sizes must not repeat, got {text!r}")
    return sizes


def _float_list(text: str) -> List[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"expected comma-separated reals, got {text!r}")


def _names(text: str) -> List[str]:
    return text.split(",")


# config key -> (ExperimentSpec field, parser of the value).  `run` stores
# each flag under the field, so a flag given overrides the file's key.
_SPEC_KEYS = {"M": ("mesh_sizes", _mesh_sizes), "tau": ("taus", _float_list),
              "T": ("T", float), "flow": ("flow_variant", str),
              "initializer": ("initializer", str), "norms": ("norms", _names)}
_CONFIG_KEYS = ("experiment", "constraint", *_SPEC_KEYS,
                *(f"bc.{name}" for name in TARGETS), "bc.periodic")


def _build_parser() -> _Parser:
    parser = _Parser(prog="elastica-fem",
                     description="Bending-energy minimization of inextensible "
                                 "curves with C1 cubic finite elements")
    sub = parser.add_subparsers(dest="subcommand")

    runp = sub.add_parser("run", help="run a convergence experiment")
    runp.set_defaults(handler=_cmd_run)
    which = runp.add_mutually_exclusive_group(required=True)
    which.add_argument("experiment", nargs="?", choices=EXPERIMENT_NAMES)
    which.add_argument("--config", dest="config_path")
    runp.add_argument("--mesh-sizes", "-M", type=_mesh_sizes)
    runp.add_argument("--tau", dest="taus", type=_float_list)
    runp.add_argument("--T", type=float)
    runp.add_argument("--flow", dest="flow_variant",
                      choices=("l2", "h2", "newton"))
    runp.add_argument("--constraint", choices=("p1", "p2"))
    runp.add_argument("--initializer", choices=("j3", "j2"))
    runp.add_argument("--norms", type=_names)
    runp.add_argument("--output-dir")
    runp.add_argument("--long", action="store_true",
                      help="allow long-running experiments (oval L2 flow)")
    runp.add_argument("--snapshot-stride", type=int, default=0)

    statp = sub.add_parser("stationarity",
                           help="velocity norm of the first flow step")
    statp.set_defaults(handler=_cmd_stationarity)
    statp.add_argument("experiment", choices=EXPERIMENT_NAMES)
    statp.add_argument("--constraint", choices=("p1", "p2"), default="p2")
    statp.add_argument("--initializer", choices=("j3", "j2"), default="j3")
    statp.add_argument("--mesh-size", type=_mesh_size, default=20)

    diagp = sub.add_parser("diagnostics",
                           help="saddle-point diagnostics across meshes")
    diagp.set_defaults(handler=_cmd_diagnostics)
    diagp.add_argument("experiment", nargs="?", default="circle",
                       choices=EXPERIMENT_NAMES)
    diagp.add_argument("--constraint", choices=("p1", "p2"), default="p2")
    diagp.add_argument("--mesh-sizes", "-M", type=_mesh_sizes,
                       default=[10, 20, 40])
    diagp.add_argument("--output-dir")

    interp = sub.add_parser("interp-study",
                            help="interpolation error orders for a smooth test function")
    interp.set_defaults(handler=_cmd_interp_study)
    interp.add_argument("--mesh-sizes", "-M", type=_mesh_sizes,
                        default=[8, 16, 32, 64, 128])
    return parser


def parse_args(argv: List[str]) -> argparse.Namespace:
    ns = _build_parser().parse_args(argv)
    if ns.subcommand is None:
        raise UsageError("a subcommand is required "
                         "(run, stationarity, diagnostics, interp-study)")
    return ns


def load_config(path: str) -> dict:
    """Plain key=value experiment configuration with the keys of
    ``_CONFIG_KEYS``.  Unknown and duplicate keys are rejected with the
    offending line number.
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


def _run_spec(ns: argparse.Namespace) -> ExperimentSpec:
    """The experiment of `run`: the named one or the config file's, with
    every flag given overriding the file's key.  Invalid values are usage
    errors."""
    raw = load_config(ns.config_path) if ns.config_path \
        else {"experiment": ns.experiment}
    fields = {name: parse(raw[key]) for key, (name, parse) in _SPEC_KEYS.items()
              if key in raw}
    fields.update({name: getattr(ns, name) for name, _ in _SPEC_KEYS.values()
                   if getattr(ns, name) is not None})
    targets = {name: np.array(_float_list(raw[f"bc.{name}"]))
               for name in TARGETS if f"bc.{name}" in raw}
    try:
        spec = named_experiment(
            raw["experiment"],
            ConstraintVariant(ns.constraint or raw.get("constraint", "p2")),
            **fields)
    except ValueError as exc:
        raise UsageError(str(exc))
    periodic = raw.get("bc.periodic", "no").lower()
    if periodic not in ("1", "true", "yes", "0", "false", "no"):
        raise UsageError(f"bc.periodic takes 1/0, true/false or yes/no, "
                         f"got {raw['bc.periodic']!r}")
    if periodic in ("1", "true", "yes"):
        if targets:
            raise UsageError("conflicting keys: bc.periodic excludes endpoint fixing")
        return spec.override(bc=BoundaryConditions(periodic=True))
    if targets:
        spec = spec.override(bc=replace(spec.bc, **targets))
        try:
            spec.bc.check_dim(spec.dim)
        except ValueError as exc:
            raise UsageError(f"bc.{exc}")
    return spec


def _output_dir(ns: argparse.Namespace) -> str:
    out = ns.output_dir or os.environ.get(OUTPUT_DIR_ENV) or "."
    os.makedirs(out, exist_ok=True)
    return out


def _cmd_run(ns: argparse.Namespace) -> int:
    if ns.snapshot_stride < 0:
        raise UsageError(f"snapshot stride must be >= 0, got {ns.snapshot_stride}")
    spec = _run_spec(ns)
    if ns.snapshot_stride > 0 and spec.flow_variant == "newton":
        raise UsageError("--snapshot-stride needs a gradient flow (l2 or h2); "
                         "newton has no trajectory")
    if spec.long_running and not ns.long:
        raise UsageError(
            f"experiment {spec.name!r} is long-running; pass --long to confirm "
            "(or use oval-h2 for the fast variant)")

    table = run_experiment(spec, snapshot_stride=ns.snapshot_stride)
    out = _output_dir(ns)
    path = os.path.join(out, f"{spec.name}_{spec.constraint.value}_{spec.flow_variant}.csv")
    emit_csv(table, path)
    print(f"wrote {path}")
    if table.snapshots:     # the coarsest run's, unless that cell failed
        traj = os.path.join(out, f"{spec.name}_trajectory.txt")
        flow.dump_trajectory(table.snapshots, spec.taus[0], traj)
        print(f"wrote {traj}")
    for col in table.columns:
        print(f"  {col.label}: eoc {','.join(map(_fmt_eoc, col.eocs[1:]))}")
    if table.failures:
        for f in table.failures:
            print(f"FAILED cell: {f}", file=sys.stderr)
        return 1
    return 0


def _cmd_stationarity(ns: argparse.Namespace) -> int:
    vel = stationarity_check(ns.experiment, ConstraintVariant(ns.constraint),
                             ns.initializer, mesh_size=ns.mesh_size)
    print(f"first-step velocity norm: {vel:.6e}")
    return 0


def _cmd_diagnostics(ns: argparse.Namespace) -> int:
    variant = ConstraintVariant(ns.constraint)
    spec = named_experiment(ns.experiment, constraint=variant)
    rows = []
    for M in ns.mesh_sizes:
        mesh = Mesh1D.uniform(*spec.interval, M)
        matrices = assemble_matrices(mesh, spec.dim)
        pair = make_interpolant_pair(spec.exact.oracle, spec.exact.multiplier,
                                     mesh, spec.dim, variant)
        errors = []
        try:
            norms = DiscreteNorms.build(matrices, spec.bc, variant)
            brezzi = [f(pair, variant, spec.bc, matrices, norms) for f in
                      (residual_dual_norm, coercivity_estimate, infsup_estimate)]
        except ValueError as exc:   # no multiplier, rank-deficient B, Lanczos cap
            brezzi, errors = ["FAILED"] * 3, [f"brezzi: {exc}"]
        try:
            iters = newton_solve(pair, variant, spec.bc, matrices)[1]["iterations"]
        except NewtonError as exc:
            iters = "FAILED"
            errors.append(f"newton: {exc}")
        rows.append((M, mesh.h, *brezzi, iters))
        dual, alpha, beta = map(_fmt, brezzi, (".3e", ".4f", ".4f"))
        line = (f"M={M:4d} h={mesh.h:.3e} residual_dual={dual} "
                f"alpha={alpha} beta={beta}")
        if errors:
            print(f"FAILED row: {line} {' '.join(errors)}", file=sys.stderr)
        else:
            print(f"{line} newton_iters={iters}")
    out = _output_dir(ns)
    path = os.path.join(out, f"diagnostics_{spec.name}_{variant.value}.csv")
    with open(path, "w") as fh:
        for M, h, dual, alpha, beta, iters in rows:
            fh.write(f"{M},{h:.3e},{_fmt(dual, '.3e')},{_fmt(alpha, '.6e')},"
                     f"{_fmt(beta, '.6e')},{iters}\n")
    print(f"wrote {path}")
    return 1 if any("FAILED" in row for row in rows) else 0


def _fmt(value, spec: str) -> str:
    return value if isinstance(value, str) else format(value, spec)


def _cmd_interp_study(ns: argparse.Namespace) -> int:
    f = FunctionOracle(value=np.sin, deriv=np.cos,
                       second=lambda x: -np.sin(x))
    errs = {k: [] for k in ("linf", "l2", "h1", "h2")}
    hs = []
    for M in ns.mesh_sizes:
        mesh = Mesh1D.uniform(0.0, 2.0 * np.pi, M)
        curve = interp_hermite(f, mesh, 1)
        hs.append(mesh.h)
        errs["linf"].append(linf_error(curve, f.value))
        errs["l2"].append(quadrature_error(curve, f.value, 0))
        errs["h1"].append(quadrature_error(curve, f.deriv, 1))
        errs["h2"].append(quadrature_error(curve, f.second, 2))
    print("M     h          Linf       L2         H1         H2")
    for i, M in enumerate(ns.mesh_sizes):
        print(f"{M:<5d} {hs[i]:.3e}  " + "  ".join(
            f"{errs[k][i]:.3e}" for k in ("linf", "l2", "h1", "h2")))
    print("eoc:")
    for k in ("linf", "l2", "h1", "h2"):
        print(f"  {k}: {','.join(map(_fmt_eoc, _column_eocs(errs[k], hs)[1:]))}")
    return 0


def main(ns: argparse.Namespace) -> int:
    """Run the parsed subcommand's handler; returns the process exit code."""
    try:
        return ns.handler(ns)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main(argv: Optional[List[str]] = None) -> int:
    try:
        return main(parse_args(sys.argv[1:] if argv is None else argv))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(console_main())
