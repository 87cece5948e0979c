"""The three workloads: their cells, one pass over them, and output checks.

A pass runs every cell of a workload once, in order, in one process (a
closed loop: each cell starts when the previous one ends).  Cells call the
package's public functions in the order ``experiments.run_experiment`` and
``cli._cmd_diagnostics`` call them, always through the module attribute, so
that ``tracing.Tracer`` sees the calls.

An operation is one flow run, one Newton solve or one Brezzi triple
(dual norm, coercivity, inf-sup).  It fails when it raises or when its
output fails its check.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

import numpy as np

from elastica_fem import analysis, assembly, flow, mesh, stationary
from elastica_fem.mesh import ConstraintVariant

from problems import Problem
from tracing import CELL_SPAN

REFERENCE_PATH = Path(__file__).with_name("reference.json")

IDENTITY_GATE = 1e-12        # acceptance criterion 8
CONSTRAINT_GATE = 1e-10      # acceptance criterion 8
NEWTON_TOL = 1e-11           # newton_solve's default, as the CLI uses it
EOC_WINDOW = {"p2": (1.7, 2.3), "p1": (0.7, 1.3)}   # H2-error rates


@dataclass(frozen=True)
class Cell:
    kind: str                     # "flow" or "stationary"
    experiment: str
    M: int
    flow: str = "l2"              # flow metric of a flow cell: "l2" or "h2"
    constraint: str = "p2"
    initializer: str = "j3"
    tau: float = 0.1
    T: float = 1.0
    ops: tuple = ("brezzi", "newton")   # operations of a stationary cell

    @property
    def id(self) -> str:
        if self.kind == "flow":
            return (f"flow/{self.experiment}/{self.flow}/{self.constraint}"
                    f"/M{self.M}")
        return f"stationary/{self.experiment}/{self.constraint}/M{self.M}"

    @property
    def op_names(self) -> tuple:
        return ("flow",) if self.kind == "flow" else self.ops


# oval-h2 at tau = 1/200, the regime of acceptance criterion 5 plus M=80,
# with the horizon cut from T=50 to 0.5 so that a pass takes about 2 s
COARSE = [Cell("flow", "oval-h2", M, flow=v, tau=1.0 / 200.0, T=0.5)
          for M in (5, 10, 20, 80) for v in ("h2", "l2")]

FINE = [Cell("flow", e, M, constraint=c, initializer=i, T=1.0)
        for M in (320, 1280)
        for e, c, i in (("circle", "p2", "j3"), ("circle", "p1", "j2"),
                        ("helix", "p2", "j3"))]
# the moving oval in both flow metrics; the H2 flow fails at M >= 320
# today, so the timed cell uses the finest mesh where it succeeds and the
# M=320 case is a known-failure probe
FINE += [Cell("flow", "oval-h2", 320, flow="l2", T=1.0),
         Cell("flow", "oval-h2", 160, flow="h2", T=1.0)]

# the `elastica-fem diagnostics` path; Newton stalls above its tolerance at
# M >= 80 today, so those solves are known-failure probes
STATIONARY = [Cell("stationary", e, M,
                   ops=("brezzi", "newton") if M <= 40 else ("brezzi",))
              for e in ("circle", "helix") for M in (10, 20, 40, 80, 160)]

WORKLOADS = {"coarse-flow": COARSE, "fine-flow": FINE,
             "stationary-sweep": STATIONARY}

# operations that fail at the current code (ROADMAP item 2); they run once
# in a traced run and are reported there, outside the timed passes
PROBES = {
    "coarse-flow": [],
    "fine-flow": [Cell("flow", "oval-h2", 320, flow="h2", T=1.0)],
    "stationary-sweep": [Cell("stationary", e, M, ops=("newton",))
                         for e in ("circle", "helix") for M in (80, 160)],
}


@dataclass
class CellResult:
    cell: Cell
    setup_s: float = 0.0
    out: Dict[str, float] = field(default_factory=dict)
    op_s: Dict[str, float] = field(default_factory=dict)
    errors: Dict[str, str] = field(default_factory=dict)


@dataclass
class PassResult:
    study_s: float          # sum of the cells' wall times
    cells: List[CellResult]
    cal_s: float = 0.0      # calibration-kernel time interleaved with them
    traced: bool = False
    cal_runs: int = 0       # number of kernel runs summed into cal_s

    @property
    def setup_s(self) -> float:
        return sum(c.setup_s for c in self.cells)


def _fail_setup(cell: Cell, res: CellResult, exc: Exception) -> None:
    """A failed set-up fails every operation of its cell."""
    for op in cell.op_names:
        res.errors[op] = f"set-up: {type(exc).__name__}: {exc}"


def _run_flow(cell: Cell, prob: Problem, res: CellResult) -> None:
    spec = prob.spec
    t0 = time.perf_counter()
    try:
        msh = mesh.Mesh1D.uniform(*spec.interval, cell.M)
        mats = assembly.assemble_matrices(msh, spec.dim)
    except Exception as exc:  # a failed cell must not end the pass
        _fail_setup(cell, res, exc)
        return
    res.setup_s = time.perf_counter() - t0
    cfg = flow.FlowConfig(tau=cell.tau, T=cell.T, variant=cell.flow,
                          constraint=ConstraintVariant(cell.constraint),
                          bc=spec.bc)
    t0 = time.perf_counter()
    try:
        state, _ = flow.run(cfg, msh, spec.z0, spec.dim,
                            initializer=cell.initializer, matrices=mats)
        res.op_s["flow"] = time.perf_counter() - t0
        h2 = analysis.h2_error(state.curve, spec.exact, mats)
        quad = analysis.quadrature_error(state.curve, prob.second, 2)
    except Exception as exc:  # a failed cell must not end the pass
        res.op_s.setdefault("flow", time.perf_counter() - t0)
        res.errors["flow"] = f"{type(exc).__name__}: {exc}"
        return
    res.out.update(steps=state.n, energy=state.energy,
                   identity=state.max_identity_violation,
                   constraint=state.max_constraint_residual,
                   h2_error=h2, quad_h2=quad)


def _run_stationary(cell: Cell, prob: Problem, res: CellResult) -> None:
    spec = prob.spec
    variant = ConstraintVariant(cell.constraint)
    t0 = time.perf_counter()
    try:
        msh = mesh.Mesh1D.uniform(*spec.interval, cell.M)
        mats = assembly.assemble_matrices(msh, spec.dim)
        pair = stationary.make_interpolant_pair(
            spec.exact.oracle, spec.exact.multiplier, msh, spec.dim, variant)
        norms = stationary.DiscreteNorms.build(mats, spec.bc, variant)
    except Exception as exc:
        _fail_setup(cell, res, exc)
        return
    res.setup_s = time.perf_counter() - t0
    if "brezzi" in cell.ops:
        t0 = time.perf_counter()
        try:
            res.out.update(
                dual=stationary.residual_dual_norm(pair, variant, spec.bc,
                                                   mats, norms),
                alpha=stationary.coercivity_estimate(pair, variant, spec.bc,
                                                     mats, norms),
                beta=stationary.infsup_estimate(pair, variant, spec.bc,
                                                mats, norms))
        except Exception as exc:
            res.errors["brezzi"] = f"{type(exc).__name__}: {exc}"
        res.op_s["brezzi"] = time.perf_counter() - t0
    if "newton" in cell.ops:
        t0 = time.perf_counter()
        try:
            sol, log = stationary.newton_solve(pair, variant, spec.bc, mats,
                                               tol=NEWTON_TOL)
            res.op_s["newton"] = time.perf_counter() - t0
            res.out.update(
                iterations=log["iterations"], halvings=log["step_halvings"],
                residual=log["residual_norms"][-1],
                h2_error=analysis.h2_error(sol.u, spec.exact, mats),
                quad_h2=analysis.quadrature_error(sol.u, prob.second, 2))
        except Exception as exc:
            res.op_s.setdefault("newton", time.perf_counter() - t0)
            res.errors["newton"] = f"{type(exc).__name__}: {exc}"


def run_pass(cells: List[Cell], problems: Dict[str, Problem],
             tracer=None, calibrate=None) -> PassResult:
    """One pass over ``cells``; with a tracer, each cell is one root span.

    ``calibrate``, when given, runs before every cell and after the last;
    its time is summed into ``cal_s`` and excluded from ``study_s``.
    """
    results = []
    cals = [calibrate()] if calibrate is not None else []
    study_s = 0.0
    for cell in cells:
        res = CellResult(cell)
        runner = _run_flow if cell.kind == "flow" else _run_stationary
        t0 = time.perf_counter()
        if tracer is None:
            runner(cell, problems[cell.experiment], res)
        else:
            tracer.cell = cell.id
            tracer.span(CELL_SPAN, runner, cell,
                        problems[cell.experiment], res)
        study_s += time.perf_counter() - t0
        if calibrate is not None:
            cals.append(calibrate())
        results.append(res)
    return PassResult(study_s, results, sum(cals), tracer is not None,
                      len(cals))


# ---------------------------------------------------------------------------
# output checks

def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def _eoc(coarse: float, fine: float, ratio: float) -> float:
    return math.log(coarse / fine) / math.log(ratio)


def check_pass(workload: str, result: PassResult, reference: dict
               ) -> Dict[tuple, List[str]]:
    """Failure messages keyed by (cell id, operation); every operation of
    the pass has a key, with an empty list when it passed."""
    failures: Dict[tuple, List[str]] = {}
    for res in result.cells:
        for op in res.cell.op_names:
            msgs = failures.setdefault((res.cell.id, op), [])
            if op in res.errors:
                msgs.append(res.errors[op])

    def fail(cell_id, op, msg):
        failures[(cell_id, op)].append(msg)

    refs = reference["values"]
    for res in result.cells:
        cid, out = res.cell.id, res.out
        for qty in ("energy", "quad_h2"):
            ref = refs.get(f"{cid}:{qty}")
            if ref is None or qty not in out:
                continue
            rel = abs(out[qty] - ref["value"]) / abs(ref["value"])
            if not rel <= ref["tol_rel"]:
                op = "flow" if res.cell.kind == "flow" else "newton"
                fail(cid, op, f"{qty} {out[qty]:.15g} differs from reference "
                              f"{ref['value']:.15g} by {rel:.1e} (tol "
                              f"{ref['tol_rel']:.1e})")
        if workload == "coarse-flow" and "identity" in out:
            if not out["identity"] <= IDENTITY_GATE:
                fail(cid, "flow", f"energy-identity defect {out['identity']:.2e}")
            if not out["constraint"] <= CONSTRAINT_GATE:
                fail(cid, "flow", f"linearized constraint {out['constraint']:.2e}")
        if "newton" in res.cell.op_names and "residual" in out:
            if not out["residual"] <= NEWTON_TOL:
                fail(cid, "newton", f"Newton residual {out['residual']:.2e}")

    if workload == "fine-flow":
        # rates between consecutive meshes of the same converged study
        groups: Dict[tuple, List[CellResult]] = {}
        for res in result.cells:
            c = res.cell
            if c.experiment in ("circle", "helix"):
                groups.setdefault((c.experiment, c.flow, c.constraint),
                                  []).append(res)
        for (_, _, constraint), rows in groups.items():
            rows.sort(key=lambda r: r.cell.M)
            lo, hi = EOC_WINDOW[constraint]
            for coarse, fine in zip(rows, rows[1:]):
                try:
                    rate = _eoc(coarse.out["quad_h2"], fine.out["quad_h2"],
                                fine.cell.M / coarse.cell.M)
                except (KeyError, ValueError, ZeroDivisionError):
                    fail(fine.cell.id, "flow", "EOC not computable")
                    continue
                if not lo <= rate <= hi:
                    fail(fine.cell.id, "flow", f"EOC {coarse.cell.M}->"
                         f"{fine.cell.M} {rate:.2f} outside [{lo}, {hi}]")

    if workload == "stationary-sweep":
        for exp in sorted({r.cell.experiment for r in result.cells}):
            rows = {r.cell.M: r for r in result.cells if r.cell.experiment == exp}
            base = rows[min(rows)].out
            for M, r in rows.items():
                if "alpha" not in r.out or "alpha" not in base:
                    continue
                for key in ("alpha", "beta"):
                    if not (r.out[key] > 0.0 and r.out[key] >= 0.5 * base[key]):
                        fail(r.cell.id, "brezzi",
                             f"{key}={r.out[key]:.4f} against {base[key]:.4f} at "
                             f"M={min(rows)}")
            newton_ms = sorted(M for M, r in rows.items()
                               if "newton" in r.cell.op_names)
            last = rows[newton_ms[-1]].cell
            lo, hi = EOC_WINDOW[last.constraint]
            errs = [rows[M].out.get("quad_h2") for M in newton_ms]
            if any(e is None or e <= 0.0 for e in errs):
                fail(last.id, "newton", "H2-error EOC not computable")
                continue
            for i in range(len(errs) - 1):
                rate = _eoc(errs[i], errs[i + 1], newton_ms[i + 1] / newton_ms[i])
                if not lo <= rate <= hi:
                    fail(last.id, "newton",
                         f"H2-error EOC {rate:.2f} outside [{lo}, {hi}]")
    return failures


def max_by_m(results: List[PassResult], key: str) -> Dict[int, float]:
    """Largest value of an output over all passes, grouped by mesh size."""
    out: Dict[int, float] = {}
    for pr in results:
        for res in pr.cells:
            if key in res.out:
                out[res.cell.M] = max(out.get(res.cell.M, 0.0), res.out[key])
    return out


def h2_reldiff_by_m(results: List[PassResult]) -> Dict[int, float]:
    """|h2_error - quadrature H2 error| / quadrature H2 error, worst per M."""
    out: Dict[int, float] = {}
    for pr in results:
        for res in pr.cells:
            o = res.out
            if "h2_error" in o and o.get("quad_h2", 0.0) > 0.0:
                rel = abs(o["h2_error"] - o["quad_h2"]) / o["quad_h2"]
                out[res.cell.M] = max(out.get(res.cell.M, 0.0), rel)
    return out


def median(values) -> float:
    return float(np.median(np.asarray(list(values), dtype=float)))


def needed_problems(workload: str) -> List[str]:
    cells = WORKLOADS[workload] + PROBES[workload]
    return sorted({c.experiment for c in cells})

