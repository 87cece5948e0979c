"""Metric definitions and their computation from passes and spans.

``END_TO_END`` and ``PER_LAYER`` are the lists ``BENCHMARK.json`` declares;
``tests/test_perfbench.py`` checks that the two agree.  Every workload
reports every metric.  The end-to-end times are divided by the time of the
calibration kernel run alongside (see calibration.py); ``setup_s`` is
scaled the same way and converted back to seconds at the kernel's reference
speed, while the raw set-up seconds are the per-layer ``raw.setup_s``;
the per-layer times are raw seconds.  A per-layer metric of a layer the
workload does not run reads 0, and its ``.calls`` companion says so.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List

import numpy as np

from calibration import REFERENCE_S
from tracing import Span, caller_of, self_times
from workloads import PassResult, h2_reldiff_by_m, max_by_m, median

# (name, unit, better, bound)
END_TO_END = [
    ("study_norm", "ratio", "lower", 0.20),
    ("setup_s", "s", "lower", 0.25),     # at the kernel's reference speed
    ("steps_per_cal", "1/cal", "higher", 0.20),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("ok_ratio", "ratio", "higher", 0.05),
]

FLOW_GRID = (20, 80, 320, 1280)        # the ROADMAP's per-layer mesh sizes
STATIONARY_GRID = (20, 80, 160)        # the diagnostics sweep's share of it

# traced function -> statistics reported for it
FUNCTION_STATS = [
    ("mesh.uniform", ("self",)),
    ("assembly.assemble_matrices", ("self",)),
    ("assembly.assemble_constraint", ("p50", "calls", "self")),
    ("assembly.forms", ("p50", "calls", "self")),
    ("saddle_solver.solve_kkt", ("p50", "p90", "calls", "self")),
    ("flow.run", ("self",)),
    ("flow.step", ("calls", "self")),
    ("flow.init_state", ("p50", "self")),
    ("splines.unit_speed_violation", ("p50", "self")),
    ("splines.interp", ("p50", "self")),
    ("stationary.interpolant_pair", ("self",)),
    ("stationary.norms_build", ("self",)),
    ("stationary.residual", ("p50", "calls", "self")),
    ("stationary.jacobian", ("p50", "calls", "self")),
    ("stationary.newton_solve", ("self",)),
    ("stationary.dual_norm", ("self",)),
    ("stationary.coercivity", ("self",)),
    ("stationary.infsup", ("self",)),
    ("analysis.h2_error", ("p50", "self")),
    ("analysis.quadrature_error", ("p50", "self")),
]

# (function, statistic, mesh grid): inclusive per-call time by mesh size
BY_MESH = [
    ("assembly.assemble_matrices", "p50", FLOW_GRID),
    ("saddle_solver.solve_kkt", "p50", FLOW_GRID),
    ("flow.step", "p50", FLOW_GRID),
    ("flow.step", "p90", FLOW_GRID),
    ("stationary.norms_build", "p50", STATIONARY_GRID),
    ("stationary.dual_norm", "p50", STATIONARY_GRID),
    ("stationary.coercivity", "p50", STATIONARY_GRID),
    ("stationary.infsup", "p50", STATIONARY_GRID),
]

KKT_CALLERS = {"flow.step": "flow", "stationary.newton_solve": "newton"}
LAYERS = ("mesh", "splines", "assembly", "saddle_solver", "flow",
          "stationary", "analysis", "harness")
QUALITY = ("flow.identity_defect_max", "flow.constraint_residual_max",
           "analysis.h2_error_reldiff")


def _per_layer_spec() -> List[tuple]:
    spec = []
    for fn, stats in FUNCTION_STATS:
        for st in stats:
            if st == "calls":
                spec.append((f"{fn}.calls", "count", "lower"))
            elif st == "self":
                spec.append((f"{fn}.self_s", "s", "lower"))
            else:
                spec.append((f"{fn}_ms.{st}", "ms", "lower"))
    for fn, st, grid in BY_MESH:
        for M in grid:
            spec.append((f"{fn}_ms.{st}.M{M}", "ms", "lower"))
    for label in sorted(set(KKT_CALLERS.values())):
        spec.append((f"saddle_solver.solve_kkt_ms.p50.{label}", "ms", "lower"))
        spec.append((f"saddle_solver.solve_kkt.calls.{label}", "count", "lower"))
    spec += [("saddle_solver.kkt_failures", "count", "lower"),
             ("saddle_solver.kkt_fail_ms", "ms", "lower"),
             ("stationary.newton_iterations", "count", "lower"),
             ("stationary.newton_halvings", "count", "lower"),
             ("stationary.newton_useful_ratio", "ratio", "higher")]
    for q in QUALITY:
        for M in FLOW_GRID:
            spec.append((f"{q}.M{M}", "ratio", "lower"))
    for layer in LAYERS:
        spec.append((f"share.{layer}", "ratio", "lower"))
    spec += [("raw.study_s", "s", "lower"),
             ("raw.setup_s", "s", "lower"),
             ("raw.calibration_s", "s", "lower"),
             ("raw.steps_per_s", "1/s", "higher"),
             ("raw.flow_s", "s", "lower"),
             ("raw.newton_s", "s", "lower"),
             ("raw.brezzi_s", "s", "lower"),
             ("raw.fail_ratio", "ratio", "lower"),
             ("trace.overhead_s", "s", "lower"),
             ("trace.overhead_pct", "%", "lower"),
             ("trace.spans_per_pass", "count", "lower"),
             ("probe.failed_ops", "count", "lower")]
    return spec


PER_LAYER = _per_layer_spec()
UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def _solver_work(pr: PassResult) -> tuple:
    """(steps, seconds) of the completed solver operations of a pass: flow
    steps in flow runs, or Newton iterations in Newton solves."""
    steps = work_s = 0.0
    for res in pr.cells:
        if res.errors:
            continue
        if res.cell.kind == "flow":
            steps += res.out["steps"]
            work_s += res.op_s["flow"]
        elif "newton" in res.op_s:
            steps += res.out["iterations"]
            work_s += res.op_s["newton"]
    return steps, work_s


def end_to_end(passes: List[PassResult], attempted: int, failed: int,
               peak_rss_mb: float) -> Dict[str, float]:
    """Medians over the measured passes of one untraced run.  The time
    metrics are in units of the calibration kernel run alongside each pass
    (see calibration.py); ``setup_s`` is converted back to seconds at the
    kernel's reference speed."""
    rates = []
    for pr in passes:
        steps, work_s = _solver_work(pr)
        rates.append(steps * pr.cal_s / work_s if work_s > 0.0 else 0.0)
    return {
        "study_norm": median(p.study_s / p.cal_s for p in passes),
        "setup_s": REFERENCE_S * median(p.setup_s * p.cal_runs / p.cal_s
                                        for p in passes),
        "steps_per_cal": median(rates),
        "peak_rss_mb": peak_rss_mb,
        "ok_ratio": (attempted - failed) / attempted,
    }


def workload_details(passes: List[PassResult]) -> Dict[str, float]:
    """Raw seconds and the workload-specific figures, as medians over
    passes: pass, set-up and calibration time, solver steps per second,
    flow, Newton and Brezzi seconds per pass."""
    def total(pr, op):
        return sum(r.op_s.get(op, 0.0) for r in pr.cells)

    def rate(pr):
        steps, work_s = _solver_work(pr)
        return steps / work_s if work_s > 0.0 else 0.0
    return {"study_s": median(p.study_s for p in passes),
            "setup_s": median(p.setup_s for p in passes),
            "calibration_s": median(p.cal_s for p in passes),
            "steps_per_s": median(rate(p) for p in passes),
            "flow_s": median(total(p, "flow") for p in passes),
            "newton_s": median(total(p, "newton") for p in passes),
            "brezzi_s": median(total(p, "brezzi") for p in passes)}


def _quantile_ms(durations: List[float], q: float) -> float:
    if not durations:
        return 0.0
    return float(np.percentile(np.asarray(durations), q) * 1e3)


def per_layer(traced: List[List[Span]], passes: List[PassResult],
              cell_mesh: Dict[str, int], probe_spans: List[Span],
              probe_failed: int, fail_ratio: float) -> Dict[str, float]:
    """Per-layer metrics of a traced run.

    ``traced`` holds the spans of each traced pass; ``passes`` all
    measured passes of the run, traced or not (counts and quality values do
    not depend on tracing); ``cell_mesh`` maps cell ids to their mesh size;
    ``fail_ratio`` is failed over attempted operations of the whole run.
    """
    n = len(traced)
    durs = defaultdict(list)               # name -> inclusive durations
    by_mesh = defaultdict(list)            # (name, M) -> durations
    by_caller = defaultdict(list)          # caller label -> kkt durations
    self_per_pass = defaultdict(lambda: [0.0] * n)
    layer_self = defaultdict(float)
    covered = 0.0
    residual_in_newton = 0
    for k, spans in enumerate(traced):
        own = self_times(spans)
        for i, (name, start, end, parent, cell, _) in enumerate(spans):
            d = end - start
            durs[name].append(d)
            by_mesh[(name, cell_mesh.get(cell))].append(d)
            self_per_pass[name][k] += own[i]
            layer_self[name.split(".")[0]] += own[i]
            if parent < 0:
                covered += d
            if name == "saddle_solver.solve_kkt":
                by_caller[caller_of(spans, i, KKT_CALLERS)].append(d)
            elif name == "stationary.residual" and \
                    caller_of(spans, i, {"stationary.newton_solve": "n"}):
                residual_in_newton += 1

    m: Dict[str, float] = {}
    for fn, stats in FUNCTION_STATS:
        for st in stats:
            if st == "calls":
                m[f"{fn}.calls"] = len(durs[fn]) / n
            elif st == "self":
                m[f"{fn}.self_s"] = median(self_per_pass[fn]) if fn in self_per_pass else 0.0
            else:
                m[f"{fn}_ms.{st}"] = _quantile_ms(durs[fn], int(st[1:]))
    for fn, st, grid in BY_MESH:
        for M in grid:
            m[f"{fn}_ms.{st}.M{M}"] = _quantile_ms(by_mesh[(fn, M)], int(st[1:]))
    for label in sorted(set(KKT_CALLERS.values())):
        m[f"saddle_solver.solve_kkt_ms.p50.{label}"] = _quantile_ms(by_caller[label], 50)
        m[f"saddle_solver.solve_kkt.calls.{label}"] = len(by_caller[label]) / n

    all_spans = [s for spans in traced for s in spans] + probe_spans
    failed_kkt = [end - start for name, start, end, _, _, ok in all_spans
                  if name == "saddle_solver.solve_kkt" and not ok]
    m["saddle_solver.kkt_failures"] = len(failed_kkt)
    m["saddle_solver.kkt_fail_ms"] = 1e3 * sum(failed_kkt)

    iters = [sum(r.out.get("iterations", 0) for r in p.cells) for p in passes]
    halv = [sum(r.out.get("halvings", 0) for r in p.cells) for p in passes]
    m["stationary.newton_iterations"] = median(iters)
    m["stationary.newton_halvings"] = median(halv)
    residual_per_pass = residual_in_newton / n
    m["stationary.newton_useful_ratio"] = (
        median(iters) / residual_per_pass if residual_per_pass else 0.0)

    quality = {"flow.identity_defect_max": max_by_m(passes, "identity"),
               "flow.constraint_residual_max": max_by_m(passes, "constraint"),
               "analysis.h2_error_reldiff": h2_reldiff_by_m(passes)}
    for q in QUALITY:
        for M in FLOW_GRID:
            m[f"{q}.M{M}"] = quality[q].get(M, 0.0)

    for layer in LAYERS:
        m[f"share.{layer}"] = layer_self.get(layer, 0.0) / covered if covered else 0.0

    untraced = [p for p in passes if not p.traced]
    raw = workload_details(untraced)
    m["raw.study_s"] = raw["study_s"]
    m["raw.setup_s"] = raw["setup_s"]
    m["raw.calibration_s"] = raw["calibration_s"]
    m["raw.steps_per_s"] = raw["steps_per_s"]
    m["raw.flow_s"] = raw["flow_s"]
    m["raw.newton_s"] = raw["newton_s"]
    m["raw.brezzi_s"] = raw["brezzi_s"]
    m["raw.fail_ratio"] = fail_ratio
    # compared in calibration units, which cancel the machine's drift
    # between the traced and the untraced passes
    slowdown = (median(p.study_s / p.cal_s for p in passes if p.traced)
                / median(p.study_s / p.cal_s for p in untraced)) - 1.0
    m["trace.overhead_s"] = slowdown * raw["study_s"]
    m["trace.overhead_pct"] = 100.0 * slowdown
    m["trace.spans_per_pass"] = sum(len(s) for s in traced) / n
    m["probe.failed_ops"] = probe_failed
    return m
