"""Benchmark of elastica-fem: three seeded workloads, one process each.

    python3 perfbench/run.py --workload coarse-flow --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout and nowhere else.  One run does an unmeasured warm-up pass
over the workload's cells, then repeats passes until ``--seconds`` have
passed (at least ``MIN_PASSES``) and reports medians over them.  Every pass
checks its outputs; an operation that raises or fails its check is counted
in ``failed`` and does not stop the run.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes, prints the per-layer metrics (with the tracing
overhead: traced minus untraced pass time, in calibration units), runs the
known-failure probes once, and writes the spans to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the provenance, workload-specific figures and any failure messages.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MIN_PASSES = 4
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _pin_blas_threads() -> int:
    """One BLAS thread; must run before numpy is imported.  On a shared
    2-vCPU machine two OpenBLAS threads made the dense diagnostics slower,
    not faster, and far noisier.  Returns the CPUs this process may use."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def _import_package() -> None:
    init = SRC / "elastica_fem" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: no package source at {init}")
    sys.path.insert(0, str(SRC))
    import elastica_fem
    if Path(elastica_fem.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported {elastica_fem.__file__}, "
                         f"not the checkout's {init}")


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int, nproc: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"commit": _git_commit(), "src_sha256": digest.hexdigest()[:16],
            "src_lines": lines, "seed": seed,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "nproc": nproc, "machine": platform.machine()}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("coarse-flow", "fine-flow", "stationary-sweep"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = _pin_blas_threads()
    _import_package()
    import metrics
    import tracing
    import workloads as wl
    from calibration import Calibration
    from problems import make_problem

    cells = wl.WORKLOADS[args.workload]
    reference = wl.load_reference()
    problems = {name: make_problem(name, args.seed)
                for name in wl.needed_problems(args.workload)}
    tally = {"attempted": 0, "failed": 0}
    messages = []

    def checked(result):
        for (cell_id, op), msgs in wl.check_pass(args.workload, result,
                                                 reference).items():
            tally["attempted"] += 1
            if msgs:
                tally["failed"] += 1
                messages.extend(f"{cell_id} {op}: {m}" for m in msgs)
        return result

    calibrate = Calibration()
    warm = checked(wl.run_pass(cells, problems, calibrate=calibrate))
    passes, traced = [], []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        gc.collect()
        if args.trace and len(passes) % 2 == 1:
            with tracing.Tracer() as tracer:
                result = wl.run_pass(cells, problems, tracer, calibrate)
            traced.append(tracer.spans)
        else:
            result = wl.run_pass(cells, problems, calibrate=calibrate)
        passes.append(checked(result))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    fail_ratio = tally["failed"] / tally["attempted"]
    detail = {"workload": args.workload,
              "provenance": provenance(args.seed, nproc),
              "passes": len(passes), "warmup_pass_s": warm.study_s,
              "workload_figures": metrics.workload_details(
                  [p for p in passes if not p.traced]),
              "fail_ratio": fail_ratio,
              "defects": {
                  "flow.identity_defect_max": wl.max_by_m(passes, "identity"),
                  "analysis.h2_error_reldiff": wl.h2_reldiff_by_m(passes)},
              "failures": messages[:20]}

    if args.trace:
        probe_cells = wl.PROBES[args.workload]
        with tracing.Tracer() as probe_tracer:
            probe = wl.run_pass(probe_cells, problems, probe_tracer)
        detail["probes"] = {r.cell.id: r.errors for r in probe.cells}
        cell_mesh = {c.id: c.M for c in cells}
        values = metrics.per_layer(
            traced, passes, cell_mesh, probe_tracer.spans,
            sum(len(r.errors) for r in probe.cells), fail_ratio)
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.jsonl"
        tracing.write_spans(spans_path, traced)
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
        names = [name for name, *_ in metrics.PER_LAYER]
    else:
        values = metrics.end_to_end(passes, tally["attempted"], tally["failed"],
                                    peak_rss_mb)
        names = [name for name, *_ in metrics.END_TO_END]

    for name in names:
        print(f"{name} = {values[name]:.6g} {metrics.UNITS[name]}")
    print(json.dumps(detail, default=str))
    print(json.dumps({
        "correct": tally["failed"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {name: {"value": values[name], "unit": metrics.UNITS[name]}
                    for name in names}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
