"""Regenerate ``reference.json``: the seed-invariant reference values and
their comparison tolerances, measured across seeds.

    python3 perfbench/make_reference.py

The rigid motion of a seed leaves energies and errors unchanged, so each
reference value is the median over ``SEEDS``, and its tolerance is
``TOL_FACTOR`` times the relative spread (max - min) seen across seeds, but
at least ``TOL_FLOOR``.  The file also records, per mesh size, the range
over seeds of the two fine-mesh defects the benchmark reports without
gating, and of the Newton residual at the finest timed mesh.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict

import run

TOL_FACTOR = 10.0
TOL_FLOOR = 1e-10
SEEDS = range(10)

# quantity -> experiments whose cells carry a reference value of it
REFERENCED = {"energy": ("oval-h2",), "quad_h2": ("circle", "helix")}


def main() -> int:
    run._pin_blas_threads()
    run._import_package()
    import workloads as wl
    from problems import make_problem

    samples = defaultdict(list)
    defects = defaultdict(lambda: defaultdict(list))
    for seed in SEEDS:
        for workload, cells in wl.WORKLOADS.items():
            problems = {name: make_problem(name, seed)
                        for name in wl.needed_problems(workload)}
            result = wl.run_pass(cells, problems)
            for res in result.cells:
                if res.errors:
                    raise SystemExit(f"seed {seed}: {res.cell.id} {res.errors}")
                for qty, experiments in REFERENCED.items():
                    if res.cell.experiment in experiments and qty in res.out:
                        samples[f"{res.cell.id}:{qty}"].append(res.out[qty])
            for M, v in wl.max_by_m([result], "identity").items():
                defects["flow.identity_defect_max"][M].append(v)
            for M, v in wl.h2_reldiff_by_m([result]).items():
                defects["analysis.h2_error_reldiff"][M].append(v)
            for M, v in wl.max_by_m([result], "residual").items():
                defects["stationary.newton_residual_max"][M].append(v)
        print(f"seed {seed} done", file=sys.stderr)

    values = {}
    for key, vals in sorted(samples.items()):
        mid = sorted(vals)[len(vals) // 2]
        spread = (max(vals) - min(vals)) / abs(mid)
        values[key] = {"value": mid, "spread_rel": spread,
                       "tol_rel": max(TOL_FACTOR * spread, TOL_FLOOR)}
    out = {
        "about": "seed-invariant reference values; see make_reference.py",
        "commit": run._git_commit(),
        "seeds": list(SEEDS),
        "tol_rule": f"max({TOL_FACTOR:g} * spread_rel, {TOL_FLOOR:g})",
        "values": values,
        "ungated_range_over_seeds": {
            name: {f"M{M}": [min(v), max(v)] for M, v in sorted(by_m.items())}
            for name, by_m in sorted(defects.items())},
    }
    with open(wl.REFERENCE_PATH, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
