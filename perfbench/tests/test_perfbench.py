"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

import io
import json
import re
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import metrics  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from elastica_fem import flow  # noqa: E402
from elastica_fem.mesh import ConstraintVariant, Mesh1D  # noqa: E402
from elastica_fem.saddle_solver import KKTSingularError  # noqa: E402
from problems import make_problem, rigid_motion  # noqa: E402

# reduced workloads: the same cell kinds on small meshes and short horizons
SMALL = {
    "coarse-flow": [wl.Cell("flow", "oval-h2", M, flow=v, tau=1 / 200, T=0.02)
                    for M in (5, 10) for v in ("h2", "l2")],
    "fine-flow": [wl.Cell("flow", e, M, constraint=c, initializer=i, T=0.2)
                  for M in (20, 80)
                  for e, c, i in (("circle", "p2", "j3"),
                                  ("circle", "p1", "j2"),
                                  ("helix", "p2", "j3"))],
    "stationary-sweep": [wl.Cell("stationary", e, M)
                         for e in ("circle", "helix") for M in (10, 20)],
}


@pytest.fixture
def small_workloads(monkeypatch):
    monkeypatch.setattr(wl, "WORKLOADS", SMALL)
    monkeypatch.setattr(wl, "PROBES", {
        "coarse-flow": [], "stationary-sweep": [],
        "fine-flow": [wl.Cell("flow", "oval-h2", 10, flow="h2", T=0.1)]})
    monkeypatch.setattr(wl, "load_reference", lambda: {"values": {}})


def run_main(args):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run.main(args)
    lines = buf.getvalue().strip().splitlines()
    return code, json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(SMALL))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run(small_workloads, workload, trace):
    code, result = run_main(["--workload", workload, "--seed", "3",
                             "--seconds", "0", "--trace", str(trace)])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert list(result["metrics"]) == [spec[0] for spec in declared]
    for name, entry in result["metrics"].items():
        assert set(entry) == {"value", "unit"}
        assert np.isfinite(entry["value"]), name
    if not trace:
        assert all(result["metrics"][name]["value"] > 0
                   for name, *_ in metrics.END_TO_END)


def test_layers_run_only_where_expected(small_workloads):
    _, flow_run = run_main(["--workload", "coarse-flow", "--seed", "0",
                            "--seconds", "0", "--trace", "1"])
    _, stat_run = run_main(["--workload", "stationary-sweep", "--seed", "0",
                            "--seconds", "0", "--trace", "1"])
    flow_m, stat_m = flow_run["metrics"], stat_run["metrics"]
    assert flow_m["flow.step.calls"]["value"] > 0
    assert flow_m["stationary.residual.calls"]["value"] == 0
    assert stat_m["flow.step.calls"]["value"] == 0
    assert stat_m["saddle_solver.solve_kkt.calls.newton"]["value"] > 0
    shares = sum(flow_m[f"share.{layer}"]["value"] for layer in metrics.LAYERS)
    assert shares == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("dim", [2, 3])
def test_rigid_motion_is_a_rotation(seed, dim):
    Q, t = rigid_motion(seed, dim)
    assert np.allclose(Q.T @ Q, np.eye(dim), atol=1e-14)
    assert np.linalg.det(Q) == pytest.approx(1.0, abs=1e-12)
    assert t.shape == (dim,) and np.all(np.abs(t) <= 1.0)
    Q2, t2 = rigid_motion(seed, dim)
    assert np.array_equal(Q, Q2) and np.array_equal(t, t2)


@pytest.mark.parametrize("name", ["circle", "helix", "oval-h2"])
@pytest.mark.parametrize("seed", [0, 7])
def test_moved_boundary_conditions_hold(name, seed):
    prob = make_problem(name, seed)
    spec = prob.spec
    assert spec.bc.value_a is not None or spec.bc.deriv_a is not None
    for M in (10, 40):
        mesh = Mesh1D.uniform(*spec.interval, M)
        state = flow.init_state(spec.z0, mesh, spec.dim, ConstraintVariant.P2)
        spec.bc.validate_initial(state.curve)


def test_exact_second_derivative_is_exact():
    prob = make_problem("helix", 5)
    x = np.linspace(*prob.spec.interval, 7)
    d = prob.spec.exact.oracle.deriv
    fd = (d(x + 1e-5) - d(x - 1e-5)) / 2e-5
    assert np.allclose(prob.second(x), fd, atol=1e-8)


def test_spans_nest_and_self_times_are_nonnegative():
    cells = SMALL["coarse-flow"][:1] + SMALL["stationary-sweep"][:1]
    problems = {c.experiment: make_problem(c.experiment, 1) for c in cells}
    original = flow.step
    with tracing.Tracer() as tracer:
        wl.run_pass(cells, problems, tracer)
    assert flow.step is original          # attributes restored
    spans = tracer.spans
    assert {s[0] for s in spans} >= {"flow.step", "saddle_solver.solve_kkt",
                                     "stationary.newton_solve",
                                     "stationary.residual", "assembly.forms"}
    for name, start, end, parent, cell, ok in spans:
        assert start <= end and ok
        if parent < 0:
            assert name == tracing.CELL_SPAN
            continue
        p = spans[parent]
        assert p[1] <= start and end <= p[2] and p[4] == cell
    # perf_counter differences round at ~1e-11 s near the clock's magnitude
    assert min(tracing.self_times(spans)) >= -1e-9


def test_forced_failure_is_counted_and_run_completes(small_workloads,
                                                     monkeypatch):
    real = flow.solve_kkt

    def failing(system, *args, **kwargs):
        if system.A.shape[0] == 2 * 2 * 11:     # the M=10 oval cells only
            raise KKTSingularError("forced", 1)
        return real(system, *args, **kwargs)

    monkeypatch.setattr(flow, "solve_kkt", failing)
    code, result = run_main(["--workload", "coarse-flow", "--seed", "0",
                             "--seconds", "0", "--trace", "0"])
    assert code == 0
    assert not result["correct"]
    per_pass = len(SMALL["coarse-flow"])
    assert result["attempted"] % per_pass == 0
    passes = result["attempted"] // per_pass
    assert result["failed"] == 2 * passes
    assert result["metrics"]["ok_ratio"]["value"] == pytest.approx(0.5)


def test_failed_setup_fails_each_operation_of_its_cell(small_workloads,
                                                      monkeypatch):
    from elastica_fem import stationary
    real = stationary.DiscreteNorms.build

    def failing(mats, *args, **kwargs):
        if mats.mesh.num_elements == 20:
            raise ValueError("forced")
        return real(mats, *args, **kwargs)

    monkeypatch.setattr(stationary.DiscreteNorms, "build", failing)
    code, result = run_main(["--workload", "stationary-sweep", "--seed", "0",
                             "--seconds", "0", "--trace", "0"])
    assert code == 0
    assert not result["correct"]
    per_pass = 2 * len(SMALL["stationary-sweep"])     # brezzi and newton
    passes = result["attempted"] // per_pass
    assert result["attempted"] == per_pass * passes
    # the two M=20 cells fail both operations; the Newton EOC check needs
    # M=20 too and is charged to the Newton solve that already failed
    assert result["failed"] == 4 * passes


def test_check_pass_flags_wrong_outputs():
    cells = SMALL["coarse-flow"][:1]
    problems = {"oval-h2": make_problem("oval-h2", 0)}
    result = wl.run_pass(cells, problems)
    cid = cells[0].id
    energy = result.cells[0].out["energy"]
    ref = {"values": {f"{cid}:energy": {"value": energy * (1 + 1e-6),
                                        "tol_rel": 1e-9}}}
    assert wl.check_pass("coarse-flow", result, ref)[(cid, "flow")]
    ref["values"][f"{cid}:energy"]["value"] = energy
    assert not wl.check_pass("coarse-flow", result, ref)[(cid, "flow")]
    result.cells[0].out["identity"] = 1e-11
    assert wl.check_pass("coarse-flow", result, ref)[(cid, "flow")]


def test_benchmark_json_matches_the_harness():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert [w["name"] for w in bench["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in bench["end_to_end"]] == metrics.END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["per_layer"]] == metrics.PER_LAYER
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit_re = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert name_re.match(m["name"]) and unit_re.match(m["unit"])
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in bench["workloads"])


def test_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "coarse-flow",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
