import inspect
import pathlib
import re

import pytest

import elastica_fem
from elastica_fem import flow, saddle_solver, stationary

from code_lines import code_lines

ROOT = pathlib.Path(__file__).resolve().parents[1]

# one KKT path (saddle_solver.BandedKKT) and no dense fallback: no module
# factors or solves with a second method, or turns a sparse matrix dense
SECOND_PATHS = ("splu", "spsolve", "svdvals", "cho_factor", "toarray",
                "todense", "np.linalg.solve", "np.linalg.inv")


def test_every_public_name_resolves():
    namespace = {}
    exec("from elastica_fem import *", namespace)
    assert [n for n in elastica_fem.__all__ if n not in namespace] == []
    assert len(set(elastica_fem.__all__)) == len(elastica_fem.__all__)


def test_public_names_are_used():
    # each name of __all__ is used outside the tests: as a word of a module
    # of the package other than on its own def or class line, or in the
    # demos or the benchmark harness, read as text
    package = pathlib.Path(elastica_fem.__file__).parent
    lines = [line for path in package.glob("*.py") if path.name != "__init__.py"
             for line in path.read_text().splitlines()]
    lines += [line for folder in ("demos", "perfbench")
              for path in (ROOT / folder).rglob("*.py")
              for line in path.read_text().splitlines()]
    unused = [name for name in elastica_fem.__all__ if not any(
        re.search(r"\b%s\b" % name, line) and not re.match(
            r"\s*(def|class) %s\b" % name, line) for line in lines)]
    assert unused == []


def test_entry_points_take_their_structures():
    # a step takes the structure of its run, a KKT solve its band and a
    # Brezzi estimate its norms: none of them builds its own
    assert list(inspect.signature(flow.step).parameters) == ["state",
                                                             "structure"]
    params = [inspect.signature(saddle_solver.solve_kkt).parameters["band"]]
    params += [inspect.signature(f).parameters["norms"] for f in (
        stationary.residual_dual_norm, stationary.coercivity_estimate,
        stationary.infsup_estimate)]
    assert [p.default for p in params] == [inspect.Parameter.empty] * 4
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)


def test_one_kkt_path_no_dense_fallback():
    pattern = re.compile(r"\b(%s)\b" % "|".join(map(re.escape, SECOND_PATHS)))
    package = pathlib.Path(elastica_fem.__file__).parent
    found = [f"{path.name}:{number}: {line.strip()}"
             for path in sorted(package.glob("*.py"))
             for number, line in enumerate(path.read_text().splitlines(), 1)
             if pattern.search(line)]
    assert found == []


def test_benchmark_tracer_targets_exist():
    # perfbench's tracer replaces each (owner, attribute) of its TARGETS for
    # `--trace 1`; read its source without importing perfbench as a package
    path = ROOT / "perfbench" / "tracing.py"
    if not path.is_file():
        pytest.skip("perfbench/ is absent")
    namespace = {"__name__": "perfbench_tracing"}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in namespace["TARGETS"]
               if attr not in owner.__dict__]
    assert missing == []


@pytest.mark.parametrize("variant", ["p1", "p2"])
@pytest.mark.parametrize("bc_kind", ["free", "clamped", "periodic"])
@pytest.mark.parametrize("name", ["circle", "helix"])
def test_benchmark_flow_contract(monkeypatch, name, bc_kind, variant):
    # perfbench wraps flow.solve_kkt for its layer timings, and its
    # forced-failure test picks cells by the order of system.A: each flow
    # step makes one such call, on the full numbering 2 d (M + 1)
    spec = elastica_fem.named_experiment(name)
    constraint = elastica_fem.ConstraintVariant(variant)
    bc = {"free": elastica_fem.BoundaryConditions.free(), "clamped": spec.bc,
          "periodic": elastica_fem.BoundaryConditions(periodic=True)}[bc_kind]
    M = 6
    mesh = elastica_fem.Mesh1D.uniform(*spec.interval, M)
    mats = elastica_fem.assemble_matrices(mesh, spec.dim)
    cfg = elastica_fem.FlowConfig(tau=0.1, T=0.1, constraint=constraint, bc=bc)
    state = flow.init_state(spec.z0, mesh, spec.dim, constraint, "j3", mats)
    orders, real = [], flow.solve_kkt

    def spy(system, *args, **kwargs):
        orders.append(system.A.shape[0])
        return real(system, *args, **kwargs)

    monkeypatch.setattr(flow, "solve_kkt", spy)
    flow.step(state, flow.StepStructure.build(cfg, mats))
    assert orders == [2 * spec.dim * (M + 1)]


def test_code_line_counter():
    # code lines: not blank, not a comment, not a docstring
    snippet = '''"""Module docstring,
on two lines."""

import os   # a comment


# a comment line
def f(x):
    """Docstring."""
    s = """a string,
    not a docstring"""
    return (x +
            1)


class C:
    """Class docstring."""

    y = 1
'''
    assert code_lines(snippet) == 8
