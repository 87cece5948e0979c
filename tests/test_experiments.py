import numpy as np
import pytest
from numpy.testing import assert_allclose

from elastica_fem import BoundaryConditions, ConstraintVariant
from elastica_fem.experiments import (ExperimentSpec, emit_csv,
                                      named_experiment, oval_initial,
                                      run_experiment, stationarity_check)

P1, P2 = ConstraintVariant.P1, ConstraintVariant.P2


class TestNamedExperiments:
    def test_circle_defaults(self):
        spec = named_experiment("circle")
        assert spec.interval == (0.0, 2.0 * np.pi)
        assert spec.dim == 2
        assert spec.T == 50.0
        assert spec.taus == [0.1, 0.05]
        assert_allclose(spec.bc.value_a, [1.0, 0.0])
        assert_allclose(spec.bc.deriv_a, [0.0, 1.0])
        assert_allclose(spec.bc.deriv_b, [0.0, 1.0])
        assert spec.bc.value_b is None

    def test_helix_defaults(self):
        spec = named_experiment("helix")
        b = 2.0 * np.sqrt(np.pi**2 + 1.0)
        assert spec.interval[1] == pytest.approx(b)
        assert spec.dim == 3
        # clamped at both ends
        for t in (spec.bc.value_a, spec.bc.deriv_a, spec.bc.value_b,
                  spec.bc.deriv_b):
            assert t is not None
        lp = np.pi / np.sqrt(np.pi**2 + 1.0)
        assert_allclose(spec.bc.deriv_a, [0.0, lp, 1.0 / np.sqrt(np.pi**2 + 1)])

    def test_oval_variants(self):
        long = named_experiment("oval")
        assert long.long_running
        assert long.T == 5000.0
        assert long.taus == [1 / 2000, 1 / 4000]
        fast = named_experiment("oval-h2")
        assert not fast.long_running
        assert fast.flow_variant == "h2"
        assert fast.T == 50.0 and fast.taus == [1 / 200, 1 / 400]

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            named_experiment("sphere")

    def test_invalid_overrides(self):
        with pytest.raises(ValueError):
            named_experiment("circle", flow_variant="h4")
        with pytest.raises(ValueError):
            named_experiment("circle", norms=["h3"])
        with pytest.raises(ValueError):
            named_experiment("circle", initializer="j7")


class TestOvalInitialCurve:
    def test_junction_continuity_and_unit_speed(self):
        z0 = oval_initial()
        eps = 1e-9
        for xj in (np.pi, 2 * np.pi, 3 * np.pi):
            left = z0.value(np.array([xj - eps]))[0]
            right = z0.value(np.array([xj + eps]))[0]
            assert_allclose(left, right, atol=1e-8)
            dl = z0.deriv(np.array([xj - eps]))[0]
            dr = z0.deriv(np.array([xj + eps]))[0]
            assert_allclose(dl, dr, atol=1e-8)
        x = np.linspace(0.0, 4.0 * np.pi, 997)
        speeds = np.linalg.norm(z0.deriv(x), axis=1)
        assert np.abs(speeds - 1.0).max() <= 1e-14

    def test_boundary_data_matches_target_curve(self):
        z0 = oval_initial()
        spec = named_experiment("oval-h2")
        z1 = spec.exact.oracle
        x0 = np.array([0.0])
        xb = np.array([4.0 * np.pi])
        assert_allclose(z0.value(x0)[0], [1.0, 0.0], atol=1e-15)
        assert_allclose(z1.value(x0)[0], [1.0, 0.0], atol=1e-15)
        assert_allclose(z0.deriv(x0)[0], [0.0, 1.0], atol=1e-15)
        assert_allclose(z1.deriv(x0)[0], [0.0, 1.0], atol=1e-15)
        assert_allclose(z0.deriv(xb)[0], [0.0, 1.0], atol=1e-13)
        assert_allclose(z1.deriv(xb)[0], [0.0, 1.0], atol=1e-13)


class TestStationarityCheck:
    def test_circle_p2_j3(self):
        assert stationarity_check("circle", P2, "j3") <= 1e-9

    def test_circle_p1_j2(self):
        assert stationarity_check("circle", P1, "j2") <= 1e-9

    def test_circle_p1_j3_moves(self):
        assert stationarity_check("circle", P1, "j3") >= 1e-3


class TestRunExperiment:
    def test_small_circle_table(self):
        spec = named_experiment("circle", mesh_sizes=[4, 8], taus=[0.1],
                                T=0.5, norms=["h2", "l2"])
        table = run_experiment(spec)
        assert not table.failures
        assert len(table.hs) == 2
        assert [c.label for c in table.columns] == ["tau=0.1:h2", "tau=0.1:l2"]
        for col in table.columns:
            assert col.eocs[0] is None
            assert all(e is not None and e > 0 for e in col.errors)
        assert table.meta["experiment"] == "circle"

    def test_newton_variant(self):
        spec = named_experiment("circle", flow_variant="newton",
                                mesh_sizes=[8, 16, 32])
        table = run_experiment(spec)
        col = table.column("newton:h2")
        assert all(1.7 <= r <= 2.3 for r in col.eocs[1:])

    @pytest.mark.parametrize("constraint, rate", [(P1, 1.0), (P2, 2.0)])
    @pytest.mark.parametrize("name", ["circle", "helix"])
    def test_newton_rate_at_eight_levels(self, name, constraint, rate):
        # quasi-optimality from M=10 to M=1280.  Circle P2 at M=1280 accepts
        # its start after 0 iterations (start residual below the roundoff
        # floor of the tol), so that level measures the interpolant.
        spec = named_experiment(name, constraint=constraint,
                                flow_variant="newton",
                                mesh_sizes=[10 * 2**k for k in range(8)])
        table = run_experiment(spec)
        assert not table.failures, table.failures
        eocs = table.column("newton:h2").eocs[1:]
        assert all(abs(r - rate) <= 0.01 for r in eocs), eocs

    def test_failed_cell_marked(self):
        # H2 flow with periodic conditions has a singular system: every cell
        # fails but the table is still produced
        spec = named_experiment("circle", mesh_sizes=[4, 6], taus=[0.1],
                                T=0.3, flow_variant="h2",
                                bc=BoundaryConditions(periodic=True))
        table = run_experiment(spec)
        assert table.failures
        assert len(table.failures) == 2
        assert all(e is None for e in table.column("tau=0.1:h2").errors)


class TestCsv:
    def test_layout_and_roundtrip(self, tmp_path):
        spec = named_experiment("circle", mesh_sizes=[4, 8], taus=[0.1, 0.05],
                                T=0.3, norms=["h2"])
        table = run_experiment(spec)
        path = str(tmp_path / "t.csv")
        emit_csv(table, path)
        lines = open(path).read().strip().splitlines()
        assert len(lines) == 2
        cells = [line.split(",") for line in lines]
        # 1 + 2 * (number of error series) columns
        assert all(len(c) == 1 + 2 * len(table.columns) for c in cells)
        assert cells[0][2] == "--" and cells[0][4] == "--"
        # parse-back equals the formatted values
        for i, line in enumerate(cells):
            assert float(line[0]) == float(f"{table.hs[i]:.3e}")
            assert float(line[1]) == float(f"{table.columns[0].errors[i]:.3e}")
        assert cells[1][2] == f"{table.columns[0].eocs[1]:.2f}"
        meta = open(str(tmp_path / "t.meta")).read()
        assert "experiment = circle" in meta
        assert "wall_time_s" in meta

    def test_determinism(self, tmp_path):
        spec = named_experiment("circle", mesh_sizes=[4, 8], taus=[0.1],
                                T=0.3)
        p1_, p2_ = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        emit_csv(run_experiment(spec), p1_)
        emit_csv(run_experiment(spec), p2_)
        assert open(p1_).read() == open(p2_).read()

    def test_failure_markers(self, tmp_path):
        spec = named_experiment("circle", mesh_sizes=[4, 6], taus=[0.1],
                                T=0.3, flow_variant="h2",
                                bc=BoundaryConditions(periodic=True))
        table = run_experiment(spec)
        path = str(tmp_path / "f.csv")
        emit_csv(table, path)
        content = open(path).read()
        assert "FAILED" in content
        meta = open(str(tmp_path / "f.meta")).read()
        assert "failure" in meta
