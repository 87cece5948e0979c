import os
import re
import shlex
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from elastica_fem import Mesh1D, cli, flow
from elastica_fem.cli import (UsageError, _run_spec, console_main,
                              load_config, main, parse_args)
from elastica_fem.experiments import named_experiment
from elastica_fem.stationary import NewtonError


class TestParseArgs:
    def test_run_with_overrides(self):
        cfg = parse_args(["run", "circle", "--constraint", "p2",
                          "--tau", "0.1"])
        assert cfg.subcommand == "run"
        assert cfg.experiment == "circle"
        assert cfg.constraint == "p2"
        assert cfg.taus == [0.1]

    def test_run_with_config_file(self):
        cfg = parse_args(["run", "--config", "oval.cfg"])
        assert cfg.config_path == "oval.cfg"
        assert cfg.experiment is None

    def test_bad_constraint_value(self):
        with pytest.raises(UsageError):
            parse_args(["run", "circle", "--constraint", "p3"])

    def test_unknown_flag(self):
        with pytest.raises(UsageError, match="frobnicate"):
            parse_args(["run", "circle", "--frobnicate"])

    def test_missing_subcommand(self):
        with pytest.raises(UsageError):
            parse_args([])

    def test_run_needs_experiment_or_config(self):
        with pytest.raises(UsageError):
            parse_args(["run"])

    def test_mesh_size_lists(self):
        cfg = parse_args(["run", "circle", "-M", "10,20,40"])
        assert cfg.mesh_sizes == [10, 20, 40]
        with pytest.raises(UsageError):
            parse_args(["run", "circle", "-M", "ten"])


class TestLoadConfig:
    def write(self, tmp_path, text):
        path = tmp_path / "exp.cfg"
        path.write_text(text)
        return str(path)

    def test_helix_with_tau(self, tmp_path):
        path = self.write(tmp_path, "experiment=helix\ntau=0.05\n")
        raw = load_config(path)
        assert raw == {"experiment": "helix", "tau": "0.05"}

    def test_missing_experiment(self, tmp_path):
        path = self.write(tmp_path, "")
        with pytest.raises(UsageError, match="missing key: experiment"):
            load_config(path)

    def test_duplicate_key(self, tmp_path):
        path = self.write(tmp_path, "experiment=helix\ntau=0.1\ntau=0.2\n")
        with pytest.raises(UsageError, match="duplicate key: tau"):
            load_config(path)

    def test_unknown_key(self, tmp_path):
        path = self.write(tmp_path, "experiment=helix\ncolor=red\n")
        with pytest.raises(UsageError, match="2: unknown key: color"):
            load_config(path)

    def test_not_key_value(self, tmp_path):
        path = self.write(tmp_path, "experiment helix\n")
        with pytest.raises(UsageError, match="1"):
            load_config(path)

    def test_periodic_conflict(self, tmp_path):
        path = self.write(
            tmp_path, "experiment=circle\nbc.periodic=true\nbc.value_a=1,0\n")
        cfg = parse_args(["run", "--config", path, "-M", "4", "--tau", "0.1",
                          "--T", "0.2"])
        with pytest.raises(UsageError, match="periodic"):
            main(cfg)

    def test_bc_vector_length(self, tmp_path):
        path = self.write(tmp_path, "experiment=circle\nbc.value_a=1,0,0\n")
        cfg = parse_args(["run", "--config", path, "-M", "4", "--tau", "0.1",
                          "--T", "0.2"])
        with pytest.raises(UsageError,
                           match="bc.value_a needs 2 components, got 3"):
            main(cfg)

    def test_bc_override_applies(self, tmp_path):
        path = self.write(tmp_path, "experiment=circle\nbc.value_b=1,0\n")
        spec = _run_spec(parse_args(["run", "--config", path]))
        assert spec.bc.value_b.dtype == float
        assert_allclose(spec.bc.value_b, [1.0, 0.0])
        assert named_experiment("circle").bc.value_b is None

    @pytest.mark.parametrize("value, periodic", [
        ("1", True), ("TRUE", True), ("Yes", True),
        ("0", False), ("False", False), ("NO", False)])
    def test_periodic_switch_spellings(self, tmp_path, value, periodic):
        path = self.write(tmp_path, f"experiment=circle\nbc.periodic={value}\n")
        spec = _run_spec(parse_args(["run", "--config", path]))
        assert spec.bc.periodic is periodic
        assert (spec.bc.value_a is None) is periodic


class TestMain:
    def test_run_small_circle(self, tmp_path):
        cfg = parse_args(["run", "circle", "-M", "4,8", "--tau", "0.1",
                          "--T", "0.3", "--output-dir", str(tmp_path)])
        assert main(cfg) == 0
        assert (tmp_path / "circle_p2_l2.csv").exists()
        assert (tmp_path / "circle_p2_l2.meta").exists()

    def test_run_via_config_file(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "experiment=circle\nM=4,8\ntau=0.1\nT=0.3\nconstraint=p1\n")
        cfg = parse_args(["run", "--config", str(cfg_file),
                          "--output-dir", str(tmp_path)])
        assert main(cfg) == 0
        assert (tmp_path / "circle_p1_l2.csv").exists()

    def test_snapshots_come_from_the_study_run(self, tmp_path, monkeypatch):
        # the trajectory is the coarsest cell's own flow run: one flow.run
        # per (M, tau), and the file a separate run of that cell wrote
        calls, run = [], flow.run

        def spy(config, mesh, *args, **kwargs):
            calls.append((mesh.num_elements, config.tau))
            return run(config, mesh, *args, **kwargs)

        monkeypatch.setattr(flow, "run", spy)
        assert console_main(["run", "circle", "-M", "4,8", "--T", "0.2",
                             "--snapshot-stride", "1",
                             "--output-dir", str(tmp_path)]) == 0
        spec = named_experiment("circle")
        assert calls == [(M, tau) for M in (4, 8) for tau in spec.taus]
        config = flow.FlowConfig(tau=spec.taus[0], T=0.2,
                                 variant=spec.flow_variant,
                                 constraint=spec.constraint, bc=spec.bc)
        _, snapshots = run(config, Mesh1D.uniform(*spec.interval, 4), spec.z0,
                           spec.dim, initializer=spec.initializer,
                           snapshot_stride=1)
        flow.dump_trajectory(snapshots, spec.taus[0], str(tmp_path / "want"))
        assert (tmp_path / "circle_trajectory.txt").read_bytes() \
            == (tmp_path / "want").read_bytes()

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ELASTICA_FEM_OUTPUT_DIR", str(tmp_path / "envout"))
        cfg = parse_args(["run", "circle", "-M", "4", "--tau", "0.1",
                          "--T", "0.2"])
        assert main(cfg) == 0
        assert (tmp_path / "envout" / "circle_p2_l2.csv").exists()

    def test_oval_requires_long(self):
        with pytest.raises(UsageError, match="--long"):
            main(parse_args(["run", "oval"]))

    def test_unwritable_output_dir(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("")  # a file, so makedirs must fail
        cfg = parse_args(["run", "circle", "-M", "4", "--tau", "0.1",
                          "--T", "0.2", "--output-dir", str(target)])
        assert main(cfg) == 1

    def test_failed_cells_exit_code(self, tmp_path, capsys):
        # P2 from J2 on the circle at M=2: u' vanishes at both midpoints,
        # so the KKT matrix is singular; via config
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(
            "experiment=circle\nM=2\ntau=0.1\nT=0.2\ninitializer=j2\n")
        cfg = parse_args(["run", "--config", str(cfg_file),
                          "--output-dir", str(tmp_path)])
        assert main(cfg) == 1
        content = (tmp_path / "circle_p2_l2.csv").read_text()
        assert "FAILED" in content
        assert "u' vanishes at the midpoint of element 0, 1" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("text, flags", [
        ("experiment=circle\nflow=h2\nbc.periodic=yes\n", []),
        ("experiment=oval-h2\nbc.periodic=true\n", []),
        ("experiment=circle\nbc.periodic=1\n", ["--flow", "h2"]),
    ], ids=["config-flow", "oval-h2", "flag-flow"])
    def test_h2_flow_with_no_fixed_value_is_usage_error(self, text, flags,
                                                          tmp_path, capsys):
        cfg_file = tmp_path / "h2.cfg"
        cfg_file.write_text("M=4\ntau=0.1\nT=0.2\n" + text)
        assert console_main(["run", "--config", str(cfg_file), *flags,
                             "--output-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: the H2 flow needs value_a or "
                              "value_b fixed")
        assert list(tmp_path.glob("*.csv")) == []

    def test_nonfinite_boundary_target_is_usage_error(self, tmp_path, capsys):
        # a NaN target made a NaN error, which no tolerance test caught
        cfg_file = tmp_path / "nan.cfg"
        cfg_file.write_text("experiment=circle\nbc.value_a=nan,0\n")
        assert console_main(["run", "--config", str(cfg_file), "-M", "4",
                             "--T", "0.1", "--tau", "0.1",
                             "--output-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(
            "usage error: value_a must be finite")
        assert list(tmp_path.glob("*.csv")) == []

    def test_stationarity_subcommand(self, capsys):
        cfg = parse_args(["stationarity", "circle", "--constraint", "p2",
                          "--initializer", "j3", "--mesh-size", "8"])
        assert main(cfg) == 0
        out = capsys.readouterr().out
        assert "velocity norm" in out
        vel = float(out.strip().split()[-1])
        assert vel <= 1e-9

    def test_diagnostics_subcommand(self, tmp_path, capsys):
        cfg = parse_args(["diagnostics", "circle", "-M", "4,8",
                          "--output-dir", str(tmp_path)])
        assert main(cfg) == 0
        path = tmp_path / "diagnostics_circle_p2.csv"
        rows = [line.split(",") for line in
                path.read_text().strip().splitlines()]
        assert len(rows) == 2
        assert all(len(r) == 6 for r in rows)
        assert float(rows[0][3]) > 0.0 and float(rows[0][4]) > 0.0

    def test_diagnostics_records_failed_newton_row(self, tmp_path, capsys,
                                                   monkeypatch):
        solve = cli.newton_solve

        def failing_at_8(p0, *args, **kwargs):
            if p0.u.mesh.num_elements == 8:
                raise NewtonError("Newton step halving stalled", [1.0])
            return solve(p0, *args, **kwargs)

        monkeypatch.setattr(cli, "newton_solve", failing_at_8)
        cfg = parse_args(["diagnostics", "circle", "-M", "4,8",
                          "--output-dir", str(tmp_path)])
        assert main(cfg) == 1
        rows = [line.split(",") for line in
                (tmp_path / "diagnostics_circle_p2.csv").read_text()
                .strip().splitlines()]
        assert len(rows) == 2
        assert rows[0][5] != "FAILED" and rows[1][5] == "FAILED"
        assert float(rows[1][3]) > 0.0 and float(rows[1][4]) > 0.0
        err = capsys.readouterr().err
        assert "FAILED row: M=   8" in err and "halving stalled" in err

    @pytest.mark.parametrize("error", [
        ValueError("constraint block is rank deficient"),
        ValueError("Lanczos did not converge in 80 steps")],
        ids=["value-error", "no-convergence"])
    def test_diagnostics_records_failed_brezzi_row(self, tmp_path, capsys,
                                                   monkeypatch, error):
        estimate = cli.coercivity_estimate

        def failing_at_8(p, *args, **kwargs):
            if p.u.mesh.num_elements == 8:
                raise error
            return estimate(p, *args, **kwargs)

        monkeypatch.setattr(cli, "coercivity_estimate", failing_at_8)
        code = console_main(["diagnostics", "circle", "-M", "4,8,16",
                             "--output-dir", str(tmp_path)])
        assert code == 1
        rows = [line.split(",") for line in
                (tmp_path / "diagnostics_circle_p2.csv").read_text()
                .strip().splitlines()]
        assert [r[0] for r in rows] == ["4", "8", "16"]
        assert rows[1][2:5] == ["FAILED"] * 3 and int(rows[1][5]) >= 1
        assert "FAILED" not in rows[0] + rows[2]
        err = capsys.readouterr().err
        assert "FAILED row: M=   8" in err and str(error) in err

    def test_diagnostics_empty_multiplier_space(self, tmp_path, capsys):
        # P1 at M=1 has no interior constraint node
        code = console_main(["diagnostics", "circle", "--constraint", "p1",
                             "-M", "1,2", "--output-dir", str(tmp_path)])
        assert code == 1
        rows = [line.split(",") for line in
                (tmp_path / "diagnostics_circle_p1.csv").read_text()
                .strip().splitlines()]
        assert [r[0] for r in rows] == ["1", "2"]
        assert rows[0][2:5] == ["FAILED"] * 3
        assert "FAILED" not in rows[1] and float(rows[1][4]) > 0.0
        err = capsys.readouterr().err
        assert "FAILED row: M=   1" in err and "multiplier space is empty" in err

    def test_diagnostics_fine_meshes(self, tmp_path):
        # the Brezzi constants stay put under refinement up to M=1280
        sizes = [10, 20, 40, 80, 160, 320, 640, 1280]
        assert console_main(["diagnostics", "circle", "-M",
                             ",".join(map(str, sizes)),
                             "--output-dir", str(tmp_path)]) == 0
        rows = {int(r[0]): r for r in (
            line.split(",") for line in
            (tmp_path / "diagnostics_circle_p2.csv").read_text().splitlines())}
        assert sorted(rows) == sizes
        for col in (3, 4):      # alpha, beta
            ref = float(rows[40][col])
            for M in (320, 640, 1280):
                assert f"{float(rows[M][col]):.2e}" == f"{ref:.2e}"

    def test_interp_study(self, capsys):
        cfg = parse_args(["interp-study", "-M", "8,16,32"])
        assert main(cfg) == 0
        out = capsys.readouterr().out
        assert "eoc" in out

    def test_interp_study_single_mesh_size(self, capsys):
        # one size has no rate: empty eoc lines and exit 0, as `run` prints
        assert main(parse_args(["interp-study", "-M", "8"])) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[1].split()[0] == "8"
        assert out[2:] == ["eoc:", "  linf: ", "  l2: ", "  h1: ", "  h2: "]


class TestFlagsAndConfig:
    def test_flags_override_config_keys(self, tmp_path):
        cfg_file = tmp_path / "circle.cfg"
        cfg_file.write_text("experiment=circle\nM=4\ntau=0.1\nT=0.2\n"
                            "constraint=p2\n")
        assert console_main(["run", "--config", str(cfg_file), "-M", "4,8",
                             "--constraint", "p1",
                             "--output-dir", str(tmp_path)]) == 0
        rows = (tmp_path / "circle_p1_l2.csv").read_text().splitlines()
        assert len(rows) == 2
        assert not (tmp_path / "circle_p2_l2.csv").exists()

    def test_name_with_config_is_usage_error(self, tmp_path, capsys):
        cfg_file = tmp_path / "circle.cfg"
        cfg_file.write_text("experiment=circle\nM=4\ntau=0.1\nT=0.2\n")
        assert console_main(["run", "helix", "--config", str(cfg_file),
                             "--output-dir", str(tmp_path)]) == 2
        assert "not allowed" in capsys.readouterr().err
        assert list(tmp_path.glob("*.csv")) == []

    @pytest.mark.parametrize("argv", [
        ["run", "circle", "-M", "4", "--tau", "0"],
        ["run", "circle", "-M", "4", "--tau", "0.1,-0.05"],
        ["run", "circle", "-M", "4", "--T", "-1"],
        ["run", "circle", "-M", "0"],
        ["run", "circle", "-M", "4,-8"],
        ["run", "circle", "-M", "4", "--T", "0.1", "--snapshot-stride", "-3"],
        ["run", "circle", "-M", "4", "--flow", "newton",
         "--snapshot-stride", "2"],
        ["run", "circle", "-M", "4", "--T", "0.1", "--tau", ""],
        ["run", "circle", "-M", "4,4", "--T", "0.1"],
        ["run", "circle", "-M", "4", "--T", "0.1", "--norms", "h2,h2"],
        ["run", "circle", "-M", "4", "--T", "0.1", "--tau", "0.1,0.10000001"],
        ["run", "circle", "-M", "4", "--T", "inf"],
        ["run", "circle", "-M", "4", "--T", "nan"],
        ["run", "circle", "-M", "4", "--tau", "nan"],
        ["run", "circle", "-M", "4", "--tau", "inf", "--T", "1"],
        ["run", "circle", "-M", "4", "--tau", "0.3", "--T", "0.1"],
    ], ids=["tau-zero", "tau-negative", "T-negative", "M-zero", "M-negative",
            "stride-negative", "stride-newton", "tau-empty", "M-repeated",
            "norms-repeated", "tau-labels-repeated", "T-inf", "T-nan",
            "tau-nan", "tau-inf", "T-not-whole-steps"])
    def test_out_of_range_run_is_usage_error(self, argv, tmp_path, capsys):
        assert console_main(argv + ["--output-dir", str(tmp_path)]) == 2
        assert "usage error" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_newton_run_takes_no_tau(self):
        spec = _run_spec(parse_args(["run", "circle", "--flow", "newton",
                                     "--tau", ""]))
        assert spec.taus == []

    @pytest.mark.parametrize("text", [
        "M=4\ntau=0.1\nT=-0.2\n", "M=4\ntau=\nT=0.1\n",
        "M=4,4\ntau=0.1\nT=0.1\n", "M=4\nT=0.1\nnorms=h2,h2\n",
        "M=4\nT=0.1\ntau=0.1,0.10000001\n",
        "M=4\ntau=0.1\nT=0.1\nbc.periodic=ture\n",
        "M=4\ntau=0.1\nT=0.1\nbc.periodic=\n",
    ], ids=["T-negative", "tau-empty", "M-repeated", "norms-repeated",
            "tau-labels-repeated", "periodic-misspelt", "periodic-empty"])
    def test_out_of_range_config_is_usage_error(self, text, tmp_path, capsys):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("experiment=circle\n" + text)
        assert console_main(["run", "--config", str(cfg_file),
                             "--output-dir", str(tmp_path)]) == 2
        assert "usage error" in capsys.readouterr().err
        assert list(tmp_path.glob("*.csv")) == []

    @pytest.mark.parametrize("argv", [
        ["stationarity", "circle", "--mesh-size", "0"],
        ["diagnostics", "circle", "-M", "0,4"],
        ["interp-study", "-M", "8,0"],
    ], ids=["stationarity", "diagnostics", "interp-study"])
    def test_mesh_size_below_one_is_usage_error(self, argv, capsys):
        assert console_main(argv) == 2
        assert "mesh sizes must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["run", "circle", "-M", ","],
        ["diagnostics", "circle", "-M", ","],
        ["interp-study", "-M", ","],
    ], ids=["run", "diagnostics", "interp-study"])
    def test_empty_mesh_size_list_is_usage_error(self, argv, tmp_path, capsys,
                                                 monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert console_main(argv) == 2
        captured = capsys.readouterr()
        assert "usage error: need one or more mesh sizes" in captured.err
        assert captured.out == "" and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["diagnostics", "circle", "-M", "4,4"],
        ["interp-study", "-M", "8,8"],
    ], ids=["diagnostics", "interp-study"])
    def test_repeated_mesh_size_is_usage_error(self, argv, tmp_path,
                                               monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert console_main(argv) == 2
        assert "mesh sizes must not repeat" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["circle", "helix"])
    def test_default_newton_run_succeeds(self, name, tmp_path):
        assert console_main(["run", name, "--flow", "newton",
                             "--output-dir", str(tmp_path)]) == 0
        rows = (tmp_path / f"{name}_p2_newton.csv").read_text().splitlines()
        assert len(rows) == 5 and "FAILED" not in "".join(rows)


README = Path(__file__).resolve().parents[1] / "README.md"


class TestReadme:
    """The README's command-line section stays in step with the parser."""

    def section(self):
        text = README.read_text()
        return text[text.index("## Command line"):text.index("## Built-in")]

    def test_example_commands_parse(self):
        block = self.section().split("```sh\n")[1].split("```")[0]
        lines = [line for line in block.splitlines()
                 if line.startswith("elastica-fem ")]
        assert len(lines) >= 5
        for line in lines:
            parse_args(shlex.split(line, comments=True)[1:])

    def test_config_keys_listed(self):
        listed = re.search(r"with the keys (.*?);", self.section(), re.S)
        assert tuple(re.findall(r"`([^`]+)`", listed.group(1))) == \
            cli._CONFIG_KEYS


class TestConsoleEntry:
    def test_usage_error_exit_code(self, capsys):
        assert console_main(["run", "circle", "--constraint", "p3"]) == 2
        assert "usage error" in capsys.readouterr().err

    def test_ok(self, tmp_path):
        assert console_main(["run", "circle", "-M", "4", "--tau", "0.1",
                             "--T", "0.2", "--output-dir", str(tmp_path)]) == 0


class TestSmallestMeshes:
    """Every subcommand on one and two elements, in process."""

    REASONS = ("the multiplier space is empty", "no free curve DOFs")

    @pytest.mark.parametrize("constraint", ["p1", "p2"])
    @pytest.mark.parametrize("name", ["circle", "helix", "oval-h2"])
    def test_sweep(self, name, constraint, tmp_path, capsys):
        out, which = ["--output-dir", str(tmp_path)], [name, "--constraint",
                                                       constraint]
        # every flow runs, also helix's fully clamped single element
        assert console_main(["run", *which, "-M", "1,2", "--T", "0.1",
                             *out]) == 0
        for M in ("1", "2"):
            assert console_main(["stationarity", *which,
                                 "--mesh-size", M]) == 0
        capsys.readouterr()
        console_main(["diagnostics", *which, "-M", "1,2", *out])
        failed = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("FAILED row")]
        for line in failed:
            reasons = re.findall(r" (?:brezzi|newton): (.*?)(?= newton: |$)",
                                 line)
            assert reasons and all(r.startswith(self.REASONS)
                                   for r in reasons), line

    def test_brezzi_row_without_free_curve_dofs(self, tmp_path, capsys):
        assert console_main(["diagnostics", "helix", "-M", "1",
                             "--output-dir", str(tmp_path)]) == 1
        assert "brezzi: no free curve DOFs newton:" in capsys.readouterr().err

    def test_newton_without_free_curve_dofs(self, tmp_path, capsys):
        # both ends of helix's one element are clamped: Newton has no curve
        # DOF to move, and stops before it factors the 1x1 zero KKT matrix
        assert console_main(["diagnostics", "helix", "-M", "1",
                             "--output-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err.rstrip().endswith(
            "brezzi: no free curve DOFs newton: no free curve DOFs")

    @pytest.mark.parametrize("flow_variant", ["l2", "h2"])
    def test_j2_flow_names_vanishing_midpoint_row(self, flow_variant,
                                                   tmp_path, capsys):
        assert console_main(["run", "circle", "--initializer", "j2",
                             "--flow", flow_variant, "-M", "2", "--T", "0.1",
                             "--output-dir", str(tmp_path)]) == 1
        failed = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("FAILED cell")]
        assert len(failed) == 2 and all(line.endswith(
            "KKT matrix numerically singular; u' vanishes at the midpoint "
            "of element 0, 1, so its constraint row is 0") for line in failed)
