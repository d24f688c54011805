import os

import numpy as np
import pytest

from egadapt import (ConfigError, DiscreteField, DomainShape, EGSpace, RunConfig,
                     build_initial, cli_main, interpolate, order_dofs,
                     parse_config_file, run_cycles, run_timeloop, writers)


class TestOrderDofs:
    def test_halved_error_quadrupled_dofs(self):
        assert order_dofs([0.4, 0.2], [100, 400]) == [pytest.approx(1.0)]

    def test_two_thirds_regime(self):
        rates = order_dofs([0.3, 0.3 * 2.0 ** (-2.0 / 3.0)], [100, 400])
        assert rates == [pytest.approx(2.0 / 3.0)]

    def test_undefined_for_zero_error(self):
        assert order_dofs([0.1, 0.0], [10, 40]) == [None]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            order_dofs([1.0], [1, 2])


class TestTimeloop:
    def test_smoke_uniform_exact(self):
        cfg = RunConfig(problem="smoke_linear", mode="uniform", h0=0.25,
                        dt=0.02, T_final=0.1)
        reps = run_timeloop(cfg)
        assert len(reps) == 5
        assert max(r.error_h1 for r in reps) <= 1e-10
        assert reps[-1].t_n == pytest.approx(0.1, abs=1e-12)

    def test_step_count_must_divide(self):
        cfg = RunConfig(problem="smoke_linear", mode="uniform", h0=0.25,
                        dt=0.03, T_final=0.1)
        with pytest.raises(ConfigError):
            run_timeloop(cfg)

    def test_monotone_running_maxima(self):
        cfg = RunConfig(problem="example1", mode="uniform", h0=0.25, dt=0.05,
                        T_final=0.5)
        reps = run_timeloop(cfg)
        for a, b in zip(reps, reps[1:]):
            assert b.eta_linf >= a.eta_linf
            assert b.error_linf >= a.error_linf

    def test_uniform_eta_nondecreasing_regression(self):
        # the growing solution amplitude makes the total indicator grow
        # monotonically on a fixed mesh (h0 = 1/16 reference configuration)
        cfg = RunConfig(problem="example1", mode="uniform", h0=2.0 ** -4,
                        dt=0.01)
        reps = run_timeloop(cfg)
        etas = [r.eta_total for r in reps]
        assert all(b >= a * (1.0 - 1e-9) for a, b in zip(etas, etas[1:]))

    def test_adaptive_full_mode_runs(self):
        cfg = RunConfig(problem="example1", mode="adaptive_full", h0=0.25,
                        dt=0.1, T_final=0.5, tau=5e-3)
        reps = run_timeloop(cfg)
        assert len(reps) == 5
        assert all(r.adapt_iters >= 0 for r in reps)

    def test_csv_written_and_deterministic(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        base = dict(problem="example1", mode="adaptive_pure_refine", h0=0.5,
                    dt=0.05, T_final=0.25, theta_refine=0.1)
        run_timeloop(RunConfig(**base, output_dir=str(out1)))
        run_timeloop(RunConfig(**base, output_dir=str(out2)))
        c1 = (out1 / "steps_c1.csv").read_bytes()
        c2 = (out2 / "steps_c1.csv").read_bytes()
        assert c1 == c2
        header = c1.decode().splitlines()[0]
        assert header == ("n,t_n,dofs,h_min_n,eta_total,eta_sum,eta_linf,"
                          "error_h1,error_linf,ei,adapt_iters")
        assert len(c1.decode().splitlines()) == 6

    def test_cycles_summary(self):
        cfg = RunConfig(problem="example1", mode="uniform", h0=0.5, dt=0.1,
                        T_final=0.5, cycles=3)
        summaries, all_reports = run_cycles(cfg)
        assert [s.cycle for s in summaries] == [1, 2, 3]
        assert summaries[0].order_dofs is None
        assert all(s.order_dofs is not None for s in summaries[1:])
        assert len(all_reports) == 3
        assert summaries[1].dofs > summaries[0].dofs


class TestConfigFile:
    def test_parse_and_run(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            "# smoke setup\n"
            "problem = smoke_linear\n"
            "mode = uniform\n"
            "h0 = 0.25   # quarter cells\n"
            "dt = 0.02\n"
            "T_final = 0.1\n")
        values = parse_config_file(str(cfgfile))
        assert values["problem"] == "smoke_linear"
        assert values["h0"] == 0.25
        reps = run_timeloop(RunConfig(**values))
        assert len(reps) == 5

    def test_unknown_key_rejected(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("problem = smoke_linear\nbogus_key = 3\n")
        with pytest.raises(ConfigError, match="bogus_key"):
            parse_config_file(str(cfgfile))

    def test_snapshot_times_parsing(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("snapshot_times = 0.1, 0.25, 0.5\n")
        values = parse_config_file(str(cfgfile))
        assert values["snapshot_times"] == (0.1, 0.25, 0.5)


class TestCli:
    def test_full_run_writes_csv(self, tmp_path):
        rc = cli_main(["--problem", "example1", "--mode", "uniform",
                       "--k", "1", "--h0", "0.25", "--dt", "0.01",
                       "--T", "0.5", "--output-dir", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "steps_c1.csv").read_text().splitlines()
        assert len(lines) == 51   # header + 50 steps

    def test_missing_h0_exits_2(self, capsys):
        rc = cli_main(["--problem", "example1", "--mode", "uniform"])
        assert rc == 2
        assert "h0" in capsys.readouterr().out

    def test_unknown_flag_exits_2(self):
        assert cli_main(["--frobnicate", "1"]) == 2

    @pytest.mark.parametrize("flag, value", [
        ("--theta-refine", "1.5"), ("--alpha", "-1"), ("--tau", "0"),
        ("--max-iters", "0"), ("--theta-coarse", "1.0"), ("--alpha", "nan"),
        ("--alpha", "inf"), ("--tau", "nan"), ("--dt", "nan"), ("--T", "nan")])
    def test_bad_adaptive_parameter_exits_2(self, flag, value, capsys):
        rc = cli_main(["--problem", "example1", "--mode", "adaptive_full",
                       "--h0", "0.25", "--T", "0.01", flag, value])
        assert rc == 2
        assert "configuration error:" in capsys.readouterr().out

    def test_bad_config_file_line_reported(self, tmp_path, capsys):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("problem = smoke_linear\nwhatever = 1\n")
        rc = cli_main(["--config", str(cfgfile)])
        assert rc == 2
        assert "whatever" in capsys.readouterr().out

    def test_unreadable_config_file_exits_2(self, tmp_path, capsys):
        rc = cli_main(["--config", str(tmp_path)])     # a directory
        assert rc == 2
        assert capsys.readouterr().out.startswith("configuration error:")

    def test_config_file_plus_flags(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            "problem = smoke_linear\nmode = uniform\nh0 = 0.5\n"
            "dt = 0.05\nT_final = 0.1\n")
        rc = cli_main(["--config", str(cfgfile), "--h0", "0.25",
                       "--output-dir", str(tmp_path)])
        assert rc == 0

    def test_solver_failure_exits_3_with_partial_csv(self, tmp_path, monkeypatch):
        from egadapt import SolverError
        from egadapt.assembly import CondensedSolver
        real_solve = CondensedSolver.solve
        calls = {"n": 0}

        def failing_solve(self, rhs):
            calls["n"] += 1
            if calls["n"] >= 3:
                raise SolverError("synthetic failure")
            return real_solve(self, rhs)

        monkeypatch.setattr(CondensedSolver, "solve", failing_solve)
        rc = cli_main(["--problem", "smoke_linear", "--mode", "uniform",
                       "--h0", "0.5", "--dt", "0.02", "--T", "0.1",
                       "--output-dir", str(tmp_path)])
        assert rc == 3
        lines = (tmp_path / "steps_c1.csv").read_text().splitlines()
        assert len(lines) == 3     # header plus the two completed steps

    def test_adaptive_solver_failure_exits_3_with_partial_csv(
            self, tmp_path, monkeypatch):
        from egadapt import SolverError, adapt
        from egadapt.assembly import CondensedSolver
        args = ["--problem", "example1", "--mode", "adaptive_full",
                "--h0", "0.25", "--dt", "0.1", "--T", "0.5", "--tau", "5e-3"]
        assert cli_main(args + ["--output-dir", str(tmp_path / "full")]) == 0
        full = (tmp_path / "full" / "steps_c1.csv").read_text().splitlines()
        assert len(full) == 6

        # the first solve of step 3 fails
        real_step, real_solve = adapt.adapt_step, CondensedSolver.solve
        step = {"n": 0}

        def counting_step(*a, **kw):
            step["n"] = a[5]
            return real_step(*a, **kw)

        def failing_solve(self, rhs):
            if step["n"] >= 3:
                raise SolverError("synthetic failure")
            return real_solve(self, rhs)

        monkeypatch.setattr(adapt, "adapt_step", counting_step)
        monkeypatch.setattr(CondensedSolver, "solve", failing_solve)
        rc = cli_main(args + ["--output-dir", str(tmp_path / "cut")])
        assert rc == 3
        cut = (tmp_path / "cut" / "steps_c1.csv").read_text().splitlines()
        assert cut == full[:3]     # header plus the two completed steps

    def test_dt_not_dividing_T_exits_2(self, tmp_path, capsys):
        rc = cli_main(["--problem", "smoke_linear", "--mode", "uniform",
                       "--h0", "0.5", "--dt", "0.03", "--T", "0.1",
                       "--output-dir", str(tmp_path)])
        assert rc == 2
        out = capsys.readouterr().out
        assert out.startswith("configuration error:") and "divide" in out


class TestWriters:
    def test_mesh_svg(self, tmp_path):
        m = build_initial(DomainShape.L_SHAPE, 0.5)
        path = tmp_path / "mesh.svg"
        writers.mesh_svg(m, str(path))
        text = path.read_text()
        assert text.count("<rect") == m.n_active
        assert text.startswith("<svg")

    def test_mesh_vtk_legacy_format(self, tmp_path):
        m = build_initial(DomainShape.L_SHAPE, 1.0)
        path = tmp_path / "mesh.vtk"
        writers.mesh_vtk(m, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "# vtk DataFile Version 3.0"
        assert "DATASET UNSTRUCTURED_GRID" in lines
        npoints = int(next(l for l in lines if l.startswith("POINTS")).split()[1])
        assert npoints == 8
        assert lines.count("9") == m.n_active    # CELL_TYPES quad entries

    def test_field_vtk_has_point_and_cell_data(self, tmp_path):
        m = build_initial(DomainShape.UNIT_SQUARE, 0.5)
        s = EGSpace(m, 1)
        f = interpolate(s, lambda x, y: x + y)
        f.coeffs[s.n_cg:] = 7.0
        path = tmp_path / "field.vtk"
        writers.field_vtk(f, str(path))
        text = path.read_text()
        assert "POINT_DATA 9" in text
        assert "CELL_DATA 4" in text
        assert text.count("7") >= 4

    def test_matrix_market_dump(self, tmp_path):
        from egadapt import assemble_mass
        m = build_initial(DomainShape.UNIT_SQUARE, 1.0)
        s = EGSpace(m, 1)
        M = assemble_mass(s)
        path = tmp_path / "mass.mtx"
        writers.matrix_market(M, str(path))
        first = path.read_text().splitlines()[0]
        assert first.startswith("%%MatrixMarket matrix coordinate")

    def test_snapshots_written_at_requested_times(self, tmp_path):
        cfg = RunConfig(problem="example1", mode="uniform", h0=0.5, dt=0.05,
                        T_final=0.5, output_dir=str(tmp_path),
                        snapshot_times=(0.25,))
        run_timeloop(cfg)
        names = set(os.listdir(tmp_path))
        assert "mesh_c1_t0.25.svg" in names
        assert "mesh_c1_t0.25.vtk" in names
        assert "field_c1_t0.25.vtk" in names
