import inspect
import logging
import math
import os
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from egadapt import (ConfigError, DiscreteField, DomainShape, EGSpace, RunConfig,
                     build_initial, cli_main, driver, interpolate, order_dofs,
                     parse_config_file, run_cycles, run_timeloop, writers)

from conftest import random_adaptive_mesh
from reference import field_vtk as field_vtk_lines, mesh_svg as mesh_svg_rects
from reference import mesh_vtk as mesh_vtk_lines


class TestOrderDofs:
    def test_halved_error_quadrupled_dofs(self):
        assert order_dofs([0.4, 0.2], [100, 400]) == [pytest.approx(1.0)]

    def test_two_thirds_regime(self):
        rates = order_dofs([0.3, 0.3 * 2.0 ** (-2.0 / 3.0)], [100, 400])
        assert rates == [pytest.approx(2.0 / 3.0)]

    def test_undefined_for_zero_error(self):
        assert order_dofs([0.1, 0.0], [10, 40]) == [None]

    def test_undefined_for_equal_dofs(self):
        # two cycles that end on the same dof count have no rate
        assert order_dofs([1.0, 0.5], [10, 10]) == [None]
        assert order_dofs([1.0, 0.5, 0.25], [10, 10, 40]) == [
            None, pytest.approx(1.0)]

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

    def test_pure_refine_mode_pinned(self, caplog):
        # one bulk-refinement round per step, no coarsening and no tolerance
        # warning; no benchmark workload runs this mode
        cfg = RunConfig(problem="example1", mode="adaptive_pure_refine",
                        h0=0.5, dt=0.05, T_final=0.25, theta_refine=0.1)
        with caplog.at_level(logging.WARNING, logger="egadapt.adapt"):
            reps = run_timeloop(cfg)
        assert [(r.n, r.dofs, r.adapt_iters) for r in reps] == [
            (1, 41, 1), (2, 49, 1), (3, 55, 1), (4, 62, 1), (5, 69, 1)]
        assert [r.eta_total for r in reps] == pytest.approx(
            [0.01836464040816602, 0.019667752429903464, 0.024138528530225453,
             0.028095279415469257, 0.03013378489865147], rel=1e-12, abs=0.0)
        assert not [r for r in caplog.records if r.name == "egadapt.adapt"
                    and r.levelno >= logging.WARNING]

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
        ("--alpha", "inf"), ("--tau", "nan"), ("--dt", "nan"), ("--T", "nan"),
        ("--dt", "1e-12"), ("--h0", "1.52587890625e-05"),
        ("--snapshot-times", "nan"), ("--snapshot-times", "0.1,inf"),
        ("--T", "-1"), ("--T", "0")])
    def test_bad_adaptive_parameter_exits_2(self, flag, value, capsys):
        rc = cli_main(["--problem", "example1", "--mode", "adaptive_full",
                       "--h0", "0.25", "--T", "0.01", flag, value])
        assert rc == 2
        assert "configuration error:" in capsys.readouterr().out

    def test_non_positive_final_time_named(self, capsys):
        assert cli_main(["--problem", "example1", "--mode", "uniform",
                         "--h0", "0.25", "--T", "-1"]) == 2
        out = capsys.readouterr().out
        assert "T must be positive" in out and "divide" not in out

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
            step["n"] = inspect.signature(real_step).bind(
                *a, **kw).arguments["n"]
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

    def test_non_finite_load_exits_3_with_partial_csv(
            self, tmp_path, monkeypatch, capsys):
        from egadapt import assembly
        real_rhs = assembly.assemble_rhs
        calls = {"n": 0}

        def nan_rhs(*a, **kw):
            b = real_rhs(*a, **kw)
            calls["n"] += 1
            if calls["n"] >= 3:
                b[0] = np.nan
            return b

        monkeypatch.setattr(assembly, "assemble_rhs", nan_rhs)
        rc = cli_main(["--problem", "smoke_linear", "--mode", "uniform",
                       "--h0", "0.5", "--dt", "0.02", "--T", "0.1",
                       "--output-dir", str(tmp_path)])
        assert rc == 3
        assert capsys.readouterr().out.startswith("solver failure:")
        lines = (tmp_path / "steps_c1.csv").read_text().splitlines()
        assert len(lines) == 3     # header plus the two completed steps

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

    @pytest.mark.parametrize("k", [1, 2])
    def test_vtk_bytes_match_per_line_oracle(self, k, tmp_path):
        m = random_adaptive_mesh(rounds=3, seed=8)
        s = EGSpace(m, k)
        assert len(s.slaves)                       # hanging nodes present
        rng = np.random.default_rng(k)
        coeffs = (rng.standard_normal(s.n_dofs)
                  * 10.0 ** rng.integers(-20, 20, s.n_dofs))
        f = DiscreteField(s, s.constraint_matrix @ coeffs)
        for name, write, oracle, obj in (
                ("mesh", writers.mesh_vtk, mesh_vtk_lines, m),
                ("field", writers.field_vtk, field_vtk_lines, f)):
            got, want = tmp_path / f"{name}.vtk", tmp_path / f"{name}_ref.vtk"
            write(obj, str(got))
            oracle(obj, str(want))
            assert got.read_bytes() == want.read_bytes()

    def test_svg_bytes_match_per_rect_oracle(self, tmp_path):
        m = random_adaptive_mesh(rounds=3, seed=8)
        got, want = tmp_path / "mesh.svg", tmp_path / "mesh_ref.svg"
        writers.mesh_svg(m, str(got))
        mesh_svg_rects(m, str(want))
        assert got.read_bytes() == want.read_bytes()

    def test_field_vtk_with_the_mesh_grid_is_unchanged(self, tmp_path):
        m = random_adaptive_mesh(rounds=2, seed=3)
        f = interpolate(EGSpace(m, 2), lambda x, y: x * y - y)
        grid = writers.mesh_vtk(m, str(tmp_path / "mesh.vtk"))
        writers.field_vtk(f, str(tmp_path / "shared.vtk"), grid=grid)
        writers.field_vtk(f, str(tmp_path / "own.vtk"))
        assert ((tmp_path / "shared.vtk").read_bytes()
                == (tmp_path / "own.vtk").read_bytes())

    def test_snapshots_written_at_requested_times(self, tmp_path):
        cfg = RunConfig(problem="example1", mode="uniform", h0=0.5, dt=0.05,
                        T_final=0.5, output_dir=str(tmp_path),
                        snapshot_times=(0.25,))
        run_timeloop(cfg)
        names = set(os.listdir(tmp_path))
        assert "mesh_c1_t0.25.svg" in names
        assert "mesh_c1_t0.25.vtk" in names
        assert "field_c1_t0.25.vtk" in names



def _record_runs(monkeypatch):
    """Replace the driver's run functions by stubs that record the config."""
    from egadapt import StepReport, driver
    calls = []

    def fake_timeloop(config, problem=None, cycle=1):
        calls.append(config)
        return [StepReport(1, 0.1, 9, 0.5, 0.0, 0.0, 0.0)]

    def fake_cycles(config, problem=None):
        calls.append(config)
        return [], []

    monkeypatch.setattr(driver, "run_timeloop", fake_timeloop)
    monkeypatch.setattr(driver, "run_cycles", fake_cycles)
    return calls


class TestCliFailsFast:
    @pytest.mark.parametrize("target", ["empty", "file"])
    def test_unusable_output_dir_exits_2(self, target, tmp_path, capsys):
        path = ""
        if target == "file":
            path = tmp_path / "taken"
            path.write_text("")
        rc = cli_main(["--problem", "smoke_linear", "--mode", "uniform",
                       "--h0", "0.5", "--dt", "0.05", "--T", "0.1",
                       "--output-dir", str(path)])
        assert rc == 2
        assert capsys.readouterr().out.startswith("configuration error:")

    def test_oversized_cycles_rejected_before_first_cycle(
            self, tmp_path, monkeypatch, capsys):
        # cycle 11 halves h0 = 1/2 ten times: a 2048 x 2048 root grid
        calls = _record_runs(monkeypatch)
        rc = cli_main(["--problem", "smoke_linear", "--mode", "uniform",
                       "--h0", "0.5", "--cycles", "11",
                       "--output-dir", str(tmp_path)])
        assert rc == 2
        assert calls == []
        assert "2048 x 2048" in capsys.readouterr().out

    @pytest.mark.parametrize("times", [("--dt", "0.03", "--T", "0.5"),
                                       ("--T", "-1")],
                             ids=["dt_not_dividing_T", "negative_T"])
    @pytest.mark.parametrize("cycles", ["1", "2"])
    def test_bad_final_time_exits_2_before_output_dir(
            self, times, cycles, tmp_path, capsys):
        out = tmp_path / "out"
        rc = cli_main(["--problem", "example1", "--mode", "uniform",
                       "--h0", "0.5", "--cycles", cycles, *times,
                       "--output-dir", str(out)])
        assert rc == 2
        assert not out.exists()
        assert capsys.readouterr().out.startswith("configuration error:")

    def test_finest_allowed_cycle_passes_validation(self):
        RunConfig(problem="smoke_linear", mode="uniform", h0=0.5,
                  cycles=10).validate()


#: for every ``RunConfig`` field, a text and the value it must give,
#: unlike the field's default
_SAMPLES = {
    "problem": ("example2", "example2"),
    "mode": ("adaptive_full", "adaptive_full"),
    "h0": ("0.125", 0.125), "k": ("2", 2), "theta": ("-1", -1),
    "alpha": ("2.5", 2.5), "dt": ("0.05", 0.05), "T_final": ("0.25", 0.25),
    "tau": ("0.002", 0.002), "theta_coarse": ("0.3", 0.3),
    "theta_refine": ("0.6", 0.6), "max_iters": ("4", 4),
    "coarsen_rule": ("fraction", "fraction"), "cycles": ("2", 2),
    "output_dir": ("out", "out"),
    "snapshot_times": ("0.05, 0.2", (0.05, 0.2))}

_BASE = {"problem": "smoke_linear", "mode": "uniform", "h0": "0.5",
         "dt": "0.05", "T_final": "0.1"}


def _flag(name):
    return "--T" if name == "T_final" else "--" + name.replace("_", "-")


class TestRunOptionSchema:
    """A run option reads the same from a flag and from a config file."""

    def _via_file(self, tmp_path, values):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        return cli_main(["--config", str(cfgfile)])

    def _via_flags(self, values):
        return cli_main([a for k, v in values.items() for a in (_flag(k), v)])

    def test_samples_cover_every_field(self):
        from dataclasses import fields
        assert set(_SAMPLES) == {f.name for f in fields(RunConfig)}
        for name, (_, value) in _SAMPLES.items():
            assert getattr(RunConfig(), name) != value

    @pytest.mark.parametrize("name", sorted(_SAMPLES))
    def test_flag_and_file_give_equal_config(self, name, tmp_path,
                                             monkeypatch):
        calls = _record_runs(monkeypatch)
        monkeypatch.chdir(tmp_path)
        text, value = _SAMPLES[name]
        values = {**_BASE, name: text}
        assert self._via_flags(values) == 0
        assert self._via_file(tmp_path, values) == 0
        flag_cfg, file_cfg = calls
        assert flag_cfg == file_cfg
        assert getattr(flag_cfg, name) == value

    @pytest.mark.parametrize("name, text", [
        ("k", "1.5"), ("h0", "abc"), ("snapshot_times", "0.1,x"),
        ("problem", "foo"), ("mode", "bar"), ("coarsen_rule", "lowest")])
    def test_bad_value_same_message(self, name, text, tmp_path, monkeypatch,
                                    capsys):
        calls = _record_runs(monkeypatch)
        values = {**_BASE, name: text}
        assert self._via_flags(values) == 2
        from_flag = capsys.readouterr()
        assert self._via_file(tmp_path, values) == 2
        from_file = capsys.readouterr()
        assert from_flag.out.startswith("configuration error:")
        assert from_flag.out == from_file.out
        assert from_flag.err == from_file.err == ""
        assert calls == []

    def test_help_lists_every_field(self, capsys):
        from dataclasses import fields
        assert cli_main(["--help"]) == 0
        out = capsys.readouterr().out
        for f in fields(RunConfig):
            assert _flag(f.name) + " " in out


class TestModePolicies:
    """A run mode is only the marking policy that adapt_params returns."""

    @pytest.mark.parametrize("mode, expected", [
        ("uniform", (math.inf, 0.0, 7)),
        ("adaptive_pure_refine", (0.0, 0.0, 1)),
        ("adaptive_full", (2e-3, 0.3, 7))])
    def test_policy_table(self, mode, expected):
        params = RunConfig(mode=mode, tau=2e-3, theta_coarse=0.3,
                           theta_refine=0.2, max_iters=7,
                           coarsen_rule="fraction").adapt_params()
        assert (params.tau, params.theta_coarse, params.max_iters) == expected
        assert (params.theta_refine, params.coarsen_rule) == (0.2, "fraction")


def _readme_cli_examples():
    """The ``python -m egadapt ...`` commands of README.md, one argv each,
    with backslash-continued lines joined and trailing comments cut."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    text = re.sub(r"\\\n\s*", " ", text)
    return [shlex.split(line, comments=True)[3:] for line in text.splitlines()
            if line.strip().startswith("python -m egadapt")]


def test_readme_cli_examples_parse():
    # a renamed or removed run option fails here instead of leaving the
    # README's examples stale
    examples = _readme_cli_examples()
    assert len(examples) >= 2
    for argv in examples:
        args = driver._build_parser().parse_args(argv)
        if args.config:
            continue
        values = {name: driver._coerce(name, getattr(args, name))
                  for name in driver._TYPES if getattr(args, name) is not None}
        RunConfig(**values).validate()
