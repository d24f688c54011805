"""Experiment orchestration: time loops, convergence cycles, CSV output
and the command-line entry point.

A run is described by a flat ``RunConfig``.  Every mode advances each
time step through :func:`egadapt.adapt.adapt_step`; a uniform run is the
case that marks nothing (no coarsening, infinite tolerance), so its mesh,
EG space and LU factor are built once and reused for all steps.
Convergence studies halve the initial mesh size per cycle and report the
DoF-based convergence order

    order(j) = d * (log E_j - log E_{j-1}) / (log N_{j-1} - log N_j),  d = 2.
"""

from __future__ import annotations

import argparse
import math
import os
from dataclasses import dataclass, fields as dc_fields, replace

from . import adapt, problems, space as space_mod, writers
from .assembly import PenaltySpec, SolverError
from .mesh import ConfigError, build_initial


@dataclass
class RunConfig:
    """Flat description of one experiment."""

    problem: str = ""
    mode: str = ""                   # uniform | adaptive_pure_refine | adaptive_full
    h0: float = 0.0
    k: int = 1
    theta: int = 0
    alpha: float = 1.0
    dt: float = 0.01
    T_final: float | None = None
    tau: float = 1e-3
    theta_coarse: float = 0.5
    theta_refine: float = 0.4
    max_iters: int = 10
    coarsen_rule: str = "threshold"   # or "fraction": lowest-fraction of cells
    cycles: int = 1
    output_dir: str | None = None
    snapshot_times: tuple = (0.1, 0.25, 0.5)

    def validate(self):
        if self.problem not in ("example1", "example2", "smoke_linear"):
            raise ConfigError(f"unknown problem '{self.problem}'")
        if self.mode not in ("uniform", "adaptive_pure_refine", "adaptive_full"):
            raise ConfigError(f"unknown mode '{self.mode}'")
        if self.h0 <= 0:
            raise ConfigError("h0 is required and must be positive")
        if self.k not in (1, 2):
            raise ConfigError(f"k must be 1 or 2, got {self.k}")
        if not self.dt > 0:
            raise ConfigError("dt must be positive")
        if self.cycles < 1:
            raise ConfigError("cycles must be at least 1")
        try:
            PenaltySpec(self.alpha, self.theta)
            self.adapt_params()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def adapt_params(self):
        """Marking policy of the run.

        The adaptive parameters are checked in every mode; a uniform run
        then marks nothing: no coarsening and an infinite tolerance.
        """
        params = adapt.AdaptParams(
            tau=self.tau, theta_coarse=self.theta_coarse,
            theta_refine=self.theta_refine, max_iters=self.max_iters,
            coarsen_rule=self.coarsen_rule)
        if self.mode == "uniform":
            return replace(params, tau=math.inf, theta_coarse=0.0)
        return params


@dataclass
class CycleSummary:
    """Final-step numbers of one convergence cycle."""

    cycle: int
    dofs: int
    error_linf: float | None
    eta_final: float
    order_dofs: float | None = None


def _step_count(T, dt):
    if not math.isfinite(T / dt):
        raise ConfigError(f"the final time T={T} and dt={dt} give no finite "
                          f"step count")
    n = int(round(T / dt))
    if n < 1 or abs(n * dt - T) > 1e-9 * max(1.0, T):
        raise ConfigError(f"dt={dt} does not divide the final time T={T}")
    return n


def order_dofs(errors, dofs, dim=2):
    """Per-cycle convergence rates with respect to degrees of freedom."""
    if len(errors) != len(dofs):
        raise ValueError("errors and dofs must have equal length")
    rates = []
    for j in range(1, len(errors)):
        if errors[j] is None or errors[j - 1] is None \
                or errors[j] <= 0 or errors[j - 1] <= 0:
            rates.append(None)
            continue
        rates.append(dim * (math.log(errors[j]) - math.log(errors[j - 1]))
                     / (math.log(dofs[j - 1]) - math.log(dofs[j])))
    return rates


# ----------------------------------------------------------------------
# CSV output

_STEP_COLUMNS = ("n", "t_n", "dofs", "h_min_n", "eta_total", "eta_sum",
                 "eta_linf", "error_h1", "error_linf", "ei", "adapt_iters")


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def format_step_row(r):
    vals = (r.n, r.t_n, r.dofs, r.h_min_n, r.eta_total, r.eta_sum, r.eta_linf,
            r.error_h1, r.error_linf, r.ei, r.adapt_iters)
    return ",".join(_fmt(v) for v in vals)


def write_cycle_csv(summaries, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("cycle,dofs,error_linf,eta_final,order_dofs\n")
        for s in summaries:
            fh.write(",".join(_fmt(v) for v in
                              (s.cycle, s.dofs, s.error_linf, s.eta_final,
                               s.order_dofs)) + "\n")


# ----------------------------------------------------------------------
# time loops

class _StreamingCSV:
    """Per-step CSV writer flushed after every row (survives aborts)."""

    def __init__(self, path):
        self.fh = open(path, "w", encoding="utf-8")
        self.fh.write(",".join(_STEP_COLUMNS) + "\n")
        self.fh.flush()

    def write(self, report):
        self.fh.write(format_step_row(report) + "\n")
        self.fh.flush()

    def close(self):
        self.fh.close()


def _snapshot(config, cycle, mesh, fld, t):
    if config.output_dir is None:
        return
    tag = f"c{cycle}_t{t:g}"
    writers.mesh_svg(mesh, os.path.join(config.output_dir, f"mesh_{tag}.svg"))
    writers.mesh_vtk(mesh, os.path.join(config.output_dir, f"mesh_{tag}.vtk"))
    writers.field_vtk(fld, os.path.join(config.output_dir, f"field_{tag}.vtk"))


def run_timeloop(config, problem=None, cycle=1):
    """Run one time loop; returns the list of per-step reports."""
    config.validate()
    problem = problem or problems.by_name(config.problem)
    T = config.T_final if config.T_final is not None else problem.T_final
    nsteps = _step_count(T, config.dt)
    penalty = PenaltySpec(config.alpha, config.theta)

    mesh = build_initial(problem.shape, config.h0, problem.partition)
    sp = space_mod.EGSpace(mesh, config.k)
    fld = space_mod.interpolate(sp, problem.p0)

    csv = None
    if config.output_dir is not None:
        os.makedirs(config.output_dir, exist_ok=True)
        csv = _StreamingCSV(os.path.join(config.output_dir,
                                         f"steps_c{cycle}.csv"))
    reports = []
    tracker = adapt.RunTracker()
    snap_times = sorted(config.snapshot_times)

    def maybe_snapshot(t, mesh_now, fld_now):
        for ts in snap_times:
            if abs(t - ts) < 0.5 * config.dt:
                _snapshot(config, cycle, mesh_now, fld_now, ts)

    params = config.adapt_params()
    pure = config.mode == "adaptive_pure_refine"
    state = adapt.AdaptState(fld, mesh, None)
    try:
        for n in range(1, nsteps + 1):
            t_n = n * config.dt
            state, rep = adapt.adapt_step(
                state, problem, params, penalty, config.k, n, t_n,
                config.dt, tracker, pure_refine=pure)
            reports.append(rep)
            if csv:
                csv.write(rep)
            maybe_snapshot(t_n, state.mesh, state.field)
    finally:
        if csv:
            csv.close()
    return reports


def run_cycles(config, problem=None):
    """Convergence study: halve h0 per cycle, collect summaries and rates."""
    config.validate()
    problem = problem or problems.by_name(config.problem)
    summaries = []
    all_reports = []
    for j in range(1, config.cycles + 1):
        cfg = replace(config, h0=config.h0 * 2.0 ** (1 - j), cycles=1)
        reports = run_timeloop(cfg, problem, cycle=j)
        last = reports[-1]
        summaries.append(CycleSummary(j, last.dofs, last.error_linf,
                                      last.eta_total))
        all_reports.append(reports)
    rates = order_dofs([s.error_linf for s in summaries],
                       [s.dofs for s in summaries])
    for s, r in zip(summaries[1:], rates):
        s.order_dofs = r
    if config.output_dir is not None:
        write_cycle_csv(summaries, os.path.join(config.output_dir, "cycles.csv"))
    return summaries, all_reports


# ----------------------------------------------------------------------
# configuration parsing and CLI

_CONFIG_FIELDS = {f.name: f for f in dc_fields(RunConfig)}


def _coerce(name, text):
    text = text.strip()
    try:
        if name in ("k", "theta", "max_iters", "cycles"):
            return int(text)
        if name in ("problem", "mode", "output_dir", "coarsen_rule"):
            return text
        if name == "snapshot_times":
            return tuple(float(v) for v in text.split(",") if v.strip())
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"bad value for '{name}': {text!r}") from exc


def parse_config_file(path):
    """Flat key=value configuration; '#' starts a comment."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, "
                                  f"got: {raw.rstrip()}")
            key, text = line.split("=", 1)
            key = key.strip()
            if key not in _CONFIG_FIELDS:
                raise ConfigError(f"{path}:{lineno}: unknown key '{key}' "
                                  f"in line: {raw.rstrip()}")
            values[key] = _coerce(key, text)
    return values


def _build_parser():
    p = argparse.ArgumentParser(
        prog="egadapt",
        description="Adaptive enriched Galerkin solver for parabolic problems")
    p.add_argument("--config", help="key=value configuration file")
    p.add_argument("--problem", choices=["example1", "example2", "smoke_linear"])
    p.add_argument("--mode", choices=["uniform", "adaptive_pure_refine",
                                      "adaptive_full"])
    p.add_argument("--h0", type=float)
    p.add_argument("--k", type=int)
    p.add_argument("--theta", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--dt", type=float)
    p.add_argument("--T", "--T_final", dest="T_final", type=float)
    p.add_argument("--tau", type=float)
    p.add_argument("--theta-coarse", dest="theta_coarse", type=float)
    p.add_argument("--theta-refine", dest="theta_refine", type=float)
    p.add_argument("--max-iters", dest="max_iters", type=int)
    p.add_argument("--coarsen-rule", dest="coarsen_rule",
                   choices=["threshold", "fraction"])
    p.add_argument("--cycles", type=int)
    p.add_argument("--output-dir", dest="output_dir")
    p.add_argument("--snapshot-times", dest="snapshot_times",
                   help="comma separated times")
    return p


def cli_main(argv=None):
    """Entry point; returns 0 on success, 2 on bad config, 3 on solver failure."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        values = {}
        if args.config:
            values.update(parse_config_file(args.config))
        for name in _CONFIG_FIELDS:
            v = getattr(args, name, None)
            if v is None:
                continue
            if name == "snapshot_times" and isinstance(v, str):
                v = _coerce(name, v)
            values[name] = v
        config = RunConfig(**values)
        if config.output_dir is None:
            config.output_dir = "."
        config.validate()
    except (ConfigError, OSError, UnicodeDecodeError, TypeError) as exc:
        print(f"configuration error: {exc}")
        return 2
    try:
        if config.cycles > 1:
            summaries, _ = run_cycles(config)
            for s in summaries:
                rate = "" if s.order_dofs is None else f" order={s.order_dofs:.3f}"
                print(f"cycle {s.cycle}: dofs={s.dofs} "
                      f"error={_fmt(s.error_linf)} eta={s.eta_final:.6g}{rate}")
        else:
            reports = run_timeloop(config)
            last = reports[-1]
            print(f"done: {len(reports)} steps, final dofs={last.dofs}, "
                  f"eta={last.eta_total:.6g}, error={_fmt(last.error_linf)}")
    except ConfigError as exc:
        print(f"configuration error: {exc}")
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}")
        return 3
    return 0
