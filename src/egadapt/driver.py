"""Experiment orchestration: time loops, convergence cycles, CSV output
and the command-line entry point.

A run is described by a flat ``RunConfig``.  Every mode advances each
time step through :func:`egadapt.adapt.adapt_step` and is only a marking
policy; a uniform run marks nothing, so its mesh, EG space and LU factor
are built once and reused for all steps.
Convergence studies halve the initial mesh size per cycle and report the
DoF-based convergence order

    order(j) = d * (log E_j - log E_{j-1}) / (log N_{j-1} - log N_j),  d = 2.
"""

from __future__ import annotations

import argparse
import math
import os
import typing
from dataclasses import astuple, dataclass, fields as dc_fields, replace

from . import adapt, estimator, problems, space as space_mod, writers
from .assembly import PenaltySpec, SolverError
from .mesh import ConfigError, _root_grid_size, build_initial

#: the adaptive parameters that each run mode fixes; the rest are as given
_POLICIES = {"uniform": dict(tau=math.inf, theta_coarse=0.0),
             "adaptive_pure_refine": dict(tau=0.0, theta_coarse=0.0,
                                          max_iters=1),
             "adaptive_full": {}}


@dataclass
class RunConfig:
    """Flat description of one experiment."""

    problem: str | None = None       # required, as are mode and h0
    mode: str | None = None          # uniform | adaptive_pure_refine | adaptive_full
    h0: float | None = None
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
        for name, allowed in (("problem", sorted(problems._REGISTRY)),
                              ("mode", list(_POLICIES)), ("h0", None)):
            value = getattr(self, name)
            one_of = f"; one of {', '.join(allowed)}" if allowed else ""
            if value is None:
                raise ConfigError(f"missing required option '{name}' (flag "
                                  f"--{name}, config key '{name}'){one_of}")
            if allowed and value not in allowed:
                raise ConfigError(f"unknown {name} '{value}'{one_of}")
        if self.k not in (1, 2):
            raise ConfigError(f"k must be 1 or 2, got {self.k}")
        if not self.dt > 0:
            raise ConfigError("dt must be positive")
        if self.cycles < 1:
            raise ConfigError("cycles must be at least 1")
        if not all(map(math.isfinite, self.snapshot_times)):
            raise ConfigError(f"snapshot times must be finite, got "
                              f"{self.snapshot_times}")
        problem = problems.by_name(self.problem)
        _step_count(problem.T_final if self.T_final is None else self.T_final,
                    self.dt)
        # the last cycle runs on the finest root grid, h0 / 2**(cycles - 1)
        _root_grid_size(math.ldexp(self.h0, 1 - self.cycles), problem.shape)
        try:
            PenaltySpec(self.alpha, self.theta)
            if not self.tau > 0:
                raise ValueError("tau must be positive")
            self.adapt_params()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def adapt_params(self):
        """Marking policy of the run's mode (see ``_POLICIES``); the given
        adaptive parameters are checked in every mode."""
        params = adapt.AdaptParams(**{f.name: getattr(self, f.name)
                                      for f in dc_fields(adapt.AdaptParams)})
        return replace(params, **_POLICIES[self.mode])


@dataclass
class CycleSummary:
    """Final-step numbers of one convergence cycle."""

    cycle: int
    dofs: int
    error_linf: float | None
    eta_final: float
    order_dofs: float | None = None


#: more time steps than any run here could finish
_MAX_STEPS = 10 ** 6


def _step_count(T, dt):
    if not T > 0:
        raise ConfigError(f"the final time T must be positive, got {T}")
    if not T / dt <= _MAX_STEPS:
        raise ConfigError(f"the final time T={T} and dt={dt} give no step "
                          f"count of at most {_MAX_STEPS}")
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
                or errors[j] <= 0 or errors[j - 1] <= 0 \
                or dofs[j] == dofs[j - 1]:
            rates.append(None)
            continue
        rates.append(dim * (math.log(errors[j]) - math.log(errors[j - 1]))
                     / (math.log(dofs[j - 1]) - math.log(dofs[j])))
    return rates


# ----------------------------------------------------------------------
# CSV output: one column per field of the record's dataclass

def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _csv_line(values):
    return ",".join(_fmt(v) for v in values) + "\n"


def write_cycle_csv(summaries, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_csv_line(f.name for f in dc_fields(CycleSummary)))
        fh.writelines(_csv_line(astuple(s)) for s in summaries)


# ----------------------------------------------------------------------
# time loops

def _snapshot(config, cycle, mesh, fld, t):
    if config.output_dir is None:
        return
    tag = f"c{cycle}_t{t:g}"
    writers.mesh_svg(mesh, os.path.join(config.output_dir, f"mesh_{tag}.svg"))
    grid = writers.mesh_vtk(mesh,
                            os.path.join(config.output_dir, f"mesh_{tag}.vtk"))
    writers.field_vtk(fld, os.path.join(config.output_dir, f"field_{tag}.vtk"),
                      grid=grid)


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

    csv = None     # flushed after every row, so an aborted run keeps its rows
    if config.output_dir is not None:
        os.makedirs(config.output_dir, exist_ok=True)
        csv = open(os.path.join(config.output_dir, f"steps_c{cycle}.csv"),
                   "w", encoding="utf-8")
        csv.write(_csv_line(f.name for f in dc_fields(estimator.StepReport)))
        csv.flush()
    reports = []
    snap_times = sorted(config.snapshot_times)

    def maybe_snapshot(t, mesh_now, fld_now):
        for ts in snap_times:
            if abs(t - ts) < 0.5 * config.dt:
                _snapshot(config, cycle, mesh_now, fld_now, ts)

    params = config.adapt_params()
    state = adapt.AdaptState(fld)
    try:
        for n in range(1, nsteps + 1):
            t_n = n * config.dt
            state, rep = adapt.adapt_step(state, problem, params, penalty, n,
                                          t_n, config.dt)
            reports.append(rep)
            if csv:
                csv.write(_csv_line(astuple(rep)))
                csv.flush()
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

def _base_type(tp):
    """``float`` for ``float | None``; other types as they are."""
    return next((a for a in typing.get_args(tp) if a is not type(None)), tp)


#: the type of each run option, in field order; it drives the parsing of
#: a flag's or a config-file key's text
_TYPES = {name: _base_type(tp)
          for name, tp in typing.get_type_hints(RunConfig).items()}

#: the flags of a field, where they are not ``--<name>`` with ``-`` for ``_``
_FLAGS = {"T_final": ("--T", "--T_final")}


def _coerce(name, text):
    text = text.strip()
    try:
        if _TYPES[name] is tuple:
            return tuple(float(v) for v in text.split(",") if v.strip())
        return _TYPES[name](text)
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
            if key not in _TYPES:
                raise ConfigError(f"{path}:{lineno}: unknown key '{key}' "
                                  f"in line: {raw.rstrip()}")
            values[key] = _coerce(key, text)
    return values


def _build_parser():
    p = argparse.ArgumentParser(
        prog="egadapt",
        description="Adaptive enriched Galerkin solver for parabolic problems")
    p.add_argument("--config", help="key=value configuration file")
    for name in _TYPES:
        p.add_argument(*_FLAGS.get(name, ("--" + name.replace("_", "-"),)),
                       dest=name)
    return p


def cli_main(argv=None):
    """Entry point; returns 0 on success, 2 on bad config, 3 on solver failure."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        values = {"output_dir": "."}
        if args.config:
            values.update(parse_config_file(args.config))
        values.update((name, _coerce(name, getattr(args, name)))
                      for name in _TYPES if getattr(args, name) is not None)
        config = RunConfig(**values)
        config.validate()
        os.makedirs(config.output_dir, exist_ok=True)
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
    except OSError as exc:
        print(f"configuration error: cannot write output: {exc}")
        return 2
    return 0
