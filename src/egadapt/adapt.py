"""Per-time-step h-adaptivity: coarsen, then refine-solve to tolerance.

Every time step of every run mode goes through :func:`adapt_step`, which
knows no run mode.  Each accepted step proceeds as

1. mark cells whose previous-step indicator falls below a fraction of the
   maximum and coarsen them (complete sibling quadruples only),
2. solve the backward-Euler system on the coarsened mesh,
3. while the total indicator is at or above the tolerance and the
   iteration cap is not hit: bulk-mark (Doerfler), refine, transfer the
   previous solution, re-solve.

A run mode is only a marking policy (``RunConfig.adapt_params``):
uniform is ``tau = inf, theta_coarse = 0`` (one solve per step), pure
refine is ``tau = 0, theta_coarse = 0, max_iters = 1`` (one
mark-refine-resolve round per step), and full takes the parameters as
given.  An :class:`AdaptState` carries the solution ``field`` (its
space's mesh is ``mesh``), the ``indicators`` and LU factor ``solver`` of
its last solve, and the running maxima ``eta_linf`` of the summed
indicator and ``error_linf`` of the broken H1 error.

The system matrix depends only on the mesh, the degree, dt, the penalty
and K.  A solve on the mesh of the previous solution therefore reuses
that solution's EG space (no transfer) and, while dt, penalty and K are
unchanged, the carried LU factor.  The old factor is released before any
new factorization, so at most one is alive at a time.

The bulk marking selects the smallest set of cells, by descending local
indicator, whose squared-indicator mass reaches theta_refine times the
squared total (the classical bulk criterion); ties break by ascending
cell id.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import assembly, estimator, space as space_mod

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class AdaptParams:
    """Tolerance and marking fractions for the adaptive loop."""

    tau: float = 1e-3
    theta_coarse: float = 0.5
    theta_refine: float = 0.4
    max_iters: int = 10
    coarsen_rule: str = "threshold"   # or "fraction" (lowest-fraction variant)

    def __post_init__(self):
        if not self.tau >= 0:     # 0: no tolerance, refine up to the cap
            raise ValueError("tau must be nonnegative")
        if not 0.0 <= self.theta_coarse < 1.0:
            raise ValueError("theta_coarse must lie in [0, 1)")
        if not 0.0 < self.theta_refine < 1.0:
            raise ValueError("theta_refine must lie in (0, 1)")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.coarsen_rule not in ("threshold", "fraction"):
            raise ValueError("coarsen_rule must be 'threshold' or 'fraction'")


def _arrays(indicators):
    """Cell ids and indicators as parallel arrays."""
    if isinstance(indicators, estimator.CellIndicators):
        return indicators.cell_ids, indicators.eta_T
    return (np.fromiter(indicators.keys(), np.int64, len(indicators)),
            np.fromiter(indicators.values(), float, len(indicators)))


def dorfler_mark(indicators, eta_total, theta_refine):
    """Bulk marking: smallest cell set carrying the requested indicator mass.

    Cells are taken by descending eta_T (ties by ascending id) until the
    accumulated squared indicators reach theta_refine * eta_total**2.
    Returns an empty set when all indicators vanish.
    """
    ids, eta = _arrays(indicators)
    if np.any(eta < 0):
        raise ValueError("indicators must be nonnegative")
    order = np.lexsort((ids, -eta))
    v = eta[order]
    v = v[v > 0.0]
    # cumsum adds in sequence, as a running sum would
    reached = np.flatnonzero(np.cumsum(v * v) >= theta_refine * eta_total ** 2)
    count = reached[0] + 1 if len(reached) else len(v)
    return set(ids[order[:count]].tolist())


def coarsen_mark(indicators, theta_coarse, rule="threshold"):
    """Cells whose indicator is at most theta_coarse times the maximum.

    With rule 'fraction', instead mark the lowest theta_coarse fraction of
    the cells (by indicator, ties by id).
    """
    ids, eta = _arrays(indicators)
    if not len(ids):
        return set()
    if rule == "fraction":
        count = int(theta_coarse * len(ids))
        return set(ids[np.lexsort((ids, eta))[:count]].tolist())
    return set(ids[eta <= theta_coarse * eta.max()].tolist())


@dataclass
class AdaptState:
    """Solution, indicators, LU factor and running maxima carried across
    time steps."""

    field: object
    indicators: estimator.CellIndicators | None = None
    solver: assembly.CondensedSolver | None = None
    eta_linf: float = 0.0
    error_linf: float | None = None

    @property
    def mesh(self):
        return self.field.space.mesh


def _space_and_prev(mesh, field):
    """EG space on ``mesh`` and the previous solution at its cell points.

    The previous solution's own space is reused when it lives on ``mesh``.
    """
    if mesh is field.space.mesh:
        return field.space, field.cell_values(0)
    sp = space_mod.EGSpace(mesh, field.space.k)
    return sp, space_mod.TransferredField(field, sp).cell_values()


def _solve(sp, solver, prev_vals, problem, penalty, t_n, dt):
    """Solution and indicators on a factored space; each takes the problem
    data at ``t_n`` from the memo of the space's cell and edge points."""
    b = assembly.assemble_rhs(sp, problem, t_n, penalty, prev=prev_vals, dt=dt)
    field = space_mod.DiscreteField(sp, solver.solve(b))
    return field, estimator.compute_indicators(
        sp, field, prev_vals, problem, t_n, dt, penalty.alpha)


def adapt_step(state, problem, params, penalty, n, t_n, dt):
    """Advance one time step with mesh adaptation under the policy ``params``.

    Returns (new_state, StepReport).  The LU factor in ``state.solver`` is
    taken over (the attribute is cleared) and the new state carries the
    factor of the last solve.
    """
    solver, state.solver = state.solver, None
    key = (dt, penalty, problem.K)
    mesh = state.mesh
    if state.indicators is not None and params.theta_coarse > 0:
        marks = coarsen_mark(state.indicators, params.theta_coarse,
                             params.coarsen_rule)
        if marks:
            mesh = mesh.coarsen(marks)

    iters = 0
    while True:
        sp, prev_vals = _space_and_prev(mesh, state.field)
        if solver is None or solver.space is not sp or solver.key != key:
            solver = None      # free the old factor before building the next
            # M / dt + A_theta in one triplet pass (cell and edge blocks)
            solver = assembly.CondensedSolver(
                assembly.assemble_A_theta(sp, problem.K, penalty, dt=dt), sp,
                key=key)
        field, ind = _solve(sp, solver, prev_vals, problem, penalty, t_n, dt)
        if params.tau == math.inf or ind.total < params.tau:
            # an infinite tolerance never refines, even on a NaN indicator
            break
        if iters >= params.max_iters:
            if params.tau > 0:     # tau = 0 sets no tolerance to miss
                logger.warning(
                    "step %d: indicator %.3e still above tolerance %.3e after "
                    "%d refinements; accepting the current mesh",
                    n, ind.total, params.tau, iters)
            break
        marks = dorfler_mark(ind, ind.total, params.theta_refine)
        if not marks:
            break
        mesh = mesh.refine(marks)
        iters += 1

    error = None
    if problem.exact is not None:
        error = space_mod.broken_h1_error(
            field,
            lambda x, y: problem.exact.p(x, y, t_n),
            lambda x, y: problem.exact.grad(x, y, t_n))
    eta_linf = max(state.eta_linf, ind.sum_T)
    error_linf = max((e for e in (state.error_linf, error) if e is not None),
                     default=None)
    report = estimator.StepReport(
        n=n, t_n=t_n, dofs=sp.n_dofs, h_min_n=mesh.h_min,
        eta_total=ind.total, eta_sum=ind.sum_T, eta_linf=eta_linf,
        error_h1=error, error_linf=error_linf,
        ei=estimator.effectivity(eta_linf, error_linf), adapt_iters=iters)
    return AdaptState(field, ind, solver, eta_linf, error_linf), report
