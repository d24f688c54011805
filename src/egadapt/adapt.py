"""Per-time-step h-adaptivity: coarsen, then refine-solve to tolerance.

Every time step of every run mode goes through :func:`adapt_step`.  Each
accepted step proceeds as

1. mark cells whose previous-step indicator falls below a fraction of the
   maximum and coarsen them (complete sibling quadruples only),
2. solve the backward-Euler system on the coarsened mesh,
3. while the total indicator is at or above the tolerance and the
   iteration cap is not hit: bulk-mark (Doerfler), refine, transfer the
   previous solution, re-solve.

Uniform runs are the no-marking case: ``theta_coarse = 0`` and an
infinite tolerance, so each step is one solve on the initial mesh.

The system matrix depends only on the mesh, the degree, dt, the penalty
and K.  A solve on the mesh of the previous solution therefore reuses
that solution's EG space (no transfer), and the LU factor of the last
solve is carried in :class:`AdaptState` and reused while the space, dt,
penalty and K are those it was built with.  The old factor is released
before any new factorization, so at most one is alive at a time.

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
        if not self.tau > 0:
            raise ValueError("tau must be positive")
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
    """Solution, mesh, indicators and LU factor carried across time steps."""

    field: object
    mesh: object
    indicators: estimator.CellIndicators | None = None
    solver: assembly.CondensedSolver | None = None


class RunTracker:
    """Running maxima of the summed indicator and the broken H1 error."""

    def __init__(self):
        self.eta_linf = 0.0
        self.error_linf = None

    def update(self, eta_sum, error):
        self.eta_linf = max(self.eta_linf, eta_sum)
        if error is not None:
            self.error_linf = (error if self.error_linf is None
                               else max(self.error_linf, error))

    @property
    def ei(self):
        return estimator.effectivity(self.eta_linf, self.error_linf)


def _space_and_prev(mesh, field, k):
    """EG space on ``mesh`` and the previous solution at its cell points.

    The previous solution's own space is reused when it lives on ``mesh``.
    """
    if mesh is field.space.mesh and field.space.k == k:
        return field.space, field.cell_values(0)
    sp = space_mod.EGSpace(mesh, k)
    return sp, space_mod.TransferredField(field, sp).cell_values()


def _factor(sp, problem, penalty, dt, key):
    """Factor M / dt + A_theta on a space, assembled in one triplet pass
    (cell mass and stiffness blocks plus the edge blocks)."""
    return assembly.CondensedSolver(
        assembly.assemble_A_theta(sp, problem.K, penalty, dt=dt), sp, key=key)


def _solve(sp, solver, prev_vals, problem, penalty, t_n, dt):
    """Solution and indicators on a factored space.  The problem data at
    ``t_n`` is evaluated once for the load and the indicators, and is
    freed on return, before any later factorization."""
    data = assembly._problem_data(sp, problem, t_n)
    b = assembly.assemble_rhs(sp, problem, t_n, penalty, prev=prev_vals,
                              dt=dt, data=data)
    field = space_mod.DiscreteField(sp, solver.solve(b))
    return field, estimator.compute_indicators(
        sp, field, prev_vals, problem, t_n, dt, penalty.alpha, data=data)


def adapt_step(state, problem, params, penalty, k, n, t_n, dt, tracker,
               pure_refine=False):
    """Advance one time step with mesh adaptation.

    Returns (new_state, StepReport).  With ``pure_refine`` the step
    performs exactly one mark-refine-resolve round and skips coarsening
    and the tolerance test.  The LU factor in ``state.solver`` is taken
    over (the attribute is cleared) and the new state carries the factor
    of the last solve.
    """
    solver, state.solver = state.solver, None
    key = (dt, penalty, problem.K)
    mesh = state.mesh
    if not pure_refine and state.indicators is not None and params.theta_coarse > 0:
        marks = coarsen_mark(state.indicators, params.theta_coarse,
                             params.coarsen_rule)
        if marks:
            mesh = mesh.coarsen(marks)

    iters = 0
    while True:
        sp, prev_vals = _space_and_prev(mesh, state.field, k)
        if solver is None or solver.space is not sp or solver.key != key:
            solver = None      # free the old factor before building the next
            solver = _factor(sp, problem, penalty, dt, key)
        field, ind = _solve(sp, solver, prev_vals, problem, penalty, t_n, dt)
        if pure_refine:
            if iters >= 1:
                break
        elif params.tau == math.inf or ind.total < params.tau:
            # an infinite tolerance never refines, even on a NaN indicator
            break
        elif iters >= params.max_iters:
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
    tracker.update(ind.sum_T, error)
    report = estimator.StepReport(
        n=n, t_n=t_n, dofs=sp.n_dofs, h_min_n=mesh.h_min,
        eta_total=ind.total, eta_sum=ind.sum_T, eta_linf=tracker.eta_linf,
        error_h1=error, error_linf=tracker.error_linf, ei=tracker.ei,
        adapt_iters=iters)
    return AdaptState(field, mesh, ind, solver), report
