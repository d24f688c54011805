"""Residual-based error indicators for the backward-Euler EG scheme.

Five computable quantities drive the adaptivity:

* eta1, cell residual: h_T^2 ||f + div(K grad p_h) - (p_h - p_prev)/dt||_T
* eta2, flux jump:     h^(3/2) ||[[n . K grad p_h]]||_gamma  (interior)
* eta3, Neumann flux:  h^(3/2) ||g_N + n . K grad p_h||_gamma
* eta4, value jump:    K_max h^(1/2) ||[[p_h]]||_gamma       (interior)
* eta5, Dirichlet gap: K_max h^(1/2) ||g_D - p_h||_gamma

The local indicator combines them per cell, splitting interior-edge
contributions evenly between the two adjacent cells:

    eta_T^2 = eta1^2 + 0.5 * sum_{interior edges} (alpha eta2^2 + eta4^2)
            + sum_{Neumann} eta3^2 + alpha * sum_{Dirichlet} eta5^2

and the mesh total is eta = sqrt(sum_T eta_T^2).  Hanging half-edges enter
as independent edges with their own length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import edge_groups
from .mesh import EdgeKind, SQRT2
# unused here, but perfbench/tracing.py wraps this name and fails without it
from .quadrature import edge_rule  # noqa: F401


@dataclass
class CellIndicators:
    """Per-cell indicator components on one mesh, in active-cell id order.

    The eta*_sq arrays hold sums of squared per-edge indicators attributed
    to each cell (interior edges appear in both adjacent cells' sums).
    """

    cell_ids: tuple
    eta1: np.ndarray
    eta2_sq: np.ndarray
    eta3_sq: np.ndarray
    eta4_sq: np.ndarray
    eta5_sq: np.ndarray
    eta_T: np.ndarray
    alpha: float

    @property
    def total(self):
        """Root-sum-square of the local indicators."""
        return float(np.sqrt(np.sum(self.eta_T ** 2)))

    @property
    def sum_T(self):
        """Plain sum of the local indicators."""
        return float(np.sum(self.eta_T))


@dataclass
class StepReport:
    """Summary of one accepted time step."""

    n: int
    t_n: float
    dofs: int
    h_min_n: float
    eta_total: float
    eta_sum: float
    eta_linf: float
    error_h1: float | None = None
    error_linf: float | None = None
    ei: float | None = None
    adapt_iters: int = 0


def effectivity(eta_linf, error_linf):
    """Ratio of the accumulated estimator to the accumulated error.

    The numerator tracks the running max over steps of sum_T eta_T; the
    denominator the running max of the broken H1 error.  Undefined (None)
    for zero error.
    """
    if error_linf is None or error_linf == 0.0:
        return None
    return eta_linf / error_linf


# ----------------------------------------------------------------------
# batched computation over a whole mesh

def _div_k_grad(field, K, K_grad):
    """div(K grad p_h) at the cell quadrature points, shape (ncells, nq).

    Without ``K_grad`` the derivatives of K are central differences with a
    step of 1e-6 times the cell diameter.
    """
    tb = field.space.tables
    x, y = tb.X[..., 0], tb.X[..., 1]
    Kv = np.asarray(K(x, y), dtype=float)
    if K_grad is not None:
        dK = np.asarray(K_grad(x, y), dtype=float)   # (c, q, 2, 2, 2): d_a K_ij
    else:
        step = (1e-6 * (tb.sides * SQRT2))[:, None]
        den = (2 * step)[..., None, None]
        dK = np.empty(x.shape + (2, 2, 2))
        dK[..., 0, :, :] = (np.asarray(K(x + step, y), float)
                            - np.asarray(K(x - step, y), float)) / den
        dK[..., 1, :, :] = (np.asarray(K(x, y + step), float)
                            - np.asarray(K(x, y - step), float)) / den
    return (np.einsum("cqaab,cqb->cq", dK, field.cell_values(1))
            + np.einsum("cqab,cqab->cq", Kv, field.cell_values(2)))


def _normal_flux(table, C):
    """n . K grad p_h at the edge points from a co-normal table: one matrix
    product for a table shared by the group, else one per edge."""
    if len(table) == 1:
        return C @ table[0].T
    return np.einsum("eqi,ei->eq", table, C)


def compute_indicators(space, field, prev_vals, problem, t_n, dt, alpha):
    """All indicator components on one mesh in a single vectorized pass.

    ``prev_vals`` holds previous-solution values at the cell quadrature
    points, shape (ncells, nq), as produced by a transfer evaluator.
    """
    tb = space.tables
    ncells = len(tb.sides)
    X, Y = tb.X[..., 0], tb.X[..., 1]

    vals = field.cell_values(0)
    resid = np.broadcast_to(np.asarray(problem.f(X, Y, t_n), float), vals.shape) \
        - (vals - prev_vals) / dt
    if problem.K is not None:
        resid = resid + _div_k_grad(field, problem.K, problem.K_grad)
    elif space.k == 2:
        hess = field.cell_values(2)
        resid = resid + hess[..., 0, 0] + hess[..., 1, 1]
    norm_sq = tb.sides ** 2 * np.einsum("q,cq->c", tb.w, resid ** 2)
    eta1 = (SQRT2 * tb.sides) ** 2 * np.sqrt(norm_sq)

    eta2_sq = np.zeros(ncells)
    eta3_sq = np.zeros(ncells)
    eta4_sq = np.zeros(ncells)
    eta5_sq = np.zeros(ncells)
    coeffs = field.coeffs
    for g in edge_groups(space):
        fm, fp, kmax = g.conormal(problem.K)
        Cm = coeffs[space.cell_dofs[g.minus_rows]]
        flux_m = _normal_flux(fm, Cm) / g.h[:, None]
        if g.kind is EdgeKind.INTERIOR:
            Cp = coeffs[space.cell_dofs[g.plus_rows]]
            flux_p = _normal_flux(fp, Cp) / (g.fac * g.h[:, None])
            fj = flux_m - flux_p
            vj = Cm @ g.Vm.T - Cp @ g.Vp.T
            e2sq = g.h ** 4 * (fj ** 2 @ g.w)
            e4sq = kmax ** 2 * g.h ** 2 * (vj ** 2 @ g.w)
            np.add.at(eta2_sq, g.minus_rows, e2sq)
            np.add.at(eta2_sq, g.plus_rows, e2sq)
            np.add.at(eta4_sq, g.minus_rows, e4sq)
            np.add.at(eta4_sq, g.plus_rows, e4sq)
        elif g.kind is EdgeKind.NEUMANN:
            gn = np.broadcast_to(
                np.asarray(problem.g_N(g.P[..., 0], g.P[..., 1], t_n), float),
                flux_m.shape)
            e3sq = g.h ** 4 * ((gn + flux_m) ** 2 @ g.w)
            np.add.at(eta3_sq, g.minus_rows, e3sq)
        else:
            gd = np.broadcast_to(
                np.asarray(problem.g_D(g.P[..., 0], g.P[..., 1], t_n), float),
                flux_m.shape)
            gap = gd - Cm @ g.Vm.T
            e5sq = kmax ** 2 * g.h ** 2 * (gap ** 2 @ g.w)
            np.add.at(eta5_sq, g.minus_rows, e5sq)

    eta_T = np.sqrt(eta1 ** 2 + 0.5 * (alpha * eta2_sq + eta4_sq)
                    + eta3_sq + alpha * eta5_sq)
    return CellIndicators(space.mesh.active_ids, eta1, eta2_sq, eta3_sq,
                          eta4_sq, eta5_sq, eta_T, alpha)
