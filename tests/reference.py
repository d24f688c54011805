"""Per-cell and per-edge reference implementations (test oracles).

The library computes every quantity in one batched pass over the mesh.
The functions here compute the same quantities one cell or one edge at a
time, through :meth:`DiscreteField.evaluate`, so the tests can compare
the batched code against an independent, directly readable formula.
"""

import math

import numpy as np

from egadapt import EdgeKind, edge_rule, map_to_edge
from egadapt.assembly import PenaltySpec, _edge_data, _EdgeGroup
from egadapt.mesh import SUB_FULL
from egadapt.space import _opposite, face_points


# ----------------------------------------------------------------------
# indicator combination

def local_eta_T(eta1, interior=(), neumann=(), dirichlet=(), alpha=1.0):
    """Combine one cell's indicator components into eta_T.

    ``interior`` lists (eta2, eta4) pairs for the cell's interior edges,
    ``neumann`` the eta3 values, ``dirichlet`` the eta5 values.
    """
    acc = eta1 ** 2
    for e2, e4 in interior:
        acc += 0.5 * (alpha * e2 ** 2 + e4 ** 2)
    for e3 in neumann:
        acc += e3 ** 2
    for e5 in dirichlet:
        acc += alpha * e5 ** 2
    return math.sqrt(acc)


def total_eta(eta_Ts):
    """Mesh-wide indicator: root-sum-square of the local values."""
    arr = np.asarray(list(eta_Ts), dtype=float)
    return float(np.sqrt(np.sum(arr ** 2)))


# ----------------------------------------------------------------------
# traces, jumps and averages on one edge

def _edge_trace(field, t, side, sub, cid):
    return field.evaluate(cid, face_points(side, sub, t))


def jump_average(field, edge, t):
    """Jump and average of the field value at edge parameter t in [0,1].

    On boundary edges both equal the trace from the adjacent cell.
    """
    vm, _, _ = _edge_trace(field, t, edge.minus_side, SUB_FULL, edge.minus_cell)
    if edge.plus_cell is None:
        return vm.copy(), vm.copy()
    vp, _, _ = _edge_trace(field, t, _opposite(edge.minus_side),
                           edge.plus_sub, edge.plus_cell)
    return vm - vp, 0.5 * (vm + vp)


def flux_jump_average(field, edge, t, K=None):
    """Jump and average of n . K grad(field) at edge parameter t."""
    n = np.asarray(edge.normal)
    _, gm, _ = _edge_trace(field, t, edge.minus_side, SUB_FULL, edge.minus_cell)
    t = np.asarray(t)
    pts = np.column_stack([edge.start.x + t * edge.length * edge.direction[0],
                           edge.start.y + t * edge.length * edge.direction[1]])
    if K is None:
        fm = gm @ n
    else:
        Kv = np.asarray(K(pts[:, 0], pts[:, 1]), dtype=float)
        fm = np.einsum("a,qab,qb->q", n, Kv, gm)
    if edge.plus_cell is None:
        return fm.copy(), fm.copy()
    _, gp, _ = _edge_trace(field, t, _opposite(edge.minus_side),
                           edge.plus_sub, edge.plus_cell)
    if K is None:
        fp = gp @ n
    else:
        fp = np.einsum("a,qab,qb->q", n, Kv, gp)
    return fm - fp, 0.5 * (fm + fp)


# ----------------------------------------------------------------------
# indicators on one cell or one edge

def _prev_values_at(prev, pts):
    if prev is None:
        return np.zeros(len(pts))
    return np.asarray(prev(pts[:, 0], pts[:, 1]), dtype=float)


def _divergence_k_grad(field, cid, ref_pts, K, K_grad, fd_step):
    """div(K grad p_h) at reference points of one cell."""
    c = field.space.mesh.cell(cid)
    _, grads, hess = field.evaluate(cid, ref_pts)
    if K is None:
        return hess[:, 0, 0] + hess[:, 1, 1]
    pts = np.array([c.x0, c.y0]) + c.side * np.atleast_2d(ref_pts)
    x, y = pts[:, 0], pts[:, 1]
    Kv = np.asarray(K(x, y), dtype=float)
    second = np.einsum("qab,qab->q", Kv, hess)
    if K_grad is not None:
        dK = np.asarray(K_grad(x, y), dtype=float)   # (q, 2, 2, 2): d_a K_ij
    else:
        step = fd_step * c.diameter
        dK = np.empty((len(x), 2, 2, 2))
        dK[:, 0] = (np.asarray(K(x + step, y), float)
                    - np.asarray(K(x - step, y), float)) / (2 * step)
        dK[:, 1] = (np.asarray(K(x, y + step), float)
                    - np.asarray(K(x, y - step), float)) / (2 * step)
    first = np.einsum("qaab,qb->q", dK, grads)
    return first + second


def cell_residual_eta1(field, cid, prev, f, dt, t_n, K=None, K_grad=None,
                       fd_step=1e-6):
    """Cell residual indicator for one cell.

    ``prev`` is None (zero previous state) or a vectorized callable
    prev(x, y); ``f`` is the source f(x, y, t).
    """
    space = field.space
    c = space.mesh.cell(cid)
    tb = space.tables
    ref = tb.rule.points
    pts = np.array([c.x0, c.y0]) + c.side * ref
    vals, _, _ = field.evaluate(cid, ref)
    resid = np.asarray(f(pts[:, 0], pts[:, 1], t_n), dtype=float) \
        + _divergence_k_grad(field, cid, ref, K, K_grad, fd_step) \
        - (vals - _prev_values_at(prev, pts)) / dt
    norm_sq = c.side ** 2 * np.sum(tb.w * resid ** 2)
    return c.diameter ** 2 * math.sqrt(norm_sq)


def edge_indicators(field, edge, t_n, K=None, g_N=None, g_D=None):
    """Edge indicators applicable to one edge, as a dict.

    Interior edges yield {'eta2', 'eta4'}; Neumann edges {'eta3'};
    Dirichlet edges {'eta5'}.
    """
    rule = edge_rule(field.space.k)
    pts, w = map_to_edge(rule, edge)
    h = edge.length
    if K is None:
        kmax = 1.0
    else:
        Kv = np.asarray(K(pts[:, 0], pts[:, 1]), dtype=float)
        kmax = float(np.max(np.abs(Kv)))
    if edge.kind is EdgeKind.INTERIOR:
        fj, _ = flux_jump_average(field, edge, rule.points, K)
        vj, _ = jump_average(field, edge, rule.points)
        return {
            "eta2": h ** 1.5 * math.sqrt(np.sum(w * fj ** 2)),
            "eta4": kmax * h ** 0.5 * math.sqrt(np.sum(w * vj ** 2)),
        }
    if edge.kind is EdgeKind.NEUMANN:
        _, favg = flux_jump_average(field, edge, rule.points, K)
        gn = np.asarray(g_N(pts[:, 0], pts[:, 1], t_n), dtype=float)
        return {"eta3": h ** 1.5 * math.sqrt(np.sum(w * (gn + favg) ** 2))}
    _, vavg = jump_average(field, edge, rule.points)
    gd = np.asarray(g_D(pts[:, 0], pts[:, 1], t_n), dtype=float)
    return {"eta5": kmax * h ** 0.5 * math.sqrt(np.sum(w * (gd - vavg) ** 2))}


# ----------------------------------------------------------------------
# assembly on one edge

def edge_matrix(space, edge, K=None, penalty=PenaltySpec()):
    """Local matrix of a single edge's contribution.

    Returns (dofs, matrix) with dofs the concatenated minus(+plus) cell
    dofs and matrix indexed (test, trial).
    """
    group = _EdgeGroup(space, edge.kind, edge.minus_side, edge.plus_sub, [edge])
    dofs = space.cell_dofs[group.rows[0]].ravel()
    if edge.kind is EdgeKind.NEUMANN:
        return dofs, np.zeros((len(dofs), len(dofs)))
    return dofs, _edge_data(group, K, penalty)[0]
