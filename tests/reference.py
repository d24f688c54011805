"""Per-cell and per-edge reference implementations (test oracles).

The library computes every quantity in one batched pass over the mesh.
The functions here compute the same quantities one cell or one edge at a
time, through :func:`evaluate` and the edge records of :func:`edges`, so
the tests can compare the batched code against an independent, directly
readable formula.  The edge terms are also kept one group of congruent
edges at a time (:class:`EdgeGroup`), as the library took them before it
took one batch per edge kind: those oracles give the same floats.
"""

import math
from typing import NamedTuple

import numpy as np

from scipy import sparse

from egadapt import EdgeKind, MeshError, build_initial, edge_rule
from egadapt.assembly import (PenaltySpec, _edge_type, _mass_data,
                              _stiffness_data)
from egadapt.estimator import CellIndicators, _div_k_grad
from egadapt.mesh import (_FACES, EAST, KINDS, NORMALS, NORTH, SOUTH, SQRT2,
                          SUB_FULL, SUB_LOW, EdgeArrays)
from egadapt.problems import at_points
from egadapt.space import face_points, memo_points, tabulate


# ----------------------------------------------------------------------
# one cell, one point and one edge, from the mesh and space arrays

def evaluate(field, cid, ref_pts):
    """Value, gradient and hessian of the field's restriction to the active
    cell ``cid`` at points of its reference square; the derivatives are
    with respect to physical coordinates."""
    space = field.space
    row = int(space.mesh.active_rows(cid))
    if row < 0:
        raise MeshError(f"cell {cid} is not active")
    side = space.mesh.side[row]
    N, G, H = tabulate(space.k, ref_pts)
    loc = field.coeffs[space.cell_dofs[row]]
    return (N @ loc, np.einsum("qai,i->qa", G, loc) / side,
            np.einsum("qabi,i->qab", H, loc) / side ** 2)


def locate(mesh, x, y):
    """Id of the active cell containing (x, y); ValueError outside the domain.

    A point on a gridline belongs to the upper/right cell, or to the
    lower/left one where there is none: on the far side of the domain and
    on the faces of the L-shape's excluded quadrant.
    """
    x1, y1 = mesh.x0 + mesh.side, mesh.y0 + mesh.side
    low = (mesh.x0 <= x) & (mesh.y0 <= y)
    for right, top in ((x < x1, y < y1), (x <= x1, y < y1),
                       (x < x1, y <= y1), (x <= x1, y <= y1)):
        hit = np.flatnonzero(low & right & top)
        if len(hit):
            return int(mesh.active_ids[hit[0]])
    raise ValueError(f"point ({x}, {y}) outside the domain")


def value(field, x, y):
    """Field value at the physical point (x, y), from the cell of :func:`locate`."""
    mesh = field.space.mesh
    cid = locate(mesh, x, y)
    row = int(mesh.active_rows(cid))
    ref = (np.array([[x, y]]) - (mesh.x0[row], mesh.y0[row])) / mesh.side[row]
    return float(evaluate(field, cid, ref)[0][0])


class EdgeRecord(NamedTuple):
    """One edge of ``mesh.edge_arrays`` by cell ids, with its geometry.

    ``plus_cell`` is None on the boundary.  The edge runs from ``start``
    over ``length`` in ``direction``, the direction of increasing
    coordinate; ``normal`` points from minus to plus (outward on the
    boundary).
    """

    id: int
    minus_cell: int
    plus_cell: int | None
    minus_side: int
    plus_sub: int
    kind: EdgeKind
    hanging: bool
    start: np.ndarray
    length: float
    direction: np.ndarray
    normal: np.ndarray

    def points(self, t):
        """Physical points, shape (len(t), 2), at edge parameters t."""
        return self.start + self.length * np.multiply.outer(t, self.direction)


def edges(mesh, interior=None):
    """Records of the mesh's edges in edge-id order: all of them, or only
    the interior (``interior=True``) or the boundary ones (``False``)."""
    ids, x0, y0, h = (a.tolist() for a in (mesh.active_ids, mesh.x0, mesh.y0,
                                           mesh.side))
    out = []
    for n, (m, p, s, sub, kind, hang) in enumerate(
            zip(*(a.tolist() for a in mesh.edge_arrays))):
        if interior is None or (p >= 0) == interior:
            start = np.array([x0[m] + h[m] * (s == EAST),
                              y0[m] + h[m] * (s == NORTH)])
            out.append(EdgeRecord(
                n, ids[m], ids[p] if p >= 0 else None, s, sub, KINDS[kind],
                hang, start, h[m],
                np.array((0.0, 1.0) if s < SOUTH else (1.0, 0.0)),
                np.array(NORMALS[s])))
    return out


# ----------------------------------------------------------------------
# edges by walking cell ids down from the root grid

#: grid offset of the face neighbor across each side
_DI, _DJ = np.array([-1, 1, 0, 0]), np.array([0, 0, -1, 1])
#: child positions (kx, ky) of the face neighbor that touch each side
_KX = np.array([[1, 1], [0, 0], [0, 1], [0, 1]])
_KY = np.array([[0, 1], [0, 1], [1, 1], [0, 0]])


def edge_arrays_by_walk(mesh):
    """``mesh.edge_arrays`` from cell ids alone.  Each side's same-level
    neighbor position is walked down from the root grid to an id; the
    cell across is that id, its parent (a half-edge) or, if neither is
    active, its two children by the face (which emit the edge)."""
    roots = build_initial(mesh.shape, mesh.h0)
    n = int(round((mesh.bbox[2] - mesh.bbox[0]) / mesh.h0))
    table = np.full((n, n), -1, dtype=np.int64)
    table[roots.i, roots.j] = roots.active_ids

    level, i, j = (np.repeat(a, 4) for a in (mesh.level, mesh.i, mesh.j))
    side = np.tile(np.arange(4), mesh.n_active)
    ni, nj = i + _DI[side], j + _DJ[side]
    ri, rj = ni >> level, nj >> level
    inside = (ri >= 0) & (ri < n) & (rj >= 0) & (rj < n)
    inside[inside] = table[ri[inside], rj[inside]] >= 0
    lv, wi, wj = level[inside], ni[inside], nj[inside]
    cur = table[wi >> lv, wj >> lv]
    for b in range(int(lv.max(initial=0)) - 1, -1, -1):
        cur = np.where(lv > b,
                       mesh.child_ids(cur, (wi >> b) & 1, (wj >> b) & 1), cur)
    nid = np.full(len(side), -1, dtype=np.int64)
    nid[inside] = cur

    minus = np.repeat(np.arange(mesh.n_active), 4)
    plus = mesh.active_rows(nid)
    same = plus >= 0
    up = np.flatnonzero(inside & ~same)
    plus[up] = mesh.active_rows(mesh.parent_ids(nid[up])[0])
    hanging = inside & ~same & (plus >= 0)
    fine = up[plus[up] < 0]
    kids = mesh.child_ids(nid[fine, None], _KX[side[fine]], _KY[side[fine]])
    if np.any(mesh.active_rows(kids) < 0):
        raise MeshError("1-irregularity violated during edge build")

    across = np.where(side < SOUTH, i, j)
    along = np.where(side < SOUTH, j, i)
    face = 2 * side + np.where(side & 1, across + 1 == n << level, across == 0)
    kind = np.full(len(side), KINDS.index(EdgeKind.INTERIOR))
    for f in np.unique(face[~inside]):
        kind[~inside & (face == f)] = KINDS.index(
            EdgeKind.DIRICHLET if mesh.partition[_FACES[f]] == "D"
            else EdgeKind.NEUMANN)
    sub = np.where(hanging, SUB_LOW + (along & 1), SUB_FULL)
    emit = np.flatnonzero(~inside | hanging
                          | (same & (mesh.active_ids[minus] < nid)))
    return EdgeArrays(minus[emit], plus[emit], side[emit], sub[emit],
                      kind[emit], hanging[emit])


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
    return evaluate(field, cid, face_points(side, sub, t))


def jump_average(field, edge, t):
    """Jump and average of the field value at edge parameter t in [0,1].

    On boundary edges both equal the trace from the adjacent cell.
    """
    vm, _, _ = _edge_trace(field, t, edge.minus_side, SUB_FULL, edge.minus_cell)
    if edge.plus_cell is None:
        return vm.copy(), vm.copy()
    vp, _, _ = _edge_trace(field, t, edge.minus_side ^ 1,
                           edge.plus_sub, edge.plus_cell)
    return vm - vp, 0.5 * (vm + vp)


def flux_jump_average(field, edge, t, K=None):
    """Jump and average of n . K grad(field) at edge parameter t."""
    n = edge.normal
    _, gm, _ = _edge_trace(field, t, edge.minus_side, SUB_FULL, edge.minus_cell)
    pts = edge.points(t)
    if K is None:
        fm = gm @ n
    else:
        Kv = np.asarray(K(pts[:, 0], pts[:, 1]), dtype=float)
        fm = np.einsum("a,qab,qb->q", n, Kv, gm)
    if edge.plus_cell is None:
        return fm.copy(), fm.copy()
    _, gp, _ = _edge_trace(field, t, edge.minus_side ^ 1,
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


def _cell_square(mesh, cid):
    """(x0, y0, side) of the active cell ``cid``."""
    row = int(mesh.active_rows(cid))
    return mesh.x0[row], mesh.y0[row], mesh.side[row]


def _divergence_k_grad(field, cid, ref_pts, K, K_grad, fd_step):
    """div(K grad p_h) at reference points of one cell."""
    x0, y0, side = _cell_square(field.space.mesh, cid)
    _, grads, hess = evaluate(field, cid, ref_pts)
    if K is None:
        return hess[:, 0, 0] + hess[:, 1, 1]
    pts = np.array([x0, y0]) + side * np.atleast_2d(ref_pts)
    x, y = pts[:, 0], pts[:, 1]
    Kv = np.asarray(K(x, y), dtype=float)
    second = np.einsum("qab,qab->q", Kv, hess)
    if K_grad is not None:
        dK = np.asarray(K_grad(x, y), dtype=float)   # (q, 2, 2, 2): d_a K_ij
    else:
        step = fd_step * (side * SQRT2)
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
    x0, y0, side = _cell_square(space.mesh, cid)
    tb = space.tables
    ref = tb.rule.points
    pts = np.array([x0, y0]) + side * ref
    vals, _, _ = evaluate(field, cid, ref)
    resid = np.asarray(f(pts[:, 0], pts[:, 1], t_n), dtype=float) \
        + _divergence_k_grad(field, cid, ref, K, K_grad, fd_step) \
        - (vals - _prev_values_at(prev, pts)) / dt
    norm_sq = side ** 2 * np.sum(tb.w * resid ** 2)
    return (side * SQRT2) ** 2 * math.sqrt(norm_sq)


def edge_indicators(field, edge, t_n, K=None, g_N=None, g_D=None):
    """Edge indicators applicable to one edge, as a dict.

    Interior edges yield {'eta2', 'eta4'}; Neumann edges {'eta3'};
    Dirichlet edges {'eta5'}.
    """
    rule = edge_rule(field.space.k)
    h = edge.length
    pts, w = edge.points(rule.points), rule.weights * h
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
        return {"eta3": h ** 1.5 * math.sqrt(np.sum(w * (gn - favg) ** 2))}
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
    group = EdgeGroup(space, np.array([edge.id]))
    dofs = space.cell_dofs[group.rows[0]].ravel()
    if edge.kind is EdgeKind.NEUMANN:
        return dofs, np.zeros((len(dofs), len(dofs)))
    return dofs, edge_data(group.type, *group.conormal(K), penalty)[0]


def joint_dofs(space, rows):
    """The 0/1 fold (m, m) of an edge with the cell rows ``rows``, read
    off its global dofs: every local dof onto the first local dof with
    its global dof."""
    d = space.cell_dofs[rows].ravel()
    first = np.argmax(d[:, None] == d, axis=1)
    return (first[:, None] == np.arange(len(d))).astype(float)


# ----------------------------------------------------------------------
# the edge terms one group of congruent edges at a time

class EdgeGroup:
    """The edges sharing kind, minus side and plus sub-interval, given by
    their ids ``sel``, with the tables of their type ``(k, kind, minus
    side, plus sub)``: ``keep`` picks the joint dofs from the cells' local
    dofs, and ``fold`` (m, len(keep)) adds every local dof onto its joint
    one."""

    def __init__(self, space, sel):
        rule = edge_rule(space.k)
        mesh, e = space.mesh, space.mesh.edge_arrays
        kind, mside, psub = (int(a[sel[0]]) for a in (e.kind, e.side, e.sub))
        self.kind = KINDS[kind]
        self.type = (space.k, self.kind, mside, psub)
        self.w = rule.weights
        interior = self.kind is EdgeKind.INTERIOR
        self.rows = np.column_stack([e.minus[sel], e.plus[sel]][:1 + interior])
        self.minus_rows = self.rows[:, 0]
        self.plus_rows = self.rows[:, 1] if interior else None
        self.h = mesh.side[self.minus_rows]
        self.normal = np.asarray(NORMALS[mside])
        self.P = mesh.points(face_points(mside, SUB_FULL, rule.points),
                             self.minus_rows)
        self.x, self.y = memo_points(self.P)
        (self.Vm, self.Gm, self.Gnm, self.Vp, self.Gp, self.Gnp,
         fold) = _edge_type(self.type)[:7]
        self.keep = np.flatnonzero(fold.any(axis=0))
        self.fold = fold[:, self.keep]

    def conormal(self, K):
        """(fm, fp, kmax): n . K grad of the basis on the reference edge,
        (E, nq, nloc) or a shared (1, nq, nloc), and K_max per edge."""
        if K is None:
            return self.Gnm[None], self.Gnp[None], np.ones(len(self.h))
        Kv = np.asarray(K(self.x, self.y), dtype=float)
        return (np.einsum("a,eqab,qbi->eqi", self.normal, Kv, self.Gm),
                np.einsum("a,eqab,qbi->eqi", self.normal, Kv, self.Gp),
                np.max(np.abs(Kv).reshape(len(self.h), -1), axis=1))


def edge_groups_by_type(space):
    """Edge groups ordered by (kind value, minus side, plus sub-interval),
    each keeping edge-id order."""
    e = space.mesh.edge_arrays
    key = (e.kind * 4 + e.side) * 3 + e.sub
    order = np.argsort(key, kind="stable")
    cuts = np.flatnonzero(np.diff(key[order])) + 1
    return [EdgeGroup(space, sel) for sel in np.split(order, cuts)]


def edge_data(etype, fm, fp, kmax, penalty):
    """Local matrices of one interior or Dirichlet edge group."""
    k, kind = etype[:2]
    Vm, _, _, Vp = _edge_type(etype)[:4]
    w, th, al = edge_rule(k).weights, penalty.theta, penalty.alpha
    interior = kind is EdgeKind.INTERIOR
    J = np.hstack([Vm, -Vp]) if interior else Vm
    avg = 0.5 * np.concatenate([fm, fp], axis=2) if interior else fm
    return (-np.einsum("q,qi,eqj->eij", w, J, avg)
            + th * np.einsum("q,eqi,qj->eij", w, avg, J)
            + al * kmax[:, None, None]
            * np.einsum("q,qi,qj->ij", w, J, J))


def _to_csr(n, dofs, data):
    """Blocks of local matrices summed into one CSR matrix, block by
    block, less the entries that are zero on every entity of a block."""
    size = sum(d.shape[0] * d.shape[1] ** 2 for d in dofs)
    rows, cols = np.empty((2, size), dtype=np.int32)
    vals = np.empty(size)
    pos = 0
    for d, loc in zip(dofs, data):
        i, j = np.nonzero(np.any(loc, axis=0))
        end = pos + len(d) * len(i)
        rows[pos:end] = d[:, i].ravel()
        cols[pos:end] = d[:, j].ravel()
        vals[pos:end].reshape(len(d), -1)[...] = loc[:, i, j]
        pos = end
    return sparse.csr_matrix((vals[:pos], (rows[:pos], cols[:pos])), shape=(n, n))


def assemble_A_theta_groups(space, K=None, penalty=PenaltySpec(), dt=None):
    """``assemble_A_theta``, one edge group at a time."""
    groups = [g for g in edge_groups_by_type(space)
              if g.kind is not EdgeKind.NEUMANN]
    cells = _stiffness_data(space, K)
    cells = cells if dt is None else cells + _mass_data(space) / dt
    data = [cells]
    for g in groups:
        fm, fp, kmax = g.conormal(K)
        if K is None:
            kmax = np.ones(1)
        data.append(g.fold.T @ edge_data(g.type, fm, fp, kmax, penalty) @ g.fold)
    dofs = [space.cell_dofs[g.rows].reshape(len(g.h), -1)[:, g.keep]
            for g in groups]
    return _to_csr(space.n_dofs, [space.cell_dofs] + dofs, data)


def _scatter(n, parts):
    """Length-n sums of the (indices, values) parts, in the order given."""
    if not parts:
        return np.zeros(n)
    index, values = zip(*parts)
    return np.bincount(np.concatenate([a.ravel() for a in index]),
                       np.concatenate([a.ravel() for a in values]),
                       minlength=n)


def assemble_rhs_groups(space, problem, t_n, penalty=PenaltySpec(), prev=None,
                        dt=None):
    """``assemble_rhs``, one boundary edge group at a time."""
    tb = space.tables
    F = at_points(problem.f, tb.x, tb.y, t_n)
    if prev is not None:
        prev = np.asarray(prev) / dt
        F = np.add(prev, F, out=prev)
    load = np.multiply(F.T, tb.w[:, None], order="C")
    cells = np.einsum("qc,qi->ic", load, tb.N).T * tb.sides[:, None] ** 2
    parts = [(space.cell_dofs, cells)]
    th, al = penalty.theta, penalty.alpha
    for g in edge_groups_by_type(space):
        if g.kind is EdgeKind.INTERIOR:
            continue
        if g.kind is EdgeKind.NEUMANN:
            gv = at_points(problem.g_N, g.x, g.y, t_n)
            bloc = np.einsum("e,q,eq,qi->ei", g.h, g.w, gv, g.Vm)
        else:
            gv = at_points(problem.g_D, g.x, g.y, t_n)
            fm, _, kmax = g.conormal(problem.K)
            flux = np.einsum("q,eq,eqi->ei", g.w, gv, fm)
            pen = np.einsum("e,q,eq,qi->ei", al * kmax, g.w, gv, g.Vm)
            bloc = th * flux + pen
        parts.append((space.cell_dofs[g.minus_rows], bloc))
    return _scatter(space.n_dofs, parts)


def _normal_flux(table, C):
    """n . K grad p_h at the edge points from a co-normal table: one matrix
    product for a table shared by the group, else one per edge."""
    if len(table) == 1:
        return C @ table[0].T
    return np.einsum("eqi,ei->eq", table, C)


def indicators_groups(space, field, prev_vals, problem, t_n, dt, alpha):
    """``compute_indicators``, one edge group at a time."""
    tb = space.tables
    resid = field.cell_values(0) - prev_vals
    resid /= -dt
    resid += at_points(problem.f, tb.x, tb.y, t_n)
    if problem.K is not None:
        resid += _div_k_grad(field, problem.K, problem.K_grad)
    elif space.k == 2:
        hess = field.cell_values(2)
        resid += hess[..., 0, 0]
        resid += hess[..., 1, 1]
    resid *= resid
    norm_sq = tb.sides ** 2 * np.einsum("q,cq->c", tb.w, resid)
    eta1 = (SQRT2 * tb.sides) ** 2 * np.sqrt(norm_sq)
    parts = ([], [], [], [])
    loc = field.coeffs[space.cell_dofs]
    for g in edge_groups_by_type(space):
        fm, fp, kmax = g.conormal(problem.K)
        Cm = loc[g.minus_rows]
        flux_m = _normal_flux(fm, Cm) / g.h[:, None]
        if g.kind is EdgeKind.INTERIOR:
            Cp = loc[g.plus_rows]
            flux_p = _normal_flux(fp, Cp) / g.h[:, None]
            fj = flux_m - flux_p
            vj = Cm @ g.Vm.T - Cp @ g.Vp.T
            e2sq = g.h ** 4 * (fj ** 2 @ g.w)
            e4sq = kmax ** 2 * g.h ** 2 * (vj ** 2 @ g.w)
            parts[0].extend([(g.minus_rows, e2sq), (g.plus_rows, e2sq)])
            parts[2].extend([(g.minus_rows, e4sq), (g.plus_rows, e4sq)])
        elif g.kind is EdgeKind.NEUMANN:
            gv = at_points(problem.g_N, g.x, g.y, t_n)
            e3sq = g.h ** 4 * ((gv - flux_m) ** 2 @ g.w)
            parts[1].append((g.minus_rows, e3sq))
        else:
            gap = at_points(problem.g_D, g.x, g.y, t_n) - Cm @ g.Vm.T
            e5sq = kmax ** 2 * g.h ** 2 * (gap ** 2 @ g.w)
            parts[3].append((g.minus_rows, e5sq))
    ncells = len(tb.sides)
    eta2_sq, eta3_sq, eta4_sq, eta5_sq = (_scatter(ncells, p) for p in parts)
    eta_T = np.sqrt(eta1 ** 2 + 0.5 * (alpha * eta2_sq + eta4_sq)
                    + eta3_sq + alpha * eta5_sq)
    return CellIndicators(space.mesh.active_ids, eta1, eta2_sq, eta3_sq,
                          eta4_sq, eta5_sq, eta_T)


def constraint_matrix_coo(space):
    """The constraint map built from (row, col, value) triplets: identity
    rows for the unconstrained dofs, master weights for the slaves."""
    n = space.n_dofs
    ids = np.setdiff1d(np.arange(n), space.slaves, assume_unique=True)
    rows = np.concatenate([ids, np.repeat(space.slaves, space.k + 1)])
    cols = np.concatenate([ids, space._masters.ravel()])
    vals = np.concatenate([np.ones(len(ids)), space._weights.ravel()])
    return sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))


# ----------------------------------------------------------------------
# load vector and indicators, scattered by one np.add.at per block

def assemble_rhs_add_at(space, problem, t_n, penalty=PenaltySpec(), prev=None,
                        dt=None):
    """Load vector by three-operand einsum contractions, each block added
    into the vector by its own np.add.at."""
    tb = space.tables
    b = np.zeros(space.n_dofs)
    F = at_points(problem.f, tb.x, tb.y, t_n)
    if prev is not None:
        F = F + np.asarray(prev) / dt
    bloc = np.einsum("q,cq,qi->ci", tb.w, F, tb.N) * tb.sides[:, None] ** 2
    np.add.at(b, space.cell_dofs, bloc)
    th, al = penalty.theta, penalty.alpha
    for g in edge_groups_by_type(space):
        if g.kind is EdgeKind.INTERIOR:
            continue
        if g.kind is EdgeKind.NEUMANN:
            gn = at_points(problem.g_N, g.P[..., 0], g.P[..., 1], t_n)
            bloc = np.einsum("e,q,eq,qi->ei", g.h, g.w, gn, g.Vm)
        else:
            gd = at_points(problem.g_D, g.P[..., 0], g.P[..., 1], t_n)
            fm, _, kmax = g.conormal(problem.K)
            if problem.K is None:
                flux = np.einsum("q,eq,qi->ei", g.w, gd, g.Gnm)
            else:
                flux = np.einsum("q,eq,eqi->ei", g.w, gd, fm)
            pen = np.einsum("e,q,eq,qi->ei", al * kmax, g.w, gd, g.Vm)
            bloc = th * flux + pen
        np.add.at(b, space.cell_dofs[g.minus_rows], bloc)
    return b


def indicators_add_at(space, field, prev_vals, problem, t_n, dt):
    """(eta1, eta2_sq, eta3_sq, eta4_sq, eta5_sq) with every edge group's
    values added into the cell sums by np.add.at, one call per group and
    side, in edge-group order."""
    tb = space.tables
    ncells = len(tb.sides)
    vals = field.cell_values(0)
    resid = at_points(problem.f, tb.x, tb.y, t_n) - (vals - prev_vals) / dt
    if problem.K is not None:
        resid = resid + _div_k_grad(field, problem.K, problem.K_grad)
    elif space.k == 2:
        hess = field.cell_values(2)
        resid = resid + hess[..., 0, 0] + hess[..., 1, 1]
    norm_sq = tb.sides ** 2 * np.einsum("q,cq->c", tb.w, resid ** 2)
    eta1 = (SQRT2 * tb.sides) ** 2 * np.sqrt(norm_sq)

    eta2_sq, eta3_sq, eta4_sq, eta5_sq = np.zeros((4, ncells))
    coeffs = field.coeffs
    for g in edge_groups_by_type(space):
        fm, fp, kmax = g.conormal(problem.K)
        Cm = coeffs[space.cell_dofs[g.minus_rows]]
        flux_m = _normal_flux(fm, Cm) / g.h[:, None]
        if g.kind is EdgeKind.INTERIOR:
            Cp = coeffs[space.cell_dofs[g.plus_rows]]
            flux_p = _normal_flux(fp, Cp) / g.h[:, None]
            fj = flux_m - flux_p
            vj = Cm @ g.Vm.T - Cp @ g.Vp.T
            e2sq = g.h ** 4 * (fj ** 2 @ g.w)
            e4sq = kmax ** 2 * g.h ** 2 * (vj ** 2 @ g.w)
            np.add.at(eta2_sq, g.minus_rows, e2sq)
            np.add.at(eta2_sq, g.plus_rows, e2sq)
            np.add.at(eta4_sq, g.minus_rows, e4sq)
            np.add.at(eta4_sq, g.plus_rows, e4sq)
        elif g.kind is EdgeKind.NEUMANN:
            gn = at_points(problem.g_N, g.P[..., 0], g.P[..., 1], t_n)
            np.add.at(eta3_sq, g.minus_rows,
                      g.h ** 4 * ((gn - flux_m) ** 2 @ g.w))
        else:
            gd = at_points(problem.g_D, g.P[..., 0], g.P[..., 1], t_n)
            gap = gd - Cm @ g.Vm.T
            np.add.at(eta5_sq, g.minus_rows,
                      kmax ** 2 * g.h ** 2 * (gap ** 2 @ g.w))
    return eta1, eta2_sq, eta3_sq, eta4_sq, eta5_sq


# ----------------------------------------------------------------------
# marking, one cell at a time

def dorfler_mark_loop(indicators, eta_total, theta_refine):
    """Bulk marking by a running sum over the cells sorted by descending
    indicator, ties by ascending id."""
    items = sorted(indicators.items(), key=lambda kv: (-kv[1], kv[0]))
    threshold = theta_refine * eta_total ** 2
    marked = set()
    acc = 0.0
    for cid, v in items:
        if v <= 0.0:
            break
        marked.add(cid)
        acc += v * v
        if acc >= threshold:
            break
    return marked


def coarsen_mark_loop(indicators, theta_coarse, rule="threshold"):
    """Coarsening marks, cell by cell."""
    items = list(indicators.items())
    if not items:
        return set()
    if rule == "fraction":
        items.sort(key=lambda kv: (kv[1], kv[0]))
        return {cid for cid, _ in items[:int(theta_coarse * len(items))]}
    cap = theta_coarse * max(v for _, v in items)
    return {cid for cid, v in items if v <= cap}


# ----------------------------------------------------------------------
# SVG and legacy-VTK output, one formatted line at a time

def mesh_svg(mesh, path, size=640):
    """One rect per active cell, each formatted on its own."""
    xmin, ymin, xmax, ymax = mesh.bbox
    scale = size / max(xmax - xmin, ymax - ymin)
    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
             f'height="{size}" viewBox="0 0 {size} {size}">']
    for x0, y0, side in zip(mesh.x0.tolist(), mesh.y0.tolist(),
                            mesh.side.tolist()):
        x = (x0 - xmin) * scale
        y = (ymax - y0 - side) * scale
        w = side * scale
        lines.append(f'<rect x="{x:.3f}" y="{y:.3f}" width="{w:.3f}" '
                     f'height="{w:.3f}" fill="none" stroke="black" '
                     f'stroke-width="0.5"/>')
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


_CORNERS = ((0, 0), (1, 0), (1, 1), (0, 1))     # SW, SE, NE, NW


def _vtk_lines(fh, mesh, title):
    """Write the VTK header, points and cells; return each point's first
    (cell, corner).  Corners are numbered by their exact coordinates in
    first-encounter order: cells by ascending id, corners counterclockwise
    from SW."""
    index, first, quads = {}, [], []
    for cid, x0, y0, side in zip(*(a.tolist() for a in (
            mesh.active_ids, mesh.x0, mesh.y0, mesh.side))):
        quad = []
        for a, b in _CORNERS:
            xy = (x0 + a * side, y0 + b * side)
            if xy not in index:
                index[xy] = len(first)
                first.append((cid, a, b, xy))
            quad.append(index[xy])
        quads.append(quad)
    fh.write("# vtk DataFile Version 3.0\n")
    fh.write(title + "\n")
    fh.write("ASCII\n")
    fh.write("DATASET UNSTRUCTURED_GRID\n")
    fh.write(f"POINTS {len(first)} double\n")
    for _, _, _, (x, y) in first:
        fh.write(f"{x:.12g} {y:.12g} 0\n")
    fh.write(f"CELLS {len(quads)} {5 * len(quads)}\n")
    for q in quads:
        fh.write("4 " + " ".join(str(i) for i in q) + "\n")
    fh.write(f"CELL_TYPES {len(quads)}\n")
    for _ in quads:
        fh.write("9\n")
    return first


def mesh_vtk(mesh, path, title="quadtree mesh"):
    with open(path, "w", encoding="utf-8") as fh:
        _vtk_lines(fh, mesh, title)


def field_vtk(field, path, title="EG field"):
    """Continuous part at each corner (the coefficient of the corner node
    in the cell that first reaches it), then the cell constants."""
    space = field.space
    k = space.k
    with open(path, "w", encoding="utf-8") as fh:
        first = _vtk_lines(fh, space.mesh, title)
        fh.write(f"POINT_DATA {len(first)}\n")
        fh.write("SCALARS cg_part double\nLOOKUP_TABLE default\n")
        for cid, a, b, _ in first:
            row = int(space.mesh.active_rows(cid))
            dof = space.cell_dofs[row, a * k + b * k * (k + 1)]
            fh.write(f"{field.coeffs[dof]:.12g}\n")
        fh.write(f"CELL_DATA {space.mesh.n_active}\n")
        fh.write("SCALARS const_part double\nLOOKUP_TABLE default\n")
        for const in field.coeffs[space.n_cg:]:
            fh.write(f"{const:.12g}\n")


# ----------------------------------------------------------------------
# problem data, written out per problem as closed forms

def _corner(x, y):
    """s = r^(2/3) sin(2 phi / 3), phi clockwise from the positive x-axis,
    with its Cartesian gradient (0 at the corner)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r = np.hypot(x, y)
    phi = np.mod(-np.arctan2(y, x), 2.0 * math.pi)
    sin23 = np.sin(2.0 * phi / 3.0)
    cos23 = np.cos(2.0 * phi / 3.0)
    s = r ** (2.0 / 3.0) * sin23
    with np.errstate(divide="ignore", invalid="ignore"):
        rm13 = np.where(r > 0.0, r ** (-1.0 / 3.0), 0.0)
        inv_r = np.where(r > 0.0, 1.0 / r, 0.0)
    cx, cy = x * inv_r, y * inv_r
    sx = (2.0 / 3.0) * rm13 * (sin23 * cx + cos23 * cy)
    sy = (2.0 / 3.0) * rm13 * (sin23 * cy - cos23 * cx)
    return s, sx, sy


def _tfac(t):
    return np.sin(0.5 * math.pi * t)


def _tfac_dt(t):
    return 0.5 * math.pi * np.cos(0.5 * math.pi * t)


def _window(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return ((x ** 2 - 1.0) * (y ** 2 - 1.0), 2.0 * x * (y ** 2 - 1.0),
            2.0 * y * (x ** 2 - 1.0),
            2.0 * (y ** 2 - 1.0) + 2.0 * (x ** 2 - 1.0))


def _example1(x, y, t):
    s, sx, sy = _corner(x, y)
    return {"f": _tfac_dt(t) * s, "p": _tfac(t) * s,
            "grad": (_tfac(t) * sx, _tfac(t) * sy), "dt": _tfac_dt(t) * s}


def _example2(x, y, t):
    """p = T(t) w s, expanded as (T w) s; Lap(p) by the product rule."""
    s, sx, sy = _corner(x, y)
    w, wx, wy, lap_w = _window(x, y)
    lap_p = _tfac(t) * (2.0 * (wx * sx + wy * sy) + s * lap_w)
    return {"f": _tfac_dt(t) * w * s - lap_p, "p": _tfac(t) * w * s,
            "grad": (_tfac(t) * (wx * s + w * sx), _tfac(t) * (wy * s + w * sy)),
            "dt": _tfac_dt(t) * w * s}


def _smoke_linear(x, y, t):
    p = np.asarray(x, dtype=float) + np.asarray(y, dtype=float)
    return {"f": np.zeros_like(p), "p": p,
            "grad": (np.ones_like(p), np.ones_like(p)), "dt": np.zeros_like(p)}


#: per problem name, ``fn(x, y, t)`` giving a dict of the data f, the exact
#: p, its gradient (a pair) and its time derivative dt
PROBLEM_DATA = {"example1": _example1, "example2": _example2,
                "smoke_linear": _smoke_linear}
