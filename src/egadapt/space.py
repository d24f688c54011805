"""Enriched Galerkin space: continuous Q_k Lagrange nodes plus one
discontinuous constant per active cell.

The continuous part is kept conforming across hanging faces by linear
constraints that tie each hanging node to the trace of the coarse
neighbor's face polynomial.  The constant part is left fully
discontinuous; inter-element jumps of the constants are handled by the
interior-penalty terms of the bilinear form.

DoF numbering is deterministic: Lagrange nodes are numbered in first
encounter order while sweeping active cells by ascending id and local
nodes in lexicographic (x fastest) order; the per-cell constants follow,
ordered by cell id.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy import sparse

from .mesh import EAST, NORTH, SOUTH, SUB_HIGH, SUB_LOW, WEST, MeshError
from .quadrature import cell_rule


# ----------------------------------------------------------------------
# reference shape functions on [0,1] and [0,1]^2

def shape_1d(k, t):
    """Values, first and second derivatives of the 1d Lagrange basis."""
    t = np.asarray(t, dtype=float)
    one = np.ones_like(t)
    if k == 1:
        n = np.stack([1.0 - t, t], axis=-1)
        d = np.stack([-one, one], axis=-1)
        d2 = np.zeros_like(n)
    else:
        n = np.stack([(2 * t - 1) * (t - 1), 4 * t * (1 - t), t * (2 * t - 1)],
                     axis=-1)
        d = np.stack([4 * t - 3, 4 - 8 * t, 4 * t - 1], axis=-1)
        d2 = np.stack([4 * one, -8 * one, 4 * one], axis=-1)
    return n, d, d2


def tabulate(k, pts):
    """Tabulate the EG basis (Q_k nodes + trailing constant) at reference points.

    Returns (N, G, H): values (n, nloc), reference gradients (n, 2, nloc)
    and reference hessians (n, 2, 2, nloc).  The constant function occupies
    the last local index with zero derivatives.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    nx, dnx, d2nx = shape_1d(k, pts[:, 0])
    ny, dny, d2ny = shape_1d(k, pts[:, 1])
    m = k + 1
    nloc = m * m + 1
    npts = len(pts)
    N = np.zeros((npts, nloc))
    G = np.zeros((npts, 2, nloc))
    H = np.zeros((npts, 2, 2, nloc))
    for b in range(m):
        for a in range(m):
            i = a + m * b
            N[:, i] = nx[:, a] * ny[:, b]
            G[:, 0, i] = dnx[:, a] * ny[:, b]
            G[:, 1, i] = nx[:, a] * dny[:, b]
            H[:, 0, 0, i] = d2nx[:, a] * ny[:, b]
            H[:, 1, 1, i] = nx[:, a] * d2ny[:, b]
            H[:, 0, 1, i] = H[:, 1, 0, i] = dnx[:, a] * dny[:, b]
    N[:, nloc - 1] = 1.0
    return N, G, H


def face_points(side, sub, t):
    """Reference coordinates of edge parameter t on a cell side.

    ``sub`` selects the full face or the half covered by a hanging
    half-edge (the parameterization always follows increasing coordinate).
    """
    t = np.asarray(t, dtype=float)
    if sub == SUB_LOW:
        m = t / 2.0
    elif sub == SUB_HIGH:
        m = (t + 1.0) / 2.0
    else:
        m = t
    zero, one = np.zeros_like(m), np.ones_like(m)
    if side == WEST:
        return np.column_stack([zero, m])
    if side == EAST:
        return np.column_stack([one, m])
    if side == SOUTH:
        return np.column_stack([m, zero])
    return np.column_stack([m, one])


@lru_cache(maxsize=2)
def _cell_basis(k):
    """Basis tables at the degree-k cell rule's points, shared read-only."""
    tables = tabulate(k, cell_rule(k).points)
    for a in tables:
        a.setflags(write=False)
    return tables


@lru_cache(maxsize=8)
def _q2_trace_weights(t):
    n, _, _ = shape_1d(2, np.array([t]))
    return tuple(n[0])


# ----------------------------------------------------------------------

class EGSpace:
    """DoF management for the EG space on one mesh."""

    def __init__(self, mesh, k):
        if k not in (1, 2):
            raise ValueError(f"polynomial degree must be 1 or 2, got {k}")
        self.mesh = mesh
        self.k = k
        self._enumerate_dofs()
        self._build_constraints()
        self._tables = None
        self._edge_groups = None

    # -- enumeration ----------------------------------------------------

    def _local_node_offsets(self):
        m = self.k + 1
        return [(a / self.k, b / self.k) for b in range(m) for a in range(m)]

    def _enumerate_dofs(self):
        mesh = self.mesh
        offsets = self._local_node_offsets()
        node_id = {}
        coords = []
        cell_nodes = {}
        for cid in mesh.active_ids:
            c = mesh.cell(cid)
            ids = []
            for ox, oy in offsets:
                p = (c.x0 + ox * c.side, c.y0 + oy * c.side)
                if p not in node_id:
                    node_id[p] = len(coords)
                    coords.append(p)
                ids.append(node_id[p])
            cell_nodes[cid] = ids
        self.n_cg = len(coords)
        self.n_const = mesh.n_active
        self.n_dofs = self.n_cg + self.n_const
        self.node_coords = np.array(coords, dtype=float)
        self._node_id = node_id
        self._cell_rank = {cid: r for r, cid in enumerate(mesh.active_ids)}
        nloc = len(offsets) + 1
        dofmap = np.empty((mesh.n_active, nloc), dtype=np.int64)
        for cid, r in self._cell_rank.items():
            dofmap[r, :-1] = cell_nodes[cid]
            dofmap[r, -1] = self.n_cg + r
        self.cell_dofs = dofmap

    def const_dof(self, cid):
        return self.n_cg + self._cell_rank[cid]

    def cell_row(self, cid):
        """Row of ``cell_dofs`` corresponding to an active cell id."""
        return self._cell_rank[cid]

    # -- hanging-node constraints ----------------------------------------

    def _face_nodes(self, cell, side):
        """Global node ids on a cell side, ordered by increasing coordinate."""
        k, m = self.k, self.k + 1
        if side == WEST:
            idx = [m * b for b in range(m)]
        elif side == EAST:
            idx = [k + m * b for b in range(m)]
        elif side == SOUTH:
            idx = list(range(m))
        else:
            idx = [m * k + a for a in range(m)]
        row = self.cell_dofs[self._cell_rank[cell.id], :-1]
        return [int(row[i]) for i in idx]

    def _build_constraints(self):
        raw = {}
        mesh = self.mesh
        for e in mesh.edges:
            if not e.hanging:
                continue
            fine = mesh.cell(e.minus_cell)
            coarse = mesh.cell(e.plus_cell)
            masters = self._face_nodes(coarse, _opposite(e.minus_side))
            fine_nodes = self._face_nodes(fine, e.minus_side)
            base = 0.0 if e.plus_sub == SUB_LOW else 0.5
            for li, node in enumerate(fine_nodes):
                t = base + 0.5 * li / self.k
                if self.k == 1:
                    if t in (0.0, 1.0):
                        continue
                    weights = (1.0 - t, t)
                else:
                    if t in (0.0, 0.5, 1.0):
                        continue
                    weights = _q2_trace_weights(t)
                raw[node] = [(mst, w) for mst, w in zip(masters, weights)
                             if w != 0.0]
        self.constraints = _resolve_chains(raw)
        self._C = None

    @property
    def constraint_matrix(self):
        """Sparse N x N map from unconstrained to full coefficient vectors.

        Rows of unconstrained dofs carry an identity entry; the row of each
        hanging (slave) dof carries its master weights.
        """
        if self._C is None:
            n = self.n_dofs
            cons = self.constraints
            free = np.ones(n, dtype=bool)
            free[list(cons)] = False
            ids = np.flatnonzero(free)
            slaves = np.repeat(np.array(list(cons), dtype=np.int64),
                               [len(t) for t in cons.values()])
            masters = [m for t in cons.values() for m, _ in t]
            weights = [w for t in cons.values() for _, w in t]
            rows = np.concatenate([ids, slaves])
            cols = np.concatenate([ids, np.array(masters, dtype=np.int64)])
            vals = np.concatenate([np.ones(len(ids)), weights])
            self._C = sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))
        return self._C

    # -- cached tabulations ----------------------------------------------

    @property
    def tables(self):
        if self._tables is None:
            self._tables = _CellTables(self)
        return self._tables


def _opposite(side):
    return {WEST: EAST, EAST: WEST, SOUTH: NORTH, NORTH: SOUTH}[side]


def _resolve_chains(raw):
    """Flatten constraint chains so every master is unconstrained."""
    out = {s: list(terms) for s, terms in raw.items()}
    for _ in range(64):
        changed = False
        for s, terms in out.items():
            if not any(m in out for m, _ in terms):
                continue
            acc = {}
            for m, w in terms:
                if m in out:
                    for mm, ww in out[m]:
                        acc[mm] = acc.get(mm, 0.0) + w * ww
                else:
                    acc[m] = acc.get(m, 0.0) + w
            out[s] = sorted(acc.items())
            changed = True
        if not changed:
            return {s: tuple(t) for s, t in out.items()}
    raise MeshError("hanging-node constraint chains failed to resolve")


class _CellTables:
    """Per-space cache of quadrature tables and geometry arrays."""

    def __init__(self, space):
        mesh = space.mesh
        rule = cell_rule(space.k)
        self.rule = rule
        self.N, self.G, self.H = _cell_basis(space.k)
        self.w = rule.weights
        cells = [mesh.cell(cid) for cid in mesh.active_ids]
        self.sides = np.array([c.side for c in cells])
        self.origins = np.array([(c.x0, c.y0) for c in cells])
        # physical quadrature points, shape (ncells, nq, 2)
        self.X = (self.origins[:, None, :]
                  + self.sides[:, None, None] * rule.points[None, :, :])


# ----------------------------------------------------------------------

class DiscreteField:
    """Coefficient vector over an EGSpace, evaluable cell by cell."""

    def __init__(self, space, coeffs):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (space.n_dofs,):
            raise ValueError(f"expected {space.n_dofs} coefficients, "
                             f"got shape {coeffs.shape}")
        self.space = space
        self.coeffs = coeffs

    def evaluate(self, cid, ref_pts):
        """Value, gradient and hessian of the restriction to one cell.

        ``ref_pts`` are coordinates in the cell's reference square; the
        returned derivatives are with respect to physical coordinates.
        """
        mesh = self.space.mesh
        if not mesh.is_active(cid):
            raise MeshError(f"cell {cid} is not active")
        c = mesh.cell(cid)
        N, G, H = tabulate(self.space.k, ref_pts)
        loc = self.coeffs[self.space.cell_dofs[self.space.cell_row(cid)]]
        vals = N @ loc
        grads = np.einsum("qai,i->qa", G, loc) / c.side
        hess = np.einsum("qabi,i->qab", H, loc) / c.side ** 2
        return vals, grads, hess

    def value(self, x, y):
        cid = self.space.mesh.locate(x, y)
        c = self.space.mesh.cell(cid)
        ref = np.array([[(x - c.x0) / c.side, (y - c.y0) / c.side]])
        return float(self.evaluate(cid, ref)[0][0])

    def cell_values(self, deriv=0):
        """Batched values (or gradients/hessians) at the cell-rule points.

        Returns arrays over all active cells in id order: (C, nq) for
        values, (C, nq, 2) for gradients, (C, nq, 2, 2) for hessians.
        """
        t = self.space.tables
        loc = self.coeffs[self.space.cell_dofs]
        if deriv == 0:
            return loc @ t.N.T
        if deriv == 1:
            return np.einsum("qai,ci->cqa", t.G, loc) / t.sides[:, None, None]
        return (np.einsum("qabi,ci->cqab", t.H, loc)
                / t.sides[:, None, None, None] ** 2)


def interpolate(space, fn):
    """Nodal interpolant of a scalar function: Lagrange values on the
    continuous part, zero constants, hanging nodes set consistently."""
    coeffs = np.zeros(space.n_dofs)
    xs, ys = space.node_coords[:, 0], space.node_coords[:, 1]
    coeffs[:space.n_cg] = np.broadcast_to(fn(xs, ys), xs.shape)
    return DiscreteField(space, space.constraint_matrix @ coeffs)


# ----------------------------------------------------------------------
# transfer between meshes sharing one tree

class TransferredField:
    """Evaluator for a field from an earlier mesh on a related mesh.

    Both meshes belong to one forest, so a cell id names the same square
    in both.  Each active target cell relates to the donor mesh in one of
    three ways:

    * same: the cell is active in the donor, whose restriction is used as is;
    * finer: a donor ancestor is active, and the donor polynomial on that
      ancestor is evaluated at the mapped points (exact under refinement);
    * coarser: the donor has active descendants, and each point takes the
      value of the donor cell that contains it (piecewise donor values).

    A point on a midline belongs to the upper/right child (``>= 0.5``),
    the tie rule of :meth:`Mesh.locate`, so :meth:`cell_values` agrees
    with the donor's :meth:`DiscreteField.value` at every point.
    """

    def __init__(self, field, target):
        self.field = field
        self.target = target

    def cell_values(self):
        """Donor values at the target space's cell quadrature points, shape
        (n_target_cells, nq)."""
        ref_pts = self.target.tables.rule.points
        src, tgt = self.field.space.mesh, self.target.mesh
        if (src.shape, src.h0) != (tgt.shape, tgt.h0):
            raise MeshError("transfer needs meshes refined from one initial mesh")
        k = self.field.space.k
        dofs = self.field.space.cell_dofs
        coeffs = self.field.coeffs
        out = np.empty((tgt.n_active, len(ref_pts)))

        # same and finer cells: climb to the active donor ancestor, keeping
        # the cell's depth below it and its integer position (ix, iy) on
        # that depth's grid of the ancestor's reference square
        ids = tgt.active_id_array
        cur = ids.copy()
        depth = np.zeros(len(ids), dtype=np.int64)
        ix = np.zeros(len(ids), dtype=np.int64)
        iy = np.zeros(len(ids), dtype=np.int64)
        drow = src.active_rows(cur)
        for _ in range(tgt.max_level):
            todo = np.flatnonzero((drow < 0) & (cur >= 0))
            if not len(todo):
                break
            cur[todo], kx, ky = src.parent_ids(cur[todo])
            ix[todo] += kx << depth[todo]
            iy[todo] += ky << depth[todo]
            depth[todo] += 1
            drow[todo] = src.active_rows(cur[todo])
        hit = np.flatnonzero(drow >= 0)
        if len(hit):
            # one tabulation per distinct (depth, ix, iy); the key is unique
            # because ix + iy * 2**depth < 4**depth
            key = (1 << 2 * depth[hit]) + ix[hit] + (iy[hit] << depth[hit])
            _, first, inv = np.unique(key, return_index=True,
                                      return_inverse=True)
            pat = hit[first]
            scale = 0.5 ** depth[pat]
            off = np.column_stack([ix[pat], iy[pat]]) * scale[:, None]
            pts = off[:, None, :] + scale[:, None, None] * ref_pts[None]
            N = tabulate(k, pts.reshape(-1, 2))[0].reshape(
                len(pat), len(ref_pts), -1)
            out[hit] = np.einsum("cqi,ci->cq", N[inv],
                                 coeffs[dofs[drow[hit]]])

        # coarser cells: descend per point to the donor cell containing it
        miss = np.flatnonzero(drow < 0)
        if len(miss):
            cur = np.repeat(ids[miss], len(ref_pts))
            u = np.tile(ref_pts, (len(miss), 1))
            prow = np.full(len(cur), -1)
            for _ in range(src.max_level):
                todo = np.flatnonzero(prow < 0)
                if not len(todo):
                    break
                kxy = (u[todo] >= 0.5).astype(np.int64)
                cur[todo] = src.child_ids(cur[todo], kxy[:, 0], kxy[:, 1])
                u[todo] = 2.0 * u[todo] - kxy
                prow[todo] = src.active_rows(cur[todo])
            if np.any(prow < 0):
                raise MeshError("transfer: target points not covered by the "
                                "donor mesh")
            N = tabulate(k, u)[0]
            out[miss] = np.einsum("pi,pi->p", N, coeffs[dofs[prow]]).reshape(
                len(miss), len(ref_pts))
        return out


def transfer(field, target):
    """Evaluator for ``field`` on the EG space ``target``, whose mesh is
    derived from the field's by refine/coarsen steps."""
    return TransferredField(field, target)


# ----------------------------------------------------------------------

def broken_h1_error(field, exact, exact_grad):
    """Elementwise H1 distance between a field and a smooth function.

    ``exact(x, y)`` and ``exact_grad(x, y) -> (gx, gy)`` must broadcast
    over arrays.  Returns sqrt(sum_T ||field - exact||_{H1(T)}^2) computed
    with the cell quadrature rule.
    """
    t = field.space.tables
    vals = field.cell_values(0)
    grads = field.cell_values(1)
    X, Y = t.X[..., 0], t.X[..., 1]
    dv = vals - exact(X, Y)
    gx, gy = exact_grad(X, Y)
    dgx = grads[..., 0] - gx
    dgy = grads[..., 1] - gy
    cellw = t.w[None, :] * t.sides[:, None] ** 2
    total = np.sum(cellw * (dv ** 2 + dgx ** 2 + dgy ** 2))
    return math.sqrt(total)
