"""Enriched Galerkin space: continuous Q_k Lagrange nodes plus one
discontinuous constant per active cell.

The continuous part is kept conforming across hanging faces by linear
constraints that tie each hanging node to the trace of the coarse
neighbor's face polynomial.  The constant part is left fully
discontinuous; inter-element jumps of the constants are handled by the
interior-penalty terms of the bilinear form.

DoF numbering is deterministic: the Lagrange nodes are the mesh's degree-k
lattice points (:meth:`Mesh.lattice_points`), numbered in first
encounter order, sweeping active cells by ascending id and local nodes in
lexicographic (x fastest) order; the per-cell constants follow, ordered by
cell id.  The LU factor eliminates the dofs in a separate order
(:meth:`EGSpace.factor_order`), which leaves this numbering unchanged.

A space's cell quadrature points, and each edge batch's edge points, are
exposed once as read-only coordinate arrays (:func:`memo_points`);
problem data evaluated there is memoised on them (:meth:`CellPoints.cached`)
as the terms function's own read-only arrays, freed with the space.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

import numpy as np
from scipy import sparse

from .mesh import SOUTH, SUB_FULL, SUB_HIGH, SUB_LOW, WEST, MeshError
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


def tabulate(k, pts, values=False):
    """Tabulate the EG basis (Q_k nodes + trailing constant) at reference points.

    Returns (N, G, H): values (n, nloc), reference gradients (n, 2, nloc)
    and reference hessians (n, 2, 2, nloc), or (N,) given ``values``.  The
    constant function occupies the last local index with zero derivatives.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    x, y = shape_1d(k, pts[:, 0]), shape_1d(k, pts[:, 1])

    def q(dx, dy):
        # d^dx/dx d^dy/dy of node (a, b) at local index a + (k + 1) b
        prod = x[dx][:, None, :] * y[dy][:, :, None]
        const = np.full((len(pts), 1), float(dx + dy == 0))
        return np.hstack([prod.reshape(len(pts), -1), const])

    if values:
        return (q(0, 0),)
    G = np.stack([q(1, 0), q(0, 1)], axis=1)
    H = np.stack([np.stack([q(2, 0), q(1, 1)], axis=1),
                  np.stack([q(1, 1), q(0, 2)], axis=1)], axis=1)
    return q(0, 0), G, H


def face_points(side, sub, t):
    """Reference coordinates of edge parameter t on a cell side.

    ``sub`` selects the full face or the half covered by a hanging
    half-edge (the parameterization always follows increasing coordinate).
    """
    t = np.asarray(t, dtype=float)
    m = t if sub == SUB_FULL else (t + (sub == SUB_HIGH)) / 2.0
    fixed = np.full_like(m, side & 1)       # 0 on the W and S sides, else 1
    return np.column_stack([fixed, m] if side < SOUTH else [m, fixed])


@lru_cache(maxsize=2)
def _cell_basis(k):
    """Basis tables at the degree-k cell rule's points, shared read-only."""
    tables = tabulate(k, cell_rule(k).points)
    for a in tables:
        a.setflags(write=False)
    return tables


@lru_cache(maxsize=2)
def _hanging_table(k):
    """Local node indices on each side, by increasing coordinate, and per
    plus-side sub-interval: the position along a fine half-face of its one
    node that is no coarse-face node, and that node's weights on the coarse
    face's nodes (the 1d basis at its coarse coordinate t)."""
    m = np.arange(k + 1)
    face = np.array([m * (k + 1), k + m * (k + 1), m, k * (k + 1) + m])
    li, weights = np.zeros(3, dtype=np.int64), np.zeros((3, k + 1))
    for sub in (SUB_LOW, SUB_HIGH):
        t = face_points(WEST, sub, m / k)[:, 1]
        (li[sub],) = np.flatnonzero(t * k % 1)
        weights[sub] = shape_1d(k, t[li[sub]])[0]
    return face, li, weights


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
        self._edge_groups = None

    def _enumerate_dofs(self):
        mesh, k = self.mesh, self.k
        offsets = [(a, b) for b in range(k + 1) for a in range(k + 1)]
        nodes, self.node_coords, _ = mesh.lattice_points(k, offsets)
        self.n_cg = len(self.node_coords)
        self.n_const = mesh.n_active
        self.n_dofs = self.n_cg + self.n_const
        self.cell_dofs = np.column_stack(
            [nodes, self.n_cg + np.arange(mesh.n_active)])

    # -- hanging-node constraints ----------------------------------------

    def _build_constraints(self):
        """Each hanging edge ties one node of its fine half-face to the
        trace of the coarse face polynomial.  On a 1-irregular mesh the
        coarse face nodes are never hanging themselves.  Slave i (ascending)
        has the masters ``masters[i]``, ascending, and their weights."""
        e = self.mesh.edge_arrays
        h = np.flatnonzero(e.hanging)
        face, li, weights = _hanging_table(self.k)
        sub, side = e.sub[h], e.side[h]
        slaves = self.cell_dofs[e.minus[h], face[side, li[sub]]]
        masters = self.cell_dofs[e.plus[h, None], face[side ^ 1]]
        # the two half-edges of a Q1 face share their slave
        self.slaves, first = np.unique(slaves, return_index=True)
        by_dof = np.argsort(masters[first], axis=1)
        self.masters, self.master_weights = (np.take_along_axis(
            a, by_dof, axis=1) for a in (masters[first], weights[sub[first]]))
        if np.any(np.isin(self.masters, self.slaves)):
            raise MeshError("a hanging-node master is itself hanging")

    @cached_property
    def constraint_matrix(self):
        """Sparse N x N map from unconstrained to full coefficient vectors.

        Rows of unconstrained dofs carry an identity entry; the row of each
        hanging (slave) dof carries its master weights, by ascending master.
        Every caller shares it, so its arrays are read-only.
        """
        n, width = self.n_dofs, self.k + 1
        count = np.ones(n, dtype=np.int32)
        count[self.slaves] = width
        indptr = np.concatenate([[0], np.cumsum(count, dtype=np.int32)])
        indices = np.repeat(np.arange(n, dtype=np.int32), count)
        data = np.ones(indptr[-1])
        at = indptr[self.slaves, None] + np.arange(width)
        indices[at] = self.masters
        data[at] = self.master_weights
        C = sparse.csr_matrix((data, indices, indptr), shape=(n, n))
        for a in (C.data, C.indices, C.indptr):
            a.setflags(write=False)
        return C

    def factor_order(self):
        """Fill-reducing elimination order of the dofs: nested dissection
        along the quadtree.

        A dof's support is the set of cells whose ``cell_dofs`` hold it; a
        cell constant's support also takes in the cell's interior-edge
        neighbors, which the penalty terms couple it to.  The Morton
        indices form a binary tree, the quadtree with each level split in
        two (across y, then across x), and each dof belongs to the
        smallest subtree covering its support: the common prefix of the
        support's least and greatest Morton index.  The dofs follow
        subtree postorder: by the subtree's last Morton index, the deeper
        subtree first on a tie, then by dof number.  Every entry of the
        condensed matrix couples two dofs whose supports share a cell, so
        their subtrees nest, and the factor fills in no entry between
        disjoint subtrees.
        """
        lo, hi = self.mesh.morton_lo, self.mesh.morton_hi
        dof_lo = np.full(self.n_dofs, np.iinfo(np.int64).max)
        dof_hi = np.zeros(self.n_dofs, dtype=np.int64)
        np.minimum.at(dof_lo, self.cell_dofs, lo[:, None])
        np.maximum.at(dof_hi, self.cell_dofs, hi[:, None])
        e = self.mesh.edge_arrays
        inner = e.plus >= 0
        for a, b in ((e.minus[inner], e.plus[inner]),
                     (e.plus[inner], e.minus[inner])):
            np.minimum.at(dof_lo, self.n_cg + a, lo[b])
            np.maximum.at(dof_hi, self.n_cg + a, hi[b])
        # the prefix ends above the highest bit of lo ^ hi; smeared down,
        # that bit leaves the mask 2**b - 1 of the exact bit length b,
        # which spans the subtree's indices below its prefix
        span = dof_lo ^ dof_hi
        for s in (1, 2, 4, 8, 16, 32):
            span |= span >> s
        return np.lexsort((span, dof_lo | span))

    @cached_property
    def tables(self):
        """Cached quadrature tables and geometry arrays."""
        return _CellTables(self)


class CellPoints(np.ndarray):
    """Read-only x or y coordinates of a space's cell or edge points.

    The x array pairs with its y array and carries a memo for data that
    depends only on the points.  Arrays derived from either one (views,
    arithmetic results) carry no memo.
    """

    _y = None
    _memo = None

    def cached(self, y, fn):
        """``fn(self, y)``, a tuple of arrays shaped like the points.

        If ``(self, y)`` are one space's (x, y), the result is computed
        once and kept in the memo as the arrays ``fn`` returned, set
        read-only, and freed with the space.
        """
        if self._memo is None or y is not self._y:
            return fn(self, y)
        if fn not in self._memo:
            values = fn(self, y)
            for a in values:
                a.setflags(write=False)
            self._memo[fn] = values
        return self._memo[fn]


def memo_points(X):
    """Read-only (x, y) views of the points ``X`` (..., 2), memo on x."""
    X.setflags(write=False)
    x, y = (X[..., a].view(CellPoints) for a in (0, 1))
    x._y, x._memo = y, {}
    return x, y


class _CellTables:
    """Per-space cache of quadrature tables and geometry arrays."""

    def __init__(self, space):
        mesh = space.mesh
        rule = cell_rule(space.k)
        self.rule = rule
        self.N, self.G, self.H = _cell_basis(space.k)
        self.w = rule.weights
        self.sides = mesh.side
        # physical quadrature points, shape (ncells, nq, 2)
        self.X = mesh.points(rule.points)
        self.x, self.y = memo_points(self.X)


# ----------------------------------------------------------------------

class DiscreteField:
    """Coefficient vector over an EGSpace, evaluated at the cell-rule points."""

    def __init__(self, space, coeffs):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (space.n_dofs,):
            raise ValueError(f"expected {space.n_dofs} coefficients, "
                             f"got shape {coeffs.shape}")
        self.space = space
        self.coeffs = coeffs

    def cell_values(self, deriv=0):
        """Batched values (or gradients/hessians) at the cell-rule points.

        Returns arrays over all active cells in id order: (C, nq) for
        values, (C, nq, 2) for gradients, (C, nq, 2, 2) for hessians.
        """
        if deriv not in (0, 1, 2):
            raise ValueError(f"deriv must be 0, 1 or 2, got {deriv}")
        t = self.space.tables
        loc = self.coeffs[self.space.cell_dofs]
        if deriv == 0:
            return loc @ t.N.T
        # one matrix product over the flattened (point, direction) axes
        table, scale = (t.G, t.sides) if deriv == 1 else (t.H, t.sides ** 2)
        out = loc @ table.reshape(-1, loc.shape[1]).T / scale[:, None]
        return out.reshape((len(loc),) + table.shape[:-1])


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
    so a point on a gridline takes the value of the donor cell above or to
    the right of it, the rule of the test oracle ``reference.locate``.
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

        # same and finer cells: the donor cell at the cell's first finest
        # square is the cell itself or an ancestor, depth levels up; the
        # cell's position (ix, iy) on that depth's grid of the donor cell
        ids = tgt.active_ids
        lo, shift = tgt.morton_lo, 2 * (tgt.max_level - src.max_level)
        drow = src.rows_at(lo >> shift if shift > 0 else lo << -shift)
        depth = tgt.level - src.level[drow]
        drow[depth < 0] = -1
        hit = np.flatnonzero(drow >= 0)
        if len(hit):
            d = depth[hit]
            ix, iy = tgt.i[hit] & ((1 << d) - 1), tgt.j[hit] & ((1 << d) - 1)
            # one tabulation per distinct (depth, ix, iy); the key is unique
            # because ix + iy * 2**depth < 4**depth
            key = (1 << 2 * d) + ix + (iy << d)
            _, first, inv = np.unique(key, return_index=True,
                                      return_inverse=True)
            scale = 0.5 ** d[first]
            off = np.column_stack([ix[first], iy[first]]) * scale[:, None]
            pts = off[:, None, :] + scale[:, None, None] * ref_pts[None]
            N = tabulate(k, pts.reshape(-1, 2), values=True)[0].reshape(
                len(first), len(ref_pts), -1)
            out[hit] = np.einsum("cqi,ci->cq", N[inv], coeffs[
                np.take(dofs, drow[hit], axis=0)])

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
            N = tabulate(k, u, values=True)[0]
            out[miss] = np.einsum("pi,pi->p", N, coeffs[
                np.take(dofs, prow, axis=0)]).reshape(
                len(miss), len(ref_pts))
        return out


# ----------------------------------------------------------------------

def broken_h1_error(field, exact, exact_grad):
    """Elementwise H1 distance between a field and a smooth function.

    ``exact(x, y)`` and ``exact_grad(x, y) -> (gx, gy)`` must broadcast
    over arrays.  Returns sqrt(sum_T ||field - exact||_{H1(T)}^2) computed
    with the cell quadrature rule.
    """
    t = field.space.tables
    # |p_h - p|^2 + |d_x (p_h - p)|^2 + |d_y (p_h - p)|^2, summed in place
    sq = field.cell_values(0) - exact(t.x, t.y)
    sq *= sq
    grads = field.cell_values(1)
    for a, g in enumerate(exact_grad(t.x, t.y)):
        d = grads[..., a]
        d -= g
        sq += d * d
    sq *= t.w[None, :] * t.sides[:, None] ** 2
    return math.sqrt(np.sum(sq))
