"""Quadtree quadrilateral meshes of the unit square and the L-shaped domain.

Cells are axis-aligned squares organized in a forest of quadtrees whose
roots form the uniform initial mesh.  Refinement replaces a cell by its
four children; coarsening replaces a complete sibling quadruple by its
parent.  The mesh is kept 1-irregular: active cells sharing a face differ
by at most one refinement level.  A coarse face shared with two finer
neighbors is represented by two half-edges, each carrying the fine cell on
its minus side and the coarse cell on its plus side, so that all edge
integrals run over intervals on which both traces are smooth.

Cell ids encode the tree position (child (kx, ky) of cell p has id
``nroots + 4*p + kx + 2*ky``), so an id is stable across any refine/coarsen
history.  A mesh is immutable, and its state is the sorted int64 array of
its active cell ids, besides the domain, ``h0``, the boundary partition and
the root grid.  Levels, grid positions, coordinates, neighbors and edges
are derived from the ids by integer arithmetic; coordinates are exact
dyadic numbers.  The mesh offers no per-cell or per-edge objects: every
quantity is an array over the active cells or over ``edge_arrays``.
"""

from __future__ import annotations

import logging
import math
from enum import Enum
from typing import NamedTuple

import numpy as np

logger = logging.getLogger(__name__)

SQRT2 = math.sqrt(2.0)

# local side indices, fixed order used throughout; side ^ 1 is the opposite
WEST, EAST, SOUTH, NORTH = 0, 1, 2, 3

# sub-interval of the plus-side (coarse) face covered by a half-edge
SUB_FULL, SUB_LOW, SUB_HIGH = 0, 1, 2

#: outward unit normal of each side
NORMALS = ((-1.0, 0.0), (1.0, 0.0), (0.0, -1.0), (0.0, 1.0))

# grid offset of the face neighbor across each side
_DI = np.array([-1, 1, 0, 0])
_DJ = np.array([0, 0, -1, 1])
# child positions (kx, ky) of the face neighbor that touch each of our sides
_KX = np.array([[1, 1], [0, 0], [0, 1], [0, 1]])
_KY = np.array([[0, 1], [0, 1], [1, 1], [0, 0]])
# child positions (kx, ky) in id order
_QUAD = (np.array([0, 1, 0, 1]), np.array([0, 0, 1, 1]))
# boundary face of a side, indexed by 2 * side + (on the bounding box)
_FACES = ("inner_vertical", "left", "inner_vertical", "right",
          "inner_horizontal", "bottom", "inner_horizontal", "top")


class MeshError(Exception):
    """Structural mesh failure (bad marks, unknown boundary face, ...)."""


class ConfigError(ValueError):
    """Invalid user-supplied configuration value."""


class DomainShape(Enum):
    UNIT_SQUARE = "unit_square"
    L_SHAPE = "l_shape"


class EdgeKind(Enum):
    INTERIOR = "interior"
    DIRICHLET = "dirichlet"
    NEUMANN = "neumann"


#: edge kinds by the codes of ``EdgeArrays.kind``, in order of their values
KINDS = tuple(sorted(EdgeKind, key=lambda kind: kind.value))
_INTERIOR = KINDS.index(EdgeKind.INTERIOR)


#: boundary faces of each domain, by name
BOUNDARY_FACES = {
    DomainShape.UNIT_SQUARE: ("left", "right", "bottom", "top"),
    DomainShape.L_SHAPE: ("left", "right", "bottom", "top",
                          "inner_vertical", "inner_horizontal"),
}


def all_dirichlet(shape):
    """Boundary partition assigning every face of the domain to Dirichlet."""
    return {name: "D" for name in BOUNDARY_FACES[shape]}


def first_encounter(keys):
    """Number equal keys in order of first occurrence in ``keys.ravel()``.

    Returns the number of every key, shaped like ``keys``, and for every
    number the flat index of its first occurrence.
    """
    _, first, inv = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return rank[inv].reshape(np.shape(keys)), first[order]


class EdgeArrays(NamedTuple):
    """All edges as parallel arrays in edge-id order: ascending minus cell,
    then sides W, E, S, N.  ``minus``/``plus`` are rows of the active cells
    (``plus`` is -1 on the boundary); ``kind`` indexes :data:`KINDS`.  An
    edge is the whole ``side`` of its minus cell and the ``sub`` part of
    the plus cell's opposite face; its unit normal ``NORMALS[side]`` points
    from minus to plus (outward on the boundary)."""

    minus: np.ndarray
    plus: np.ndarray
    side: np.ndarray
    sub: np.ndarray
    kind: np.ndarray
    hanging: np.ndarray


#: (shift, mask) passes that move bit b of a value below 2**32 to bit 2b
_SPREAD = ((16, 0x0000FFFF0000FFFF), (8, 0x00FF00FF00FF00FF),
           (4, 0x0F0F0F0F0F0F0F0F), (2, 0x3333333333333333),
           (1, 0x5555555555555555))


def _spread_bits(v):
    for s, mask in _SPREAD:
        v = (v | (v << s)) & mask
    return v


def _rows_in(act, ids):
    """Rows of ``ids`` in the sorted id array ``act``; -1 where absent."""
    ids = np.asarray(ids, dtype=np.int64)
    pos = np.minimum(np.searchsorted(act, ids), len(act) - 1)
    return np.where(act[pos] == ids, pos, -1)


#: most root cells along one side of the root grid: h0 >= 2**-9 on the
#: L-shape and 2**-10 on the unit square (up to a million root cells)
_MAX_ROOT_GRID = 2 ** 10


def _root_grid_size(h0, shape):
    """Root cells per side of the domain ``shape``, checked before
    anything sized by ``h0`` is allocated."""
    if not (0.0 < h0 <= 1.0):
        raise ConfigError(f"h0 must lie in (0, 1], got {h0}")
    mant, _ = math.frexp(h0)
    if mant != 0.5:
        raise ConfigError(f"h0 must be a power-of-two fraction, got {h0}")
    n = int(round((1.0 if shape is DomainShape.UNIT_SQUARE else 2.0) / h0))
    if n > _MAX_ROOT_GRID:
        raise ConfigError(f"h0={h0} gives a root grid of {n} x {n} cells, "
                          f"more than {_MAX_ROOT_GRID} x {_MAX_ROOT_GRID}")
    return n


class Mesh:
    """Immutable quadtree mesh with classified edges.

    Construct with :func:`build_initial`; derive finer/coarser meshes with
    :meth:`refine` and :meth:`coarsen`.  The per-cell arrays ``level``,
    ``i``, ``j``, ``x0``, ``y0`` and ``side`` follow ``active_ids``.
    """

    def __init__(self, shape, h0, partition, roots, ids):
        self.shape = shape
        self.h0 = h0
        self.partition = dict(partition)
        # the root grid: root ids by position [ri, rj] (-1 outside the
        # domain), and the position (ri, rj) of each root id
        self._roots = roots
        self._table, self._root_i, self._root_j = roots
        self._nroots = len(self._root_i)
        self.bbox = ((0.0, 0.0, 1.0, 1.0) if shape is DomainShape.UNIT_SQUARE
                     else (-1.0, -1.0, 1.0, 1.0))     # (xmin, ymin, xmax, ymax)
        self.active_ids = np.array(ids, dtype=np.int64)
        self.active_ids.setflags(write=False)
        self.level, self.i, self.j = self._positions(self.active_ids)
        self.side = np.ldexp(h0, -self.level)
        self.x0 = self.bbox[0] + self.i * self.side
        self.y0 = self.bbox[1] + self.j * self.side
        self.max_level = int(self.level.max())
        self.h_min = math.ldexp(h0, -self.max_level)
        self.edge_arrays = self._build_edges()

    # ------------------------------------------------------------------
    # id arithmetic, valid for any mesh of the same forest

    @property
    def n_active(self):
        return len(self.active_ids)

    def active_rows(self, ids):
        """Rows of ``ids`` in ``active_ids``; -1 where an id is not active."""
        return _rows_in(self.active_ids, ids)

    def is_active(self, cid):
        return bool(self.active_rows(cid) >= 0)

    def area(self):
        return float(np.sum(self.side ** 2))

    def parent_ids(self, ids):
        """Parent ids of cell ids (-1 for roots) and the child position
        ``(kx, ky)`` of each cell within its parent."""
        ids = np.asarray(ids, dtype=np.int64)
        parent, k = np.divmod(ids - self._nroots, 4)
        return np.where(ids < self._nroots, -1, parent), k & 1, k >> 1

    def child_ids(self, ids, kx, ky):
        """Ids of the children at position ``(kx, ky)`` of cell ids."""
        return self._nroots + 4 * np.asarray(ids, dtype=np.int64) + kx + 2 * ky

    def _positions(self, ids):
        """(level, i, j) of cell ids, climbing one level per pass."""
        cur = np.array(ids, dtype=np.int64)
        level, i, j = np.zeros((3,) + cur.shape, dtype=np.int64)
        up = np.flatnonzero(cur >= self._nroots)
        while len(up):
            cur[up], kx, ky = self.parent_ids(cur[up])
            i[up] += kx << level[up]
            j[up] += ky << level[up]
            level[up] += 1
            up = up[cur[up] >= self._nroots]
        return (level, i + (self._root_i[cur] << level),
                j + (self._root_j[cur] << level))

    def _ids_at(self, level, i, j):
        """Ids of the cells at in-domain positions (level, i, j)."""
        cur = self._table[i >> level, j >> level]
        for b in range(int(level.max(initial=0)) - 1, -1, -1):
            cur = np.where(level > b,
                           self.child_ids(cur, (i >> b) & 1, (j >> b) & 1), cur)
        return cur

    def _in_domain(self, level, i, j):
        n = len(self._table)
        ri, rj = i >> level, j >> level
        inside = (ri >= 0) & (ri < n) & (rj >= 0) & (rj < n)
        return inside & (self._table[np.clip(ri, 0, n - 1),
                                     np.clip(rj, 0, n - 1)] >= 0)

    def _neighbors(self, level, i, j):
        """Same-level face neighbors of the cells at (level, i, j), four per
        cell in side order: (side, in-domain flag, neighbor id or -1)."""
        level, i, j = (np.repeat(a, 4) for a in (level, i, j))
        side = np.tile(np.arange(4), len(level) // 4)
        i, j = i + _DI[side], j + _DJ[side]
        inside = self._in_domain(level, i, j)
        nid = np.full(len(side), -1, dtype=np.int64)
        nid[inside] = self._ids_at(level[inside], i[inside], j[inside])
        return side, inside, nid

    def lattice_keys(self, k, offsets):
        """Integer keys of the points (x0 + a side / k, y0 + b side / k) of
        every active cell, one column per offset (a, b) with 0 <= a, b <= k.
        Equal keys mark equal points."""
        shift = (self.max_level - self.level)[:, None]
        a, b = np.asarray(offsets).T
        width = (k * len(self._table) << self.max_level) + 1
        if width > 2 ** 31:
            raise MeshError("mesh too deep for 64-bit lattice keys")
        return (((k * self.i[:, None] + a) << shift) * width
                + ((k * self.j[:, None] + b) << shift))

    def morton_ranges(self):
        """First and last Morton index (inclusive) of the squares of the
        finest level's grid that each active cell covers.

        The root grid's side is a power of two, so the bounding box is one
        quadtree: a Morton index interleaves the bits of the grid position,
        x at the even places, and every cell covers one aligned range.
        """
        if len(self._table) << self.max_level > 2 ** 31:
            raise MeshError("mesh too deep for 64-bit Morton indices")
        shift = self.max_level - self.level
        lo = _spread_bits(self.i << shift) | (_spread_bits(self.j << shift) << 1)
        return lo, lo + (1 << 2 * shift) - 1

    # ------------------------------------------------------------------
    # edges

    def _build_edges(self):
        side, inside, nid = self._neighbors(self.level, self.i, self.j)
        minus = np.repeat(np.arange(self.n_active), 4)
        plus = self.active_rows(nid)
        same = plus >= 0
        # a coarser neighbor is the active parent of the same-level position
        up = np.flatnonzero(inside & ~same)
        plus[up] = self.active_rows(self.parent_ids(nid[up])[0])
        hanging = inside & ~same & (plus >= 0)
        # otherwise the neighbors are finer: the two children by the face
        fine = up[plus[up] < 0]
        kids = self.child_ids(nid[fine, None], _KX[side[fine]], _KY[side[fine]])
        if np.any(self.active_rows(kids) < 0):
            raise MeshError("1-irregularity violated during edge build")

        # grid coordinates across and along each side
        i, j = np.repeat(self.i, 4), np.repeat(self.j, 4)
        across, along = np.where(side < SOUTH, i, j), np.where(side < SOUTH, j, i)
        n = len(self._table) << np.repeat(self.level, 4)
        face = 2 * side + np.where(side & 1, across + 1 == n, across == 0)
        kind = np.full(len(side), _INTERIOR)
        for f in np.unique(face[~inside]):
            kind[~inside & (face == f)] = KINDS.index(
                EdgeKind.DIRICHLET if self.partition[_FACES[f]] == "D"
                else EdgeKind.NEUMANN)
        # a half-edge covers the low or high half of the coarse face
        sub = np.where(hanging, SUB_LOW + (along & 1), SUB_FULL)
        emit = np.flatnonzero(~inside | hanging
                              | (same & (self.active_ids[minus] < nid)))
        return EdgeArrays(minus[emit], plus[emit], side[emit], sub[emit],
                          kind[emit], hanging[emit])

    # ------------------------------------------------------------------
    # refinement and coarsening

    def _marked_rows(self, marked, what):
        ids = np.array(list(marked), dtype=np.int64)
        rows = self.active_rows(ids)
        if np.any(rows < 0):
            raise MeshError(f"{what} marks must be active cells, got "
                            f"{sorted(ids[rows < 0].tolist())[:5]}")
        return np.unique(rows)

    def refine(self, marked):
        """Refine the marked active cells, plus closure for 1-irregularity."""
        split = np.zeros(self.n_active, dtype=bool)
        split[self._marked_rows(marked, "refine")] = True
        # a refined cell forces its coarser face neighbors: the plus cells
        # of its hanging edges
        e = self.edge_arrays
        fine, coarse = e.minus[e.hanging], e.plus[e.hanging]
        while True:
            forced = coarse[split[fine] & ~split[coarse]]
            if not len(forced):
                break
            split[forced] = True
        kids = self.child_ids(self.active_ids[split, None], *_QUAD)
        return self._rebuild(np.sort(np.concatenate(
            [self.active_ids[~split], kids.ravel()])))

    def _blocked(self, act, parents):
        """Which parents may not replace their children in the active id
        array ``act``: those with an active face neighbor two or more
        levels below the parent, or a neighbor two or more levels above."""
        side, inside, nid = self._neighbors(*self._positions(parents))
        nid, side = nid[inside], side[inside]
        kids = self.child_ids(nid[:, None], _KX[side], _KY[side])
        covered = ((_rows_in(act, kids) >= 0)
                   | (_rows_in(act, nid) >= 0)[:, None]
                   | (_rows_in(act, self.parent_ids(nid)[0]) >= 0)[:, None])
        bad = np.zeros(len(inside), dtype=bool)
        bad[inside] = ~covered.all(axis=1)
        return bad.reshape(-1, 4).any(axis=1)

    def coarsen(self, marked):
        """Replace complete marked sibling quadruples by their parents.

        Marks that cannot be honored (incomplete quadruples, root cells, or
        quadruples whose removal would break 1-irregularity) are dropped; the
        dropped count is logged.  A coarsening only ever unblocks others, so
        passes apply every unblocked quadruple until none is left.  When no
        quadruple is removed the mesh itself is returned, so callers can
        detect an unchanged mesh by identity.
        """
        rows = self._marked_rows(marked, "coarsen")
        parents = self.parent_ids(self.active_ids[rows])[0]
        cand, count = np.unique(parents[parents >= 0], return_counts=True)
        cand = cand[count == 4]
        act, applied = self.active_ids, 0
        while len(cand):
            blocked = self._blocked(act, cand)
            done = cand[~blocked]
            if not len(done):
                break
            kids = self.child_ids(done[:, None], *_QUAD).ravel()
            act = np.sort(np.concatenate(
                [np.setdiff1d(act, kids, assume_unique=True), done]))
            applied += len(done)
            cand = cand[blocked]
        dropped = len(rows) - 4 * applied
        if dropped:
            logger.debug("coarsen: %d of %d marks dropped", dropped, len(rows))
        if not applied:
            return self
        return self._rebuild(act)

    def _rebuild(self, ids):
        return Mesh(self.shape, self.h0, self.partition, self._roots, ids)


def build_initial(shape, h0, partition=None):
    """Uniform mesh of square cells of side ``h0`` over the given domain.

    ``h0`` must be 2**-j.  Boundary edges are classified by ``partition``,
    which maps every face of the domain (:data:`BOUNDARY_FACES`) and no
    other name to 'D' or 'N'; the default is all-Dirichlet.  Roots are
    numbered row by row, x fastest.
    """
    if not isinstance(shape, DomainShape):
        shape = DomainShape(shape)
    n = _root_grid_size(h0, shape)
    if partition is None:
        partition = all_dirichlet(shape)
    faces = BOUNDARY_FACES[shape]
    missing = [f for f in faces if f not in partition]
    unknown = sorted(set(partition) - set(faces))
    if missing or unknown:
        raise MeshError(f"boundary partition of the {shape.value} domain: "
                        f"missing faces {missing}, unknown faces {unknown}")
    bad = {f: v for f, v in partition.items() if v not in ("D", "N")}
    if bad:
        raise MeshError(f"boundary partition values must be 'D' or 'N': {bad}")
    inside = np.ones((n, n), dtype=bool)          # indexed [rj, ri]
    if shape is DomainShape.L_SHAPE:
        inside[n // 2:, n // 2:] = False
    rj, ri = np.nonzero(inside)
    table = np.full((n, n), -1, dtype=np.int64)
    table[ri, rj] = np.arange(len(ri))
    return Mesh(shape, h0, partition, (table, ri, rj), np.arange(len(ri)))
