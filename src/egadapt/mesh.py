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
the root grid.  Levels, grid positions and coordinates are derived from
the ids by integer arithmetic (coordinates are exact dyadic numbers), and
cells are found by one binary search over their Morton ranges
(:meth:`Mesh.rows_at`).  There are no per-cell or per-edge objects, only
arrays; :meth:`Mesh.points` places reference points in cells, and
:meth:`Mesh.lattice_points` numbers the lattice points that cells share.
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


def _morton(i, j):
    """Morton index of grid positions (i, j) below 2**31: the bits of i at
    the even places (:data:`_XBITS`), those of j at the odd ones."""
    for s, mask in _SPREAD:
        i, j = (i | (i << s)) & mask, (j | (j << s)) & mask
    return i | (j << 1)


#: the places of a Morton index that hold i, and those that hold j
_XBITS, _YBITS = 0x1555555555555555, 0x2AAAAAAAAAAAAAAA


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
    ``i``, ``j``, ``x0``, ``y0`` and ``side`` follow ``active_ids``; other
    modules place points by :meth:`points` and :meth:`lattice_points`, and
    find the cells at finest-grid squares by :meth:`rows_at`.

    The root grid's side is a power of two, so the bounding box is one
    quadtree: a Morton index interleaves the bits of a position on the
    finest level's grid (:func:`_morton`), and every cell covers the
    aligned range ``morton_lo`` to ``morton_hi`` (inclusive), computed
    once, read-only.  The ranges find the cells across the edges and the
    transfer's donors, and order the factor (``EGSpace.factor_order``).
    """

    def __init__(self, shape, h0, partition, roots, ids):
        self.shape = shape
        self.h0 = h0
        self.partition = dict(partition)
        # the root grid: root cells per side, and the position (ri, rj) of
        # each root id
        self._roots = roots
        self._grid, self._root_i, self._root_j = roots
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
        # positions below 2**30 leave each axis a spare place for the edge
        # probes' carries and borrows (:meth:`_build_edges`)
        if self._grid << self.max_level > 2 ** 30:
            raise MeshError("mesh too deep for 64-bit Morton indices")
        shift = self.max_level - self.level
        self.morton_lo = _morton(self.i << shift, self.j << shift)
        self.morton_hi = self.morton_lo + (1 << 2 * shift) - 1
        self._by_lo = np.argsort(self.morton_lo)
        for a in (self.morton_lo, self.morton_hi):
            a.setflags(write=False)
        self.edge_arrays = self._build_edges()

    # ------------------------------------------------------------------
    # id arithmetic, valid for any mesh of the same forest

    @property
    def n_active(self):
        return len(self.active_ids)

    def active_rows(self, ids):
        """Rows of ``ids`` in ``active_ids``; -1 where an id is not active."""
        ids = np.asarray(ids, dtype=np.int64)
        act = self.active_ids
        pos = np.minimum(np.searchsorted(act, ids), len(act) - 1)
        return np.where(act[pos] == ids, pos, -1)

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

    def points(self, ref, rows=slice(None)):
        """``(x0, y0) + side * ref`` (cells, n, 2) in the cells ``rows`` for
        reference points ``ref`` of [0, 1]^2, (n, 2) or (cells, n, 2)."""
        corner = np.column_stack([self.x0[rows], self.y0[rows]])
        return corner[:, None, :] + self.side[rows, None, None] * ref

    def lattice_points(self, k, offsets):
        """Number the points ``(x0, y0) + side * (a, b) / k`` of the active
        cells, one column per offset (a, b) in [0, k]^2, equal points once
        (exact keys on the finest grid) in first-encounter order: cells by
        row, then offsets as given.  Returns the numbers (cells, offsets),
        each number's coordinates (n, 2), and its first (row, offset)."""
        shift = (self.max_level - self.level)[:, None]
        offsets = np.asarray(offsets)
        a, b = offsets.T
        width = (k * self._grid << self.max_level) + 1
        if width > 2 ** 31:
            raise MeshError("mesh too deep for 64-bit lattice keys")
        keys = (((k * self.i[:, None] + a) << shift) * width
                + ((k * self.j[:, None] + b) << shift))
        _, first, inv = np.unique(keys, return_index=True, return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        row, off = np.divmod(first[order], len(offsets))
        coords = self.points((offsets / k)[off, None], row)[:, 0]
        return rank[inv].reshape(keys.shape), coords, (row, off)

    def rows_at(self, m):
        """Rows of the active cells that cover the finest-grid squares with
        Morton indices ``m``; -1 where no cell does (outside the domain)."""
        lo, hi, order = self.morton_lo, self.morton_hi, self._by_lo
        # the last range starting at or below m; below the first one, the
        # index -1 picks the last cell, which starts above m
        pos = order[np.searchsorted(lo, m, side="right", sorter=order) - 1]
        return np.where((lo[pos] <= m) & (m <= hi[pos]), pos, -1)

    # ------------------------------------------------------------------
    # edges

    def _build_edges(self):
        """Each side probes the finest square across its low end: the cell
        there is one level coarser (a half-edge), as fine (an edge emitted
        by the lower row), finer (whose sides emit it) or absent (boundary)."""
        side = np.tile(np.arange(4), self.n_active)
        minus = np.repeat(np.arange(self.n_active), 4)
        shift = np.repeat(self.max_level - self.level, 4)
        # the square's Morton index is the cell's first one moved along i
        # (W, E) or j (S, N) in dilated arithmetic: a carry passes the
        # other axis's places set to one, a borrow those set to zero; past
        # the bounding box an axis over- or underflows its grid positions
        lo, bits = self.morton_lo[minus], np.where(side < SOUTH, _XBITS, _YBITS)
        d = np.where(side & 1, 1 << 2 * shift, 1) << (side >= SOUTH)
        m = np.where(side & 1, (lo | ~bits) + d, (lo & bits) - d) & bits
        m |= lo & ~bits
        off = m >= (self._grid << self.max_level) ** 2
        plus = np.where(off, -1, self.rows_at(m))
        inner = plus >= 0
        up = np.where(inner, self.level[plus] - self.level[minus], 0)
        if np.any(np.abs(up) > 1):
            raise MeshError("1-irregularity violated during edge build")
        hanging = up == -1

        face = 2 * side + off
        kind = np.full(len(side), _INTERIOR)
        for f in np.unique(face[~inner]):
            kind[~inner & (face == f)] = KINDS.index(
                EdgeKind.DIRICHLET if self.partition[_FACES[f]] == "D"
                else EdgeKind.NEUMANN)
        # a half-edge covers the low or high half of the coarse face
        along = np.where(side < SOUTH, self.j[minus], self.i[minus])
        sub = np.where(hanging, SUB_LOW + (along & 1), SUB_FULL)
        emit = np.flatnonzero(~inner | hanging | ((up == 0) & (minus < plus)))
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

    def coarsen(self, marked):
        """Replace complete marked sibling quadruples by their parents.

        Marks that cannot be honored (incomplete quadruples, root cells, or
        quadruples whose removal would break 1-irregularity) are dropped; the
        dropped count is logged.  A quadruple waits while a child is the
        coarse cell of a half-edge whose fine cell's quadruple is not applied;
        passes apply every quadruple that waits on none until none is left.
        When no quadruple is removed the mesh itself is returned, so callers
        can detect an unchanged mesh by identity.
        """
        rows = self._marked_rows(marked, "coarsen")
        parents = self.parent_ids(self.active_ids[rows])[0]
        cand, inv, count = np.unique(parents, return_inverse=True,
                                     return_counts=True)
        # each cell's quadruple, an index into cand; len(cand) for none,
        # which is never applied
        quad = np.full(self.n_active, len(cand))
        quad[rows] = inv
        legal = np.append((count == 4) & (cand >= 0), False)
        e = self.edge_arrays
        waits, on = quad[e.plus[e.hanging]], quad[e.minus[e.hanging]]
        done = np.zeros(len(legal), dtype=bool)
        while True:
            free = legal & ~done
            free[waits[~done[on]]] = False
            if not free.any():
                break
            done |= free
        applied = int(done.sum())
        dropped = len(rows) - 4 * applied
        if dropped:
            logger.debug("coarsen: %d of %d marks dropped", dropped, len(rows))
        if not applied:
            return self
        return self._rebuild(np.sort(np.concatenate(
            [self.active_ids[~done[quad]], cand[done[:-1]]])))

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
    return Mesh(shape, h0, partition, (n, ri, rj), np.arange(len(ri)))
