"""Quadtree quadrilateral meshes of the unit square and the L-shaped domain.

Cells are axis-aligned squares organized in a forest of quadtrees whose
roots form the uniform initial mesh.  Refinement replaces a cell by its
four children; coarsening replaces a complete sibling quadruple by its
parent.  The mesh is kept 1-irregular: active cells sharing a face differ
by at most one refinement level.  A coarse face shared with two finer
neighbors is represented by two half-edges, each carrying the fine cell on
its minus side and the coarse cell on its plus side, so that all edge
integrals run over intervals on which both traces are smooth.

Meshes are immutable; ``refine``/``coarsen``/``classify_edges`` return new
``Mesh`` objects that share cell records with their ancestors.  Cell ids
encode the tree position (child k of cell p has id ``nroots + 4*p + k``),
so an id is stable across any refine/coarsen history.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from typing import NamedTuple

import numpy as np

logger = logging.getLogger(__name__)

SQRT2 = math.sqrt(2.0)

# local side indices, fixed order used throughout
WEST, EAST, SOUTH, NORTH = 0, 1, 2, 3

# sub-interval of the plus-side (coarse) face covered by a half-edge
SUB_FULL, SUB_LOW, SUB_HIGH = 0, 1, 2


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


class Point2(NamedTuple):
    x: float
    y: float


#: boundary faces of each domain, keyed by name; values are (axis, at, lo, hi)
#: with axis 0 for vertical faces x=at and axis 1 for horizontal faces y=at.
BOUNDARY_FACES = {
    DomainShape.UNIT_SQUARE: ("left", "right", "bottom", "top"),
    DomainShape.L_SHAPE: ("left", "right", "bottom", "top",
                          "inner_vertical", "inner_horizontal"),
}


def all_dirichlet(shape):
    """Boundary partition assigning every face of the domain to Dirichlet."""
    return {name: "D" for name in BOUNDARY_FACES[shape]}


@dataclass(frozen=True)
class Cell:
    """One square cell of the quadtree.  Active iff ``children is None``."""

    id: int
    level: int
    i: int          # integer x-index within the level-``level`` grid
    j: int          # integer y-index
    x0: float
    y0: float
    side: float
    parent: int | None = None
    children: tuple[int, int, int, int] | None = None

    @property
    def active(self):
        return self.children is None

    @property
    def diameter(self):
        return self.side * SQRT2

    @property
    def center(self):
        return Point2(self.x0 + 0.5 * self.side, self.y0 + 0.5 * self.side)

    @property
    def corners(self):
        """Corners in counterclockwise order SW, SE, NE, NW."""
        s = self.side
        return (Point2(self.x0, self.y0), Point2(self.x0 + s, self.y0),
                Point2(self.x0 + s, self.y0 + s), Point2(self.x0, self.y0 + s))


@dataclass(frozen=True)
class Edge:
    """A face of the active tiling (or half of a coarse face, if hanging).

    ``minus_cell`` always owns the full extent of the edge; ``plus_cell``
    is absent on the boundary.  The unit normal points from minus to plus
    (outward on the boundary).  The edge is parameterized by t in [0, 1]
    running in the direction of increasing coordinate.
    """

    id: int
    endpoints: tuple[Point2, Point2]
    length: float
    kind: EdgeKind
    minus_cell: int
    plus_cell: int | None
    normal: tuple[float, float]
    hanging: bool
    minus_side: int     # WEST/EAST/SOUTH/NORTH, side of the minus cell
    plus_sub: int       # SUB_FULL or which half of the plus cell's face

    @property
    def start(self):
        return self.endpoints[0]

    @property
    def direction(self):
        """Unit vector along the edge parameterization."""
        return (0.0, 1.0) if self.minus_side in (WEST, EAST) else (1.0, 0.0)


def _validate_h0(h0):
    if not (0.0 < h0 <= 1.0):
        raise ConfigError(f"h0 must lie in (0, 1], got {h0}")
    mant, _ = math.frexp(h0)
    if mant != 0.5:
        raise ConfigError(f"h0 must be a power-of-two fraction, got {h0}")


class Mesh:
    """Immutable quadtree mesh with classified edges.

    Construct with :func:`build_initial`; derive finer/coarser meshes with
    :meth:`refine` and :meth:`coarsen`.
    """

    def __init__(self, shape, h0, partition, cells, active, nroots, root_n, bbox):
        self.shape = shape
        self.h0 = h0
        self.partition = dict(partition)
        self._cells = cells
        self._active = frozenset(active)
        self._nroots = nroots
        self._root_n = root_n          # root cells per bbox side
        self.bbox = bbox               # (xmin, ymin, xmax, ymax)
        self.active_ids = tuple(sorted(self._active))
        self._pos2id = {(c.level, c.i, c.j): c.id for c in cells.values()}
        self.h_min = min(cells[cid].side for cid in self._active)
        self.edges = self._build_edges()

    # ------------------------------------------------------------------
    # basic access

    def cell(self, cid):
        return self._cells[cid]

    def is_active(self, cid):
        return cid in self._active

    @property
    def n_active(self):
        return len(self._active)

    def active_cells(self):
        for cid in self.active_ids:
            yield self._cells[cid]

    def area(self):
        return sum(self._cells[cid].side ** 2 for cid in self.active_ids)

    @property
    def max_level(self):
        """Deepest refinement level among the active cells."""
        return round(math.log2(self.h0 / self.h_min))

    def interior_edges(self):
        return [e for e in self.edges if e.kind is EdgeKind.INTERIOR]

    def boundary_edges(self):
        return [e for e in self.edges if e.kind is not EdgeKind.INTERIOR]

    # ------------------------------------------------------------------
    # tree position helpers

    def _in_footprint(self, ri, rj):
        n = self._root_n
        if not (0 <= ri < n and 0 <= rj < n):
            return False
        if self.shape is DomainShape.L_SHAPE:
            half = n // 2
            return not (ri >= half and rj >= half)
        return True

    def _in_domain(self, level, i, j):
        n = self._root_n << level
        if not (0 <= i < n and 0 <= j < n):
            return False
        return self._in_footprint(i >> level, j >> level)

    @staticmethod
    def _neighbor_pos(level, i, j, side):
        if side == WEST:
            return (level, i - 1, j)
        if side == EAST:
            return (level, i + 1, j)
        if side == SOUTH:
            return (level, i, j - 1)
        return (level, i, j + 1)

    def _existing_at_or_above(self, pos2id, level, i, j):
        """Deepest existing cell at or above position (level, i, j)."""
        while (level, i, j) not in pos2id:
            if level == 0:
                raise MeshError(f"no cell covers position level={level} ({i},{j})")
            level, i, j = level - 1, i >> 1, j >> 1
        return pos2id[(level, i, j)]

    # ------------------------------------------------------------------
    # vectorised id arithmetic, valid for any mesh of the same forest

    @cached_property
    def active_id_array(self):
        """``active_ids`` as a read-only int64 array."""
        arr = np.array(self.active_ids, dtype=np.int64)
        arr.setflags(write=False)
        return arr

    def active_rows(self, ids):
        """Rows of ``ids`` in ``active_ids``; -1 where an id is not active."""
        ids = np.asarray(ids, dtype=np.int64)
        act = self.active_id_array
        pos = np.minimum(np.searchsorted(act, ids), len(act) - 1)
        return np.where(act[pos] == ids, pos, -1)

    def parent_ids(self, ids):
        """Parent ids of cell ids (-1 for roots) and the child position
        ``(kx, ky)`` of each cell within its parent."""
        ids = np.asarray(ids, dtype=np.int64)
        parent, k = np.divmod(ids - self._nroots, 4)
        return np.where(ids < self._nroots, -1, parent), k & 1, k >> 1

    def child_ids(self, ids, kx, ky):
        """Ids of the children at position ``(kx, ky)`` of cell ids."""
        return self._nroots + 4 * np.asarray(ids, dtype=np.int64) + kx + 2 * ky

    # ------------------------------------------------------------------
    # edge construction

    def _boundary_face(self, cell, side):
        n = self._root_n << cell.level
        if side == WEST:
            return "left" if cell.i == 0 else "inner_vertical"
        if side == EAST:
            return "right" if cell.i + 1 == n else "inner_vertical"
        if side == SOUTH:
            return "bottom" if cell.j == 0 else "inner_horizontal"
        return "top" if cell.j + 1 == n else "inner_horizontal"

    @staticmethod
    def _side_geometry(cell, side):
        """Endpoints of a cell side, ordered by increasing coordinate."""
        x0, y0, s = cell.x0, cell.y0, cell.side
        if side == WEST:
            return Point2(x0, y0), Point2(x0, y0 + s)
        if side == EAST:
            return Point2(x0 + s, y0), Point2(x0 + s, y0 + s)
        if side == SOUTH:
            return Point2(x0, y0), Point2(x0 + s, y0)
        return Point2(x0, y0 + s), Point2(x0 + s, y0 + s)

    _NORMALS = ((-1.0, 0.0), (1.0, 0.0), (0.0, -1.0), (0.0, 1.0))

    def _build_edges(self):
        edges = []
        cells = self._cells
        pos2id = self._pos2id
        for cid in self.active_ids:
            c = cells[cid]
            for side in (WEST, EAST, SOUTH, NORTH):
                npos = self._neighbor_pos(c.level, c.i, c.j, side)
                if not self._in_domain(*npos):
                    face = self._boundary_face(c, side)
                    if face not in self.partition:
                        raise MeshError(
                            f"boundary edge on face '{face}' has no entry in the "
                            f"boundary partition {sorted(self.partition)}")
                    kind = (EdgeKind.DIRICHLET if self.partition[face] == "D"
                            else EdgeKind.NEUMANN)
                    p0, p1 = self._side_geometry(c, side)
                    edges.append(Edge(len(edges), (p0, p1), c.side, kind,
                                      cid, None, self._NORMALS[side], False,
                                      side, SUB_FULL))
                    continue
                if npos in pos2id:
                    nb = cells[pos2id[npos]]
                    if not nb.active:
                        continue        # finer neighbors emit half-edges
                    if cid < nb.id:
                        p0, p1 = self._side_geometry(c, side)
                        edges.append(Edge(len(edges), (p0, p1), c.side,
                                          EdgeKind.INTERIOR, cid, nb.id,
                                          self._NORMALS[side], False,
                                          side, SUB_FULL))
                    continue
                # neighbor position absent: the neighbor is a coarser cell
                anc_id = self._existing_at_or_above(
                    pos2id, npos[0] - 1, npos[1] >> 1, npos[2] >> 1)
                anc = cells[anc_id]
                if not anc.active or anc.level != c.level - 1:
                    raise MeshError("1-irregularity violated during edge build")
                if side in (WEST, EAST):
                    sub = SUB_HIGH if c.j % 2 == 1 else SUB_LOW
                else:
                    sub = SUB_HIGH if c.i % 2 == 1 else SUB_LOW
                p0, p1 = self._side_geometry(c, side)
                edges.append(Edge(len(edges), (p0, p1), c.side,
                                  EdgeKind.INTERIOR, cid, anc_id,
                                  self._NORMALS[side], True, side, sub))
        return tuple(edges)

    # ------------------------------------------------------------------
    # refinement

    def _make_children(self, cells, c):
        kids = []
        half = c.side / 2.0
        for k in range(4):
            ix, iy = k & 1, k >> 1
            kid = Cell(id=self._nroots + 4 * c.id + k,
                       level=c.level + 1,
                       i=2 * c.i + ix, j=2 * c.j + iy,
                       x0=c.x0 + ix * half, y0=c.y0 + iy * half,
                       side=half, parent=c.id)
            cells[kid.id] = kid
            kids.append(kid.id)
        cells[c.id] = replace(c, children=tuple(kids))
        return kids

    def refine(self, marked):
        """Refine the marked active cells, plus closure for 1-irregularity."""
        marked = set(marked)
        bad = marked - self._active
        if bad:
            raise MeshError(f"refine marks must be active cells, got {sorted(bad)[:5]}")
        to_refine = set(marked)
        queue = sorted(marked)
        while queue:
            cid = queue.pop()
            c = self._cells[cid]
            for side in (WEST, EAST, SOUTH, NORTH):
                npos = self._neighbor_pos(c.level, c.i, c.j, side)
                if not self._in_domain(*npos):
                    continue
                if npos in self._pos2id:
                    continue            # same level or finer: no closure needed
                anc_id = self._existing_at_or_above(
                    self._pos2id, npos[0] - 1, npos[1] >> 1, npos[2] >> 1)
                if anc_id not in to_refine:
                    to_refine.add(anc_id)
                    queue.append(anc_id)
        cells = dict(self._cells)
        active = set(self._active)
        for cid in sorted(to_refine):
            kids = self._make_children(cells, cells[cid])
            active.discard(cid)
            active.update(kids)
        return self._rebuild(cells, active)

    # ------------------------------------------------------------------
    # coarsening

    # children of the *neighbor* adjacent to our face: e.g. across our EAST
    # face the neighbor's WEST children (local k in {0, 2}) touch us.
    _NEIGHBOR_FACE_CHILDREN = {EAST: (0, 2), WEST: (1, 3), NORTH: (0, 1), SOUTH: (2, 3)}

    def _coarsen_ok(self, pid, cells, pos2id):
        parent = cells[pid]
        lp = parent.level
        for side in (WEST, EAST, SOUTH, NORTH):
            npos = self._neighbor_pos(lp, parent.i, parent.j, side)
            if not self._in_domain(*npos):
                continue
            if npos in pos2id:
                nb = cells[pos2id[npos]]
                if nb.children is None:
                    continue            # same level neighbor
                for k in self._NEIGHBOR_FACE_CHILDREN[side]:
                    if cells[nb.children[k]].children is not None:
                        return False    # active cells two levels below parent
            else:
                anc_id = self._existing_at_or_above(
                    pos2id, npos[0] - 1, npos[1] >> 1, npos[2] >> 1)
                if cells[anc_id].level < lp - 1:
                    return False
        return True

    def coarsen(self, marked):
        """Replace complete marked sibling quadruples by their parents.

        Marks that cannot be honored (incomplete quadruples, root cells, or
        quadruples whose removal would break 1-irregularity) are dropped; the
        dropped count is logged.  When no quadruple is removed the mesh
        itself is returned, so callers can detect an unchanged mesh by
        identity.
        """
        marked = set(marked)
        bad = marked - self._active
        if bad:
            raise MeshError(f"coarsen marks must be active cells, got {sorted(bad)[:5]}")
        by_parent = {}
        for cid in marked:
            pid = self._cells[cid].parent
            if pid is not None:
                by_parent.setdefault(pid, set()).add(cid)
        candidates = sorted(pid for pid, kids in by_parent.items() if len(kids) == 4)

        cells = dict(self._cells)
        active = set(self._active)
        pos2id = dict(self._pos2id)
        applied = []
        progress = True
        while progress:
            progress = False
            for pid in candidates:
                if pid in applied or cells[pid].children is None:
                    continue
                if not self._coarsen_ok(pid, cells, pos2id):
                    continue
                parent = cells[pid]
                for kid in parent.children:
                    kc = cells.pop(kid)
                    del pos2id[(kc.level, kc.i, kc.j)]
                    active.discard(kid)
                cells[pid] = replace(parent, children=None)
                active.add(pid)
                applied.append(pid)
                progress = True
        dropped = len(marked) - 4 * len(applied)
        if dropped:
            logger.debug("coarsen: %d of %d marks dropped", dropped, len(marked))
        if not applied:
            return self
        return self._rebuild(cells, active)

    # ------------------------------------------------------------------

    def classify_edges(self, partition):
        """Return the same mesh with boundary edges classified by ``partition``."""
        missing = [f for f in BOUNDARY_FACES[self.shape] if f not in partition]
        if missing:
            raise MeshError(f"boundary partition missing faces {missing}")
        bad = {f: v for f, v in partition.items() if v not in ("D", "N")}
        if bad:
            raise MeshError(f"boundary partition values must be 'D' or 'N': {bad}")
        return Mesh(self.shape, self.h0, partition, self._cells, self._active,
                    self._nroots, self._root_n, self.bbox)

    def _rebuild(self, cells, active):
        return Mesh(self.shape, self.h0, self.partition, cells, active,
                    self._nroots, self._root_n, self.bbox)

    # ------------------------------------------------------------------
    # point location

    def _root_at(self, x, y):
        xmin, ymin, _, _ = self.bbox
        fx = (x - xmin) / self.h0
        fy = (y - ymin) / self.h0
        ri = min(int(math.floor(fx)), self._root_n - 1)
        rj = min(int(math.floor(fy)), self._root_n - 1)
        if self._in_footprint(ri, rj):
            return ri, rj
        # points exactly on a gridline bordering the excluded quadrant belong
        # to the cell on the lower/left side
        for di, dj in ((-1, 0), (0, -1), (-1, -1)):
            ci, cj = ri + di, rj + dj
            if ci < 0 or cj < 0:
                continue
            if (di == 0 or fx == ri) and (dj == 0 or fy == rj) \
                    and self._in_footprint(ci, cj):
                return ci, cj
        raise ValueError(f"point ({x}, {y}) outside the domain")

    def locate(self, x, y):
        """Id of the active cell containing (x, y); raises outside the domain."""
        xmin, ymin, xmax, ymax = self.bbox
        if not (xmin <= x <= xmax and ymin <= y <= ymax):
            raise ValueError(f"point ({x}, {y}) outside the domain")
        ri, rj = self._root_at(x, y)
        c = self._cells[self._pos2id[(0, ri, rj)]]
        while c.children is not None:
            xm = c.x0 + 0.5 * c.side
            ym = c.y0 + 0.5 * c.side
            k = (1 if x >= xm else 0) + (2 if y >= ym else 0)
            c = self._cells[c.children[k]]
        return c.id


def build_initial(shape, h0, partition=None):
    """Uniform mesh of square cells of side ``h0`` over the given domain.

    ``h0`` must be 2**-j.  Boundary edges are classified by ``partition``
    (face name -> 'D' or 'N'); the default is all-Dirichlet.
    """
    if not isinstance(shape, DomainShape):
        shape = DomainShape(shape)
    _validate_h0(h0)
    if partition is None:
        partition = all_dirichlet(shape)
    if shape is DomainShape.UNIT_SQUARE:
        bbox = (0.0, 0.0, 1.0, 1.0)
        span = 1.0
    else:
        bbox = (-1.0, -1.0, 1.0, 1.0)
        span = 2.0
    root_n = int(round(span / h0))
    xmin, ymin = bbox[0], bbox[1]
    half = root_n // 2
    cells = {}
    cid = 0
    for rj in range(root_n):
        for ri in range(root_n):
            if shape is DomainShape.L_SHAPE and ri >= half and rj >= half:
                continue
            cells[cid] = Cell(id=cid, level=0, i=ri, j=rj,
                              x0=xmin + ri * h0, y0=ymin + rj * h0, side=h0)
            cid += 1
    return Mesh(shape, h0, partition, cells, set(cells), cid, root_n, bbox)
