"""Assembly of the backward-Euler interior-penalty EG system.

The bilinear form combines cell diffusion terms with consistency, symmetry
(theta in {-1, 0, +1}) and penalty terms on interior and Dirichlet edges;
Dirichlet data enters weakly through the right-hand side.  Every local
matrix is computed on the reference cell/edge: for axis-aligned square
cells the edge length cancels against the gradient scaling, so with a
constant-identity diffusion tensor each group of congruent edges shares a
single local matrix, built once per process.  Edges are grouped by (kind,
minus side, plus-side sub-interval), cells are processed in one batch.

Reference tables are cached read-only: the cell basis per degree, and the
edge basis with its joint-dof pattern per edge type.  Each matrix is
assembled in one pass: the nonzero local entries go into one triplet set
sized up front, converted to CSR once.  Given a time step, the cell blocks
take the scaled mass, and M / dt + A_theta is one pass.  Edge blocks are
emitted on the cells' joint dofs: a plus face node at a minus face node's
point is that global dof.  There a conforming face's continuous part has
no jump, nor with K = I an average flux, and those entries are exact
zeros, never emitted.

A system is solved for its free dofs, those that are neither hanging
slaves nor the pinned constant, mapped to the full vector by their
columns of the space's constraint matrix.  The SuperLU factor takes them
in the quadtree's nested-dissection order (:meth:`EGSpace.factor_order`),
keeping each diagonal pivot of at least a tenth of its column's maximum.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .mesh import KINDS, NORMALS, SUB_FULL, EdgeKind
from .problems import at_points
from .quadrature import edge_rule
from .space import _hanging_table, face_points, memo_points, tabulate


class SolverError(RuntimeError):
    """Linear solve failed (singular matrix or residual above tolerance)."""


@dataclass(frozen=True)
class PenaltySpec:
    """Penalty strength and symmetrization choice.

    theta = -1 is the symmetric variant (SIPG), 0 the incomplete one
    (IIPG), +1 the nonsymmetric one (NIPG).
    """

    alpha: float = 1.0
    theta: int = 0

    def __post_init__(self):
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"penalty alpha must be positive and finite, "
                             f"got {self.alpha}")
        if self.theta not in (-1, 0, 1):
            raise ValueError(f"theta must be -1, 0 or 1, got {self.theta}")


# ----------------------------------------------------------------------
# edge groups

@cache
def _edge_type(etype):
    """Read-only (Vm, Gm, Gnm, Vp, Gp, Gnp, keep, fold) of an edge type
    (k, kind, minus side, plus sub).

    The first six are the values, reference gradients and normal
    derivatives of the basis at the edge rule's points, on the minus
    cell's face and on the plus cell's opposite (sub-)face, the plus
    derivatives on the minus cell's scale (halved, exactly, on a
    half-edge, where the plus cell is twice as large).  ``keep`` picks the
    joint dofs from the cells' local dofs, minus then plus, each at its
    first place, and the 0/1 ``fold`` adds every local dof onto its joint
    one: a plus face node at a minus face node's point is that dof.
    """
    k, kind, mside, psub = etype
    t = edge_rule(k).points
    out = []
    for side, sub in ((mside, SUB_FULL), (mside ^ 1, psub)):
        V, G, _ = tabulate(k, face_points(side, sub, t))
        G = G if sub == SUB_FULL else G / 2
        out += [V, G, np.einsum("a,qai->qi", NORMALS[mside], G)]
    d = np.arange((k + 1) ** 2 + 1)
    if kind is EdgeKind.INTERIOR:
        # both faces' nodes in the plus cell's square, as tabulated above
        t = np.arange(k + 1) / k
        at, nodes = (face_points(mside ^ 1, sub, t) for sub in (psub, SUB_FULL))
        fine, coarse = np.nonzero((at[:, None] == nodes).all(axis=2))
        face = _hanging_table(k)[0]
        d = np.concatenate([d, len(d) + d])
        d[len(d) // 2 + face[mside ^ 1, coarse]] = face[mside, fine]
    keep = np.flatnonzero(d == np.arange(len(d)))
    out += [keep, (d[:, None] == keep).astype(float)]
    for a in out:
        a.setflags(write=False)
    return tuple(out)


class _EdgeGroup:
    """Edges sharing minus side, plus sub-interval and classification, given
    by their ids ``sel``; ``rows`` holds each edge's cell rows, minus then
    plus (if interior); ``type`` is (k, kind, minus side, plus sub), which
    sets the shared reference tables, ``keep`` and ``fold``
    (:func:`_edge_type`).  The edge points ``P`` (E, nq, 2) are the edge
    rule on the minus faces (``Mesh.points`` of ``face_points``), read-only
    with their ``x``, ``y`` from ``memo_points``."""

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
         self.keep, self.fold) = _edge_type(self.type)

    def conormal(self, K):
        """(fm, fp, kmax): n . K grad of the basis on the reference edge from
        the minus and the plus side, (E, nq, nloc) or a shared (1, nq, nloc),
        and the max-abs diffusion entry over each edge's quadrature points."""
        if K is None:
            return self.Gnm[None], self.Gnp[None], np.ones(len(self.h))
        Kv = np.asarray(K(self.x, self.y), dtype=float)
        return (np.einsum("a,eqab,qbi->eqi", self.normal, Kv, self.Gm),
                np.einsum("a,eqab,qbi->eqi", self.normal, Kv, self.Gp),
                np.max(np.abs(Kv).reshape(len(self.h), -1), axis=1))


def edge_groups(space):
    """Edge groups ordered by (kind value, minus side, plus sub-interval),
    each keeping edge-id order."""
    if space._edge_groups is None:
        e = space.mesh.edge_arrays
        key = (e.kind * 4 + e.side) * 3 + e.sub
        order = np.argsort(key, kind="stable")
        cuts = np.flatnonzero(np.diff(key[order])) + 1
        space._edge_groups = [_EdgeGroup(space, sel)
                              for sel in np.split(order, cuts)]
    return space._edge_groups


# ----------------------------------------------------------------------
# matrices

def _to_csr(n, dofs, data):
    """Sum blocks into one n x n CSR matrix: ``dofs`` lists each block's
    global indices (E, m), ``data`` yields its (E, m, m) or shared (1, m, m)
    local matrices (test, trial), written into the triplets as they come,
    less the entries that are zero on every entity of the block."""
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


def _stiffness_data(space, K):
    t = space.tables
    if K is None:
        return np.einsum("q,qai,qaj->ij", t.w, t.G, t.G)[None]
    Kv = np.asarray(K(t.x, t.y), dtype=float)
    return np.einsum("q,cqab,qai,qbj->cij", t.w, Kv, t.G, t.G)


def _mass_data(space):
    t = space.tables
    return t.sides[:, None, None] ** 2 * np.einsum("q,qi,qj->ij", t.w, t.N, t.N)


def assemble_stiffness(space, K=None):
    """Cell diffusion block sum_T (K grad p, grad w)_T (no edge terms)."""
    return _to_csr(space.n_dofs, [space.cell_dofs], [_stiffness_data(space, K)])


def assemble_mass(space):
    """Gram matrix of the full EG basis, constants included."""
    return _to_csr(space.n_dofs, [space.cell_dofs], [_mass_data(space)])


def _edge_data(etype, fm, fp, kmax, penalty):
    """Local matrices of an interior or Dirichlet edge type from its
    conormals and K_max weights (``_EdgeGroup.conormal``).

    On Dirichlet edges jump and average collapse to the one-sided trace.
    Normal fluxes are taken on the reference edge, where the edge length
    cancels against the gradient scaling.
    """
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


@lru_cache(maxsize=64)
def _constant_K_data(etype, penalty):
    """Read-only (1, m, m) local matrix of an edge type with K = I, folded
    onto its joint dofs."""
    _, _, Gnm, _, _, Gnp, _, fold = _edge_type(etype)
    out = fold.T @ _edge_data(etype, Gnm[None], Gnp[None], np.ones(1), penalty) @ fold
    out.setflags(write=False)
    return out


def _edge_blocks(space, K, penalty):
    """Joint dofs and a generator of local matrices of the non-Neumann
    groups, folded onto those dofs."""
    groups = [g for g in edge_groups(space) if g.kind is not EdgeKind.NEUMANN]
    return ([space.cell_dofs[g.rows].reshape(len(g.h), -1)[:, g.keep]
             for g in groups],
            (_constant_K_data(g.type, penalty) if K is None else
             g.fold.T @ _edge_data(g.type, *g.conormal(K), penalty) @ g.fold
             for g in groups))


def assemble_A_theta(space, K=None, penalty=PenaltySpec(), dt=None):
    """Full spatial bilinear form: diffusion plus interior-penalty terms;
    given ``dt``, the backward-Euler system M / dt + A_theta."""
    dofs, data = _edge_blocks(space, K, penalty)
    cells = _stiffness_data(space, K)
    cells = cells if dt is None else cells + _mass_data(space) / dt
    return _to_csr(space.n_dofs, [space.cell_dofs] + dofs,
                   itertools.chain([cells], data))


# ----------------------------------------------------------------------
# right-hand side

def _scatter(n, parts):
    """Length-n sums of the (indices, values) ``parts``, added one value
    at a time in the order given, as successive ``np.add.at`` calls do."""
    if not parts:
        return np.zeros(n)
    index, values = zip(*parts)
    return np.bincount(np.concatenate([a.ravel() for a in index]),
                       np.concatenate([a.ravel() for a in values]),
                       minlength=n)


def assemble_rhs(space, problem, t_n, penalty=PenaltySpec(), prev=None, dt=None):
    """Load vector: source, boundary data and optional previous-step mass term.

    ``prev`` is a (ncells, nq) array of previous-solution values at the
    cell quadrature points; with ``prev`` given, ``dt`` must be the time
    step.  The data at ``t_n`` is taken at the space's memoised points.
    """
    tb = space.tables
    F = at_points(problem.f, tb.x, tb.y, t_n)
    if prev is not None:
        if dt is None:
            raise ValueError("dt is required when a previous state is supplied")
        prev = np.asarray(prev) / dt
        F = np.add(prev, F, out=prev)
    # sum_q w_q F_cq N_qi with the points as the leading axis: einsum adds
    # the products in point order, as a sequential sum does, in vector
    # loops over the cells.  A matmul would sum in another order and move
    # the rounding of the load, and so of the solution.
    load = np.multiply(F.T, tb.w[:, None], order="C")
    cells = np.einsum("qc,qi->ic", load, tb.N).T * tb.sides[:, None] ** 2
    parts = [(space.cell_dofs, cells)]

    th, al = penalty.theta, penalty.alpha
    for g in edge_groups(space):
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


# ----------------------------------------------------------------------
# constrained solve

class CondensedSolver:
    """LU factorization of a system restricted to its free dofs.

    The global constants lie in both the continuous part and the cellwise
    constants, so the raw matrices are rank-deficient by one; the first
    cell's constant is pinned to zero, which picks one coefficient vector
    per solution and leaves the computed function unchanged.  The unknowns
    are the free dofs, neither hanging slaves nor that pin, in the space's
    nested-dissection order: column ``i`` of ``C`` is dof ``order[i]``'s
    column of the constraint matrix, so ``matrix_c = C.T @ matrix @ C``
    and a solve rebuilds every slave from its masters (and the pin as 0).

    SuperLU keeps that column order (``permc_spec="NATURAL"``) and every
    diagonal pivot of at least a tenth of its column's largest entry
    (``diag_pivot_thresh=0.1``): element growth stays bounded, and the
    order's fill bound holds except where a row is still exchanged, in a
    few SIPG columns (partial pivoting exchanged rows in a sixth of the Q2
    benchmark's columns and grew L + U by 58%).  A solve refines
    iteratively and raises :class:`SolverError` unless the residual comes
    within ``residual_tol`` of the load (a NaN or infinite residual never
    does).  ``key`` is stored as given; callers that keep the factor
    across solves use it to record what the matrix was assembled from.
    """

    #: relative residual a solve must reach after iterative refinement
    residual_tol = 1e-11

    def __init__(self, matrix, space, key=None):
        self.space = space
        self.key = key
        order = space.factor_order()
        fixed = np.zeros(space.n_dofs, dtype=bool)
        fixed[space.slaves] = fixed[space.n_cg] = True
        self.order = order[~fixed[order]]
        self.C = space.constraint_matrix[:, self.order]
        self.matrix_c = (self.C.T @ matrix @ self.C).tocsc()
        try:
            self.lu = splu(self.matrix_c, permc_spec="NATURAL",
                           diag_pivot_thresh=0.1)
        except RuntimeError as exc:
            raise SolverError(
                f"sparse LU failed on a {self.matrix_c.shape[0]} dof system: "
                f"{exc}") from exc

    def solve(self, rhs):
        bc = self.C.T @ rhs
        scale = np.linalg.norm(bc)
        bound = self.residual_tol * max(scale, 1e-300)
        x = self.lu.solve(bc)
        # up to three iterative-refinement sweeps keep the residual at the
        # rounding level even for stiff mass-dominated systems; a NaN
        # residual compares false, so it can never pass the bound
        for sweep in range(4):
            r = bc - self.matrix_c @ x
            res = np.linalg.norm(r)
            if res <= bound:
                return self.C @ x
            if sweep == 3 or not math.isfinite(res):
                break
            x = x + self.lu.solve(r)
        raise SolverError(
            f"solver residual {res:.3e} misses tolerance "
            f"{self.residual_tol:.1e} (|rhs| = {scale:.3e})")


def galerkin_residual(matrix, rhs, field):
    """Max-abs residual of the solved system over the constrained basis.

    For each unconstrained dof the residual is tested against the basis
    function of the constrained space (the raw basis function plus the
    weighted hanging-node tails attached to it).
    """
    r = rhs - matrix @ field.coeffs
    C = field.space.constraint_matrix
    return float(np.max(np.abs(C.T @ r)))
