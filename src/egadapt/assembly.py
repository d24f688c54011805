"""Assembly of the backward-Euler interior-penalty EG system.

The bilinear form combines cell diffusion terms with consistency, symmetry
(theta in {-1, 0, +1}) and penalty terms on interior and Dirichlet edges;
Dirichlet data enters weakly through the right-hand side.  Every local
matrix is computed on the reference cell/edge: for axis-aligned square
cells the edge length cancels against the gradient scaling, so with a
constant-identity diffusion tensor all edges of one type (kind, minus
side, plus-side sub-interval) share one local matrix, built once per
process.  The cells are one batch, and the edges one batch per kind, in
runs of one type (:class:`_EdgeBatch`), built once per mesh: each run
takes the calls one group of its type would, so every float and its
order stay those of one pass per type.

Each matrix is assembled in one pass: the nonzero local entries go into
one triplet set sized up front, converted to CSR once; given a time step,
M / dt + A_theta is that one pass.  Edge blocks sit on the cells' joint
dofs: a plus face node at a minus face node's point is that global dof,
where a conforming face's continuous part has no jump, nor with K = I an
average flux, and those entries are exact zeros, never emitted.

A system is solved for its free dofs, those that are neither hanging
slaves nor the pinned constant, mapped to the full vector by their
columns of the space's constraint matrix.  The SuperLU factor takes them
in the quadtree's nested-dissection order (:meth:`EGSpace.factor_order`),
keeping each diagonal pivot of at least a tenth of its column's maximum.
"""

from __future__ import annotations

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
# edge batches

@cache
def _edge_type(etype):
    """Read-only (Vm, Gm, Gnm, Vp, Gp, Gnp, fold, X) of an edge type
    (k, kind, minus side, plus sub).

    The first six are the values, reference gradients and normal
    derivatives of the basis at the edge rule's points, on the minus
    cell's face and on the plus cell's opposite (sub-)face, the plus
    derivatives on the minus cell's scale (halved, exactly, on a
    half-edge, where the plus cell is twice as large).  The 0/1 ``fold``
    (m, m) over the cells' local dofs, minus then plus, adds every local
    dof onto its joint one, the first local dof at its point: a plus face
    node at a minus face node's point is that dof.  ``X`` holds the rule's
    points on the minus face.
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
    out += [(d[:, None] == np.arange(len(d))).astype(float),
            face_points(mside, SUB_FULL, edge_rule(k).points)]
    for a in out:
        a.setflags(write=False)
    return tuple(out)


class _EdgeBatch:
    """The edges of one kind, by their ids ``sel`` in stable (minus side,
    plus sub) order, in runs of one type (k, kind, minus side, plus sub):
    ``types`` lists the runs' types, ``start`` their first edges and
    ``runs`` their (first, end) edges, ``tid`` is each edge's run and
    ``alone`` the edges that are runs of their own; ``Vm``, ``Gnm``,
    ``Vp``, ``Gnp`` stack the types' tables.  ``rows`` holds the cell rows,
    minus then plus, and the points ``P`` (E, nq, 2) of the edge rule on
    the minus faces are read-only, their ``x``, ``y`` from ``memo_points``."""

    def __init__(self, space, sel):
        e = space.mesh.edge_arrays
        side, sub = e.side[sel], e.sub[sel]
        self.kind = KINDS[e.kind[sel[0]]]
        interior = self.kind is EdgeKind.INTERIOR
        new = np.append(True, (side[1:] != side[:-1]) | (sub[1:] != sub[:-1]))
        self.start = np.flatnonzero(new)
        self.runs = list(zip(self.start.tolist(),
                             self.start[1:].tolist() + [len(sel)]))
        self.tid = np.cumsum(new) - 1
        self.alone = [a for a, b in self.runs if b - a == 1]
        self.types = [(space.k, self.kind, s, u) for s, u in
                      zip(side[self.start].tolist(), sub[self.start].tolist())]
        self.Vm, self.Gnm, self.Vp, self.Gnp, X = map(self.stack, (0, 2, 3, 5, 7))
        self.w = edge_rule(space.k).weights
        self.rows = np.column_stack([e.minus[sel], e.plus[sel]][:1 + interior])
        self.minus_rows = self.rows[:, 0]
        self.plus_rows = self.rows[:, 1] if interior else None
        self.h = space.mesh.side[self.minus_rows]
        self.P = space.mesh.points(np.take(X, self.tid, axis=0), self.minus_rows)
        self.x, self.y = memo_points(self.P)

    def stack(self, n):
        """The types' n-th tables of :func:`_edge_type`, stacked."""
        return np.array([_edge_type(t)[n] for t in self.types])

    def conormal(self, K):
        """(fm, fp, kmax): n . K grad of the basis on the reference edge from
        the minus and the plus side, per type with K = None (``Gnm``,
        ``Gnp``), else per edge, and the max-abs entry of K over each
        edge's quadrature points."""
        if K is None:
            return self.Gnm, self.Gnp, np.ones(len(self.h))
        Kv = np.asarray(K(self.x, self.y), dtype=float)
        n = np.asarray(NORMALS)[[t[2] for t in self.types]][self.tid]
        return (*(np.einsum("ea,eqab,eqbi->eqi", n, Kv, self.stack(s)[self.tid])
                  for s in (1, 4)),
                np.max(np.abs(Kv).reshape(len(self.h), -1), axis=1))

    def per_run(self, fn, *args):
        """``fn(t, *(x[first:end] for x in args))`` for each run of type t,
        concatenated: one call per run, as for one group of one type."""
        return np.concatenate([fn(t, *(x[a:b] for x in args))
                               for t, (a, b) in enumerate(self.runs)])

    def times(self, table, C):
        """(E, nq): each edge's row of ``C`` times its (nq, n) table,
        transposed, with the tables per type (one product per run) or, if
        there are more, per edge; for a run of one edge as one product of
        a single row."""
        if len(table) == len(self.types):
            return self.per_run(lambda t, C: C @ table[t].T, C)
        out = np.einsum("eqi,ei->eq", table, C)
        for e in self.alone:
            out[e] = C[e] @ table[e].T
        return out

    def integrate(self, values):
        """(E,): the rule's weighted sums of ``values`` (E, nq), for a run of
        one edge as one product of a single row."""
        out = values @ self.w
        for e in self.alone:
            out[e] = values[e] @ self.w
        return out


def edge_groups(space):
    """One :class:`_EdgeBatch` per edge kind present, by kind value, its
    edges in stable (minus side, plus sub) order."""
    if space._edge_groups is None:
        e = space.mesh.edge_arrays
        order = np.argsort((e.kind * 4 + e.side) * 3 + e.sub, kind="stable")
        cuts = np.flatnonzero(np.diff(e.kind[order])) + 1
        space._edge_groups = [_EdgeBatch(space, sel)
                              for sel in np.split(order, cuts)]
    return space._edge_groups


# ----------------------------------------------------------------------
# matrices

def _to_csr(n, blocks):
    """Sum blocks into one n x n CSR matrix.  A block (dofs, loc, runs)
    gives its entities' global indices (E, m), their local matrices (test,
    trial), one per type or one per entity, and the (first, end) entities
    of its runs of one type.  Entity by entity, the triplets take its
    entries, row-major, less those that are zero on every entity of its
    type; they are written into arrays sized up front."""
    plans = []
    for dofs, loc, runs in blocks:
        dofs, loc = dofs.astype(np.int32), loc.reshape(len(loc), -1)
        own = len(loc) > len(runs)
        nz = np.logical_or.reduceat(loc != 0, [a for a, _ in runs]) if own \
            else loc != 0
        plans += [(dofs[a:b], loc[a:b] if own else loc[t], np.flatnonzero(nz[t]))
                  for t, (a, b) in enumerate(runs)]
    size = sum(len(dofs) * len(f) for dofs, _, f in plans)
    rows, cols = np.empty((2, size), dtype=np.int32)
    vals = np.empty(size)
    pos = 0
    for dofs, loc, f in plans:
        end, shape = pos + len(dofs) * len(f), (len(dofs), len(f))
        for out, local in zip((rows, cols), np.divmod(f, dofs.shape[1])):
            np.take(dofs, local, axis=1, out=out[pos:end].reshape(shape))
        vals[pos:end].reshape(shape)[...] = loc[..., f]
        pos = end
    return sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))


def _stiffness_data(space, K):
    t = space.tables
    if K is None:
        return np.einsum("q,qai,qaj->ij", t.w, t.G, t.G)[None]
    Kv = np.asarray(K(t.x, t.y), dtype=float)
    return np.einsum("q,cqab,qai,qbj->cij", t.w, Kv, t.G, t.G)


def _mass_data(space):
    t = space.tables
    return t.sides[:, None, None] ** 2 * np.einsum("q,qi,qj->ij", t.w, t.N, t.N)


def _cells(space, data):
    return space.cell_dofs, data, [(0, len(space.cell_dofs))]


def assemble_stiffness(space, K=None):
    """Cell diffusion block sum_T (K grad p, grad w)_T (no edge terms)."""
    return _to_csr(space.n_dofs, [_cells(space, _stiffness_data(space, K))])


def assemble_mass(space):
    """Gram matrix of the full EG basis, constants included."""
    return _to_csr(space.n_dofs, [_cells(space, _mass_data(space))])


def _edge_data(kind, w, Vm, Vp, fm, fp, kmax, penalty):
    """Local matrices of interior or Dirichlet edges from the basis values
    on both sides, (nq, nloc) or per edge, their conormals and K_max
    weights (``_EdgeBatch.conormal``), (E, m, m) or (1, m, m) if shared.

    On Dirichlet edges jump and average collapse to the one-sided trace.
    Normal fluxes are taken on the reference edge, where the edge length
    cancels against the gradient scaling.
    """
    th, al = penalty.theta, penalty.alpha
    interior = kind is EdgeKind.INTERIOR
    J = np.concatenate([Vm, -Vp], axis=-1) if interior else Vm
    avg = 0.5 * np.concatenate([fm, fp], axis=-1) if interior else fm
    return (-np.einsum("q,...qi,...qj->...ij", w, J, avg)
            + th * np.einsum("q,...qi,...qj->...ij", w, avg, J)
            + al * kmax[:, None, None]
            * np.einsum("q,...qi,...qj->...ij", w, J, J))


@lru_cache(maxsize=64)
def _constant_K_data(etype, penalty):
    """Read-only (1, m, m) local matrix of an edge type with K = I, folded
    onto its joint dofs."""
    Vm, _, Gnm, Vp, _, Gnp, fold, _ = _edge_type(etype)
    out = fold.T @ _edge_data(etype[1], edge_rule(etype[0]).weights, Vm, Vp,
                              Gnm[None], Gnp[None], np.ones(1), penalty) @ fold
    out.setflags(write=False)
    return out


def _edge_blocks(space, K, penalty):
    """Blocks of the non-Neumann batches: both cells' local dofs, the local
    matrices folded onto the joint dofs (one per type with K = None) and
    the runs of one type."""
    for b in edge_groups(space):
        if b.kind is EdgeKind.NEUMANN:
            continue
        if K is None:
            loc = np.concatenate([_constant_K_data(t, penalty) for t in b.types])
        else:
            fold = b.stack(6)[b.tid]
            loc = _edge_data(b.kind, b.w, b.Vm[b.tid], b.Vp[b.tid],
                             *b.conormal(K), penalty)
            loc = np.swapaxes(fold, 1, 2) @ loc @ fold
        yield (np.take(space.cell_dofs, b.rows, axis=0).reshape(len(b.h), -1),
               loc, b.runs)


def assemble_A_theta(space, K=None, penalty=PenaltySpec(), dt=None):
    """Full spatial bilinear form: diffusion plus interior-penalty terms;
    given ``dt``, the backward-Euler system M / dt + A_theta."""
    cells = _stiffness_data(space, K)
    cells = cells if dt is None else cells + _mass_data(space) / dt
    return _to_csr(space.n_dofs, [_cells(space, cells),
                                  *_edge_blocks(space, K, penalty)])


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
    for b in edge_groups(space):
        if b.kind is EdgeKind.INTERIOR:
            continue
        if b.kind is EdgeKind.NEUMANN:
            gv = at_points(problem.g_N, b.x, b.y, t_n)
            bloc = b.per_run(lambda t, h, gv: np.einsum(
                "e,q,eq,qi->ei", h, b.w, gv, b.Vm[t]), b.h, gv)
        else:
            gv = at_points(problem.g_D, b.x, b.y, t_n)
            fm, _, kmax = b.conormal(problem.K)
            if problem.K is None:
                flux = b.per_run(lambda t, gv: np.einsum(
                    "q,eq,eqi->ei", b.w, gv, fm[t:t + 1]), gv)
            else:
                flux = np.einsum("q,eq,eqi->ei", b.w, gv, fm)
            pen = b.per_run(lambda t, a, gv: np.einsum(
                "e,q,eq,qi->ei", a, b.w, gv, b.Vm[t]), al * kmax, gv)
            bloc = th * flux + pen
        parts.append((np.take(space.cell_dofs, b.minus_rows, axis=0), bloc))
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
