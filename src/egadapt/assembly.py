"""Assembly of the backward-Euler interior-penalty EG system.

The bilinear form combines cell diffusion terms with consistency, symmetry
(theta in {-1, 0, +1}) and penalty terms on interior and Dirichlet edges;
Dirichlet data enters weakly through the right-hand side.  Every local
matrix is computed on the reference cell/edge: for axis-aligned square
cells the edge length cancels against the gradient scaling, so with a
constant-identity diffusion tensor each group of congruent edges shares a
single local matrix.  Edges are grouped by (kind, minus side, plus-side
sub-interval), cells are processed in one batch.

Reference cell and edge tables are cached, read-only, per degree, side
and sub-interval.  Each matrix is assembled in one pass: the nonzero local
entries go into one triplet set sized up front, converted to CSR once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .mesh import EdgeKind, Mesh, SUB_FULL
from .quadrature import edge_rule
from .space import DiscreteField, face_points, tabulate, _opposite


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

@lru_cache(maxsize=32)
def _edge_tables(k, mside, psub):
    """Read-only (Vm, Gm, Gnm, Vp, Gp, Gnp) at the edge rule's points:
    values, reference gradients and normal derivatives of the basis on the
    minus cell's face and on the plus cell's opposite (sub-)face."""
    t = edge_rule(k).points
    out = []
    for side, sub in ((mside, SUB_FULL), (_opposite(mside), psub)):
        V, G, _ = tabulate(k, face_points(side, sub, t))
        out += [V, G, np.einsum("a,qai->qi", Mesh._NORMALS[mside], G)]
    for a in out:
        a.setflags(write=False)
    return tuple(out)


class _EdgeGroup:
    """Edges sharing minus side, plus sub-interval and classification;
    ``rows`` holds each edge's cell rows, minus then plus (if interior)."""

    def __init__(self, space, kind, mside, psub, edges):
        rule = edge_rule(space.k)
        self.kind = kind
        self.w = rule.weights
        self.h = np.array([e.length for e in edges])
        self.rows = np.array([[space.cell_row(c) for c in (e.minus_cell, e.plus_cell)
                               if c is not None] for e in edges])
        self.minus_rows = self.rows[:, 0]
        self.plus_rows = self.rows[:, 1] if kind is EdgeKind.INTERIOR else None
        self.fac = 1.0 if psub == SUB_FULL else 2.0
        self.normal = np.asarray(edges[0].normal)
        starts = np.array([(e.start.x, e.start.y) for e in edges])
        d = np.asarray(edges[0].direction)
        self.P = starts[:, None, :] + self.h[:, None, None] * np.outer(rule.points, d)
        (self.Vm, self.Gm, self.Gnm,
         self.Vp, self.Gp, self.Gnp) = _edge_tables(space.k, mside, psub)

    def conormal(self, K):
        """(fm, fp, kmax): n . K grad of the basis on the reference edge from
        the minus and the plus side, (E, nq, nloc) or a shared (1, nq, nloc),
        and the max-abs diffusion entry over each edge's quadrature points."""
        if K is None:
            return self.Gnm[None], self.Gnp[None], np.ones(len(self.h))
        Kv = np.asarray(K(self.P[..., 0], self.P[..., 1]), dtype=float)
        return (np.einsum("a,eqab,qbi->eqi", self.normal, Kv, self.Gm),
                np.einsum("a,eqab,qbi->eqi", self.normal, Kv, self.Gp),
                np.max(np.abs(Kv).reshape(len(self.h), -1), axis=1))


def edge_groups(space):
    if space._edge_groups is None:
        buckets = {}
        for e in space.mesh.edges:
            buckets.setdefault((e.kind, e.minus_side, e.plus_sub), []).append(e)
        space._edge_groups = [
            _EdgeGroup(space, kind, mside, psub, edges)
            for (kind, mside, psub), edges in sorted(
                buckets.items(), key=lambda kv: (kv[0][0].value, kv[0][1], kv[0][2]))
        ]
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
    Kv = np.asarray(K(t.X[..., 0], t.X[..., 1]), dtype=float)
    return np.einsum("q,cqab,qai,qbj->cij", t.w, Kv, t.G, t.G)


def assemble_stiffness(space, K=None):
    """Cell diffusion block sum_T (K grad p, grad w)_T (no edge terms)."""
    return _to_csr(space.n_dofs, [space.cell_dofs], [_stiffness_data(space, K)])


def assemble_mass(space):
    """Gram matrix of the full EG basis, constants included."""
    t = space.tables
    ref = np.einsum("q,qi,qj->ij", t.w, t.N, t.N)
    return _to_csr(space.n_dofs, [space.cell_dofs],
                   [t.sides[:, None, None] ** 2 * ref])


def _edge_data(group, K, penalty):
    """Local matrices of an interior or Dirichlet edge group.

    On Dirichlet edges jump and average collapse to the one-sided trace.
    Normal fluxes are taken on the reference edge, where the edge length
    cancels against the gradient scaling.
    """
    w, th, al = group.w, penalty.theta, penalty.alpha
    interior = group.kind is EdgeKind.INTERIOR
    J = np.hstack([group.Vm, -group.Vp]) if interior else group.Vm
    fm, fp, kmax = group.conormal(K)
    avg = 0.5 * np.concatenate([fm, fp / group.fac], axis=2) if interior else fm
    return (-np.einsum("q,qi,eqj->eij", w, J, avg)
            + th * np.einsum("q,eqi,qj->eij", w, avg, J)
            + al * kmax[:, None, None]
            * np.einsum("q,qi,qj->ij", w, J, J))


def _edge_blocks(space, K, penalty):
    """Dofs and a generator of local matrices of the non-Neumann groups."""
    groups = [g for g in edge_groups(space) if g.kind is not EdgeKind.NEUMANN]
    return ([space.cell_dofs[g.rows].reshape(len(g.h), -1) for g in groups],
            (_edge_data(g, K, penalty) for g in groups))


def assemble_A_theta(space, K=None, penalty=PenaltySpec()):
    """Full spatial bilinear form: diffusion plus interior-penalty terms."""
    dofs, data = _edge_blocks(space, K, penalty)
    return _to_csr(space.n_dofs, [space.cell_dofs] + dofs,
                   itertools.chain([_stiffness_data(space, K)], data))


# ----------------------------------------------------------------------
# right-hand side

def assemble_rhs(space, problem, t_n, penalty=PenaltySpec(), prev=None, dt=None):
    """Load vector: source, boundary data and optional previous-step mass term.

    ``prev`` is a (ncells, nq) array of previous-solution values at the
    cell quadrature points; with ``prev`` given, ``dt`` must be the time
    step.
    """
    tb = space.tables
    b = np.zeros(space.n_dofs)
    F = np.asarray(problem.f(tb.X[..., 0], tb.X[..., 1], t_n), dtype=float)
    F = np.broadcast_to(F, tb.X.shape[:2]).copy()
    if prev is not None:
        if dt is None:
            raise ValueError("dt is required when a previous state is supplied")
        F = F + np.asarray(prev) / dt
    bloc = np.einsum("q,cq,qi->ci", tb.w, F, tb.N) * tb.sides[:, None] ** 2
    np.add.at(b, space.cell_dofs, bloc)

    th, al = penalty.theta, penalty.alpha
    for g in edge_groups(space):
        if g.kind is EdgeKind.INTERIOR:
            continue
        if g.kind is EdgeKind.NEUMANN:
            gn = np.broadcast_to(
                np.asarray(problem.g_N(g.P[..., 0], g.P[..., 1], t_n), float),
                g.P.shape[:2])
            bloc = np.einsum("e,q,eq,qi->ei", g.h, g.w, gn, g.Vm)
        else:
            gd = np.broadcast_to(
                np.asarray(problem.g_D(g.P[..., 0], g.P[..., 1], t_n), float),
                g.P.shape[:2])
            fm, _, kmax = g.conormal(problem.K)
            if problem.K is None:
                flux = np.einsum("q,eq,qi->ei", g.w, gd, g.Gnm)
            else:
                flux = np.einsum("q,eq,eqi->ei", g.w, gd, fm)
            pen = np.einsum("e,q,eq,qi->ei", al * kmax, g.w, gd, g.Vm)
            bloc = th * flux + pen
        np.add.at(b, space.cell_dofs[g.minus_rows], bloc)
    return b


# ----------------------------------------------------------------------
# constrained solve

class CondensedSolver:
    """LU factorization of a system with hanging constraints condensed.

    Slave rows/columns are folded into their masters through the space's
    constraint matrix; slave diagonal entries are set to one so the
    condensed matrix stays regular, and slave values are reconstructed
    from the masters after the solve.

    The continuous part and the cellwise constants overlap in the global
    constants (the sum defining the space is not direct), which makes the
    raw matrices rank-deficient by one.  The solver therefore always fixes
    the first cell's constant to zero, selecting the unique coefficient
    representative of each solution; the discrete space, and therefore the
    computed function, is unchanged.  That constant is never a hanging
    slave, so the condensation map always exists.

    ``key`` is stored as given; callers that keep the factor across
    solves use it to record what the matrix was assembled from.
    """

    #: relative residual a solve must reach after iterative refinement
    residual_tol = 1e-11

    def __init__(self, matrix, space, key=None):
        self.space = space
        self.key = key
        pin = space.n_cg
        self.slaves = sorted(set(space.constraints) | {pin})
        # the space's constraint map with the pinned row zeroed
        keep = np.ones(space.n_dofs)
        keep[pin] = 0.0
        C = (sparse.diags(keep) @ space.constraint_matrix).tocsr()
        diag = np.zeros(space.n_dofs)
        diag[self.slaves] = 1.0
        self.matrix_c = (C.T @ matrix @ C + sparse.diags(diag)).tocsc()
        self.C = C
        try:
            self.lu = splu(self.matrix_c)
        except RuntimeError as exc:
            raise SolverError(
                f"sparse LU failed on a {self.matrix_c.shape[0]} dof system: "
                f"{exc}") from exc

    def solve(self, rhs):
        bc = self.C.T @ rhs
        x = self.lu.solve(bc)
        scale = np.linalg.norm(bc)
        # a couple of iterative-refinement sweeps keep the residual at the
        # rounding level even for stiff mass-dominated systems
        for _ in range(3):
            r = bc - self.matrix_c @ x
            res = np.linalg.norm(r)
            if res <= self.residual_tol * max(scale, 1e-300):
                break
            x = x + self.lu.solve(r)
        else:
            res = np.linalg.norm(bc - self.matrix_c @ x)
            if res > self.residual_tol * max(scale, 1e-300):
                raise SolverError(
                    f"solver residual {res:.3e} exceeds tolerance "
                    f"{self.residual_tol:.1e} (|rhs| = {scale:.3e})")
        return self.C @ x


def apply_constraints_and_solve(matrix, rhs, space):
    """Condense hanging constraints, solve by sparse LU, rebuild slaves."""
    return DiscreteField(space, CondensedSolver(matrix, space).solve(rhs))


def galerkin_residual(matrix, rhs, field):
    """Max-abs residual of the solved system over the constrained basis.

    For each unconstrained dof the residual is tested against the basis
    function of the constrained space (the raw basis function plus the
    weighted hanging-node tails attached to it).
    """
    r = rhs - matrix @ field.coeffs
    C = field.space.constraint_matrix
    return float(np.max(np.abs(C.T @ r)))
