"""Assembly of the backward-Euler interior-penalty EG system.

The bilinear form combines cell diffusion terms with consistency, symmetry
(theta in {-1, 0, +1}) and penalty terms on interior and Dirichlet edges;
Dirichlet data enters weakly through the right-hand side.  Every local
matrix is computed on the reference cell/edge: for axis-aligned square
cells the edge length cancels against the gradient scaling, so with a
constant-identity diffusion tensor each group of congruent edges shares a
single local matrix.  Edges are grouped by (kind, minus side, plus-side
sub-interval), cells are processed in one batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .mesh import EdgeKind, SUB_FULL
from .quadrature import edge_rule
from .space import DiscreteField, TransferredField, face_points, tabulate, _opposite


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
        if self.alpha <= 0:
            raise ValueError(f"penalty alpha must be positive, got {self.alpha}")
        if self.theta not in (-1, 0, 1):
            raise ValueError(f"theta must be -1, 0 or 1, got {self.theta}")


@dataclass
class SparseSystem:
    """One assembled linear system."""

    matrix: sparse.csr_matrix
    rhs: np.ndarray

    @property
    def dimension(self):
        return self.matrix.shape[0]


# ----------------------------------------------------------------------
# edge groups

class _EdgeGroup:
    """Edges sharing minus side, plus sub-interval and classification."""

    def __init__(self, space, kind, mside, psub, edges):
        rule = edge_rule(space.k)
        self.kind = kind
        self.mside = mside
        self.psub = psub
        self.t = rule.points
        self.w = rule.weights
        self.edge_ids = np.array([e.id for e in edges])
        self.h = np.array([e.length for e in edges])
        self.minus_rows = np.array([space.cell_row(e.minus_cell) for e in edges])
        self.normal = np.asarray(edges[0].normal)
        starts = np.array([(e.start.x, e.start.y) for e in edges])
        d = np.asarray(edges[0].direction)
        self.P = starts[:, None, :] + self.h[:, None, None] * np.outer(self.t, d)
        self.Vm, Gm, _ = tabulate(space.k, face_points(mside, SUB_FULL, self.t))
        self.Gnm = np.einsum("a,qai->qi", self.normal, Gm)
        self.Gm = Gm
        if kind is EdgeKind.INTERIOR:
            self.plus_rows = np.array([space.cell_row(e.plus_cell) for e in edges])
            pside = _opposite(mside)
            self.Vp, Gp, _ = tabulate(space.k, face_points(pside, psub, self.t))
            self.Gnp = np.einsum("a,qai->qi", self.normal, Gp)
            self.Gp = Gp
            self.fac = 1.0 if psub == SUB_FULL else 2.0
        else:
            self.plus_rows = None

    def kmax(self, K):
        """Max-abs diffusion entry over the edge quadrature points, per edge."""
        if K is None:
            return np.ones(len(self.h))
        Kv = np.asarray(K(self.P[..., 0], self.P[..., 1]), dtype=float)
        return np.max(np.abs(Kv).reshape(len(self.h), -1), axis=1)


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

def _scatter(space, rows_cells, data):
    """Accumulate per-entity local matrices into a global CSR matrix."""
    n = space.n_dofs
    rows = np.repeat(rows_cells, rows_cells.shape[1], axis=1).ravel()
    cols = np.tile(rows_cells, (1, rows_cells.shape[1])).ravel()
    mat = sparse.coo_matrix((data.ravel(), (rows, cols)), shape=(n, n))
    return mat.tocsr()


def assemble_stiffness(space, K=None):
    """Cell diffusion block sum_T (K grad p, grad w)_T (no edge terms)."""
    t = space.tables
    if K is None:
        ref = np.einsum("q,qai,qaj->ij", t.w, t.G, t.G)
        data = np.broadcast_to(ref, (len(t.sides),) + ref.shape)
    else:
        Kv = np.asarray(K(t.X[..., 0], t.X[..., 1]), dtype=float)
        data = np.einsum("q,cqab,qai,qbj->cij", t.w, Kv, t.G, t.G)
    return _scatter(space, space.cell_dofs, np.ascontiguousarray(data))


def assemble_mass(space):
    """Gram matrix of the full EG basis, constants included."""
    t = space.tables
    ref = np.einsum("q,qi,qj->ij", t.w, t.N, t.N)
    data = t.sides[:, None, None] ** 2 * ref
    return _scatter(space, space.cell_dofs, data)


def _interior_edge_data(group, K, penalty):
    w, th, al = group.w, penalty.theta, penalty.alpha
    J = np.hstack([group.Vm, -group.Vp])
    if K is None:
        AGb = 0.5 * np.hstack([group.Gnm, group.Gnp / group.fac])
        Lflux = -(J * w[:, None]).T @ AGb + th * (AGb * w[:, None]).T @ J
        Lpen = (J * w[:, None]).T @ J
        data = Lflux[None] + al * group.kmax(K)[:, None, None] * Lpen
    else:
        Kv = np.asarray(K(group.P[..., 0], group.P[..., 1]), dtype=float)
        n = group.normal
        fm = np.einsum("a,eqab,qbi->eqi", n, Kv, group.Gm) / group.h[:, None, None]
        fp = (np.einsum("a,eqab,qbi->eqi", n, Kv, group.Gp)
              / (group.fac * group.h[:, None, None]))
        AG = 0.5 * np.concatenate([fm, fp], axis=2)
        hw = group.h[:, None] * w
        data = (-np.einsum("eq,qi,eqj->eij", hw, J, AG)
                + th * np.einsum("eq,eqi,qj->eij", hw, AG, J)
                + al * group.kmax(K)[:, None, None]
                * np.einsum("q,qi,qj->ij", w, J, J))
    return data


def _edge_group_matrix(space, group, K, penalty):
    if group.kind is EdgeKind.NEUMANN:
        return None
    if group.kind is EdgeKind.INTERIOR:
        data = _interior_edge_data(group, K, penalty)
        dm = space.cell_dofs[group.minus_rows]
        dp = space.cell_dofs[group.plus_rows]
        dofs = np.hstack([dm, dp])
        return dofs, data
    # Dirichlet: jump and average collapse to the one-sided trace
    w, th, al = group.w, penalty.theta, penalty.alpha
    V = group.Vm
    if K is None:
        Lflux = -(V * w[:, None]).T @ group.Gnm + th * (group.Gnm * w[:, None]).T @ V
        Lpen = (V * w[:, None]).T @ V
        data = Lflux[None] + al * group.kmax(K)[:, None, None] * Lpen
    else:
        Kv = np.asarray(K(group.P[..., 0], group.P[..., 1]), dtype=float)
        f = (np.einsum("a,eqab,qbi->eqi", group.normal, Kv, group.Gm)
             / group.h[:, None, None])
        hw = group.h[:, None] * w
        data = (-np.einsum("eq,qi,eqj->eij", hw, V, f)
                + th * np.einsum("eq,eqi,qj->eij", hw, f, V)
                + al * group.kmax(K)[:, None, None]
                * np.einsum("q,qi,qj->ij", w, V, V))
    return space.cell_dofs[group.minus_rows], data


def assemble_edge_terms(space, K, penalty):
    """Interior and Dirichlet edge contributions to the bilinear form."""
    n = space.n_dofs
    total = sparse.csr_matrix((n, n))
    for g in edge_groups(space):
        part = _edge_group_matrix(space, g, K, penalty)
        if part is None:
            continue
        dofs, data = part
        total = total + _scatter(space, dofs, np.ascontiguousarray(data))
    return total


def assemble_A_theta(space, K=None, penalty=PenaltySpec()):
    """Full spatial bilinear form: diffusion plus interior-penalty terms."""
    return assemble_stiffness(space, K) + assemble_edge_terms(space, K, penalty)


def edge_matrix(space, edge, K=None, penalty=PenaltySpec()):
    """Local matrix of a single edge's contribution (for inspection/tests).

    Returns (dofs, matrix) with dofs the concatenated minus(+plus) cell
    dofs and matrix indexed (test, trial).
    """
    group = _EdgeGroup(space, edge.kind, edge.minus_side, edge.plus_sub, [edge])
    part = _edge_group_matrix(space, group, K, penalty)
    if part is None:
        nloc = space.cell_dofs.shape[1]
        return (space.cell_dofs[space.cell_row(edge.minus_cell)],
                np.zeros((nloc, nloc)))
    dofs, data = part
    return dofs[0], data[0]


# ----------------------------------------------------------------------
# right-hand side

def assemble_rhs(space, problem, t_n, penalty=PenaltySpec(), prev=None, dt=None):
    """Load vector: source, boundary data and optional previous-step mass term.

    ``prev`` may be a (ncells, nq) array of previous-solution values at the
    cell quadrature points, or any evaluator with ``cell_values()``; with
    ``prev`` given, ``dt`` must be the time step.
    """
    tb = space.tables
    b = np.zeros(space.n_dofs)
    F = np.asarray(problem.f(tb.X[..., 0], tb.X[..., 1], t_n), dtype=float)
    F = np.broadcast_to(F, tb.X.shape[:2]).copy()
    if prev is not None:
        if dt is None:
            raise ValueError("dt is required when a previous state is supplied")
        if isinstance(prev, (DiscreteField, TransferredField)):
            prev = (prev.cell_values() if isinstance(prev, TransferredField)
                    else prev.cell_values(0))
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
            kmax = g.kmax(problem.K)
            if problem.K is None:
                flux = np.einsum("q,eq,qi->ei", g.w, gd, g.Gnm)
            else:
                Kv = np.asarray(problem.K(g.P[..., 0], g.P[..., 1]), float)
                f = (np.einsum("a,eqab,qbi->eqi", g.normal, Kv, g.Gm)
                     / g.h[:, None, None])
                flux = np.einsum("e,q,eq,eqi->ei", g.h, g.w, gd, f)
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
    raw matrices rank-deficient by one.  With ``pin_constant`` the solver
    additionally fixes the first cell's constant to zero, selecting the
    unique coefficient representative of each solution; the discrete
    space, and therefore the computed function, is unchanged.

    ``key`` is stored as given; callers that keep the factor across
    solves use it to record what the matrix was assembled from.
    """

    def __init__(self, matrix, space, residual_tol=1e-11, pin_constant=True,
                 key=None):
        self.space = space
        self.residual_tol = residual_tol
        self.key = key
        pins = []
        if pin_constant and space.n_const > 0 \
                and space.n_cg not in space.constraints:
            pins.append(space.n_cg)
        self.slaves = sorted(set(space.constraints) | set(pins))
        if self.slaves:
            # the space's constraint map with the pinned rows zeroed
            keep = np.ones(space.n_dofs)
            keep[pins] = 0.0
            C = (sparse.diags(keep) @ space.constraint_matrix).tocsr()
            diag = np.zeros(space.n_dofs)
            diag[self.slaves] = 1.0
            self.matrix_c = (C.T @ matrix @ C + sparse.diags(diag)).tocsc()
            self.C = C
        else:
            self.matrix_c = matrix.tocsc()
            self.C = None
        try:
            self.lu = splu(self.matrix_c)
        except RuntimeError as exc:
            raise SolverError(
                f"sparse LU failed on a {self.matrix_c.shape[0]} dof system: "
                f"{exc}") from exc

    def solve(self, rhs):
        bc = self.C.T @ rhs if self.C is not None else rhs
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
        return self.C @ x if self.C is not None else x


def apply_constraints_and_solve(matrix, rhs, space, residual_tol=1e-11,
                                pin_constant=True):
    """Condense hanging constraints, solve by sparse LU, rebuild slaves."""
    solver = CondensedSolver(matrix, space, residual_tol, pin_constant)
    return DiscreteField(space, solver.solve(rhs))


def galerkin_residual(matrix, rhs, field):
    """Max-abs residual of the solved system over the constrained basis.

    For each unconstrained dof the residual is tested against the basis
    function of the constrained space (the raw basis function plus the
    weighted hanging-node tails attached to it).
    """
    r = rhs - matrix @ field.coeffs
    C = field.space.constraint_matrix
    return float(np.max(np.abs(C.T @ r)))
