from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse.linalg import splu, spsolve

from egadapt import (CondensedSolver, DiscreteField, DomainShape, EdgeKind,
                     EGSpace, PenaltySpec, SolverError, TransferredField,
                     assemble_A_theta, assemble_mass, assemble_rhs,
                     assemble_stiffness, broken_h1_error, build_initial,
                     example1, galerkin_residual, interpolate, smoke_linear)
from egadapt.assembly import _constant_K_data, edge_groups
from egadapt.mesh import SUB_FULL
from egadapt.space import _hanging_table

from conftest import random_adaptive_mesh
from reference import (assemble_rhs_add_at, edge_matrix, edges, evaluate,
                       joint_dofs)
from test_mesh import HISTORIES, _random_history


def single_cell_space(k=1):
    return EGSpace(build_initial(DomainShape.UNIT_SQUARE, 1.0), k)


def varying_K(x, y):
    """Varying symmetric positive definite diffusion tensor on [-1, 1]^2."""
    out = np.zeros(np.shape(x) + (2, 2))
    out[..., 0, 0] = 2.0 + x
    out[..., 1, 1] = 2.0 + y
    out[..., 0, 1] = out[..., 1, 0] = 0.3 * x * y
    return out


class TestElementMatrices:
    def test_q1_mass_entries(self):
        s = single_cell_space()
        M = assemble_mass(s).toarray()
        # local node order: SW, SE, NW, NE, then the cell constant
        assert M[0, 0] == pytest.approx(1.0 / 9.0, abs=1e-13)
        assert M[0, 1] == pytest.approx(1.0 / 18.0, abs=1e-13)
        assert M[0, 3] == pytest.approx(1.0 / 36.0, abs=1e-13)
        assert M[4, 4] == pytest.approx(1.0, abs=1e-13)
        assert M[0, 4] == pytest.approx(0.25, abs=1e-13)

    def test_q1_stiffness_entries(self):
        s = single_cell_space()
        A = assemble_stiffness(s).toarray()
        assert A[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-13)
        assert A[0, 3] == pytest.approx(-1.0 / 3.0, abs=1e-13)
        assert np.max(np.abs(A[4, :])) == 0.0
        assert np.max(np.abs(A[:, 4])) == 0.0

    def test_mass_row_sums_give_areas(self):
        m = build_initial(DomainShape.L_SHAPE, 0.5)
        s = EGSpace(m, 1)
        M = assemble_mass(s)
        ones = np.zeros(s.n_dofs)
        ones[:s.n_cg] = 1.0      # the constant function via the CG part
        v = M @ ones
        assert np.allclose(v[s.n_cg:], m.side ** 2, rtol=0.0, atol=1e-13)

    def test_const_const_block_diagonal(self):
        m = build_initial(DomainShape.L_SHAPE, 1.0)
        s = EGSpace(m, 1)
        M = assemble_mass(s).toarray()
        blk = M[s.n_cg:, s.n_cg:]
        assert np.allclose(blk, np.eye(3), atol=1e-13)


class TestEdgeTerms:
    def test_constant_jump_penalty(self):
        # two unit cells sharing an edge; piecewise-constant test vector with
        # jump one: the quadratic form of the edge matrix is exactly alpha
        m = build_initial(DomainShape.L_SHAPE, 1.0)
        s = EGSpace(m, 1)
        e = edges(m, interior=True)[0]
        for alpha in (1.0, 2.5):
            dofs, L = edge_matrix(s, e, None, PenaltySpec(alpha, 0))
            v = np.zeros(len(dofs))
            nloc = len(dofs) // 2
            v[nloc - 1] = 1.0        # constant of the minus cell
            assert v @ L @ v == pytest.approx(alpha, abs=1e-13)

    def test_gD_penalty_on_const_basis(self):
        # unit Dirichlet edge, g_D = 1, theta = 0, alpha = 1: the load on the
        # adjacent cell constant from the penalty term is exactly 1
        prob = smoke_linear()
        m = build_initial(DomainShape.UNIT_SQUARE, 1.0)
        s = EGSpace(m, 1)

        class GD1:
            f = staticmethod(lambda x, y, t: np.zeros_like(x))
            g_D = staticmethod(lambda x, y, t: np.ones_like(x))
            g_N = staticmethod(lambda x, y, t: np.zeros_like(x))
            K = None
        b = assemble_rhs(s, GD1, 0.0, PenaltySpec(1.0, 0))
        # four unit edges, each contributing alpha * integral of 1 = 1
        assert b[s.n_cg] == pytest.approx(4.0, abs=1e-13)

    def test_sipg_symmetry_random_mesh(self):
        m = random_adaptive_mesh(rounds=2, seed=8)
        for k in (1, 2):
            for K in (None, varying_K):
                A = assemble_A_theta(EGSpace(m, k), K, PenaltySpec(2.0, -1))
                d = (A - A.T).tocoo()
                asym = (np.max(np.abs(d.data)) if d.nnz else 0.0) / np.max(np.abs(A.data))
                assert asym <= 1e-12, f"k={k}, K={K}: asymmetry {asym:.2e}"

    def test_penalty_monotonicity(self):
        m = build_initial(DomainShape.L_SHAPE, 1.0)
        s = EGSpace(m, 1)
        v = np.zeros(s.n_dofs)
        v[s.n_cg + m.edge_arrays.minus[m.edge_arrays.plus >= 0][0]] = 1.0
        prev = None
        for alpha in (0.5, 1.0, 2.0, 4.0):
            A = assemble_A_theta(s, None, PenaltySpec(alpha, 0))
            q = v @ (A @ v)
            if prev is not None:
                assert q > prev
            prev = q

    def test_variable_k_scales_stiffness(self):
        m = build_initial(DomainShape.UNIT_SQUARE, 0.5)
        s = EGSpace(m, 1)
        K2 = lambda x, y: 2.0 * np.broadcast_to(np.eye(2), x.shape + (2, 2))
        A1 = assemble_A_theta(s, None, PenaltySpec(1.0, 0)).toarray()
        # with K = 2I both the diffusion and K_max-weighted terms double
        A2 = assemble_A_theta(s, K2, PenaltySpec(1.0, 0)).toarray()
        assert np.allclose(A2, 2.0 * A1, atol=1e-12)

    def test_varying_k_steady_consistency(self):
        # p = x + y solves -div(K grad p) = -2 for K = diag(1+x, 1+y);
        # the discrete solution must coincide with the interpolant, which
        # exercises the full varying-K assembly chain (cell and edge terms,
        # K_max weights, Dirichlet flux loads) on a hanging-node mesh
        def K(x, y):
            out = np.zeros(np.shape(x) + (2, 2))
            out[..., 0, 0] = 1.0 + x
            out[..., 1, 1] = 1.0 + y
            return out

        class P:
            pass
        P.K = staticmethod(K)
        P.f = staticmethod(lambda x, y, t: np.full_like(x, -2.0))
        P.g_D = staticmethod(lambda x, y, t: x + y)
        P.g_N = staticmethod(lambda x, y, t: np.zeros_like(x))
        m = build_initial(DomainShape.UNIT_SQUARE, 0.25)
        m = m.refine(list(m.active_ids)[:3])
        for theta in (-1, 0, 1):
            s = EGSpace(m, 1)
            pen = PenaltySpec(2.0, theta)
            A = assemble_A_theta(s, K, pen)
            b = assemble_rhs(s, P, 0.0, pen)
            sol = DiscreteField(s, CondensedSolver(A.tocsr(), s).solve(b))
            err = broken_h1_error(sol, lambda x, y: x + y,
                                  lambda x, y: (np.ones_like(x), np.ones_like(x)))
            assert err <= 1e-10, f"theta={theta}: err={err:.2e}"


def per_edge_oracle(space, K, penalty):
    """assemble_stiffness plus every edge's edge_matrix, one edge at a time.

    np.add.at, not ``ref[np.ix_(d, d)] += L``: an interior edge's dof list
    repeats the CG nodes its two cells share, and fancy-index ``+=`` keeps
    only one of the repeated contributions.
    """
    ref = assemble_stiffness(space, K).toarray()
    for e in edges(space.mesh):
        dofs, L = edge_matrix(space, e, K, penalty)
        np.add.at(ref, (dofs[:, None], dofs[None, :]), L)
    return ref


ORACLE_MESHES = {
    "hanging_lshape": lambda: random_adaptive_mesh(rounds=2, seed=5),
    "square_neumann_top_left": lambda: random_adaptive_mesh(
        DomainShape.UNIT_SQUARE, 0.25, rounds=1, seed=2,
        partition={"left": "N", "top": "N", "right": "D", "bottom": "D"}),
}


class TestGlobalAssembly:
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("mesh", sorted(ORACLE_MESHES))
    def test_matches_per_edge_oracle(self, mesh, k):
        s = EGSpace(ORACLE_MESHES[mesh](), k)
        for K in (None, varying_K):
            for theta in (-1, 0, 1):
                pen = PenaltySpec(1.5, theta)
                A = assemble_A_theta(s, K, pen)
                assert A.format == "csr" and A.shape == (s.n_dofs, s.n_dofs)
                ref = per_edge_oracle(s, K, pen)
                err = np.max(np.abs(A.toarray() - ref)) / np.max(np.abs(ref))
                assert err <= 1e-13, f"K={K}, theta={theta}: {err:.2e}"

    def test_reference_tables_shared_and_read_only(self):
        m = random_adaptive_mesh(seed=3)
        other = build_initial(DomainShape.L_SHAPE, 0.5)
        pen = PenaltySpec(1.5, -1)
        for k in (1, 2):
            a, b, c = EGSpace(m, k), EGSpace(other, k), EGSpace(m, k)
            cell = [(getattr(a.tables, n), getattr(b.tables, n)) for n in "NGH"]
            edge = [(getattr(g, n), getattr(h, n))
                    for g, h in zip(edge_groups(a), edge_groups(c))
                    for n in ("Vm", "Gm", "Gnm", "Vp", "Gp", "Gnp",
                              "keep", "fold")]
            # the constant-K edge matrices, folded onto the joint dofs and
            # matched by edge type across the two meshes
            shared = {}
            for sp in (a, b):
                for g in edge_groups(sp):
                    if g.kind is not EdgeKind.NEUMANN:
                        L = _constant_K_data(g.type, pen)
                        assert L.shape == (1, len(g.keep), len(g.keep))
                        shared.setdefault(g.type, []).append(L)
            pairs = [got for got in shared.values() if len(got) == 2]
            assert len(pairs) >= 4
            for x, y in cell + edge + pairs:
                assert x is y
                with pytest.raises(ValueError):
                    x[(0,) * x.ndim] = 1.0

    def test_edge_type_data_survives_the_other_degree(self):
        # one entry per edge type, whatever else the process builds
        mixed = build_initial(DomainShape.L_SHAPE, 0.5, {
            "left": "N", "right": "D", "bottom": "N", "top": "D",
            "inner_vertical": "N", "inner_horizontal": "D"})
        meshes = (random_adaptive_mesh(seed=3),
                  mixed.refine(mixed.active_ids[::3]))

        def by_type(k):
            return {g.type: (g.keep, g.fold, g.Vm) for m in meshes
                    for g in edge_groups(EGSpace(m, k))}

        before = by_type(1)
        by_type(2)
        after = by_type(1)
        assert {t[1] for t in before} == set(EdgeKind)
        assert before.keys() == after.keys() and len(before) >= 17
        for t, got in after.items():
            assert all(a is b for a, b in zip(before[t], got)), t

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("mesh", sorted(ORACLE_MESHES))
    def test_fused_system_matches_mass_plus_form(self, mesh, k):
        s = EGSpace(ORACLE_MESHES[mesh](), k)
        dt = 0.01
        M = assemble_mass(s)
        for K in (None, varying_K):
            for theta in (-1, 0, 1):
                pen = PenaltySpec(1.5, theta)
                S = assemble_A_theta(s, K, pen, dt=dt)
                assert S.format == "csr" and S.shape == (s.n_dofs, s.n_dofs)
                ref = (M / dt + assemble_A_theta(s, K, pen)).toarray()
                err = np.max(np.abs(S.toarray() - ref)) / np.max(np.abs(ref))
                assert err <= 1e-13, f"K={K}, theta={theta}: {err:.2e}"


class TestJointDofs:
    """The interface blocks are emitted on the joint dofs of both cells:
    a plus face node is folded onto the minus face node at the same point.
    That is exact only where the two are one global dof."""

    @settings(max_examples=16, deadline=None, derandomize=True)
    @given(k=st.sampled_from([1, 2]), **HISTORIES)
    def test_conforming_faces_share_their_nodes(self, k, shape, ops, seed):
        s = EGSpace(_random_history(shape, ops, seed), k)
        e = s.mesh.edge_arrays
        face = _hanging_table(k)[0]
        inner = np.flatnonzero(e.plus >= 0)
        side = e.side[inner]
        same = np.all(s.cell_dofs[e.minus[inner, None], face[side]]
                      == s.cell_dofs[e.plus[inner, None], face[side ^ 1]],
                      axis=1)
        assert np.array_equal(same, e.sub[inner] == SUB_FULL)

    @settings(max_examples=16, deadline=None, derandomize=True)
    @given(k=st.sampled_from([1, 2]), **HISTORIES)
    def test_fold_joins_equal_dofs_only(self, k, shape, ops, seed):
        # the fold is set by the edge type; it must hold on every edge
        s = EGSpace(_random_history(shape, ops, seed), k)
        nloc = s.cell_dofs.shape[1]
        for g in edge_groups(s):
            d = s.cell_dofs[g.rows].reshape(len(g.h), -1)
            assert np.array_equal(g.keep[:nloc], np.arange(nloc))
            assert np.array_equal(g.fold.sum(axis=1), np.ones(d.shape[1]))
            for col, joint in zip(g.fold.T, g.keep):
                twins = np.flatnonzero(col)
                assert twins[0] == joint
                assert np.all(d[:, twins] == d[:, [joint]])
            # k + 1 shared face nodes on a conforming face, k on a hanging
            # one, none on the boundary
            shared = 0
            if g.kind is EdgeKind.INTERIOR:
                shared = k + (g.type[3] == SUB_FULL)
            assert len(g.keep) == d.shape[1] - shared

    @settings(max_examples=16, deadline=None, derandomize=True)
    @given(k=st.sampled_from([1, 2]), **HISTORIES)
    def test_type_pattern_matches_first_edge(self, k, shape, ops, seed):
        # keep and fold are built once per edge type; they must be what the
        # group's first edge gives in this space
        s = EGSpace(_random_history(shape, ops, seed), k)
        for g in edge_groups(s):
            keep, fold = joint_dofs(s, g)
            assert np.array_equal(g.keep, keep)
            assert np.array_equal(g.fold, fold)
            for a in (g.keep, g.fold):
                with pytest.raises(ValueError):
                    a[(0,) * a.ndim] = 1

    @pytest.mark.parametrize("k, entries", [(1, 12), (2, 28)])
    def test_conforming_blocks_cancel_exactly(self, k, entries):
        # with K = I and theta = 0 only the rows of the two constants are
        # left: on the face the continuous part has no jump, and its average
        # flux cancels to an exact zero
        s = EGSpace(build_initial(DomainShape.UNIT_SQUARE, 0.25), k)
        pen = PenaltySpec(1.0, 0)
        for g in edge_groups(s):
            if g.kind is EdgeKind.INTERIOR:
                L = _constant_K_data(g.type, pen)    # folded already
                assert np.count_nonzero(L) == entries


class TestRhs:
    def test_source_on_const_basis_gives_area(self):
        m = build_initial(DomainShape.L_SHAPE, 1.0)
        s = EGSpace(m, 1)

        class P:
            f = staticmethod(lambda x, y, t: np.ones_like(x))
            g_D = staticmethod(lambda x, y, t: np.zeros_like(x))
            g_N = staticmethod(lambda x, y, t: np.zeros_like(x))
            K = None
        b = assemble_rhs(s, P, 0.0, PenaltySpec(1.0, 0))
        assert np.allclose(b[s.n_cg:], 1.0, rtol=0.0, atol=1e-13)

    def test_previous_state_term_is_mass_action(self):
        m = build_initial(DomainShape.UNIT_SQUARE, 0.5)
        s = EGSpace(m, 1)

        class P:
            f = staticmethod(lambda x, y, t: np.zeros_like(x))
            g_D = staticmethod(lambda x, y, t: np.zeros_like(x))
            g_N = staticmethod(lambda x, y, t: np.zeros_like(x))
            K = None
        c = 2.5
        dt = 0.1
        prev = np.full((m.n_active, s.tables.rule.n), c)
        b = assemble_rhs(s, P, 0.0, PenaltySpec(1.0, 0), prev=prev, dt=dt)
        M = assemble_mass(s)
        ones = np.zeros(s.n_dofs)
        ones[:s.n_cg] = 1.0
        assert np.allclose(b, (c / dt) * (M @ ones), atol=1e-13)

    def test_neumann_load(self):
        part = {"left": "D", "right": "D", "top": "D", "bottom": "N"}
        s = EGSpace(build_initial(DomainShape.UNIT_SQUARE, 1.0, part), 1)

        class P:
            f = staticmethod(lambda x, y, t: np.zeros_like(x))
            g_D = staticmethod(lambda x, y, t: np.zeros_like(x))
            g_N = staticmethod(lambda x, y, t: np.ones_like(x))
            K = None
        b = assemble_rhs(s, P, 0.0, PenaltySpec(1.0, 0))
        assert b[s.n_cg] == pytest.approx(1.0, abs=1e-13)   # int over one edge


class _MixedBoundaryProblem:
    """Nonzero data on Dirichlet and Neumann faces, optionally varying K."""

    f = staticmethod(lambda x, y, t: np.sin(3 * x) * np.cos(y) + t)
    g_D = staticmethod(lambda x, y, t: np.cos(x * y) + t)
    g_N = staticmethod(lambda x, y, t: x - 2 * y)

    def __init__(self, K=None):
        self.K = K


class TestRhsScatter:
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("K", [None, varying_K], ids=["K=I", "varying-K"])
    def test_matches_add_at_oracle(self, k, K):
        part = {"left": "D", "right": "N", "top": "D", "bottom": "N"}
        m = random_adaptive_mesh(DomainShape.UNIT_SQUARE, 0.25, rounds=3,
                                 seed=3, partition=part)
        s = EGSpace(m, k)
        problem = _MixedBoundaryProblem(K)
        kinds = {g.kind for g in edge_groups(s)}
        assert EdgeKind.NEUMANN in kinds and len(s.slaves)
        prev = np.random.default_rng(k).standard_normal(
            (m.n_active, s.tables.rule.n))
        pen = PenaltySpec(3.0, -1)
        for args in ({}, {"prev": prev, "dt": 0.05}):
            got = assemble_rhs(s, problem, 0.3, pen, **args)
            want = assemble_rhs_add_at(s, problem, 0.3, pen, **args)
            assert np.array_equal(got, want)


def reference_constraint_matrix(space, pins=()):
    """Per-dof loop building the constraint map from the slaves' master
    dofs and weights, pinned rows left empty."""
    n = space.n_dofs
    skip = set(space.slaves.tolist()) | set(pins)
    rows, cols, vals = [], [], []
    for i in range(n):
        if i not in skip:
            rows.append(i)
            cols.append(i)
            vals.append(1.0)
    for s, masters, weights in zip(space.slaves.tolist(),
                                   space._masters.tolist(),
                                   space._weights.tolist()):
        for m, w in zip(masters, weights):
            rows.append(s)
            cols.append(m)
            vals.append(w)
    return sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))


class TestConstraintMatrix:
    @pytest.mark.parametrize("k", [1, 2])
    def test_against_reference_loop(self, k):
        s = EGSpace(random_adaptive_mesh(seed=3), k)
        assert len(s.slaves)
        C, ref = s.constraint_matrix, reference_constraint_matrix(s)
        assert C.format == "csr" and C.nnz == ref.nnz
        assert np.array_equal(C.toarray(), ref.toarray())

    def test_no_hanging_nodes_is_identity(self):
        s = EGSpace(build_initial(DomainShape.UNIT_SQUARE, 0.5), 1)
        assert not len(s.slaves)
        assert np.array_equal(s.constraint_matrix.toarray(), np.eye(s.n_dofs))

    @pytest.mark.parametrize("k", [1, 2])
    def test_condensed_matrix_entry_for_entry(self, k):
        s = EGSpace(random_adaptive_mesh(seed=4), k)
        assert len(s.slaves)
        S = euler_matrix(s, theta=-1)
        solver = CondensedSolver(S, s)
        C, ref = oracle_condensed(s, S)
        # the solver's unknowns are the dofs in its factor order
        p = solver.order
        assert np.array_equal(solver.C.toarray(), C.toarray()[:, p])
        assert np.array_equal(solver.matrix_c.toarray(),
                              ref.toarray()[np.ix_(p, p)])

    @pytest.mark.parametrize("k", [1, 2])
    def test_unknowns_are_the_free_dofs(self, k):
        s = EGSpace(random_adaptive_mesh(seed=4), k)
        assert len(s.slaves)
        solver = CondensedSolver(euler_matrix(s), s)
        assert solver.matrix_c.shape[0] == s.n_dofs - len(s.slaves) - 1
        order = s.factor_order()
        fixed = np.isin(order, np.append(s.slaves, s.n_cg))
        assert np.array_equal(solver.order, order[~fixed])
        x = solver.solve(np.random.default_rng(k).standard_normal(s.n_dofs))
        assert x[s.n_cg] == 0.0
        assert np.array_equal(x[s.slaves], (s.constraint_matrix @ x)[s.slaves])

    @pytest.mark.parametrize("k", [1, 2])
    def test_free_dof_map_is_the_column_slice(self, k):
        # the map is the constraint matrix's free-dof columns, in factor
        # order, and the condensed matrix its Galerkin product
        s = EGSpace(random_adaptive_mesh(seed=4), k)
        assert len(s.slaves)
        S = euler_matrix(s, theta=-1)
        solver = CondensedSolver(S, s)
        C = s.constraint_matrix[:, solver.order]
        expect = (C.T @ S @ C).tocsc()
        for got, want in ((solver.C, C), (solver.matrix_c, expect)):
            got, want = got.copy(), want.copy()
            got.sort_indices()
            want.sort_indices()
            assert got.shape == want.shape
            for a in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(got, a), getattr(want, a))

    def test_factoring_leaves_the_space_intact(self):
        s = EGSpace(random_adaptive_mesh(seed=4), 1)
        S = euler_matrix(s)
        C = s.constraint_matrix
        # the map is shared by every caller: an in-place change raises
        with pytest.raises(ValueError):
            C.indptr[0] = 1
        with pytest.raises(ValueError):
            C.eliminate_zeros()
        before = [a.copy() for a in (C.data, C.indices, C.indptr)]
        first = CondensedSolver(S, s).lu.nnz
        for a, b in zip(before, (C.data, C.indices, C.indptr)):
            assert np.array_equal(a, b)
        assert CondensedSolver(S, s).lu.nnz == first


def euler_matrix(space, theta=0):
    """Backward-Euler system M / dt + A_theta with dt = 0.01."""
    return (assemble_mass(space) / 0.01
            + assemble_A_theta(space, None, PenaltySpec(1.0, theta))).tocsr()


def oracle_condensed(space, S):
    """Constraint map and condensed matrix of ``S`` with the first cell's
    constant pinned, in dof numbering, by the per-dof loop.  The columns
    of the slaves and of the pin are empty."""
    C = reference_constraint_matrix(space, [space.n_cg])
    return C, (C.T @ S @ C).tocsc()


def _morton(i, j):
    return sum((((i >> b) & 1) << 2 * b) | (((j >> b) & 1) << (2 * b + 1))
               for b in range(max(i, j).bit_length()))


def subtree_oracle(space):
    """First and last Morton index of the smallest binary subtree (common
    Morton prefix) that covers each dof's support, by Python integers, one
    cell at a time."""
    mesh = space.mesh
    ranges = []
    for level, i, j in zip(*(a.tolist() for a in (mesh.level, mesh.i, mesh.j))):
        d = mesh.max_level - level
        lo = _morton(i << d, j << d)
        ranges.append((lo, lo + 4 ** d - 1))
    support = [set() for _ in range(space.n_dofs)]
    for row, dofs in enumerate(space.cell_dofs.tolist()):
        for dof in dofs:
            support[dof].add(row)
    e = mesh.edge_arrays
    inner = e.plus >= 0
    for m, p in zip(e.minus[inner].tolist(), e.plus[inner].tolist()):
        support[space.n_cg + m].add(p)
        support[space.n_cg + p].add(m)
    out = []
    for rows in support:
        lo = min(ranges[r][0] for r in rows)
        hi = max(ranges[r][1] for r in rows)
        size = 2 ** (lo ^ hi).bit_length()
        out.append((lo - lo % size, lo - lo % size + size - 1))
    return np.array(out).T


class TestFactorOrder:
    @pytest.mark.parametrize("k", [1, 2])
    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(**HISTORIES)
    def test_coupled_dofs_have_nested_subtrees(self, k, shape, ops, seed):
        s = EGSpace(_random_history(shape, ops, seed), k)
        S = euler_matrix(s)
        solver = CondensedSolver(S, s)
        assert np.array_equal(np.sort(s.factor_order()), np.arange(s.n_dofs))
        p = solver.order
        first, last = (a[p] for a in subtree_oracle(s))
        # subtree postorder: by last index, the smaller subtree first on a tie
        step, grow = np.diff(last), np.diff(last - first)
        assert np.all((step > 0) | ((step == 0) & (grow >= 0)))
        # two aligned subtrees nest exactly when their ranges intersect
        entries = solver.matrix_c.tocoo()
        i, j = entries.row, entries.col
        assert np.all((first[i] <= last[j]) & (first[j] <= last[i]))


class TestSolve:
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("theta", [-1, 0, 1])
    def test_matches_oracle_condensed_solve(self, k, theta):
        s = EGSpace(random_adaptive_mesh(seed=4), k)
        assert len(s.slaves)
        S = euler_matrix(s, theta)
        b = np.random.default_rng(k).standard_normal(s.n_dofs)
        C, ref = oracle_condensed(s, S)
        free = np.flatnonzero(C.getnnz(axis=0))    # the unknowns
        C, ref = C[:, free], ref[free][:, free]
        expect = C @ spsolve(ref, C.T @ b)
        got = CondensedSolver(S, s).solve(b)
        assert np.linalg.norm(got - expect) <= 1e-12 * np.linalg.norm(expect)

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("theta", [-1, 0, 1])
    @pytest.mark.parametrize("seed", [0, 3, 5])
    def test_threshold_pivoting_keeps_the_order(self, k, theta, seed):
        # a diagonal pivot of at least a tenth of its column's largest entry
        # is kept, so the nested-dissection order fills in no more than
        # under partial pivoting; with theta = 0 no row is exchanged
        s = EGSpace(random_adaptive_mesh(seed=seed), k)
        solver = CondensedSolver(euler_matrix(s, theta), s)
        partial = splu(solver.matrix_c, permc_spec="NATURAL")
        assert solver.lu.nnz <= partial.nnz
        if theta == 0:
            assert np.array_equal(solver.lu.perm_r,
                                  np.arange(len(solver.order)))

    def test_non_finite_load_raises(self):
        s = EGSpace(build_initial(DomainShape.UNIT_SQUARE, 0.25), 1)
        S = euler_matrix(s)
        b = np.ones(s.n_dofs)
        b[3] = np.nan
        with pytest.raises(SolverError):
            CondensedSolver(S, s).solve(b)

    def test_identity_system_with_pin(self):
        m = build_initial(DomainShape.UNIT_SQUARE, 0.5)
        s = EGSpace(m, 1)
        rng = np.random.default_rng(2)
        b = rng.standard_normal(s.n_dofs)
        x = CondensedSolver(sparse.eye(s.n_dofs, format="csr"), s).solve(b)
        keep = np.ones(s.n_dofs, dtype=bool)
        keep[s.n_cg] = False       # the pinned representative constant
        assert np.allclose(x[keep], b[keep], atol=1e-13)

    def test_steady_laplace_reproduces_linear(self):
        prob = smoke_linear()
        m = build_initial(DomainShape.UNIT_SQUARE, 0.25)
        s = EGSpace(m, 1)
        pen = PenaltySpec(1.0, 0)
        A = assemble_A_theta(s, None, pen)
        b = assemble_rhs(s, prob, 0.0, pen)
        f = DiscreteField(s, CondensedSolver(A.tocsr(), s).solve(b))
        err = broken_h1_error(f, lambda x, y: x + y,
                              lambda x, y: (np.ones_like(x), np.ones_like(x)))
        assert err <= 1e-10

    def test_multiply_then_solve_roundtrip(self):
        m = build_initial(DomainShape.UNIT_SQUARE, 1.0)
        s = EGSpace(m, 1)
        pen = PenaltySpec(1.0, 0)
        S = (assemble_mass(s) / 0.01 + assemble_A_theta(s, None, pen)).tocsr()
        rng = np.random.default_rng(7)
        x = rng.standard_normal(s.n_dofs)
        x[s.n_cg] = 0.0        # the representative the solver pins
        b = S @ x
        got = CondensedSolver(S, s).solve(b)
        assert np.max(np.abs(got - x)) <= 1e-11

    def test_singular_matrix_raises(self):
        m = build_initial(DomainShape.UNIT_SQUARE, 1.0)
        s = EGSpace(m, 1)
        bad = sparse.csr_matrix((s.n_dofs, s.n_dofs))
        with pytest.raises(SolverError):
            CondensedSolver(bad, s).solve(np.ones(s.n_dofs))

    def test_hanging_constraints_condensed(self, lshape_hanging_space):
        s = lshape_hanging_space
        prob = smoke_linear()
        pen = PenaltySpec(1.0, 0)
        S = (assemble_mass(s) / 0.1 + assemble_A_theta(s, None, pen)).tocsr()

        class P:
            f = staticmethod(lambda x, y, t: np.ones_like(x))
            g_D = staticmethod(lambda x, y, t: np.zeros_like(x))
            g_N = staticmethod(lambda x, y, t: np.zeros_like(x))
            K = None
        b = assemble_rhs(s, P, 0.0, pen)
        f = DiscreteField(s, CondensedSolver(S, s).solve(b))
        C = s.constraint_matrix
        for slave in s.slaves:
            row = C[slave]
            expect = row.data @ f.coeffs[row.indices]
            assert f.coeffs[slave] == pytest.approx(expect, abs=1e-13)
        assert galerkin_residual(S, b, f) <= 1e-9 * np.linalg.norm(b)


class TestGalerkinOrthogonality:
    def test_backward_euler_steps_example1(self):
        from egadapt.problems import example1
        prob = example1()
        m = build_initial(prob.shape, 2.0 ** -3, prob.partition)
        s = EGSpace(m, 1)
        pen = PenaltySpec(1.0, 0)
        A = assemble_A_theta(s, None, pen)
        M = assemble_mass(s)
        dt = 0.01
        S = (M / dt + A).tocsr()
        solver = CondensedSolver(S, s)
        f = interpolate(s, prob.p0)
        worst = 0.0
        for n in range(1, 11):
            b = (M @ f.coeffs) / dt + assemble_rhs(s, prob, n * dt, pen)
            f = DiscreteField(s, solver.solve(b))
            worst = max(worst, galerkin_residual(S, b, f) / np.linalg.norm(b))
        assert worst <= 1e-9


def _traces(field, rows, P):
    """Values (E, nq) and physical gradients (E, nq, 2) of the field's
    restriction to the cells ``rows`` at the physical points P (E, nq, 2)."""
    mesh = field.space.mesh
    out = [evaluate(field, mesh.active_ids[r],
                    (pts - (mesh.x0[r], mesh.y0[r])) / mesh.side[r])
           for r, pts in zip(rows, P)]
    return np.array([o[0] for o in out]), np.array([o[1] for o in out])


class TestMassBalance:
    """Testing the scheme with a cell constant chi_T, which lies in the EG
    space, gives a conservation law on every cell T:

        (p^n - p^{n-1}, 1)_T / dt + sum_e int_e F.n_T = (f, 1)_T

    with the numerical flux F.n = -{K grad p_h}.n + (alpha K_max / h_e)[p_h]
    on interior edges, -K grad p_h.n + (alpha K_max / h_e)(p_h - g_D) on
    Dirichlet edges and -g_N on Neumann edges.  The fluxes are evaluated
    edge by edge from the solution, not from the system matrix.  The
    first cell's constant is pinned in the solve; its balance follows from
    the others and from the CG equations, and is checked too."""

    PARTITION = {"left": "N", "bottom": "N", "right": "D", "top": "D",
                 "inner_vertical": "D", "inner_horizontal": "N"}

    @pytest.mark.parametrize("K", [None, varying_K], ids=["identity", "varying"])
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("theta", [-1, 0, 1])
    def test_every_cell_balances(self, theta, k, K):
        prob = replace(example1(), K=K, partition=self.PARTITION,
                       g_N=lambda x, y, t: np.sin(3.0 * x) + y * t)
        mesh = random_adaptive_mesh(rounds=2, seed=5, partition=prob.partition)
        sp = EGSpace(mesh, k)
        assert len(sp.slaves)                      # hanging nodes present
        donor = interpolate(
            EGSpace(build_initial(prob.shape, 0.25, prob.partition), k),
            lambda x, y: prob.exact.p(x, y, 0.3) + 0.2)
        prev = TransferredField(donor, sp).cell_values()
        dt, t_n, pen = 0.01, 0.31, PenaltySpec(1.5, theta)
        matrix = assemble_mass(sp) / dt + assemble_A_theta(sp, K, pen)
        b = assemble_rhs(sp, prob, t_n, pen, prev=prev, dt=dt)
        field = DiscreteField(sp, CondensedSolver(matrix.tocsr(), sp).solve(b))

        tb = sp.tables
        X, Y = np.array(tb.x), np.array(tb.y)
        mass = tb.sides ** 2 * ((field.cell_values(0) - prev) / dt @ tb.w)
        source = tb.sides ** 2 * (prob.f(X, Y, t_n) @ tb.w)
        flux = np.zeros(mesh.n_active)
        kinds = set()
        for g in edge_groups(sp):
            kinds.add(g.kind)
            px, py = g.P[..., 0], g.P[..., 1]
            Kv = (np.broadcast_to(np.eye(2), px.shape + (2, 2)) if K is None
                  else K(px, py))
            pen_e = (pen.alpha * np.abs(Kv).reshape(len(g.h), -1).max(axis=1)
                     / g.h)[:, None]
            vm, gm = _traces(field, g.minus_rows, g.P)
            qm = np.einsum("a,eqab,eqb->eq", g.normal, Kv, gm)
            if g.kind is EdgeKind.INTERIOR:
                vp, gp = _traces(field, g.plus_rows, g.P)
                qp = np.einsum("a,eqab,eqb->eq", g.normal, Kv, gp)
                fn = -0.5 * (qm + qp) + pen_e * (vm - vp)
            elif g.kind is EdgeKind.DIRICHLET:
                fn = -qm + pen_e * (vm - prob.g_D(px, py, t_n))
            else:
                fn = -prob.g_N(px, py, t_n)
            out = g.h * (fn @ g.w)                 # int_e F.n, n outward of minus
            np.add.at(flux, g.minus_rows, out)
            if g.kind is EdgeKind.INTERIOR:
                np.add.at(flux, g.plus_rows, -out)
        assert kinds == set(EdgeKind)

        defect = mass + flux - source
        scale = max(np.max(np.abs(mass)), np.max(np.abs(source)),
                    np.max(np.abs(flux)))
        assert np.max(np.abs(defect)) <= 1e-11 * scale, \
            np.max(np.abs(defect)) / scale
