import numpy as np
import pytest
from scipy import sparse

from egadapt import (CondensedSolver, DiscreteField, DomainShape, EGSpace,
                     PenaltySpec, SolverError, apply_constraints_and_solve,
                     assemble_A_theta, assemble_mass, assemble_rhs,
                     assemble_stiffness, broken_h1_error, build_initial,
                     galerkin_residual, interpolate, smoke_linear)
from egadapt.assembly import edge_groups

from conftest import random_adaptive_mesh
from reference import edge_matrix


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
        for cid in m.active_ids:
            assert v[s.const_dof(cid)] == pytest.approx(
                m.cell(cid).side ** 2, abs=1e-13)

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
        e = m.interior_edges()[0]
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
        e = m.interior_edges()[0]
        v = np.zeros(s.n_dofs)
        v[s.const_dof(e.minus_cell)] = 1.0
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
            sol = apply_constraints_and_solve(A.tocsr(), b, s)
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
    for e in space.mesh.edges:
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
        for k in (1, 2):
            a, b, c = EGSpace(m, k), EGSpace(other, k), EGSpace(m, k)
            cell = [(getattr(a.tables, n), getattr(b.tables, n)) for n in "NGH"]
            edge = [(getattr(g, n), getattr(h, n))
                    for g, h in zip(edge_groups(a), edge_groups(c))
                    for n in ("Vm", "Gm", "Gnm", "Vp", "Gp", "Gnp")]
            for x, y in cell + edge:
                assert x is y
                with pytest.raises(ValueError):
                    x[(0,) * x.ndim] = 1.0


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
        for cid in m.active_ids:
            assert b[s.const_dof(cid)] == pytest.approx(1.0, abs=1e-13)

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
        m = build_initial(DomainShape.UNIT_SQUARE, 1.0)
        part = {"left": "D", "right": "D", "top": "D", "bottom": "N"}
        m = m.classify_edges(part)
        s = EGSpace(m, 1)

        class P:
            f = staticmethod(lambda x, y, t: np.zeros_like(x))
            g_D = staticmethod(lambda x, y, t: np.zeros_like(x))
            g_N = staticmethod(lambda x, y, t: np.ones_like(x))
            K = None
        b = assemble_rhs(s, P, 0.0, PenaltySpec(1.0, 0))
        assert b[s.n_cg] == pytest.approx(1.0, abs=1e-13)   # int over one edge


def reference_constraint_matrix(space, pins=()):
    """Per-dof loop building the constraint map, pinned rows left empty."""
    n = space.n_dofs
    skip = set(space.constraints) | set(pins)
    rows, cols, vals = [], [], []
    for i in range(n):
        if i not in skip:
            rows.append(i)
            cols.append(i)
            vals.append(1.0)
    for s, terms in space.constraints.items():
        for m, w in terms:
            rows.append(s)
            cols.append(m)
            vals.append(w)
    return sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))


class TestConstraintMatrix:
    @pytest.mark.parametrize("k", [1, 2])
    def test_against_reference_loop(self, k):
        s = EGSpace(random_adaptive_mesh(seed=3), k)
        assert s.constraints
        C, ref = s.constraint_matrix, reference_constraint_matrix(s)
        assert C.format == "csr" and C.nnz == ref.nnz
        assert np.array_equal(C.toarray(), ref.toarray())

    def test_no_hanging_nodes_is_identity(self):
        s = EGSpace(build_initial(DomainShape.UNIT_SQUARE, 0.5), 1)
        assert not s.constraints
        assert np.array_equal(s.constraint_matrix.toarray(), np.eye(s.n_dofs))

    @pytest.mark.parametrize("k", [1, 2])
    def test_condensed_matrix_entry_for_entry(self, k):
        s = EGSpace(random_adaptive_mesh(seed=4), k)
        assert s.constraints
        S = (assemble_mass(s) / 0.01
             + assemble_A_theta(s, None, PenaltySpec(1.0, -1))).tocsr()
        solver = CondensedSolver(S, s)
        pins = [s.n_cg]
        C = reference_constraint_matrix(s, pins)
        diag = np.zeros(s.n_dofs)
        diag[sorted(set(s.constraints) | set(pins))] = 1.0
        ref = (C.T @ S @ C + sparse.diags(diag)).tocsc()
        assert np.array_equal(solver.C.toarray(), C.toarray())
        assert np.array_equal(solver.matrix_c.toarray(), ref.toarray())


class TestSolve:
    def test_identity_system_with_pin(self):
        m = build_initial(DomainShape.UNIT_SQUARE, 0.5)
        s = EGSpace(m, 1)
        rng = np.random.default_rng(2)
        b = rng.standard_normal(s.n_dofs)
        f = apply_constraints_and_solve(sparse.eye(s.n_dofs, format="csr"), b, s)
        keep = np.ones(s.n_dofs, dtype=bool)
        keep[s.n_cg] = False       # the pinned representative constant
        assert np.allclose(f.coeffs[keep], b[keep], atol=1e-13)

    def test_steady_laplace_reproduces_linear(self):
        prob = smoke_linear()
        m = build_initial(DomainShape.UNIT_SQUARE, 0.25)
        s = EGSpace(m, 1)
        pen = PenaltySpec(1.0, 0)
        A = assemble_A_theta(s, None, pen)
        b = assemble_rhs(s, prob, 0.0, pen)
        f = apply_constraints_and_solve(A.tocsr(), b, s)
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
        f = apply_constraints_and_solve(S, b, s)
        assert np.max(np.abs(f.coeffs - x)) <= 1e-11

    def test_singular_matrix_raises(self):
        m = build_initial(DomainShape.UNIT_SQUARE, 1.0)
        s = EGSpace(m, 1)
        bad = sparse.csr_matrix((s.n_dofs, s.n_dofs))
        with pytest.raises(SolverError):
            apply_constraints_and_solve(bad, np.ones(s.n_dofs), s)

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
        f = apply_constraints_and_solve(S, b, s)
        for slave, terms in s.constraints.items():
            expect = sum(w * f.coeffs[mst] for mst, w in terms)
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
