import math

import numpy as np
import pytest

from egadapt import (DiscreteField, DomainShape, EGSpace, build_initial,
                     compute_indicators, effectivity, interpolate)
from egadapt.problems import example1, smoke_linear

from conftest import random_adaptive_mesh
from reference import cell_residual_eta1, edge_indicators, local_eta_T, total_eta


def zero(x, y, t=0.0):
    return np.zeros_like(np.asarray(x, dtype=float))


class TestCellResidual:
    def test_unit_source_zero_fields(self):
        m = build_initial(DomainShape.UNIT_SQUARE, 1.0)
        s = EGSpace(m, 1)
        f = DiscreteField(s, np.zeros(s.n_dofs))
        e1 = cell_residual_eta1(f, m.active_ids[0], None,
                                lambda x, y, t: np.ones_like(x), dt=1.0, t_n=0.0)
        # h_T^2 = 2 on the unit cell; ||1||_{L2} = 1
        assert e1 == pytest.approx(2.0, abs=1e-13)

    def test_steady_cancellation(self):
        m = build_initial(DomainShape.UNIT_SQUARE, 0.5)
        s = EGSpace(m, 1)
        fld = interpolate(s, lambda x, y: x + y)
        dt = 0.25

        def f(x, y, t):
            return np.zeros_like(x)
        prev = lambda x, y: x + y   # equal states: time term vanishes
        for cid in m.active_ids:
            e1 = cell_residual_eta1(fld, cid, prev, f, dt=dt, t_n=0.0)
            assert e1 <= 1e-13

    def test_q2_laplacian_cancels_constant_source(self):
        m = build_initial(DomainShape.UNIT_SQUARE, 1.0)
        s = EGSpace(m, 2)
        fld = interpolate(s, lambda x, y: x ** 2)
        prev = lambda x, y: x ** 2

        def f(x, y, t):
            return -2.0 * np.ones_like(x)
        e1 = cell_residual_eta1(fld, m.active_ids[0], prev, f, dt=1.0, t_n=0.0)
        assert e1 <= 1e-12


class TestVariableDiffusion:
    """div(K grad p_h) with spatially varying K, analytic and FD paths."""

    @staticmethod
    def _setup():
        m = build_initial(DomainShape.UNIT_SQUARE, 0.5)
        s = EGSpace(m, 2)
        fld = interpolate(s, lambda x, y: x ** 2)   # Q2-exact

        def K(x, y):
            out = np.zeros(np.shape(x) + (2, 2))
            out[..., 0, 0] = 1.0 + x
            out[..., 1, 1] = 1.0 + y
            return out

        def K_grad(x, y):
            # dK[..., a, i, j] = d_a K_ij
            out = np.zeros(np.shape(x) + (2, 2, 2))
            out[..., 0, 0, 0] = 1.0
            out[..., 1, 1, 1] = 1.0
            return out

        # div(K grad x^2) = d/dx((1+x) 2x) = 2 + 4x, so this source cancels
        f = lambda x, y, t: -(2.0 + 4.0 * x)
        prev = lambda x, y: x ** 2
        return m, fld, K, K_grad, f, prev

    def test_analytic_derivatives_cancel(self):
        m, fld, K, K_grad, f, prev = self._setup()
        for cid in m.active_ids:
            e1 = cell_residual_eta1(fld, cid, prev, f, dt=1.0, t_n=0.0,
                                    K=K, K_grad=K_grad)
            assert e1 <= 1e-12

    def test_fd_fallback_matches_analytic(self):
        m, fld, K, K_grad, f, prev = self._setup()
        for cid in list(m.active_ids)[:2]:
            e1 = cell_residual_eta1(fld, cid, prev, f, dt=1.0, t_n=0.0, K=K)
            assert e1 <= 1e-8        # FD step noise only


class TestEdgeIndicators:
    def test_continuous_field_no_value_jump(self):
        m = random_adaptive_mesh(rounds=1, seed=0)
        s = EGSpace(m, 1)
        fld = interpolate(s, lambda x, y: x * y)
        for e in m.interior_edges():
            d = edge_indicators(fld, e, 0.0)
            assert d["eta4"] <= 1e-13

    def test_dirichlet_gap_of_one(self):
        m = build_initial(DomainShape.UNIT_SQUARE, 1.0)
        s = EGSpace(m, 1)
        fld = DiscreteField(s, np.zeros(s.n_dofs))
        e = m.boundary_edges()[0]
        d = edge_indicators(fld, e, 0.0,
                            g_D=lambda x, y, t: np.ones_like(x))
        assert d["eta5"] == pytest.approx(1.0, abs=1e-13)

    def test_constant_jump_across_half_unit_edge(self):
        m = build_initial(DomainShape.UNIT_SQUARE, 0.5)
        s = EGSpace(m, 1)
        e = m.interior_edges()[0]
        coeffs = np.zeros(s.n_dofs)
        coeffs[s.const_dof(e.minus_cell)] = 1.0
        fld = DiscreteField(s, coeffs)
        d = edge_indicators(fld, e, 0.0)
        # eta4 = K_max * h^(1/2) * ||1||_{L2} = 1 * (1/2)^(1/2) * (1/2)^(1/2)
        assert d["eta4"] == pytest.approx(0.5, abs=1e-13)
        assert d["eta2"] <= 1e-14

    def test_flux_jump_hand_value(self):
        # interpolant of x^2 on a 2x2 grid: slope jump of 1 across x = 1/2
        m = build_initial(DomainShape.UNIT_SQUARE, 0.5)
        s = EGSpace(m, 1)
        fld = interpolate(s, lambda x, y: x ** 2)
        for e in m.interior_edges():
            if e.endpoints[0].x == 0.5 and e.endpoints[1].x == 0.5:
                d = edge_indicators(fld, e, 0.0)
                assert d["eta2"] == pytest.approx(0.25, abs=1e-13)

    def test_neumann_indicator(self):
        m = build_initial(DomainShape.UNIT_SQUARE, 1.0)
        part = {"left": "D", "right": "D", "top": "D", "bottom": "N"}
        m = m.classify_edges(part)
        s = EGSpace(m, 1)
        fld = DiscreteField(s, np.zeros(s.n_dofs))
        e = next(e for e in m.boundary_edges() if e.kind.value == "neumann")
        d = edge_indicators(fld, e, 0.0, g_N=lambda x, y, t: np.ones_like(x))
        assert d["eta3"] == pytest.approx(1.0, abs=1e-13)


class TestLocalCombination:
    def test_all_zero(self):
        assert local_eta_T(0.0) == 0.0

    def test_eta1_only(self):
        assert local_eta_T(2.0) == pytest.approx(2.0)

    def test_single_interior_edge(self):
        val = local_eta_T(0.0, interior=[(0.0, 1.0)], alpha=1.0)
        assert val == pytest.approx(math.sqrt(0.5))

    def test_full_formula(self):
        val = local_eta_T(1.0, interior=[(2.0, 3.0)], neumann=[4.0],
                          dirichlet=[5.0], alpha=2.0)
        expect = math.sqrt(1.0 + 0.5 * (2.0 * 4.0 + 9.0) + 16.0 + 2.0 * 25.0)
        assert val == pytest.approx(expect)


class TestTotals:
    def test_three_four_five(self):
        assert total_eta([3.0, 4.0]) == pytest.approx(5.0)

    def test_zeros(self):
        assert total_eta([0.0, 0.0]) == 0.0

    def test_four_ones(self):
        assert total_eta([1.0, 1.0, 1.0, 1.0]) == pytest.approx(2.0)

    def test_order_invariance(self):
        rng = np.random.default_rng(0)
        vals = rng.uniform(0, 1, size=200)
        a = total_eta(vals)
        b = total_eta(vals[::-1])
        assert abs(a - b) <= 1e-13 * max(a, 1.0)


class TestEffectivity:
    def test_ratio(self):
        assert effectivity(0.3, 1.0) == pytest.approx(0.3)

    def test_unity(self):
        assert effectivity(0.25, 0.25) == pytest.approx(1.0)

    def test_zero_error_is_undefined(self):
        assert effectivity(0.1, 0.0) is None
        assert effectivity(0.1, None) is None


class _VaryingKProblem:
    """Minimal problem with a smoothly varying diffusion tensor."""

    @staticmethod
    def K(x, y):
        out = np.zeros(np.shape(x) + (2, 2))
        out[..., 0, 0] = 1.0 + 0.5 * x ** 2
        out[..., 1, 1] = 2.0 + y
        out[..., 0, 1] = out[..., 1, 0] = 0.25 * x * y
        return out

    @staticmethod
    def K_grad(x, y):
        out = np.zeros(np.shape(x) + (2, 2, 2))
        out[..., 0, 0, 0] = x
        out[..., 0, 0, 1] = out[..., 0, 1, 0] = 0.25 * y
        out[..., 1, 1, 1] = 1.0
        out[..., 1, 0, 1] = out[..., 1, 1, 0] = 0.25 * x
        return out

    f = staticmethod(lambda x, y, t: np.sin(x) + t * y)
    g_D = staticmethod(lambda x, y, t: np.cos(x * y))
    g_N = staticmethod(lambda x, y, t: np.zeros_like(x))


class _VaryingKFiniteDifferences(_VaryingKProblem):
    """The same tensor without its derivatives: div(K grad p_h) falls back
    to central differences of K."""

    K_grad = None


class TestBatchedAgainstReference:
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize(
        "problem",
        [example1(), _VaryingKProblem(), _VaryingKFiniteDifferences()],
        ids=["identity-K", "varying-K", "varying-K-fd"])
    def test_paths_agree_on_adaptive_mesh(self, k, problem):
        part = getattr(problem, "partition", None)
        mesh = random_adaptive_mesh(rounds=2, seed=6, partition=part)
        s = EGSpace(mesh, k)
        rng = np.random.default_rng(4)
        fld = DiscreteField(s, rng.standard_normal(s.n_dofs))
        nq = s.tables.rule.n
        prev = np.zeros((mesh.n_active, nq))
        ind = compute_indicators(s, fld, prev, problem, 0.3, 0.01, 1.0)
        rank = {cid: i for i, cid in enumerate(mesh.active_ids)}
        K = problem.K
        Kg = getattr(problem, "K_grad", None)
        e1 = np.array([cell_residual_eta1(fld, cid, None, problem.f, 0.01, 0.3,
                                          K=K, K_grad=Kg)
                       for cid in mesh.active_ids])
        assert np.allclose(e1, ind.eta1, rtol=1e-10, atol=1e-12)
        e2 = np.zeros(mesh.n_active)
        e4 = np.zeros(mesh.n_active)
        e5 = np.zeros(mesh.n_active)
        for e in mesh.edges:
            if e.kind.value == "interior":
                d = edge_indicators(fld, e, 0.3, K=K)
                for cid in (e.minus_cell, e.plus_cell):
                    e2[rank[cid]] += d["eta2"] ** 2
                    e4[rank[cid]] += d["eta4"] ** 2
            else:
                d = edge_indicators(fld, e, 0.3, K=K, g_D=problem.g_D)
                e5[rank[e.minus_cell]] += d["eta5"] ** 2
        assert np.allclose(e2, ind.eta2_sq, rtol=1e-10, atol=1e-14)
        assert np.allclose(e4, ind.eta4_sq, rtol=1e-10, atol=1e-14)
        assert np.allclose(e5, ind.eta5_sq, rtol=1e-10, atol=1e-14)
        eta_T = np.sqrt(e1 ** 2 + 0.5 * (e2 + e4) + e5)
        assert np.allclose(eta_T, ind.eta_T, rtol=1e-10)


class TestScalingLaws:
    def test_h_power_scalings(self):
        # normalized data (unit L2 norms) isolates the mesh-size prefactors:
        # eta1 ~ h^2, eta2/eta3 ~ h^(3/2), eta4/eta5 ~ h^(1/2)
        results = {}
        for h0 in (0.5, 0.25):
            m = build_initial(DomainShape.UNIT_SQUARE, h0)
            s = EGSpace(m, 1)
            fld = DiscreteField(s, np.zeros(s.n_dofs))
            cell = m.active_ids[0]
            area = h0 ** 2
            e1 = cell_residual_eta1(
                fld, cell, None,
                lambda x, y, t: np.full_like(x, 1.0 / math.sqrt(area)),
                dt=1.0, t_n=0.0)
            edge = m.boundary_edges()[0]
            d5 = edge_indicators(
                fld, edge, 0.0,
                g_D=lambda x, y, t: np.full_like(x, 1.0 / math.sqrt(h0)))
            mN = m.classify_edges({"left": "D", "right": "D", "top": "D",
                                   "bottom": "N"})
            sN = EGSpace(mN, 1)
            fldN = DiscreteField(sN, np.zeros(sN.n_dofs))
            eN = next(e for e in mN.boundary_edges() if e.kind.value == "neumann")
            d3 = edge_indicators(
                fldN, eN, 0.0,
                g_N=lambda x, y, t: np.full_like(x, 1.0 / math.sqrt(h0)))
            results[h0] = (e1, d3["eta3"], d5["eta5"])
        r1 = results[0.25][0] / results[0.5][0]
        r3 = results[0.25][1] / results[0.5][1]
        r5 = results[0.25][2] / results[0.5][2]
        assert r1 == pytest.approx(0.25, rel=1e-12)
        assert r3 == pytest.approx(2.0 ** -1.5, rel=1e-12)
        assert r5 == pytest.approx(2.0 ** -0.5, rel=1e-12)

    def test_jump_scalings(self):
        # piecewise constants with unit value jump across the shared edges
        vals = {}
        for h0 in (0.5, 0.25):
            m = build_initial(DomainShape.UNIT_SQUARE, h0)
            s = EGSpace(m, 1)
            e = m.interior_edges()[0]
            coeffs = np.zeros(s.n_dofs)
            coeffs[s.const_dof(e.minus_cell)] = 1.0 / math.sqrt(h0)
            fld = DiscreteField(s, coeffs)
            vals[h0] = edge_indicators(fld, e, 0.0)["eta4"]
        assert vals[0.25] / vals[0.5] == pytest.approx(2.0 ** -0.5, rel=1e-12)


class TestZeroResidualDetection:
    def test_linear_solution_silences_indicators(self):
        prob = smoke_linear()
        m = build_initial(DomainShape.UNIT_SQUARE, 0.25)
        s = EGSpace(m, 1)
        fld = interpolate(s, lambda x, y: x + y)
        prev = fld.cell_values(0)
        ind = compute_indicators(s, fld, prev, prob, 0.05, 0.01, 1.0)
        assert np.sqrt(np.max(ind.eta2_sq)) <= 1e-9
        assert np.sqrt(np.max(ind.eta4_sq)) <= 1e-9
        assert np.sqrt(np.max(ind.eta5_sq)) <= 1e-9


class TestCornerDominance:
    def test_corner_cell_has_maximal_indicator(self):
        # on uniform meshes the cell at the re-entrant corner dominates
        prob = example1()
        from egadapt import (CondensedSolver, assemble_A_theta, assemble_mass,
                             assemble_rhs, interpolate)
        from egadapt.assembly import PenaltySpec
        m = build_initial(prob.shape, 2.0 ** -3, prob.partition)
        s = EGSpace(m, 1)
        pen = PenaltySpec(1.0, 0)
        A = assemble_A_theta(s, None, pen)
        M = assemble_mass(s)
        dt = 0.01
        S = (M / dt + A).tocsr()
        solver = CondensedSolver(S, s)
        fld = interpolate(s, prob.p0)
        for n in range(1, 11):
            b = (M @ fld.coeffs) / dt + assemble_rhs(s, prob, n * dt, pen)
            prev = fld.cell_values(0)
            fld = DiscreteField(s, solver.solve(b))
        ind = compute_indicators(s, fld, prev, prob, 0.1, dt, 1.0)
        top = ind.cell_ids[int(np.argmax(ind.eta_T))]
        c = m.cell(top)
        assert abs(c.x0) <= c.side and abs(c.y0) <= c.side, \
            "largest indicator should sit at the re-entrant corner"
