import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from egadapt import (DiscreteField, DomainShape, EGSpace, MeshError,
                     broken_h1_error, build_initial, edge_rule, interpolate,
                     map_to_edge, transfer)

from conftest import random_adaptive_mesh
from reference import jump_average


class TestDofCounts:
    def test_single_cell_q1(self):
        m = build_initial(DomainShape.UNIT_SQUARE, 1.0)
        assert EGSpace(m, 1).n_dofs == 5

    def test_two_by_two_q1(self):
        m = build_initial(DomainShape.UNIT_SQUARE, 0.5)
        s = EGSpace(m, 1)
        assert s.n_cg == 9
        assert s.n_dofs == 13

    def test_single_cell_q2(self):
        m = build_initial(DomainShape.UNIT_SQUARE, 1.0)
        assert EGSpace(m, 2).n_dofs == 10

    @pytest.mark.parametrize("k", [1, 2])
    def test_additivity_on_adaptive_meshes(self, k):
        for seed in range(3):
            m = random_adaptive_mesh(rounds=2, seed=seed)
            s = EGSpace(m, k)
            assert s.n_dofs == s.n_cg + m.n_active
            assert s.n_const == m.n_active


class TestEvaluate:
    def test_constant_via_const_dofs(self):
        m = build_initial(DomainShape.UNIT_SQUARE, 0.5)
        s = EGSpace(m, 1)
        coeffs = np.zeros(s.n_dofs)
        coeffs[s.n_cg:] = 1.0
        f = DiscreteField(s, coeffs)
        vals, grads, _ = f.evaluate(m.active_ids[0], np.array([[0.3, 0.4]]))
        assert vals[0] == pytest.approx(1.0)
        assert grads[0] == pytest.approx([0.0, 0.0])

    def test_q1_linear_field(self):
        m = build_initial(DomainShape.UNIT_SQUARE, 1.0)
        s = EGSpace(m, 1)
        f = interpolate(s, lambda x, y: x + y)
        vals, grads, hess = f.evaluate(m.active_ids[0],
                                       np.array([[0.2, 0.8], [0.6, 0.1]]))
        assert vals == pytest.approx([1.0, 0.7])
        assert np.allclose(grads, 1.0)
        assert np.allclose(hess, 0.0, atol=1e-14)

    def test_q2_hessian_of_x_squared(self):
        m = build_initial(DomainShape.UNIT_SQUARE, 1.0)
        s = EGSpace(m, 2)
        f = interpolate(s, lambda x, y: x ** 2)
        _, _, hess = f.evaluate(m.active_ids[0], np.array([[0.37, 0.93]]))
        assert hess[0, 0, 0] == pytest.approx(2.0, abs=1e-12)
        assert abs(hess[0, 1, 1]) < 1e-12

    def test_inactive_cell_rejected(self):
        m = build_initial(DomainShape.UNIT_SQUARE, 1.0)
        r = m.refine(list(m.active_ids))
        s = EGSpace(r, 1)
        f = DiscreteField(s, np.zeros(s.n_dofs))
        with pytest.raises(MeshError):
            f.evaluate(m.active_ids[0], np.array([[0.5, 0.5]]))


class TestJumpAverage:
    def test_continuous_field_has_zero_jump(self):
        m = random_adaptive_mesh(rounds=2, seed=1)
        s = EGSpace(m, 1)
        f = interpolate(s, lambda x, y: np.sin(x) * y)
        t = np.linspace(0.1, 0.9, 4)
        for e in m.interior_edges():
            j, _ = jump_average(f, e, t)
            assert np.max(np.abs(j)) < 1e-12

    def test_constant_offset_jump(self):
        m = build_initial(DomainShape.L_SHAPE, 1.0)
        s = EGSpace(m, 1)
        e = m.interior_edges()[0]
        coeffs = np.zeros(s.n_dofs)
        coeffs[s.const_dof(e.minus_cell)] = 1.0
        f = DiscreteField(s, coeffs)
        j, a = jump_average(f, e, np.array([0.5]))
        assert j[0] == pytest.approx(1.0)
        assert a[0] == pytest.approx(0.5)

    def test_boundary_convention(self):
        m = build_initial(DomainShape.UNIT_SQUARE, 1.0)
        s = EGSpace(m, 1)
        coeffs = np.zeros(s.n_dofs)
        coeffs[s.n_cg:] = 3.0
        f = DiscreteField(s, coeffs)
        e = m.boundary_edges()[0]
        j, a = jump_average(f, e, np.array([0.25, 0.75]))
        assert np.allclose(j, 3.0)
        assert np.allclose(a, 3.0)


class TestInterpolate:
    def test_zero(self):
        m = build_initial(DomainShape.UNIT_SQUARE, 0.5)
        s = EGSpace(m, 1)
        f = interpolate(s, lambda x, y: np.zeros_like(x))
        assert np.all(f.coeffs == 0.0)

    def test_linear_reproduced(self):
        m = build_initial(DomainShape.UNIT_SQUARE, 0.25)
        s = EGSpace(m, 1)
        f = interpolate(s, lambda x, y: x + y)
        rng = np.random.default_rng(0)
        for cid in m.active_ids:
            pts = rng.uniform(0, 1, size=(3, 2))
            c = m.cell(cid)
            vals, _, _ = f.evaluate(cid, pts)
            phys = np.array([c.x0, c.y0]) + c.side * pts
            assert vals == pytest.approx(phys.sum(axis=1), abs=1e-13)

    def test_nodal_property_singular_function(self):
        from egadapt.problems import example1
        p = example1().exact.p
        m = build_initial(DomainShape.L_SHAPE, 0.5)
        s = EGSpace(m, 1)
        f = interpolate(s, lambda x, y: p(x, y, 0.5))
        assert f.value(-0.5, -0.5) == pytest.approx(float(p(-0.5, -0.5, 0.5)),
                                                    abs=1e-13)


class TestConstraints:
    def test_hanging_vertex_weights_q1(self, lshape_hanging_space):
        s = lshape_hanging_space
        assert len(s.constraints) == 2
        for terms in s.constraints.values():
            assert sorted(w for _, w in terms) == pytest.approx([0.5, 0.5])

    def test_q2_trace_weights(self):
        m = build_initial(DomainShape.L_SHAPE, 1.0)
        m = m.refine([m.active_ids[0]])
        s = EGSpace(m, 2)
        weight_sets = [sorted(w for _, w in t) for t in s.constraints.values()]
        assert weight_sets
        for ws in weight_sets:
            assert ws == pytest.approx([-0.125, 0.375, 0.75])

    @pytest.mark.parametrize("k", [1, 2])
    def test_cg_trace_continuity_across_hanging_faces(self, k):
        m = random_adaptive_mesh(rounds=2, seed=4)
        s = EGSpace(m, k)
        rng = np.random.default_rng(9)
        coeffs = rng.standard_normal(s.n_dofs)
        coeffs[s.n_cg:] = 0.0              # continuous part only
        f = DiscreteField(s, s.constraint_matrix @ coeffs)
        t = np.linspace(0.05, 0.95, 5)
        for e in m.interior_edges():
            j, _ = jump_average(f, e, t)
            assert np.max(np.abs(j)) < 1e-12


class TestTransfer:
    def test_same_mesh_matches_evaluate(self):
        m = random_adaptive_mesh(rounds=1, seed=0)
        s = EGSpace(m, 1)
        rng = np.random.default_rng(1)
        f = DiscreteField(s, rng.standard_normal(s.n_dofs))
        tr = transfer(f, s)
        vals = tr.cell_values()
        assert np.allclose(vals, f.cell_values(0), atol=1e-14)

    def test_constant_survives_refinement(self):
        m = build_initial(DomainShape.UNIT_SQUARE, 0.5)
        s = EGSpace(m, 1)
        coeffs = np.zeros(s.n_dofs)
        coeffs[s.n_cg:] = 3.0
        f = DiscreteField(s, coeffs)
        r = m.refine([m.active_ids[0]])
        s2 = EGSpace(r, 1)
        tr = transfer(f, s2)
        assert np.allclose(tr.cell_values(), 3.0, atol=1e-14)

    def test_coarsening_uses_donor_cells(self):
        # 6-cell donor mesh: distinct constants per cell; after coarsening the
        # value at a point is the donor value of the fine cell containing it
        m = build_initial(DomainShape.L_SHAPE, 1.0)
        m = m.refine([m.active_ids[0]])            # 6 active cells
        s = EGSpace(m, 1)
        coeffs = np.zeros(s.n_dofs)
        for i, cid in enumerate(m.active_ids):
            coeffs[s.const_dof(cid)] = float(i + 1)
        f = DiscreteField(s, coeffs)
        kids = [cid for cid in m.active_ids if m.cell(cid).parent is not None]
        c = m.coarsen(kids)                        # back to 3 cells
        s2 = EGSpace(c, 1)
        tr = transfer(f, s2)
        # oracle: locate each probe point in the donor mesh by hand
        probes = [(-0.75, -0.75), (-0.25, -0.75), (-0.75, -0.25), (-0.25, -0.25)]
        for x, y in probes:
            donor = m.locate(x, y)
            expected = coeffs[s.const_dof(donor)]
            assert tr.field.value(x, y) == pytest.approx(expected, abs=1e-14)

    def test_transfer_preserves_cell_means_under_refinement(self):
        m = build_initial(DomainShape.L_SHAPE, 0.5)
        s = EGSpace(m, 1)
        rng = np.random.default_rng(5)
        coeffs = np.zeros(s.n_dofs)
        coeffs[s.n_cg:] = rng.standard_normal(s.n_const)
        f = DiscreteField(s, coeffs)
        r = m.refine(list(m.active_ids)[:4])
        s2 = EGSpace(r, 1)
        tr = transfer(f, s2)
        vals = tr.cell_values()
        w = s2.tables.w
        for row, cid in enumerate(r.active_ids):
            mean = np.sum(w * vals[row])
            donor = m.locate(*r.cell(cid).center)
            assert mean == pytest.approx(coeffs[s.const_dof(donor)], abs=1e-13)

    def test_point_outside_domain(self):
        m = build_initial(DomainShape.L_SHAPE, 1.0)
        s = EGSpace(m, 1)
        f = DiscreteField(s, np.zeros(s.n_dofs))
        tr = transfer(f, s)
        with pytest.raises(ValueError):
            tr.field.value(0.7, 0.7)


def _coarsen_quads(mesh, rng):
    """Coarsen a random subset of the complete active sibling quadruples."""
    kids = {}
    for cid in mesh.active_ids:
        parent = mesh.cell(cid).parent
        if parent is not None:
            kids.setdefault(parent, []).append(cid)
    quads = [q for q in kids.values() if len(q) == 4 and rng.random() < 0.7]
    return mesh.coarsen([cid for q in quads for cid in q])


def _refine_some(mesh, rng):
    ids = list(mesh.active_ids)
    return mesh.refine(rng.choice(ids, size=max(1, len(ids) // 3),
                                  replace=False))


class TestBatchedTransfer:
    """``cell_values`` against the donor's pointwise ``value`` oracle."""

    @settings(max_examples=16, deadline=None, derandomize=True)
    @given(shape=st.sampled_from([DomainShape.UNIT_SQUARE, DomainShape.L_SHAPE]),
           k=st.sampled_from([1, 2]),
           ops=st.lists(st.sampled_from(["refine", "coarsen"]), min_size=1,
                        max_size=3),
           seed=st.integers(0, 2 ** 16))
    @example(shape=DomainShape.L_SHAPE, k=1, ops=["coarsen", "coarsen"], seed=3)
    @example(shape=DomainShape.UNIT_SQUARE, k=2, ops=["coarsen", "refine"],
             seed=4)
    def test_matches_pointwise_oracle(self, shape, k, ops, seed):
        rng = np.random.default_rng(seed)
        donor = build_initial(shape, 1.0)
        for _ in range(3):
            donor = _refine_some(donor, rng)
        target = donor
        for op in ops:
            target = (_refine_some if op == "refine" else _coarsen_quads)(
                target, rng)
        s_donor, s_target = EGSpace(donor, k), EGSpace(target, k)
        coeffs = rng.uniform(-1.0, 1.0, s_donor.n_dofs)
        f = DiscreteField(s_donor, s_donor.constraint_matrix @ coeffs)
        vals = transfer(f, s_target).cell_values()
        X = s_target.tables.X
        oracle = np.array([f.value(x, y) for x, y in X.reshape(-1, 2)]
                          ).reshape(vals.shape)
        assert np.max(np.abs(vals - oracle)) <= 1e-14

        if set(ops) == {"refine"}:
            # a Q_k polynomial is transferred exactly under refinement
            c = rng.uniform(-1.0, 1.0, (k + 1, k + 1))

            def poly(x, y):
                return sum(c[a, b] * x ** a * y ** b
                           for a in range(k + 1) for b in range(k + 1))

            exact = transfer(interpolate(s_donor, poly), s_target).cell_values()
            assert np.allclose(exact,
                               interpolate(s_target, poly).cell_values(0),
                               rtol=0.0, atol=1e-13)

    def test_unrelated_meshes_rejected(self):
        s = EGSpace(build_initial(DomainShape.UNIT_SQUARE, 0.5), 1)
        f = DiscreteField(s, np.zeros(s.n_dofs))
        other = EGSpace(build_initial(DomainShape.UNIT_SQUARE, 0.25), 1)
        with pytest.raises(MeshError):
            transfer(f, other).cell_values()


class TestBrokenH1:
    def test_exact_reproduction(self):
        m = build_initial(DomainShape.UNIT_SQUARE, 0.25)
        s = EGSpace(m, 1)
        f = interpolate(s, lambda x, y: x + y)
        err = broken_h1_error(f, lambda x, y: x + y,
                              lambda x, y: (np.ones_like(x), np.ones_like(x)))
        assert err <= 1e-12

    def test_constant_one_against_zero(self):
        m = build_initial(DomainShape.UNIT_SQUARE, 0.5)
        s = EGSpace(m, 1)
        f = DiscreteField(s, np.zeros(s.n_dofs))
        err = broken_h1_error(f, lambda x, y: np.ones_like(x),
                              lambda x, y: (np.zeros_like(x), np.zeros_like(x)))
        assert err == pytest.approx(1.0, abs=1e-13)

    def test_linear_against_zero(self):
        m = build_initial(DomainShape.UNIT_SQUARE, 0.5)
        s = EGSpace(m, 1)
        f = DiscreteField(s, np.zeros(s.n_dofs))
        err = broken_h1_error(f, lambda x, y: x,
                              lambda x, y: (np.ones_like(x), np.zeros_like(x)))
        assert err == pytest.approx(np.sqrt(4.0 / 3.0), abs=1e-13)


def edge_trace_quantities(space, coeffs):
    """(sum_edges int [[v]]^2, sum_edges int {v}^2, sum_T int_dT v^2)."""
    from egadapt.assembly import edge_groups
    from egadapt.mesh import EdgeKind
    jump_sq = avg_sq = bnd_sq = 0.0
    for g in edge_groups(space):
        w = g.h[:, None] * g.w
        tm = coeffs[space.cell_dofs[g.minus_rows]] @ g.Vm.T
        if g.kind is EdgeKind.INTERIOR:
            tp = coeffs[space.cell_dofs[g.plus_rows]] @ g.Vp.T
            jump_sq += np.sum(w * (tm - tp) ** 2)
            avg_sq += np.sum(w * (0.5 * (tm + tp)) ** 2)
            bnd_sq += np.sum(w * (tm ** 2 + tp ** 2))
        else:
            jump_sq += np.sum(w * tm ** 2)
            avg_sq += np.sum(w * tm ** 2)
            bnd_sq += np.sum(w * tm ** 2)
    return jump_sq, avg_sq, bnd_sq


class TestTraceLemma:
    @pytest.mark.parametrize("k", [1, 2])
    def test_jump_and_average_bounds(self, k):
        # for any broken field: sum_edges int [[v]]^2 <= 2 sum_T int_dT v^2
        # and sum_edges int {v}^2 <= sum_T int_dT v^2
        meshes = [random_adaptive_mesh(rounds=2, seed=s) for s in (0, 1)]
        rng = np.random.default_rng(42)
        for mesh in meshes:
            space = EGSpace(mesh, k)
            for _ in range(50):
                coeffs = rng.standard_normal(space.n_dofs)
                jump_sq, avg_sq, bnd_sq = edge_trace_quantities(space, coeffs)
                assert jump_sq <= 2.0 * bnd_sq + 1e-12
                assert avg_sq <= bnd_sq + 1e-12

    def test_trace_operator_matches_slow_path(self):
        mesh = random_adaptive_mesh(rounds=1, seed=3)
        space = EGSpace(mesh, 1)
        rng = np.random.default_rng(0)
        coeffs = rng.standard_normal(space.n_dofs)
        f = DiscreteField(space, coeffs)
        rule = edge_rule(1)
        jump_sq = 0.0
        for e in mesh.edges:
            _, w = map_to_edge(rule, e)
            j, _ = jump_average(f, e, rule.points)
            jump_sq += np.sum(w * j ** 2)
        fast, _, _ = edge_trace_quantities(space, coeffs)
        assert fast == pytest.approx(jump_sq, rel=1e-12)
