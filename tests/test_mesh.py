import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from egadapt import (ConfigError, DomainShape, EdgeKind, EGSpace, MeshError,
                     build_initial)

from conftest import random_adaptive_mesh


def levels_across_edges(mesh):
    out = []
    for e in mesh.interior_edges():
        lm = mesh.cell(e.minus_cell).level
        lp = mesh.cell(e.plus_cell).level
        out.append(abs(lm - lp))
    return out


class TestBuildInitial:
    def test_lshape_unit_cells(self):
        m = build_initial(DomainShape.L_SHAPE, 1.0)
        assert m.n_active == 3
        assert len(m.interior_edges()) == 2
        assert len(m.boundary_edges()) == 8

    def test_lshape_half(self):
        assert build_initial(DomainShape.L_SHAPE, 0.5).n_active == 12

    def test_unit_square_grid(self):
        m = build_initial(DomainShape.UNIT_SQUARE, 0.25)
        assert m.n_active == 16
        assert len(m.interior_edges()) == 24

    def test_rejects_non_dyadic_h0(self):
        with pytest.raises(ConfigError):
            build_initial(DomainShape.UNIT_SQUARE, 0.3)
        with pytest.raises(ConfigError):
            build_initial(DomainShape.L_SHAPE, 1.5)

    def test_cell_geometry(self):
        m = build_initial(DomainShape.UNIT_SQUARE, 0.5)
        c = m.cell(m.active_ids[0])
        assert c.side == 0.5
        assert c.diameter == pytest.approx(0.5 * np.sqrt(2.0))


class TestRefine:
    def test_single_mark_lshape(self):
        m = build_initial(DomainShape.L_SHAPE, 1.0)
        r = m.refine([m.active_ids[0]])
        assert r.n_active == 6

    def test_two_successive_marks_no_closure(self):
        m = build_initial(DomainShape.UNIT_SQUARE, 1.0)
        r = m.refine(list(m.active_ids))
        child = r.active_ids[0]
        r2 = r.refine([child])
        assert r2.n_active == 7

    def test_closure_forces_coarse_neighbor(self):
        # two adjacent active cells at levels (2, 1): marking the level-2 one
        # must force its level-1 face neighbor to refine as well
        m = build_initial(DomainShape.UNIT_SQUARE, 1.0)
        m = m.refine(list(m.active_ids))          # 4 cells at level 1
        sw = min(m.active_ids, key=lambda cid: (m.cell(cid).y0, m.cell(cid).x0))
        m = m.refine([sw])                        # SW quad at level 2
        # pick the level-2 cell touching the level-1 SE neighbor
        lvl2 = [cid for cid in m.active_ids if m.cell(cid).level == 2]
        target = max(lvl2, key=lambda cid: (m.cell(cid).x0, -m.cell(cid).y0))
        se = [cid for cid in m.active_ids
              if m.cell(cid).level == 1 and m.cell(cid).x0 == 0.5
              and m.cell(cid).y0 == 0.0][0]
        r = m.refine([target])
        assert not r.is_active(se), "level-1 neighbor must be refined by closure"
        assert max(levels_across_edges(r)) <= 1

    def test_refine_rejects_inactive_marks(self):
        m = build_initial(DomainShape.UNIT_SQUARE, 1.0)
        r = m.refine(list(m.active_ids))
        with pytest.raises(MeshError):
            r.refine([m.active_ids[0]])   # the root is no longer active


class TestCoarsen:
    def test_full_quadruple(self):
        m = build_initial(DomainShape.UNIT_SQUARE, 1.0)
        r = m.refine(list(m.active_ids))
        c = r.coarsen(list(r.active_ids))
        assert c.n_active == 1
        assert sorted(c.active_ids) == sorted(m.active_ids)

    def test_incomplete_quadruple_ignored(self):
        m = build_initial(DomainShape.UNIT_SQUARE, 1.0)
        r = m.refine(list(m.active_ids))
        c = r.coarsen(list(r.active_ids)[:3])
        assert sorted(c.active_ids) == sorted(r.active_ids)

    def test_unhonoured_marks_return_same_mesh(self):
        m = build_initial(DomainShape.UNIT_SQUARE, 0.5)
        r = m.refine([m.active_ids[0]])
        assert r.coarsen(list(r.active_ids)[:3]) is r   # incomplete quadruple
        assert m.coarsen(list(m.active_ids)) is m        # root cells
        with pytest.raises(MeshError):
            r.coarsen([m.active_ids[0]])                 # no longer active

    def test_blocked_by_one_irregularity(self):
        # coarsening a quad is refused if a neighbor would end up 2 levels finer
        m = build_initial(DomainShape.UNIT_SQUARE, 1.0)
        m = m.refine(list(m.active_ids))
        sw = min(m.active_ids, key=lambda cid: (m.cell(cid).y0, m.cell(cid).x0))
        m = m.refine([sw])
        lvl2 = [cid for cid in m.active_ids if m.cell(cid).level == 2]
        ne2 = max(lvl2, key=lambda cid: (m.cell(cid).x0 + m.cell(cid).y0))
        m2 = m.refine([ne2])   # creates level-3 cells next to the level-2 ring
        lvl2_now = [cid for cid in m2.active_ids if m2.cell(cid).level == 2]
        before = m2.n_active
        c = m2.coarsen(lvl2_now)
        # both complete quadruples (parents 2 and 3) border the level-3
        # children of cell 8, so neither may coarsen
        assert c is m2 and before == 16
        for p in (2, 3):
            assert all(c.is_active(kid) for kid in m2.cell(p).children)

    def test_refine_coarsen_roundtrip_identity(self):
        m = random_adaptive_mesh(rounds=2, seed=5)
        marked = list(m.active_ids)[: max(1, m.n_active // 5)]
        r = m.refine(marked)
        new_cells = [cid for cid in r.active_ids if not m.is_active(cid)]
        c = r.coarsen(new_cells)
        assert sorted(c.active_ids) == sorted(m.active_ids)


class TestInvariants:
    @pytest.mark.parametrize("shape,area", [(DomainShape.L_SHAPE, 3.0),
                                            (DomainShape.UNIT_SQUARE, 1.0)])
    def test_area_conserved(self, shape, area):
        rng = np.random.default_rng(7)
        mesh = build_initial(shape, 0.25)
        for _ in range(3):
            ids = list(mesh.active_ids)
            mesh = mesh.refine(rng.choice(ids, size=len(ids) // 3, replace=False))
            ids = list(mesh.active_ids)
            mesh = mesh.coarsen(rng.choice(ids, size=len(ids) // 2, replace=False))
            assert mesh.area() == pytest.approx(area, abs=1e-12)

    def test_one_irregular_after_refine(self):
        m = random_adaptive_mesh(rounds=3, seed=11)
        assert max(levels_across_edges(m)) <= 1

    def test_normals_point_minus_to_plus(self):
        m = random_adaptive_mesh(rounds=2, seed=3)
        for e in m.interior_edges():
            cm = m.cell(e.minus_cell).center
            cp = m.cell(e.plus_cell).center
            d = np.array([cp.x - cm.x, cp.y - cm.y])
            assert np.dot(d, e.normal) > 0

    def test_hanging_flags_and_half_lengths(self):
        m = build_initial(DomainShape.L_SHAPE, 1.0)
        m = m.refine([m.active_ids[0]])
        hang = [e for e in m.edges if e.hanging]
        assert len(hang) == 4
        for e in hang:
            assert e.kind is EdgeKind.INTERIOR
            assert e.length == m.cell(e.minus_cell).side
            assert m.cell(e.plus_cell).level == m.cell(e.minus_cell).level - 1

    def test_h_min_tracks_refinement(self):
        m = build_initial(DomainShape.UNIT_SQUARE, 0.5)
        assert m.h_min == 0.5
        m = m.refine([m.active_ids[0]])
        assert m.h_min == 0.25


class TestClassifyEdges:
    def test_all_dirichlet_default(self):
        m = build_initial(DomainShape.L_SHAPE, 1.0)
        kinds = [e.kind for e in m.boundary_edges()]
        assert kinds.count(EdgeKind.DIRICHLET) == 8
        assert kinds.count(EdgeKind.NEUMANN) == 0

    def test_bottom_neumann_unit_square(self):
        m = build_initial(DomainShape.UNIT_SQUARE, 0.5)
        part = {"left": "D", "right": "D", "top": "D", "bottom": "N"}
        m = m.classify_edges(part)
        neumann = [e for e in m.boundary_edges() if e.kind is EdgeKind.NEUMANN]
        assert len(neumann) == 2
        assert all(e.endpoints[0].y == 0.0 and e.endpoints[1].y == 0.0
                   for e in neumann)

    def test_refinement_splits_boundary_edges(self):
        m = build_initial(DomainShape.UNIT_SQUARE, 1.0)
        n_before = len(m.boundary_edges())
        r = m.refine(list(m.active_ids))
        assert len(r.boundary_edges()) == 2 * n_before
        assert all(e.kind is EdgeKind.DIRICHLET for e in r.boundary_edges())

    def test_missing_face_is_an_error(self):
        m = build_initial(DomainShape.L_SHAPE, 1.0)
        with pytest.raises(MeshError):
            m.classify_edges({"left": "D"})

    def test_inner_faces_have_their_own_names(self):
        m = build_initial(DomainShape.L_SHAPE, 1.0)
        part = {"left": "D", "right": "D", "bottom": "D", "top": "D",
                "inner_vertical": "N", "inner_horizontal": "N"}
        m = m.classify_edges(part)
        neumann = [e for e in m.boundary_edges() if e.kind is EdgeKind.NEUMANN]
        assert len(neumann) == 2
        for e in neumann:
            on_x0 = e.endpoints[0].x == 0.0 and e.endpoints[1].x == 0.0
            on_y0 = e.endpoints[0].y == 0.0 and e.endpoints[1].y == 0.0
            assert on_x0 or on_y0


class TestLocate:
    def test_simple_points(self):
        m = random_adaptive_mesh(rounds=2, seed=2)
        rng = np.random.default_rng(0)
        for _ in range(50):
            x, y = rng.uniform(-1, 1, size=2)
            if x > 0 and y > 0:
                continue
            cid = m.locate(x, y)
            c = m.cell(cid)
            assert c.x0 <= x <= c.x0 + c.side
            assert c.y0 <= y <= c.y0 + c.side

    def test_outside_raises(self):
        m = build_initial(DomainShape.L_SHAPE, 1.0)
        with pytest.raises(ValueError):
            m.locate(0.5, 0.5)
        with pytest.raises(ValueError):
            m.locate(2.0, 0.0)

    def test_reentrant_boundary_points(self):
        m = build_initial(DomainShape.L_SHAPE, 0.5)
        assert m.cell(m.locate(0.0, 0.5)).x0 == -0.5
        assert m.cell(m.locate(0.5, 0.0)).y0 == -0.5


def _random_history(shape, ops, seed):
    """Mesh after random refine/coarsen rounds from a coarse initial mesh;
    a coarsen round marks the active children of randomly picked parents."""
    rng = np.random.default_rng(seed)
    mesh = build_initial(shape, 0.5)
    for op in ops:
        ids = np.asarray(mesh.active_ids)
        if op == "refine":
            mesh = mesh.refine(rng.choice(ids, size=max(1, len(ids) // 3),
                                          replace=False))
        else:
            parents = mesh.parent_ids(ids)[0]
            pick = rng.random(len(ids)) < 0.5
            mesh = mesh.coarsen(ids[np.isin(parents, parents[pick])
                                    & (parents >= 0)])
    return mesh


HISTORIES = dict(
    shape=st.sampled_from([DomainShape.UNIT_SQUARE, DomainShape.L_SHAPE]),
    ops=st.lists(st.sampled_from(["refine", "coarsen"]), min_size=1,
                 max_size=5),
    seed=st.integers(0, 2 ** 16))


class TestRandomHistories:
    @settings(max_examples=16, deadline=None, derandomize=True)
    @given(**HISTORIES)
    def test_edges_tile_a_one_irregular_mesh(self, shape, ops, seed):
        m = _random_history(shape, ops, seed)
        assert max(levels_across_edges(m)) <= 1
        assert m.area() == (1.0 if shape is DomainShape.UNIT_SQUARE else 3.0)
        covered = {}
        for e in m.edges:
            sides = [(e.minus_cell, e.minus_side)]
            if e.plus_cell is not None:
                sides.append((e.plus_cell, e.minus_side ^ 1))   # opposite
                cm, cp = m.cell(e.minus_cell).center, m.cell(e.plus_cell).center
                assert np.dot([cp.x - cm.x, cp.y - cm.y], e.normal) > 0
            for key in sides:
                covered[key] = covered.get(key, 0.0) + e.length
        assert covered == {(c.id, side): c.side for c in m.active_cells()
                           for side in range(4)}

    @settings(max_examples=16, deadline=None, derandomize=True)
    @given(k=st.sampled_from([1, 2]), **HISTORIES)
    def test_dof_numbering_and_constraints(self, k, shape, ops, seed):
        s = EGSpace(_random_history(shape, ops, seed), k)
        masters = {mst for terms in s.constraints.values() for mst, _ in terms}
        assert not masters & set(s.constraints)
        # nodes are numbered in first-encounter order, row by row
        nodes, first = np.unique(s.cell_dofs[:, :-1], return_index=True)
        assert np.array_equal(nodes, np.arange(s.n_cg))
        assert np.all(np.diff(first) > 0)
        assert np.array_equal(s.cell_dofs[:, -1], s.n_cg + np.arange(s.n_const))
