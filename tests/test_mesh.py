import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from egadapt import (ConfigError, DomainShape, EdgeKind, EGSpace, MeshError,
                     build_initial)
from egadapt import mesh as mesh_mod
from egadapt.mesh import BOUNDARY_FACES, EAST, KINDS, NORMALS, NORTH, SOUTH

from conftest import random_adaptive_mesh
from reference import edge_arrays_by_walk, locate

DIRICHLET, NEUMANN = (KINDS.index(k) for k in (EdgeKind.DIRICHLET,
                                                EdgeKind.NEUMANN))


def levels_across_edges(mesh):
    e = mesh.edge_arrays
    inner = e.plus >= 0
    return np.abs(mesh.level[e.minus[inner]] - mesh.level[e.plus[inner]])


def centers(mesh):
    """(C, 2) cell centers."""
    return np.column_stack([mesh.x0, mesh.y0]) + 0.5 * mesh.side[:, None]


class TestBuildInitial:
    def test_lshape_unit_cells(self):
        m = build_initial(DomainShape.L_SHAPE, 1.0)
        assert m.n_active == 3
        assert np.sum(m.edge_arrays.plus >= 0) == 2
        assert np.sum(m.edge_arrays.plus < 0) == 8

    def test_lshape_half(self):
        assert build_initial(DomainShape.L_SHAPE, 0.5).n_active == 12

    def test_unit_square_grid(self):
        m = build_initial(DomainShape.UNIT_SQUARE, 0.25)
        assert m.n_active == 16
        assert np.sum(m.edge_arrays.plus >= 0) == 24

    def test_rejects_non_dyadic_h0(self):
        with pytest.raises(ConfigError):
            build_initial(DomainShape.UNIT_SQUARE, 0.3)
        with pytest.raises(ConfigError):
            build_initial(DomainShape.L_SHAPE, 1.5)

    def test_cell_geometry(self):
        m = build_initial(DomainShape.UNIT_SQUARE, 0.5)
        assert np.all(m.side == 0.5) and np.all(m.level == 0)
        assert (m.x0[1], m.y0[1]) == (0.5, 0.0)      # roots row by row, x fastest


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
        m = m.refine([locate(m, 0.0, 0.0)])       # SW quad at level 2
        # the level-2 cell touching the level-1 SE neighbor
        target, se = locate(m, 0.25, 0.0), locate(m, 0.5, 0.0)
        assert m.level[m.active_rows([target, se])].tolist() == [2, 1]
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
        m = m.refine([locate(m, 0.0, 0.0)])
        ne2 = locate(m, 0.25, 0.25)     # the NE child of the SW quad
        m2 = m.refine([ne2])   # creates level-3 cells next to the level-2 ring
        lvl2_now = m2.active_ids[m2.level == 2]
        before = m2.n_active
        c = m2.coarsen(lvl2_now)
        # both complete quadruples (parents 2 and 3) border the level-3
        # children of cell 8, so neither may coarsen
        assert c is m2 and before == 16
        kids = m2.child_ids([[2], [3]], np.array([0, 1, 0, 1]),
                            np.array([0, 0, 1, 1]))
        assert np.all(c.active_rows(kids) >= 0)

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
        e = m.edge_arrays
        inner = e.plus >= 0
        d = centers(m)[e.plus[inner]] - centers(m)[e.minus[inner]]
        assert np.all(np.sum(d * np.take(NORMALS, e.side[inner], axis=0),
                             axis=1) > 0)

    def test_hanging_flags_and_half_lengths(self):
        m = build_initial(DomainShape.L_SHAPE, 1.0)
        m = m.refine([m.active_ids[0]])
        e = m.edge_arrays
        fine, coarse = e.minus[e.hanging], e.plus[e.hanging]
        assert len(fine) == 4
        assert np.all(e.kind[e.hanging] == KINDS.index(EdgeKind.INTERIOR))
        assert np.all(m.side[coarse] == 2 * m.side[fine])
        assert np.all(m.level[coarse] == m.level[fine] - 1)

    @pytest.mark.parametrize("k", [1, 2])
    def test_lattice_points_number_equal_points_once(self, k):
        m = random_adaptive_mesh(rounds=3, seed=2)
        offsets = [(a, b) for b in range(k + 1) for a in range(k + 1)]
        numbers, coords, (row, off) = m.lattice_points(k, offsets)
        every = m.points(np.array(offsets) / k)
        assert np.array_equal(coords[numbers], every)
        assert len(np.unique(coords, axis=0)) == len(coords)
        # number n first appears at its (row, off), after every lower number
        values, first = np.unique(numbers, return_index=True)
        assert np.array_equal(values, np.arange(len(coords)))
        assert np.array_equal(first, row * len(offsets) + off)
        assert np.all(np.diff(first) > 0)

    def test_h_min_tracks_refinement(self):
        m = build_initial(DomainShape.UNIT_SQUARE, 0.5)
        assert m.h_min == 0.5
        m = m.refine([m.active_ids[0]])
        assert m.h_min == 0.25


class TestClassifyEdges:
    def test_all_dirichlet_default(self):
        m = build_initial(DomainShape.L_SHAPE, 1.0)
        e = m.edge_arrays
        assert np.array_equal(e.kind[e.plus < 0], [DIRICHLET] * 8)

    def test_bottom_neumann_unit_square(self):
        part = {"left": "D", "right": "D", "top": "D", "bottom": "N"}
        m = build_initial(DomainShape.UNIT_SQUARE, 0.5, part)
        e = m.edge_arrays
        neumann = e.kind == NEUMANN
        assert np.sum(neumann) == 2
        assert np.all(e.side[neumann] == SOUTH)
        assert np.all(m.y0[e.minus[neumann]] == 0.0)

    def test_refinement_splits_boundary_edges(self):
        m = build_initial(DomainShape.UNIT_SQUARE, 1.0)
        r = m.refine(list(m.active_ids))
        before, after = (np.sum(a.edge_arrays.plus < 0) for a in (m, r))
        assert after == 2 * before
        e = r.edge_arrays
        assert np.all(e.kind[e.plus < 0] == DIRICHLET)

    def test_missing_face_is_an_error(self):
        full = {"left": "D", "right": "D", "bottom": "D", "top": "D",
                "inner_vertical": "D", "inner_horizontal": "D"}
        for bad in ({"left": "D"},                     # missing faces
                    {**full, "left": "d"},             # lowercase value
                    {**full, "front": "D"}):           # unknown face
            with pytest.raises(MeshError):
                build_initial(DomainShape.L_SHAPE, 1.0, bad)
        with pytest.raises(MeshError):                 # inner faces of L only
            build_initial(DomainShape.UNIT_SQUARE, 1.0, full)

    def test_inner_faces_have_their_own_names(self):
        part = {"left": "D", "right": "D", "bottom": "D", "top": "D",
                "inner_vertical": "N", "inner_horizontal": "N"}
        m = build_initial(DomainShape.L_SHAPE, 1.0, part)
        e = m.edge_arrays
        neumann = e.kind == NEUMANN
        # the east face of a cell left of x = 0, the north face below y = 0
        assert sorted(e.side[neumann]) == [EAST, NORTH]
        rows = e.minus[neumann]
        far = np.where(e.side[neumann] == EAST, m.x0[rows], m.y0[rows])
        assert np.all(far + m.side[rows] == 0.0)


class TestLocate:
    """The point-location oracle of the transfer tests."""

    def test_simple_points(self):
        m = random_adaptive_mesh(rounds=2, seed=2)
        rng = np.random.default_rng(0)
        for _ in range(50):
            x, y = rng.uniform(-1, 1, size=2)
            if x > 0 and y > 0:
                continue
            row = m.active_rows(locate(m, x, y))
            assert m.x0[row] <= x <= m.x0[row] + m.side[row]
            assert m.y0[row] <= y <= m.y0[row] + m.side[row]

    def test_outside_raises(self):
        m = build_initial(DomainShape.L_SHAPE, 1.0)
        with pytest.raises(ValueError):
            locate(m, 0.5, 0.5)
        with pytest.raises(ValueError):
            locate(m, 2.0, 0.0)

    def test_reentrant_boundary_points(self):
        m = build_initial(DomainShape.L_SHAPE, 0.5)
        assert m.x0[m.active_rows(locate(m, 0.0, 0.5))] == -0.5
        assert m.y0[m.active_rows(locate(m, 0.5, 0.0))] == -0.5


def _random_history(shape, ops, seed, partition=None):
    """Mesh after random refine/coarsen rounds from a coarse initial mesh;
    a coarsen round marks the active children of randomly picked parents."""
    rng = np.random.default_rng(seed)
    mesh = build_initial(shape, 0.5, partition)
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
        # every side of every cell is covered once by the edges on it, the
        # plus cell on the opposite side; an edge is as long as its minus side
        e = m.edge_arrays
        inner = e.plus >= 0
        covered = np.zeros((m.n_active, 4))
        np.add.at(covered, (e.minus, e.side), m.side[e.minus])
        np.add.at(covered, (e.plus[inner], e.side[inner] ^ 1),
                  m.side[e.minus[inner]])
        assert np.array_equal(covered, np.repeat(m.side[:, None], 4, axis=1))
        d = centers(m)[e.plus[inner]] - centers(m)[e.minus[inner]]
        assert np.all(np.sum(d * np.take(NORMALS, e.side[inner], axis=0),
                             axis=1) > 0)

    @settings(max_examples=24, deadline=None, derandomize=True)
    @given(kinds=st.lists(st.sampled_from("DN"), min_size=6, max_size=6),
           **HISTORIES)
    def test_edge_arrays_match_the_id_walk(self, kinds, shape, ops, seed):
        partition = dict(zip(BOUNDARY_FACES[shape], kinds))
        m = _random_history(shape, ops, seed, partition)
        for got, want in zip(m.edge_arrays, edge_arrays_by_walk(m)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    @settings(max_examples=24, deadline=None, derandomize=True)
    @given(shape=HISTORIES["shape"], rounds=st.integers(1, 4),
           share=st.floats(0.2, 1.0), seed=HISTORIES["seed"])
    def test_coarsening_is_legal_and_maximal(self, shape, rounds, share, seed):
        """The result is 1-irregular, and each complete marked quadruple
        left in place breaks 1-irregularity when coarsened alone."""
        rng = np.random.default_rng(seed)
        m = _random_history(shape, ["refine"] * rounds, seed)
        ids = np.asarray(m.active_ids)
        parents = m.parent_ids(ids)[0]
        marked = ids[(rng.random(len(ids)) < share)
                     | np.isin(parents, parents[rng.random(len(ids)) < share])]
        c = m.coarsen(marked)
        assert max(levels_across_edges(c), default=0) <= 1
        p, count = np.unique(m.parent_ids(marked)[0], return_counts=True)
        kids = m.child_ids(p[:, None], np.array([0, 1, 0, 1]),
                           np.array([0, 0, 1, 1]))
        left = (count == 4) & (p >= 0) & np.all(c.active_rows(kids) >= 0,
                                                axis=1)
        for parent, quad in zip(p[left], kids[left]):
            rest = np.setdiff1d(c.active_ids, quad)
            with pytest.raises(MeshError, match="1-irregularity"):
                c._rebuild(np.sort(np.append(rest, parent)))

    @settings(max_examples=16, deadline=None, derandomize=True)
    @given(k=st.sampled_from([1, 2]), **HISTORIES)
    def test_dof_numbering_and_constraints(self, k, shape, ops, seed):
        s = EGSpace(_random_history(shape, ops, seed), k)
        # no master of a hanging node is itself hanging
        C = s.constraint_matrix
        assert not np.isin(C[s.slaves].indices, s.slaves).any()
        # nodes are numbered in first-encounter order, row by row
        nodes, first = np.unique(s.cell_dofs[:, :-1], return_index=True)
        assert np.array_equal(nodes, np.arange(s.n_cg))
        assert np.all(np.diff(first) > 0)
        assert np.array_equal(s.cell_dofs[:, -1], s.n_cg + np.arange(s.n_const))


def test_morton_indices_once_per_mesh(monkeypatch):
    # the edges, the transfers and the factor orders read each mesh's
    # Morton ranges; only building a mesh interleaves bits
    calls, built = [], []
    real_morton, real_init = mesh_mod._morton, mesh_mod.Mesh.__init__
    monkeypatch.setattr(mesh_mod, "_morton",
                        lambda i, j: calls.append(1) or real_morton(i, j))
    monkeypatch.setattr(mesh_mod.Mesh, "__init__",
                        lambda self, *a: built.append(1) or real_init(self, *a))
    from egadapt import RunConfig, run_timeloop
    reports = run_timeloop(RunConfig(
        problem="example2", mode="adaptive_full", k=2, h0=0.25, dt=0.01,
        T_final=0.05, tau=2e-3, theta_coarse=0.4, theta_refine=0.2,
        coarsen_rule="fraction"))
    assert len(reports) == 5 and len(built) > 5
    assert len(calls) == len(built)
