import math
import weakref

import mpmath
import numpy as np
import pytest

from egadapt import EGSpace, RunConfig, by_name, problems, run_timeloop
from egadapt import space as space_mod
from egadapt.assembly import edge_groups
from egadapt.mesh import EdgeKind
from egadapt.problems import example1, example2, smoke_linear
from egadapt.space import CellPoints

from conftest import random_adaptive_mesh
from reference import PROBLEM_DATA


def mp_angle(x, y):
    return mpmath.fmod(-mpmath.atan2(y, x) + 2 * mpmath.pi, 2 * mpmath.pi)


def mp_p1(x, y, t):
    """Independent high-precision version of the first benchmark solution."""
    r = mpmath.sqrt(x * x + y * y)
    phi = mp_angle(x, y)
    return (mpmath.sin(mpmath.pi * t / 2) * r ** (mpmath.mpf(2) / 3)
            * mpmath.sin(2 * phi / 3))


def mp_p2(x, y, t):
    w = (x * x - 1) * (y * y - 1)
    return w * mp_p1(x, y, t)


def mp_laplacian(fn, x, y, t, h):
    return (fn(x + h, y, t) + fn(x - h, y, t) + fn(x, y + h, t)
            + fn(x, y - h, t) - 4 * fn(x, y, t)) / (h * h)


def mp_dt(fn, x, y, t, h):
    return (fn(x, y, t + h) - fn(x, y, t - h)) / (2 * h)


def interior_points(rng, n, rmin=0.1):
    pts = []
    while len(pts) < n:
        x, y = rng.uniform(-0.95, 0.95, size=2)
        if x > 0.05 and y > 0.05:
            continue
        if math.hypot(x, y) < rmin:
            continue
        pts.append((x, y))
    return pts


class TestClockwiseAngle:
    """The angle of the corner singularity, ``problems._angle``."""

    def test_fourth_quadrant(self):
        assert problems._angle(0.5, -0.5) == pytest.approx(math.pi / 4)

    def test_negative_x_axis(self):
        assert problems._angle(-1.0, 0.0) == pytest.approx(math.pi)

    def test_positive_y_axis(self):
        phi = problems._angle(0.0, 1.0)
        assert phi == pytest.approx(3 * math.pi / 2)
        assert math.sin(2 * phi / 3) == pytest.approx(0.0, abs=1e-15)

    def test_origin_gives_zero(self):
        # r^(2/3) vanishes there, so any finite angle gives s = 0
        assert problems._angle(0.0, 0.0) == 0.0


class TestExample1:
    def test_zero_at_t0(self):
        p = example1().exact.p
        rng = np.random.default_rng(0)
        for x, y in interior_points(rng, 10):
            assert float(p(x, y, 0.0)) == 0.0

    def test_point_value(self):
        p = example1().exact.p
        expect = math.sin(math.pi / 4) * math.sin(2 * math.pi / 3)
        assert float(p(-1.0, 0.0, 0.5)) == pytest.approx(expect, abs=1e-12)
        assert expect == pytest.approx(0.6124, abs=5e-5)

    def test_source_point_value(self):
        f = example1().f
        expect = (math.pi / 2) * math.sin(math.pi / 3)
        assert float(f(0.0, -1.0, 0.0)) == pytest.approx(expect, abs=1e-12)
        assert expect == pytest.approx(1.3603, abs=5e-5)

    def test_harmonic_spatial_part(self):
        # the source must equal the time derivative alone: Laplacian of the
        # spatial part vanishes (checked with a high-precision FD stencil)
        mpmath.mp.dps = 40
        prob = example1()
        rng = np.random.default_rng(1)
        h = mpmath.mpf(1) / 10 ** 5
        for x, y in interior_points(rng, 10):
            lap = mp_laplacian(mp_p1, mpmath.mpf(x), mpmath.mpf(y),
                               mpmath.mpf("0.3"), h)
            assert abs(float(lap)) <= 1e-6

    def test_source_is_time_derivative(self):
        mpmath.mp.dps = 40
        prob = example1()
        rng = np.random.default_rng(2)
        h = mpmath.mpf(1) / 10 ** 6
        for x, y in interior_points(rng, 8):
            dt = mp_dt(mp_p1, mpmath.mpf(x), mpmath.mpf(y), mpmath.mpf("0.3"), h)
            assert float(prob.f(x, y, 0.3)) == pytest.approx(float(dt), abs=1e-9)

    def test_gradient_against_finite_differences(self):
        prob = example1()
        rng = np.random.default_rng(3)
        h = 1e-6
        p = prob.exact.p
        for x, y in interior_points(rng, 20):
            gx, gy = prob.exact.grad(x, y, 0.4)
            fx = (p(x + h, y, 0.4) - p(x - h, y, 0.4)) / (2 * h)
            fy = (p(x, y + h, 0.4) - p(x, y - h, 0.4)) / (2 * h)
            scale = max(1.0, abs(fx), abs(fy))
            assert float(gx) == pytest.approx(float(fx), abs=1e-6 * scale)
            assert float(gy) == pytest.approx(float(fy), abs=1e-6 * scale)

    def test_vanishes_on_reentrant_edges(self):
        p = example1().exact.p
        for x in np.linspace(0.05, 1.0, 7):
            assert abs(float(p(x, 0.0, 0.5))) <= 1e-12
        for y in np.linspace(0.05, 1.0, 7):
            assert abs(float(p(0.0, y, 0.5))) <= 1e-12


class TestExample2:
    def test_outer_boundary_zero(self):
        p = example2().exact.p
        for v in np.linspace(-1.0, 1.0, 9):
            assert abs(float(p(1.0, min(v, 0.0), 0.5))) <= 1e-13
            assert abs(float(p(-1.0, v, 0.5))) <= 1e-13
            assert abs(float(p(min(v, 0.0), -1.0, 0.5))) <= 1e-13

    def test_point_value(self):
        p = example2().exact.p
        val = float(p(-0.5, -0.5, 0.5))
        w = 0.5625
        s = math.sin(math.pi / 4) * (0.5 * math.sqrt(2.0)) ** (2.0 / 3.0) \
            * math.sin(math.pi / 2)
        assert val == pytest.approx(w * s, abs=1e-12)
        assert val == pytest.approx(0.3157, abs=5e-5)

    def test_pde_residual_high_precision(self):
        # |dp/dt - lap(p) - f| at random interior points via mpmath stencils
        mpmath.mp.dps = 40
        prob = example2()
        rng = np.random.default_rng(4)
        h = mpmath.mpf(1) / 10 ** 5
        t = mpmath.mpf("0.3")
        for x, y in interior_points(rng, 20):
            X, Y = mpmath.mpf(x), mpmath.mpf(y)
            resid = mp_dt(mp_p2, X, Y, t, h) - mp_laplacian(mp_p2, X, Y, t, h) \
                - mpmath.mpf(float(prob.f(x, y, 0.3)))
            assert abs(float(resid)) <= 1e-8

    def test_gradient_against_finite_differences(self):
        prob = example2()
        rng = np.random.default_rng(5)
        h = 1e-6
        p = prob.exact.p
        for x, y in interior_points(rng, 20):
            gx, gy = prob.exact.grad(x, y, 0.25)
            fx = (p(x + h, y, 0.25) - p(x - h, y, 0.25)) / (2 * h)
            fy = (p(x, y + h, 0.25) - p(x, y - h, 0.25)) / (2 * h)
            scale = max(1.0, abs(fx), abs(fy))
            assert float(gx) == pytest.approx(float(fx), abs=1e-6 * scale)
            assert float(gy) == pytest.approx(float(fy), abs=1e-6 * scale)


class TestSmokeLinear:
    def test_consistency(self):
        prob = smoke_linear()
        x = np.array([0.3, 0.7])
        y = np.array([0.1, 0.9])
        assert np.allclose(prob.f(x, y, 0.3), 0.0)
        assert np.allclose(prob.exact.p(x, y, 0.0), x + y)
        gx, gy = prob.exact.grad(x, y, 0.0)
        assert np.allclose(gx, 1.0) and np.allclose(gy, 1.0)

    def test_registry(self):
        assert by_name("example1").name == "example1"
        assert by_name("smoke_linear").shape.value == "unit_square"
        with pytest.raises(KeyError):
            by_name("nope")


def _record_calls(monkeypatch, owner, name):
    """Wrap ``owner.<name>``; returns the list of x arrays it is called with."""
    seen, real = [], getattr(owner, name)

    def wrapper(x, y, *rest):
        seen.append(x)
        return real(x, y, *rest)
    monkeypatch.setattr(owner, name, wrapper)
    return seen


class TestCellPointCache:
    """Each problem's terms are evaluated once per space at its cell points."""

    @pytest.fixture(params=[1, 2])
    def space(self, request):
        return EGSpace(random_adaptive_mesh(rounds=2, seed=4), request.param)

    @pytest.mark.parametrize("make", [example1, example2])
    def test_cached_results_equal_fresh_evaluation(self, space, make,
                                                   monkeypatch):
        assert len(space.slaves)                     # a hanging mesh
        terms = {example1: "_corner_terms", example2: "_window_terms"}[make]
        calls = _record_calls(monkeypatch, problems, terms)
        prob = make()                                # builds on the wrapper
        x, y = space.tables.x, space.tables.y
        fresh_x, fresh_y = np.array(x), np.array(y)  # plain copies
        assert type(fresh_x) is np.ndarray
        for t in (0.0, 0.05, 0.37, 1.0):
            for fn in (prob.f, prob.g_D, prob.exact.p, prob.exact.grad):
                want = np.asarray(fn(fresh_x, fresh_y, t))
                for _ in range(2):
                    assert np.array_equal(np.asarray(fn(x, y, t)), want)
        # one evaluation at the cell points, the rest on the copies
        assert sum(a is x for a in calls) == 1
        assert sum(a is fresh_x for a in calls) == len(calls) - 1

    def test_other_arrays_are_not_served_from_the_cache(self, space):
        x, y = space.tables.x, space.tables.y
        f = example1().f
        cached = f(x, y, 0.5)
        for args in ((y, x), (x, y + 0.0), (x[:1], y[:1]), (x + 0.0, y)):
            assert np.array_equal(
                f(*args, 0.5), f(*(np.array(a) for a in args), 0.5))
        assert np.array_equal(f(x, y, 0.5), cached)

    def test_instances_share_one_memo_entry(self, space):
        x, y = space.tables.x, space.tables.y
        first, second = example1(), example1()
        want = first.f(x, y, 0.3)
        assert np.array_equal(second.f(x, y, 0.3), want)
        second.exact.grad(x, y, 0.3)
        assert list(x._memo) == [problems._corner_terms]

    def test_points_and_cached_values_are_read_only(self, space):
        x, y = space.tables.x, space.tables.y
        for make in (example1, example2, smoke_linear):
            make().f(x, y, 0.5)
        # u, ux, uy, and lap_u only where u is not harmonic
        assert {fn: len(v) for fn, v in x._memo.items()} == {
            problems._corner_terms: 3, problems._window_terms: 4,
            problems._linear_terms: 3}
        for values in x._memo.values():
            for a in (x, y, *values):
                with pytest.raises(ValueError):
                    a[0, 0] = 1.0

    def test_cache_is_freed_with_the_space(self):
        space = EGSpace(random_adaptive_mesh(rounds=1, seed=2), 1)
        example1().exact.p(space.tables.x, space.tables.y, 0.5)
        s = space.tables.x._memo[problems._corner_terms][0]
        g = next(g for g in edge_groups(space)
                 if g.kind is EdgeKind.DIRICHLET)
        example1().g_D(g.x, g.y, 0.5)
        edge_values = g.x._memo[problems._corner_terms]
        for a in (g.P, g.x, g.y, *edge_values):
            with pytest.raises(ValueError):
                a[0, 0] = 1.0
        refs = [weakref.ref(o) for o in (space, space.tables, s, g, g.x,
                                         edge_values[0])]
        del space, s, g, edge_values
        assert all(r() is None for r in refs)

    def test_memo_entry_is_the_terms_own_arrays(self):
        space = EGSpace(random_adaptive_mesh(rounds=1, seed=2), 1)
        x, y = space.tables.x, space.tables.y
        returned = []

        def terms(x, y):
            returned.append(problems._corner_terms(x, y))
            return returned[-1]

        first = x.cached(y, terms)
        again = x.cached(y, terms)
        assert len(returned) == 1 and len(first) == len(again) == 3
        for a, b, c in zip(returned[0], first, again):
            assert a is b and b is c
            with pytest.raises(ValueError):
                a[0, 0] = 1.0
        refs = [weakref.ref(o) for o in (space, *first)]
        returned.clear()
        del space, x, y, first, again, a, b, c
        assert all(r() is None for r in refs)

    @pytest.mark.parametrize("make", [example1, example2])
    def test_batch_terms_equal_fresh_run_terms(self, make):
        # the Dirichlet batch evaluates its edges' data in one array; each
        # run of one edge type, on its own, gives the same floats
        space = EGSpace(random_adaptive_mesh(rounds=3, seed=7), 2)
        terms = {example1: "_corner_terms", example2: "_window_terms"}[make]
        fn = getattr(problems, terms)
        (b,) = [b for b in edge_groups(space) if b.kind is EdgeKind.DIRICHLET]
        make().g_D(b.x, b.y, 0.4)
        batch = b.x._memo[fn]
        assert len(b.types) > 1
        for t in range(len(b.types)):
            run = b.tid == t
            fresh = fn(np.array(b.x[run]), np.array(b.y[run]))
            for got, want in zip(batch, fresh):
                assert np.array_equal(got[run], want)

    def test_adaptive_run_evaluates_each_space_twice(self, monkeypatch):
        built = _record_calls(monkeypatch, space_mod.EGSpace, "__init__")
        evaluations = _record_calls(monkeypatch, problems, "_window_terms")
        reports = run_timeloop(RunConfig(
            problem="example2", mode="adaptive_full", k=2, h0=0.25, dt=0.01,
            T_final=0.05, tau=2e-3, theta_coarse=0.4, theta_refine=0.2,
            coarsen_rule="fraction"))
        assert len(reports) == 5 and len(built) > 5
        # once at the cell points and once at the Dirichlet edges' points
        cells = [s.tables.x for s in built]
        assert sum(any(x is c for c in cells) for x in evaluations) == len(built)
        assert len(evaluations) == 2 * len(built)

    def test_uniform_run_evaluates_the_cell_grid_once(self, monkeypatch):
        calls = _record_calls(monkeypatch, CellPoints, "cached")
        evaluations = _record_calls(monkeypatch, problems, "_corner_terms")
        steps = 5
        reports = run_timeloop(RunConfig(problem="example1", mode="uniform",
                                         h0=0.25, dt=0.01, T_final=0.05))
        assert len(reports) == steps
        grid = 48 * 16       # L-shape cells at h0 = 1/4, 4 x 4 Gauss points
        # f for the load vector and for the indicators, exact p and grad
        assert sum(np.size(x) == grid for x in calls) == 4 * steps
        assert sum(np.size(x) == grid for x in evaluations) == 1
        # and the Dirichlet edges' points once, in one batch, though the
        # load and the indicators take g_D there every step
        assert len(evaluations) == 1 + 1


class TestClosedForms:
    """The builder gives each problem's data as its closed form, exactly
    for example1 and smoke_linear; example2 expands p = T (w s) where the
    closed form reads (T w) s, a difference in the last bit."""

    @pytest.mark.parametrize("name", ["example1", "smoke_linear"])
    @pytest.mark.parametrize("cell_points", [True, False])
    def test_exact(self, name, cell_points):
        for got, want in self._pairs(name, cell_points):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("cell_points", [True, False])
    def test_example2_to_rounding(self, cell_points):
        for got, want in self._pairs("example2", cell_points):
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    @staticmethod
    def _pairs(name, cell_points):
        """(library, closed form) pairs of f, p, dp/dt and both gradient
        components at a hanging Q2 mesh's cell points, or at copies."""
        prob = by_name(name)
        space = EGSpace(random_adaptive_mesh(prob.shape, seed=4), 2)
        x, y = space.tables.x, space.tables.y
        if not cell_points:
            x, y = np.array(x), np.array(y)
        for t in (0.0, 0.05, 0.37, 1.0):
            want = PROBLEM_DATA[name](x, y, t)
            for key, fn in (("f", prob.f), ("p", prob.exact.p),
                            ("dt", prob.exact.dt)):
                yield np.asarray(fn(x, y, t)), want[key]
            yield from zip(prob.exact.grad(x, y, t), want["grad"])
