import dataclasses
import itertools
import math
import weakref

import numpy as np
import pytest

from egadapt import (AdaptParams, AdaptState, CondensedSolver, DiscreteField,
                     DomainShape, EGSpace, Mesh, PenaltySpec, RunConfig,
                     build_initial, coarsen_mark, dorfler_mark, interpolate,
                     run_timeloop)
from egadapt import adapt as adapt_mod
from egadapt.adapt import adapt_step
from egadapt.problems import example1, smoke_linear

from reference import coarsen_mark_loop, dorfler_mark_loop


def _random_indicators(rng):
    """Indicators over shuffled ids with repeated values and zeros."""
    n = int(rng.integers(0, 40))
    ids = rng.permutation(4 * n)[:n].tolist()
    vals = rng.choice([0.0, 0.25, 1.0 / 3.0, 0.5], size=n)
    vals = np.where(rng.random(n) < 0.5, rng.random(n), vals).tolist()
    return dict(zip(ids, vals))


class TestDorflerMark:
    def test_half_fraction(self):
        ind = {1: 3.0, 2: 2.0, 3: 1.0}
        total = math.sqrt(14.0)
        assert dorfler_mark(ind, total, 0.5) == {1}

    def test_ninety_percent(self):
        ind = {1: 3.0, 2: 2.0, 3: 1.0}
        total = math.sqrt(14.0)
        assert dorfler_mark(ind, total, 0.9) == {1, 2}

    def test_single_cell_always_marked(self):
        assert dorfler_mark({7: 0.4}, 0.4, 0.05) == {7}

    def test_all_zero_gives_empty(self):
        assert dorfler_mark({1: 0.0, 2: 0.0}, 0.0, 0.5) == set()

    def test_tie_break_by_id(self):
        ind = {9: 1.0, 4: 1.0, 7: 1.0, 2: 1.0}
        total = 2.0
        marked = dorfler_mark(ind, total, 0.2)
        assert marked == {2}

    def test_minimality_against_enumeration(self):
        # smallest subset (by cardinality) reaching the squared-mass threshold
        rng = np.random.default_rng(12)
        for trial in range(20):
            n = int(rng.integers(1, 13))
            vals = dict(enumerate(np.round(rng.uniform(0.01, 1.0, size=n), 6)))
            total = math.sqrt(sum(v * v for v in vals.values()))
            theta = float(rng.uniform(0.05, 0.95))
            marked = dorfler_mark(vals, total, theta)
            target = theta * total ** 2
            got = sum(vals[c] ** 2 for c in marked)
            assert got >= target - 1e-12
            best = None
            for r in range(n + 1):
                for combo in itertools.combinations(vals, r):
                    if sum(vals[c] ** 2 for c in combo) >= target - 1e-12:
                        best = r
                        break
                if best is not None:
                    break
            assert len(marked) == best

    def test_matches_running_sum(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            ind = _random_indicators(rng)
            total = math.sqrt(sum(v * v for v in ind.values()))
            theta = float(rng.choice([0.2, 0.4, 0.5, 1.0 - 1e-12]))
            assert dorfler_mark(ind, total, theta) == dorfler_mark_loop(
                ind, total, theta)


class TestCoarsenMark:
    def test_threshold_rule(self):
        marks = coarsen_mark({1: 3.0, 2: 2.0, 3: 1.0}, 0.5)
        assert marks == {3}

    def test_zero_fraction_empty(self):
        assert coarsen_mark({1: 3.0, 2: 2.0}, 0.0) == set()

    def test_uniform_indicators_not_marked(self):
        assert coarsen_mark({1: 2.0, 2: 2.0, 3: 2.0}, 0.5) == set()

    def test_fraction_rule(self):
        ind = {1: 4.0, 2: 3.0, 3: 2.0, 4: 1.0}
        assert coarsen_mark(ind, 0.5, rule="fraction") == {3, 4}

    @pytest.mark.parametrize("rule", ["threshold", "fraction"])
    def test_matches_cell_loop(self, rule):
        rng = np.random.default_rng(6)
        for _ in range(200):
            ind = _random_indicators(rng)
            theta = float(rng.choice([0.0, 0.3, 0.5, 0.9]))
            assert coarsen_mark(ind, theta, rule) == coarsen_mark_loop(
                ind, theta, rule)


class TestAdaptStep:
    @staticmethod
    def _state(problem, h0, k=1):
        mesh = build_initial(problem.shape, h0, problem.partition)
        sp = EGSpace(mesh, k)
        return AdaptState(interpolate(sp, problem.p0))

    def test_infinite_tolerance_single_solve(self):
        prob = smoke_linear()
        state = self._state(prob, 0.25)
        params = AdaptParams(tau=np.inf, theta_coarse=0.5, theta_refine=0.4)
        state, rep = adapt_step(state, prob, params, PenaltySpec(1.0, 0),
                                1, 0.02, 0.02)
        assert rep.adapt_iters == 0
        assert state.mesh.n_active == 16

    def test_no_coarsening_on_first_step(self):
        prob = example1()
        state = self._state(prob, 0.5)
        params = AdaptParams(tau=np.inf, theta_coarse=0.9, theta_refine=0.4)
        n_before = state.mesh.n_active
        state, _ = adapt_step(state, prob, params, PenaltySpec(1.0, 0),
                              1, 0.01, 0.01)
        assert state.mesh.n_active == n_before

    def test_pure_refine_single_round(self):
        prob = example1()
        state = self._state(prob, 0.5)
        params = _pure_refine(theta_refine=0.1)
        state, rep = adapt_step(state, prob, params, PenaltySpec(1.0, 0),
                                1, 0.01, 0.01)
        assert rep.adapt_iters == 1
        assert state.mesh.n_active > 12

    def test_tolerance_loop_terminates_and_reports(self):
        prob = example1()
        state = self._state(prob, 0.25)
        params = AdaptParams(tau=5e-3, theta_coarse=0.5, theta_refine=0.4,
                             max_iters=10)
        for n in range(1, 6):
            state, rep = adapt_step(state, prob, params, PenaltySpec(1.0, 0),
                                    n, n * 0.01, 0.01)
            assert rep.adapt_iters <= 10
            assert rep.eta_total < 5e-3 or rep.adapt_iters == 10
            assert rep.error_linf >= rep.error_h1 - 1e-15
        assert state.eta_linf > 0

    def test_max_iters_cap_returns_state(self, caplog):
        prob = example1()
        state = self._state(prob, 0.5)
        params = AdaptParams(tau=1e-12, theta_coarse=0.0, theta_refine=0.05,
                             max_iters=2)
        with caplog.at_level("WARNING"):
            state, rep = adapt_step(state, prob, params, PenaltySpec(1.0, 0),
                                    1, 0.01, 0.01)
        assert rep.adapt_iters == 2
        assert any("tolerance" in r.message for r in caplog.records)


def _pure_refine(theta_refine):
    """The marking policy of a pure-refine run."""
    return RunConfig(mode="adaptive_pure_refine",
                     theta_refine=theta_refine).adapt_params()


def _count_inits(monkeypatch, cls, on_init=None):
    """Count calls of ``cls.__init__``; ``on_init`` runs before each one."""
    calls = []
    real = cls.__init__

    def counted(self, *args, **kwargs):
        if on_init is not None:
            on_init()
        calls.append(1)
        real(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counted)
    return calls


class TestFactorReuse:
    """The space and LU factor survive steps that keep the mesh."""

    PEN = PenaltySpec(1.0, 0)
    UNIFORM = AdaptParams(tau=math.inf, theta_coarse=0.0)

    @staticmethod
    def _first_step(params, h0=0.25, k=1):
        prob = example1()
        state = TestAdaptStep._state(prob, h0, k)
        state, _ = adapt_step(state, prob, params, TestFactorReuse.PEN,
                              1, 0.01, 0.01)
        return prob, state

    def test_unchanged_mesh_builds_nothing_and_matches_fresh_solve(
            self, monkeypatch):
        # root cells cannot be coarsened, so every coarsen mark is dropped
        params = AdaptParams(tau=math.inf, theta_coarse=0.9)
        for k in (1, 2):
            prob, state = self._first_step(params, k=k)
            assert state.solver is not None
            # a fresh solve: same coefficients on a newly built space, no factor
            fresh_field = DiscreteField(EGSpace(state.mesh, k),
                                        state.field.coeffs.copy())
            fresh_state = dataclasses.replace(state, field=fresh_field,
                                              solver=None)
            _, fresh = adapt_step(fresh_state, prob, params, self.PEN, 2,
                                  0.02, 0.01)
            with monkeypatch.context() as mp:
                spaces = _count_inits(mp, EGSpace)
                factors = _count_inits(mp, CondensedSolver)
                new, rep = adapt_step(state, prob, params, self.PEN, 2,
                                      0.02, 0.01)
                assert (len(spaces), len(factors)) == (0, 0)
            assert new.mesh is state.mesh
            for f in dataclasses.fields(rep):
                a, b = getattr(rep, f.name), getattr(fresh, f.name)
                if isinstance(a, float):
                    assert a == pytest.approx(b, rel=1e-12, abs=0.0), f.name
                else:
                    assert a == b, f.name

    def test_unhonoured_coarsening_keeps_the_mesh(self):
        params = AdaptParams(tau=math.inf, theta_coarse=0.9)
        prob, state = self._first_step(params)
        marks = coarsen_mark(state.indicators, 0.9)
        assert marks and state.mesh.coarsen(marks) is state.mesh

    def test_different_dt_refactors(self, monkeypatch):
        prob, state = self._first_step(self.UNIFORM)
        spaces = _count_inits(monkeypatch, EGSpace)
        factors = _count_inits(monkeypatch, CondensedSolver)
        adapt_step(state, prob, self.UNIFORM, self.PEN, 2, 0.025, 0.015)
        assert (len(spaces), len(factors)) == (0, 1)

    def test_different_penalty_refactors(self, monkeypatch):
        prob, state = self._first_step(self.UNIFORM)
        factors = _count_inits(monkeypatch, CondensedSolver)
        adapt_step(state, prob, self.UNIFORM, PenaltySpec(2.0, 0), 2, 0.02,
                   0.01)
        assert len(factors) == 1

    def test_refine_refactors(self, monkeypatch):
        params = _pure_refine(theta_refine=0.1)
        prob, state = self._first_step(params, h0=0.5)
        spaces = _count_inits(monkeypatch, EGSpace)
        factors = _count_inits(monkeypatch, CondensedSolver)
        new, rep = adapt_step(state, prob, params, self.PEN, 2, 0.02, 0.01)
        # the first solve reuses the carried factor; the refined mesh does not
        assert rep.adapt_iters == 1
        assert new.mesh is not state.mesh
        assert (len(spaces), len(factors)) == (1, 1)
        assert new.solver.space is new.field.space

    def test_real_coarsen_refactors(self, monkeypatch):
        prob, state = self._first_step(_pure_refine(theta_refine=0.5), h0=0.5)
        coarsen = AdaptParams(tau=math.inf, theta_coarse=0.99)
        spaces = _count_inits(monkeypatch, EGSpace)
        factors = _count_inits(monkeypatch, CondensedSolver)
        new, _ = adapt_step(state, prob, coarsen, self.PEN, 2, 0.02, 0.01)
        assert new.mesh.n_active < state.mesh.n_active
        assert (len(spaces), len(factors)) == (1, 1)

    def test_old_factor_released_before_next_factorization(self, monkeypatch):
        prob, state = self._first_step(self.UNIFORM)
        ref = weakref.ref(state.solver)
        alive = []
        _count_inits(monkeypatch, CondensedSolver,
                     on_init=lambda: alive.append(ref() is not None))
        new, _ = adapt_step(state, prob, self.UNIFORM, self.PEN, 2, 0.025,
                            0.015)
        assert alive == [False]
        assert state.solver is None and new.solver is not None

    def test_nan_indicator_never_refines_without_tolerance(self, monkeypatch):
        prob, state = self._first_step(self.UNIFORM)
        real = adapt_mod.estimator.compute_indicators

        def nan_indicators(*args, **kwargs):
            ind = real(*args, **kwargs)
            return dataclasses.replace(ind, eta_T=np.full_like(ind.eta_T,
                                                               np.nan))

        def no_refine(self, marked):
            raise AssertionError("refined under an infinite tolerance")

        monkeypatch.setattr(adapt_mod.estimator, "compute_indicators",
                            nan_indicators)
        monkeypatch.setattr(Mesh, "refine", no_refine)
        new, rep = adapt_step(state, prob, self.UNIFORM, self.PEN, 2, 0.02,
                              0.01)
        assert rep.adapt_iters == 0 and math.isnan(rep.eta_total)

    def test_uniform_run_factors_once(self, monkeypatch):
        spaces = _count_inits(monkeypatch, EGSpace)
        factors = _count_inits(monkeypatch, CondensedSolver)
        reps = run_timeloop(RunConfig(problem="example1", mode="uniform",
                                      h0=0.25, dt=0.01, T_final=0.06))
        assert len(reps) == 6
        assert (len(spaces), len(factors)) == (1, 1)
        assert {r.dofs for r in reps} == {reps[0].dofs}
        assert all(r.adapt_iters == 0 for r in reps)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptParams(tau=-1.0)
        with pytest.raises(ValueError):
            AdaptParams(theta_coarse=1.0)
        with pytest.raises(ValueError):
            AdaptParams(theta_refine=0.0)
        with pytest.raises(ValueError):
            AdaptParams(coarsen_rule="nope")

    def test_zero_tau_means_no_tolerance(self):
        assert AdaptParams(tau=0.0).tau == 0.0
        for tau in (-1.0, math.nan):
            with pytest.raises(ValueError):
                AdaptParams(tau=tau)
