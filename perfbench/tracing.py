"""Spans and counters around the public entry points of egadapt's layers.

A :class:`Tracer` replaces each traced name where its caller looks it up
(a module attribute or a class attribute) by a wrapper that records one
span per call and updates the layer's counters.  Spans stay in memory
until the run ends; :func:`self_times` turns them into per-span self time
(duration minus the part covered by child spans).

Nothing under ``src/`` is edited: the wrappers are installed at run time
in the process that runs the traced workload.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import time
from collections import defaultdict

# span name -> per-layer self-time metric
SPAN_METRICS = {
    "driver": "driver.self_s",
    "mesh.build": "mesh.build_s",
    "mesh.refine": "mesh.refine_s",
    "mesh.coarsen": "mesh.coarsen_s",
    "quadrature": "quadrature.s",
    "space.build": "space.build_s",
    "space.transfer": "space.transfer_s",
    "space.eval": "space.eval_s",
    "space.error": "space.error_s",
    "assembly.edge_groups": "assembly.edge_groups_s",
    "assembly.matrix": "assembly.matrix_s",
    "assembly.rhs": "assembly.rhs_s",
    "assembly.factor": "assembly.factor_s",
    "assembly.solve": "assembly.solve_s",
    "problems.eval": "problems.eval_s",
    "estimator.indicators": "estimator.indicators_s",
    "adapt.step": "adapt.step_s",
    "adapt.mark": "adapt.mark_s",
    "writers": "writers.s",
}

# counters that are reported as they are
COUNT_METRICS = (
    "mesh.refine_calls", "mesh.coarsen_calls", "mesh.cells_split",
    "quadrature.gauss_1d_calls",
    "space.build_calls", "space.dofs_built",
    "space.transfer_calls", "space.transfer_cells",
    "assembly.factor_calls", "assembly.factor_dofs", "assembly.lu_nnz",
    "assembly.solve_calls",
    "problems.eval_points",
    "estimator.indicators_calls", "estimator.cells",
    "adapt.marked_cells", "adapt.coarsen_marks", "adapt.refine_iters",
    "writers.bytes",
)

# ratio metric -> (numerator counter, denominator counter); 0 when the
# denominator is 0
RATIO_METRICS = {
    "mesh.closure_ratio": ("mesh.cells_split", "mesh.cells_marked"),
    "mesh.coarsen_applied_ratio": ("mesh.coarsen_honoured",
                                   "mesh.coarsen_requested"),
    "assembly.lu_solves_per_solve": ("assembly.lu_solves",
                                     "assembly.solve_calls"),
}


def self_times(spans):
    """Self time of every span: its duration minus its children's coverage.

    ``spans`` is a sequence of ``(name, start, end, parent)`` where
    ``parent`` is the index of the enclosing span or ``None``.  Child
    intervals are clipped to the parent and merged before they are
    subtracted, so overlapping children are not counted twice.
    """
    children = defaultdict(list)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent is not None:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c in sorted(children.get(i, ()), key=lambda c: spans[c][1]):
            lo = max(spans[c][1], reach)
            hi = min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


class _CountingLU:
    """Stands in for a SuperLU factor and counts its triangular solves."""

    def __init__(self, lu, counts):
        self._lu = lu
        self._counts = counts

    def solve(self, rhs, *args, **kwargs):
        self._counts["assembly.lu_solves"] += 1
        return self._lu.solve(rhs, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """In-memory span recorder for one run."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []            # [name, start, end, parent]
        self.counts = defaultdict(int)
        self._stack = []

    # -- recording -------------------------------------------------------

    def begin(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(sid)
        return sid

    def end(self, sid):
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        sid = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(sid)

    def wrap(self, owner, attr, name, after=None):
        """Replace ``owner.attr`` by a spanned wrapper.

        ``after(counts, args, result)`` updates counters once the call has
        returned.  A missing name raises, so the traced run fails instead
        of silently measuring nothing.
        """
        try:
            original = getattr(owner, attr)
        except AttributeError:
            raise RuntimeError(
                f"traced name {getattr(owner, '__name__', owner)}.{attr} no "
                f"longer exists; update perfbench/tracing.py") from None

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = self.call(name, original, *args, **kwargs)
            if after is not None:
                after(self.counts, args, result)
            return result

        setattr(owner, attr, wrapper)

    # -- installation ----------------------------------------------------

    def install(self, problem):
        """Wrap the layer entry points; returns ``problem`` with wrapped data."""
        from egadapt import adapt, assembly, driver, estimator, mesh, quadrature
        from egadapt import space, writers

        def count(key, value=1):
            def after(counts, args, result):
                counts[key] += value(args, result) if callable(value) else value
            return after

        # mesh
        self.wrap(driver, "build_initial", "mesh.build")

        def after_refine(counts, args, result):
            counts["mesh.refine_calls"] += 1
            counts["mesh.cells_marked"] += len(args[1])
            counts["mesh.cells_split"] += (result.n_active - args[0].n_active) // 3

        def after_coarsen(counts, args, result):
            counts["mesh.coarsen_calls"] += 1
            counts["mesh.coarsen_requested"] += len(args[1])
            counts["mesh.coarsen_honoured"] += \
                4 * ((args[0].n_active - result.n_active) // 3)

        self.wrap(mesh.Mesh, "refine", "mesh.refine", after_refine)
        self.wrap(mesh.Mesh, "coarsen", "mesh.coarsen", after_coarsen)

        # quadrature: the rule builders where space, assembly and estimator
        # look them up, and gauss_1d where the rule builders look it up
        self.wrap(quadrature, "gauss_1d", "quadrature",
                  count("quadrature.gauss_1d_calls"))
        self.wrap(space, "cell_rule", "quadrature")
        self.wrap(assembly, "edge_rule", "quadrature")
        self.wrap(estimator, "edge_rule", "quadrature")

        # space
        def after_build(counts, args, result):
            counts["space.build_calls"] += 1
            counts["space.dofs_built"] += args[0].n_dofs

        def after_transfer(counts, args, result):
            counts["space.transfer_calls"] += 1
            counts["space.transfer_cells"] += len(result)

        self.wrap(space.EGSpace, "__init__", "space.build", after_build)
        self.wrap(space.TransferredField, "cell_values", "space.transfer",
                  after_transfer)
        self.wrap(space, "interpolate", "space.eval")
        self.wrap(space.DiscreteField, "cell_values", "space.eval")
        self.wrap(space, "broken_h1_error", "space.error")

        # assembly
        self.wrap(assembly, "edge_groups", "assembly.edge_groups")
        self.wrap(estimator, "edge_groups", "assembly.edge_groups")
        self.wrap(assembly, "assemble_A_theta", "assembly.matrix")
        self.wrap(assembly, "assemble_mass", "assembly.matrix")
        self.wrap(assembly, "assemble_rhs", "assembly.rhs")
        real_splu = assembly.splu   # raises at once if the name is gone
        assembly.splu = lambda *a, **k: _CountingLU(real_splu(*a, **k),
                                                    self.counts)

        def after_factor(counts, args, result):
            solver = args[0]
            counts["assembly.factor_calls"] += 1
            counts["assembly.factor_dofs"] += solver.matrix_c.shape[0]
            counts["assembly.lu_nnz"] += solver.lu.nnz

        self.wrap(assembly.CondensedSolver, "__init__", "assembly.factor",
                  after_factor)
        self.wrap(assembly.CondensedSolver, "solve", "assembly.solve",
                  count("assembly.solve_calls"))

        # estimator
        def after_indicators(counts, args, result):
            counts["estimator.indicators_calls"] += 1
            counts["estimator.cells"] += len(result.eta_T)

        self.wrap(estimator, "compute_indicators", "estimator.indicators",
                  after_indicators)

        # adapt
        self.wrap(adapt, "adapt_step", "adapt.step",
                  count("adapt.refine_iters", lambda a, r: r[1].adapt_iters))
        self.wrap(adapt, "dorfler_mark", "adapt.mark",
                  count("adapt.marked_cells", lambda a, r: len(r)))
        self.wrap(adapt, "coarsen_mark", "adapt.mark",
                  count("adapt.coarsen_marks", lambda a, r: len(r)))

        # writers: the driver calls them through the module
        for name in ("mesh_svg", "mesh_vtk", "field_vtk"):
            self.wrap(writers, name, "writers",
                      count("writers.bytes",
                            lambda a, r: os.path.getsize(a[1])))

        return self._wrap_problem(problem)

    def _wrap_problem(self, problem):
        """Copy of a ProblemSpec whose data callables record spans."""
        def timed(fn):
            if fn is None:
                return None

            def wrapper(x, y, *rest):
                self.counts["problems.eval_points"] += max(
                    getattr(x, "size", 1), getattr(y, "size", 1))
                return self.call("problems.eval", fn, x, y, *rest)
            return wrapper

        exact = problem.exact
        if exact is not None:
            exact = dataclasses.replace(exact, p=timed(exact.p),
                                        grad=timed(exact.grad),
                                        dt=timed(exact.dt))
        return dataclasses.replace(
            problem, f=timed(problem.f), g_D=timed(problem.g_D),
            g_N=timed(problem.g_N), p0=timed(problem.p0), K=timed(problem.K),
            K_grad=timed(problem.K_grad), exact=exact)

    # -- results ---------------------------------------------------------

    def layer_metrics(self):
        """Per-layer self times, counters and ratios, plus trace.coverage.

        Coverage is the share of the root span's duration that named layer
        spans below it account for.
        """
        selfs = self_times(self.spans)
        out = {m: 0.0 for m in SPAN_METRICS.values()}
        for (name, _, _, _), s in zip(self.spans, selfs):
            out[SPAN_METRICS[name]] += s
        for key in COUNT_METRICS:
            out[key] = self.counts[key]
        for key, (num, den) in RATIO_METRICS.items():
            d = self.counts[den]
            out[key] = self.counts[num] / d if d else 0.0
        roots = [(s, e) for _, s, e, p in self.spans if p is None]
        root_total = sum(e - s for s, e in roots)
        out["trace.coverage"] = (1.0 - out["driver.self_s"] / root_total
                                 if root_total > 0 else 0.0)
        return out

    def dump(self, path):
        """Write the spans as JSON lines: name, start, end, parent, run id."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "run": self.run_id}) + "\n")
