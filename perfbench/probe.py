"""One measurement of one workload, in a fresh interpreter.

    python3 perfbench/probe.py env
    python3 perfbench/probe.py setup <workload>
    python3 perfbench/probe.py run <workload> <output_dir>
    python3 perfbench/probe.py traced <workload> <output_dir>

Run from the repository root with ``src`` on ``PYTHONPATH``.  The last
line of standard output is one JSON object with the measurement.
``perfbench/run.py`` starts one such process per measurement, so every
set-up and every time loop starts from a cold interpreter.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import json       # noqa: E402
import os         # noqa: E402
import resource   # noqa: E402
import sys        # noqa: E402

# Every workload is a deterministic manufactured problem with dt = 0.01 and
# alpha = 1; ``adaptive`` says whether the run must refine, coarsen and
# transfer (checked on traced runs).
COMMON = {"dt": 0.01, "alpha": 1.0}
WORKLOADS = {
    # large sparse linear algebra, problem data and writers; no mesh churn
    "uniform_h64": {
        "config": {"problem": "example1", "mode": "uniform", "k": 1,
                   "h0": 1 / 64, "T_final": 0.1},
        "adaptive": False,
    },
    # the first 25 steps of the tolerance-driven Q1 run: Python
    # bookkeeping, transfer, marking
    "tolerance_q1": {
        "config": {"problem": "example1", "mode": "adaptive_full", "k": 1,
                   "h0": 1 / 16, "tau": 1e-3, "theta_coarse": 0.5,
                   "theta_refine": 0.4, "T_final": 0.25},
        "adaptive": True,
    },
    # the first 15 steps of the Q2 adaptive run: Q2 tables, Hessian
    # residual, fraction coarsening and many small factorizations
    "example2_q2": {
        "config": {"problem": "example2", "mode": "adaptive_full", "k": 2,
                   "h0": 1 / 4, "tau": 2e-3, "theta_coarse": 0.4,
                   "theta_refine": 0.2, "coarsen_rule": "fraction",
                   "T_final": 0.15},
        "adaptive": True,
    },
}


def env_probe():
    """Library versions and the thread settings that govern BLAS."""
    import numpy
    import scipy
    import egadapt
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "egadapt": egadapt.__version__,
        "egadapt_path": os.path.dirname(egadapt.__file__),
        "blas_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def setup_probe(config):
    """Import egadapt and build the initial state of a run, timed.

    The clock starts when this interpreter starts executing this module,
    so the import of egadapt (with numpy and scipy) is included.
    """
    import egadapt
    from egadapt import problems, space
    problem = problems.by_name(config["problem"])
    mesh = egadapt.build_initial(problem.shape, config["h0"],
                                 problem.partition)
    sp = space.EGSpace(mesh, config["k"])
    fld = space.interpolate(sp, problem.p0)
    return {"setup_s": time.perf_counter() - _T_START,
            "dofs": int(fld.space.n_dofs)}


def _ref_python(n=100_000):
    acc = 0
    for i in range(n):
        acc += i * i % 7
    return acc


def reference_times(repeats=5):
    """Fastest times of three fixed kernels that do not touch egadapt.

    They take the pulse of the machine the run shares: ``python`` is a
    pure-Python loop, ``stream`` passes over 32 MB of float64 in order,
    and ``alloc`` fills 64 MB of freshly mapped pages, so page faults are
    timed too.  A random gather over 32 MB was tried and left out: in one
    run of five its time doubled while the program's did not move.
    """
    import numpy
    a = numpy.ones(1 << 22)
    b = numpy.empty_like(a)
    kernels = {
        "python": _ref_python,
        "stream": lambda: numpy.multiply(a, 2.0, out=b).sum(),
        "alloc": lambda: numpy.ones(1 << 23).sum(),
    }
    out = {}
    for name, fn in kernels.items():
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        out[name] = best
    return out


def _fingerprint(reports):
    return [[r.n, r.dofs, r.adapt_iters, r.eta_total, r.error_h1]
            for r in reports]


def run_probe(config, output_dir, traced=False, spans_path=None):
    """One ``run_timeloop`` call, timed; optionally with layer tracing.

    Records the wall and CPU clocks at every ``StepReport`` construction,
    so the segment times and the one-report-per-step check come from the
    run itself.  Segment 0 runs from the call to the first report, the
    last from the last report to the return; the ones between are steps
    2, 3, ... of the run.
    """
    import logging
    import egadapt
    from egadapt import estimator, problems

    logging.disable(logging.WARNING)   # tolerance-cap warnings are expected
    stamps, cpu_stamps = [], []

    class TimedStepReport(estimator.StepReport):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            stamps.append(time.perf_counter())
            cpu_stamps.append(time.process_time())

    # the driver and adapt modules look StepReport up through the module
    estimator.StepReport = TimedStepReport

    cfg = egadapt.RunConfig(output_dir=output_dir, **COMMON, **config)
    problem = problems.by_name(cfg.problem)
    tracer = None
    if traced:
        from tracing import Tracer
        tracer = Tracer(run_id=f"{os.getpid()}")
        problem = tracer.install(problem)

    error = None
    reports = []
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        if tracer is None:
            reports = egadapt.run_timeloop(cfg, problem)
        else:
            reports = tracer.call("driver", egadapt.run_timeloop, cfg, problem)
    except Exception as exc:   # the failure is reported, not raised
        error = f"{type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    cpu1 = time.process_time()
    wall_marks = [t0, *stamps, t1]
    cpu_marks = [cpu0, *cpu_stamps, cpu1]

    # read before the reference kernels, which would raise it
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out = {
        "wall_s": t1 - t0,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": peak_rss_mb,
        "seg_wall_s": [b - a for a, b in zip(wall_marks, wall_marks[1:])],
        "seg_cpu_s": [b - a for a, b in zip(cpu_marks, cpu_marks[1:])],
        "n_step_reports": len(stamps),
        "fingerprint": _fingerprint(reports),
        "error": error,
        "ref_s": reference_times(),
    }
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        if spans_path:
            tracer.dump(spans_path)
    return out


def main(argv):
    kind = argv[0]
    if kind == "env":
        result = env_probe()
    elif kind == "setup":
        result = setup_probe(WORKLOADS[argv[1]]["config"])
    elif kind in ("run", "traced"):
        output_dir = argv[2]
        result = run_probe(WORKLOADS[argv[1]]["config"], output_dir,
                           traced=kind == "traced",
                           spans_path=argv[3] if len(argv) > 3 else None)
    else:
        raise SystemExit(f"unknown probe kind {kind!r}")
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
