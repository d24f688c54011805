"""egadapt benchmark: fixed workloads through ``egadapt.run_timeloop``.

    python3 perfbench/run.py --workload tolerance_q1 --seed 1 --seconds 36 --trace 0

Run from the repository root.  Every measurement runs in a fresh
interpreter (``perfbench/probe.py``), one at a time.  With ``--trace 0``
the run measures the end-to-end metrics: five set-up probes and as many
time loops as fit in ``--seconds`` (at least three).  Each time loop is
cut into segments at its step reports, and the time metrics take every
segment's median time over the run's loops.  With ``--trace 1`` it runs
one untraced and at least one traced time loop and reports per-layer self
times and counts.  Every time loop's per-step fingerprint is checked
against ``perfbench/reference/<workload>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
list every metric with its unit.  The exit code is 0 when every step
matched its reference, 1 when a run failed or a fingerprint moved, and 2
when the benchmark cannot run here.  ``--write-reference`` rewrites the
reference of the workload from one untraced run instead of measuring.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from probe import WORKLOADS   # noqa: E402
from tracing import COUNT_METRICS, RATIO_METRICS, SPAN_METRICS   # noqa: E402

SETUP_PROBES = 5
MIN_LOOPS = 3           # time loops per --trace 0 run, even past --seconds
RUN_DEADLINE_S = 170    # a whole run, probes included, ends within this
REL_TOL = 1e-9
# Every probe runs BLAS single-threaded, so a run is one busy thread on a
# shared host and cpu_s shows any threading the program itself adds.
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# name -> (unit, better).  END_TO_END are the metrics the final JSON line
# carries (BENCHMARK.json bounds them); REPORTED_ONLY are printed and
# recorded as well.  A *_ref metric is a time divided by ref_s, the
# machine reference measured in the same run: the single-thread speed of
# the shared host drifts by up to 2x over minutes, and dividing by ref_s
# cancels much of that drift.  The step percentiles
# spread too widely between runs to carry a bound, and fail_ratio is 0
# whenever the code is right (README.md gives the measurements).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_ref": ("ref", "lower"),
    "cpu_ref": ("ref", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
REPORTED_ONLY = {
    "step_p50_ref": ("ref", "lower"),
    "step_p90_ref": ("ref", "lower"),
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "step_s_p50": ("s", "lower"),
    "step_s_p90": ("s", "lower"),
    "ref_s": ("s", "lower"),
    "fail_ratio": ("1", "lower"),
}
PER_LAYER = {m: ("s", "lower") for m in SPAN_METRICS.values()}
PER_LAYER.update({m: ("count", "lower") for m in COUNT_METRICS})
PER_LAYER.update({m: ("1", "lower") for m in RATIO_METRICS})
PER_LAYER.update({
    "writers.bytes": ("bytes", "lower"),
    "mesh.coarsen_applied_ratio": ("1", "higher"),
    "trace.coverage": ("1", "higher"),
    "trace.overhead": ("1", "lower"),
})


# ----------------------------------------------------------------------
# statistics and checks

def percentile(samples, q):
    """Nearest-rank percentile: the smallest sample with at least q% of
    the samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median_segments(loops, key):
    """Per-segment median over time loops of the same workload.

    ``loops`` are probe results whose ``key`` lists one time per segment
    of the run (start to first report, report to report, last report to
    return); the workloads are deterministic, so segment j does the same
    work in every loop.
    """
    counts = {len(r[key]) for r in loops}
    if len(counts) != 1:
        raise ValueError(f"time loops disagree on their segments: {counts}")
    return [statistics.median(col) for col in zip(*(r[key] for r in loops))]


def reference_s(loops):
    """One ``ref``: the sum over the reference kernels of each kernel's
    median time over the run's time loops."""
    return sum(statistics.median(r["ref_s"][k] for r in loops)
               for k in loops[0]["ref_s"])


def compare_fingerprint(reference, got, rel_tol=REL_TOL):
    """Number of reference steps that ``got`` fails to reproduce.

    A step is ``[n, dofs, adapt_iters, eta_total, error_h1]``: the first
    three must match exactly, the last two within ``rel_tol`` relative.
    Steps missing from ``got`` fail; so do surplus steps.
    """
    def close(a, b):
        if a is None or b is None:
            return a is b
        return abs(a - b) <= rel_tol * max(abs(a), abs(b))

    failed = abs(len(got) - len(reference))
    for ref, step in zip(reference, got):
        if ref[:3] != step[:3] or not all(map(close, ref[3:], step[3:])):
            failed += 1
    return failed


# ----------------------------------------------------------------------
# processes

def _child_env():
    env = dict(os.environ, **{k: "1" for k in BLAS_THREADS})
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def probe(*args, timeout=RUN_DEADLINE_S):
    """Run one probe process to completion; returns its JSON result.

    On timeout the process is killed and waited for, and
    ``subprocess.TimeoutExpired`` propagates.
    """
    cmd = [sys.executable, os.path.join(HERE, "probe.py"), *args]
    proc = subprocess.run(cmd, env=_child_env(), capture_output=True,
                          text=True, timeout=max(1.0, timeout))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"probe {' '.join(args[:2])} failed "
                           f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def git_commit(root):
    """Commit of the checkout from .git, without running git; None if absent."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(root, ".git", name)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed):
    env = probe("env")
    env.update(commit=git_commit(os.getcwd()), seed=seed,
               nproc=os.cpu_count(), cpu_affinity=len(os.sched_getaffinity(0)))
    return env


# ----------------------------------------------------------------------
# one benchmark run

class Run:
    """Measurements of one workload, with the fingerprint bookkeeping."""

    def __init__(self, workload, out_dir, deadline):
        self.workload = workload
        self.out_dir = out_dir
        self.deadline = deadline          # time.monotonic() value
        with open(os.path.join(HERE, "reference", workload + ".json"),
                  encoding="utf-8") as fh:
            self.reference = json.load(fh)["steps"]
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def probe(self, *args):
        return probe(*args, timeout=self.deadline - time.monotonic())

    def time_loop(self, traced, spans_path=None):
        kind = "traced" if traced else "run"
        with tempfile.TemporaryDirectory(dir=self.out_dir) as tmp:
            args = [kind, self.workload, tmp]
            if spans_path:
                args.append(spans_path)
            try:
                res = self.probe(*args)
            except (RuntimeError, subprocess.TimeoutExpired) as exc:
                res = {"error": str(exc), "fingerprint": [],
                       "n_step_reports": 0}
        self.attempted += len(self.reference)
        bad = compare_fingerprint(self.reference, res["fingerprint"])
        self.failed += min(bad, len(self.reference))
        if res["error"]:
            self.problems.append(f"{kind} run failed: {res['error']}")
        elif bad:
            self.problems.append(f"{kind} run: {bad} step(s) differ from "
                                 f"the reference")
        elif res["n_step_reports"] != len(self.reference):
            self.problems.append(
                f"{kind} run: {res['n_step_reports']} StepReports for "
                f"{len(self.reference)} time steps")
        return res


def _schedule(jobs, extra, rng, seconds, do):
    """Run ``jobs`` in seeded order, then cycle through ``extra`` while the
    time spent so far plus the longest time loop fits in ``seconds``."""
    rng.shuffle(jobs)
    start = time.perf_counter()
    longest = 0.0

    def timed(job):
        nonlocal longest
        t0 = time.perf_counter()
        do(job)
        if job != "setup":
            longest = max(longest, time.perf_counter() - t0)

    for job in jobs:
        timed(job)
    i = 0
    while time.perf_counter() - start + longest <= seconds:
        timed(extra[i % len(extra)])
        i += 1


def measure_end_to_end(run, seed, seconds):
    setups, loops = [], []

    def do(job):
        if job == "setup":
            setups.append(run.probe("setup", run.workload)["setup_s"])
        else:
            loops.append(run.time_loop(traced=False))

    _schedule(["setup"] * SETUP_PROBES + ["run"] * MIN_LOOPS, ["run"],
              random.Random(seed), seconds, do)
    # a loop that stopped early already failed the run; its segments do
    # not line up with the others
    ok = [r for r in loops if not r["error"]
          and len(r["seg_wall_s"]) == len(run.reference) + 1]
    metrics = {"setup_s": statistics.median(setups)}
    steps = []
    if ok:
        wall = median_segments(ok, "seg_wall_s")
        steps = wall[1:-1]       # steps 2..n: no one-off set-up, no tail
        metrics.update(
            wall_s=sum(wall),
            cpu_s=sum(median_segments(ok, "seg_cpu_s")),
            peak_rss_mb=statistics.median(r["peak_rss_mb"] for r in ok),
            ref_s=reference_s(ok))
        if steps:
            metrics.update(step_s_p50=percentile(steps, 50),
                           step_s_p90=percentile(steps, 90))
        for name, raw in (("wall_ref", "wall_s"), ("cpu_ref", "cpu_s"),
                          ("step_p50_ref", "step_s_p50"),
                          ("step_p90_ref", "step_s_p90")):
            if raw in metrics:
                metrics[name] = metrics[raw] / metrics["ref_s"]
    info = {"loops": len(loops), "step_samples": len(steps),
            "beyond_p90": sum(s > metrics.get("step_s_p90", math.inf)
                              for s in steps),
            "setup_samples": setups, "ref_s": [r["ref_s"] for r in ok],
            "loop_samples": [{k: r[k] for k in ("wall_s", "cpu_s",
                                                "peak_rss_mb", "seg_wall_s",
                                                "seg_cpu_s")}
                             for r in ok]}
    return metrics, info


def measure_per_layer(run, seed, seconds, spans_base):
    plain, traced = [], []

    def do(job):
        if job == "run":
            plain.append(run.time_loop(traced=False))
        else:
            path = f"{spans_base}-{len(traced)}.jsonl"
            traced.append(run.time_loop(traced=True, spans_path=path))

    _schedule(["run", "traced"], ["traced", "run"], random.Random(seed),
              seconds, do)
    ok = [r for r in traced if not r["error"] and "layers" in r]
    metrics = {}
    if ok and not plain[0]["error"]:
        for name in PER_LAYER:
            if name != "trace.overhead":
                metrics[name] = statistics.median(r["layers"][name] for r in ok)
        metrics["trace.overhead"] = (
            statistics.median(r["wall_s"] for r in ok)
            / statistics.median(r["wall_s"] for r in plain) - 1.0)
        adaptive = WORKLOADS[run.workload]["adaptive"]
        for name in ("space.transfer_calls", "mesh.refine_calls"):
            if (metrics[name] > 0) != adaptive:
                run.problems.append(
                    f"probe integrity: {name} = {metrics[name]} on a "
                    f"{'n adaptive' if adaptive else ' uniform'} workload")
    info = {"traced_loops": len(traced), "untraced_loops": len(plain),
            "traced_wall_samples": [r["wall_s"] for r in ok],
            "untraced_wall_samples": [r["wall_s"] for r in plain]}
    return metrics, info


def write_reference(workload, out_dir):
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        res = probe("run", workload, tmp)
    if res["error"]:
        raise SystemExit(f"reference run failed: {res['error']}")
    path = os.path.join(HERE, "reference", workload + ".json")
    head = {"workload": workload, "config": WORKLOADS[workload]["config"],
            "columns": ["n", "dofs", "adapt_iters", "eta_total", "error_h1"]}
    steps = ",\n  ".join(json.dumps(s) for s in res["fingerprint"])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(head)[:-1] + ',\n "steps": [\n  ' + steps + "\n ]\n}\n")
    print(f"wrote {path}: {len(res['fingerprint'])} steps")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S

    if not os.path.isfile(os.path.join("src", "egadapt", "__init__.py")):
        print("perfbench: run from the repository root (src/egadapt not "
              "found)", file=sys.stderr)
        return 2
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    try:
        env = environment(args.seed)   # also warms imports and .pyc files
    except RuntimeError as exc:
        print(f"perfbench: cannot import egadapt: {exc}", file=sys.stderr)
        return 2
    if os.path.realpath(env["egadapt_path"]) != os.path.realpath(
            os.path.join("src", "egadapt")):
        print(f"perfbench: egadapt imported from {env['egadapt_path']}, "
              f"not from this checkout", file=sys.stderr)
        return 2
    if args.write_reference:
        write_reference(args.workload, out_dir)
        return 0

    run = Run(args.workload, out_dir, deadline)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, info = measure_per_layer(run, args.seed, args.seconds,
                                          os.path.join(out_dir, tag + "-spans"))
        table = PER_LAYER
    else:
        metrics, info = measure_end_to_end(run, args.seed, args.seconds)
        table = END_TO_END
    metrics["fail_ratio"] = run.failed / run.attempted
    correct = (run.failed == 0 and not run.problems
               and set(table) <= set(metrics))

    record = {"workload": args.workload, "trace": args.trace,
              "environment": env, "metrics": metrics,
              "problems": run.problems, **info}
    with open(os.path.join(out_dir, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"# {args.workload}  seed={args.seed}  commit={env['commit']}  "
          f"nproc={env['nproc']}  python={env['python']}  "
          f"numpy={env['numpy']}  scipy={env['scipy']}  "
          f"blas_env={json.dumps(env['blas_env'])}")
    print("# " + "  ".join(f"{k}={v}" for k, v in info.items()
                           if not isinstance(v, list)))
    for name, (unit, better) in {**table, **REPORTED_ONLY}.items():
        if name in metrics:
            print(f"{name:32s} {metrics[name]:>16.6g} {unit:6s} ({better} is better)")
    for p in run.problems:
        print(f"! {p}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": table[name][0]}
                    for name in table if name in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
