"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/tests

They cover the percentile rule, the per-segment median and the machine
reference, self-time
arithmetic on nested spans and the fingerprint comparator, the last on real smoke_linear runs that take
a few seconds.
"""

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run        # noqa: E402
import tracing    # noqa: E402


# ----------------------------------------------------------------------
# percentile rule

def test_percentile_is_nearest_rank():
    samples = list(range(1, 11))
    assert run.percentile(samples, 50) == 5
    assert run.percentile(samples, 90) == 9
    assert run.percentile(samples, 100) == 10
    assert run.percentile([7.0], 90) == 7.0


def test_percentile_ignores_order_and_leaves_tail_beyond():
    samples = [float(v) for v in range(100, 0, -1)]
    p90 = run.percentile(samples, 90)
    assert p90 == 90.0
    assert sum(s > p90 for s in samples) == 10


def test_percentile_of_nothing_raises():
    with pytest.raises(ValueError):
        run.percentile([], 50)


def test_median_segments_take_each_segments_median():
    loops = [{"seg": [1.0, 5.0, 2.0]}, {"seg": [3.0, 4.0, 2.5]},
             {"seg": [2.0, 6.0, 1.5]}]
    assert run.median_segments(loops, "seg") == [2.0, 5.0, 2.0]
    assert run.median_segments(loops[:1], "seg") == [1.0, 5.0, 2.0]
    with pytest.raises(ValueError):
        run.median_segments([{"seg": [1.0]}, {"seg": [1.0, 2.0]}], "seg")


def test_reference_sums_each_kernels_median():
    loops = [{"ref_s": {"a": 1.0, "b": 4.0}}, {"ref_s": {"a": 3.0, "b": 2.0}},
             {"ref_s": {"a": 2.0, "b": 9.0}}]
    assert run.reference_s(loops) == pytest.approx(2.0 + 4.0)


# ----------------------------------------------------------------------
# self time

def test_self_time_of_nested_spans():
    spans = [
        ("driver", 0.0, 10.0, None),
        ("adapt.step", 1.0, 4.0, 0),
        ("mesh.refine", 2.0, 3.0, 1),
        ("assembly.solve", 5.0, 9.0, 0),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_merges_overlapping_children_and_clips_them():
    spans = [
        ("driver", 0.0, 10.0, None),
        ("space.eval", 7.0, 9.0, 0),
        ("space.error", 8.0, 12.0, 0),   # overlaps its sibling, ends late
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(7.0)


def test_self_times_add_up_to_the_root():
    spans = [("driver", 0.0, 6.0, None), ("a", 0.5, 2.5, 0),
             ("b", 1.0, 2.0, 1), ("c", 3.0, 5.5, 0), ("d", 3.5, 4.0, 3)]
    assert sum(tracing.self_times(spans)) == pytest.approx(6.0)


# ----------------------------------------------------------------------
# real smoke_linear runs, each in a fresh interpreter because tracing
# patches egadapt in place

SMOKE = {"problem": "smoke_linear", "k": 1, "h0": 0.25, "T_final": 0.05}


def _smoke(mode, traced):
    code = ("import json, sys, tempfile, probe\n"
            "with tempfile.TemporaryDirectory() as d:\n"
            "    r = probe.run_probe(json.loads(sys.argv[1]), d,"
            " traced=sys.argv[2] == '1')\n"
            "print(json.dumps(r))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), BENCH]))
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(dict(SMOKE, mode=mode)),
         "1" if traced else "0"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def uniform_run():
    return _smoke("uniform", traced=False)


@pytest.fixture(scope="module")
def refine_run():
    return _smoke("adaptive_pure_refine", traced=True)


def test_fingerprint_matches_itself_and_rounding(uniform_run):
    ref = uniform_run["fingerprint"]
    assert len(ref) == 5 and uniform_run["error"] is None
    assert run.compare_fingerprint(ref, ref) == 0
    nudged = [s[:3] + [v * (1 + 1e-12) for v in s[3:]] for s in ref]
    assert run.compare_fingerprint(ref, nudged) == 0


def test_fingerprint_catches_moved_numbers(uniform_run):
    ref = uniform_run["fingerprint"]
    moved = [list(s) for s in ref]
    moved[1][3] *= 1 + 1e-6           # eta_total
    moved[2][1] += 1                  # dofs
    moved[3][4] = None                # error_h1 missing
    assert run.compare_fingerprint(ref, moved) == 3
    assert run.compare_fingerprint(ref, ref[:-2]) == 2
    assert run.compare_fingerprint(ref, []) == len(ref)


def test_one_step_report_per_step(uniform_run, refine_run):
    assert uniform_run["n_step_reports"] == 5
    assert len(uniform_run["seg_wall_s"]) == len(uniform_run["seg_cpu_s"]) == 6
    assert sum(uniform_run["seg_wall_s"]) == pytest.approx(uniform_run["wall_s"])
    assert refine_run["n_step_reports"] == len(refine_run["fingerprint"]) == 5


def test_traced_run_counts_layers(refine_run):
    layers = refine_run["layers"]
    assert set(run.PER_LAYER) - set(layers) == {"trace.overhead"}
    assert layers["space.transfer_calls"] > 0
    assert layers["mesh.refine_calls"] == 5          # one round per step
    assert layers["adapt.refine_iters"] == 5
    assert layers["assembly.solve_calls"] == layers["assembly.factor_calls"]
    assert layers["assembly.lu_solves_per_solve"] >= 1.0
    # self times of all layers add up to the root span, the driver's
    # own share included
    total = sum(layers[m] for m in tracing.SPAN_METRICS.values())
    assert total == pytest.approx(refine_run["wall_s"], rel=0.05)
    assert 0.0 < layers["trace.coverage"] <= 1.0


# ----------------------------------------------------------------------

def test_metric_lists_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    assert declared == run.END_TO_END
    declared = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert declared == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
