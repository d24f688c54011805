"""Smoke tests of the demos that drive the public mesh, assembly and solve
API, of the names every demo imports, of the benchmark tracer's hooks
into the library and a traced run, and of the benchmark workloads'
per-step fingerprints."""

import ast
import dataclasses
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from egadapt import RunConfig, by_name, run_timeloop

ROOT = Path(__file__).resolve().parents[1]


def _run(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def test_quadtree_mesh_demo_writes_into_cwd(tmp_path):
    proc = _run([str(ROOT / "demos" / "01_quadtree_meshes.py")], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert {p.name for p in tmp_path.iterdir()} == {"corner_mesh.svg",
                                                    "corner_mesh.vtk"}


def test_eg_space_and_solve_demo_runs(tmp_path):
    proc = _run([str(ROOT / "demos" / "02_eg_space_and_solve.py")], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("demo", sorted(p.name for p in
                                         (ROOT / "demos").glob("*.py")))
def test_demo_imports_exist(demo):
    # the long demos do not run here; a name removed from the library
    # must still not leave one of them with a broken import
    tree = ast.parse((ROOT / "demos" / demo).read_text())
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[0] == "egadapt"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), \
                    f"{demo}: {node.module}.{alias.name} does not exist"


def test_benchmark_tracer_installs():
    # the tracer wraps library names by attribute and raises if one is gone
    proc = _run(["-c", 'import sys; sys.path.insert(0, "perfbench"); '
                 "from tracing import Tracer; from egadapt import problems; "
                 'Tracer("t").install(problems.example1())'], ROOT)
    assert proc.returncode == 0, proc.stderr


_SMOKE = dict(problem="example1", mode="adaptive_full", h0=0.25, tau=2e-3,
              dt=0.01, T_final=0.05)


def test_traced_run_matches_untraced_run():
    # the benchmark's per-layer mode must time the run, not change it
    script = (
        "import dataclasses, json, sys; sys.path.insert(0, 'perfbench')\n"
        "from tracing import Tracer\n"
        "from egadapt import RunConfig, by_name, run_timeloop\n"
        "cfg = RunConfig(**json.loads(sys.argv[1]))\n"
        "tracer = Tracer('smoke')\n"
        "problem = tracer.install(by_name(cfg.problem))\n"
        "reports = tracer.call('driver', run_timeloop, cfg, problem)\n"
        "print(json.dumps({'reports': [dataclasses.asdict(r) for r in reports],"
        " 'layers': tracer.layer_metrics()}))\n")
    proc = _run(["-c", script, json.dumps(_SMOKE)], ROOT)
    assert proc.returncode == 0, proc.stderr
    traced = json.loads(proc.stdout.splitlines()[-1])
    plain = run_timeloop(RunConfig(**_SMOKE), by_name(_SMOKE["problem"]))
    assert len(plain) == 5
    assert traced["reports"] == [dataclasses.asdict(r) for r in plain]
    assert traced["layers"]["assembly.factor_calls"] > 0
    assert traced["layers"]["problems.eval_points"] > 0


#: per workload, the factorizations of a run and a bound on their summed
#: LU nnz: a pivot or ordering change that adds fill shows here
_FILL = {"example2_q2": (55, 2_400_000),
         "tolerance_q1": (28, 4_730_971),
         "uniform_h64": (1, 4_475_325)}


def test_benchmark_fingerprints_hold(tmp_path, monkeypatch):
    # every benchmark workload, configured as its probe configures it, must
    # reproduce the stored per-step fingerprint the benchmark checks; a
    # rounding change that flips a marking tie shows here
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from probe import COMMON, WORKLOADS, _fingerprint
    from run import compare_fingerprint
    from egadapt.assembly import CondensedSolver
    factors = []
    real_init = CondensedSolver.__init__

    def counted(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        factors.append(self.lu.nnz)

    monkeypatch.setattr(CondensedSolver, "__init__", counted)
    failed, fill = {}, {}
    for name, workload in WORKLOADS.items():
        cfg = RunConfig(output_dir=str(tmp_path / name), **COMMON,
                        **workload["config"])
        factors.clear()
        reports = run_timeloop(cfg, by_name(cfg.problem))
        fill[name] = (len(factors), sum(factors))
        with open(ROOT / "perfbench" / "reference" / f"{name}.json") as fh:
            reference = json.load(fh)["steps"]
        failed[name] = compare_fingerprint(reference, _fingerprint(reports))
    assert failed == dict.fromkeys(WORKLOADS, 0)
    for name, (calls, bound) in _FILL.items():
        assert fill[name][0] == calls, name
        assert fill[name][1] <= bound, (name, fill[name][1])
