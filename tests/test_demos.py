"""Smoke tests of a demo that drives the public assembly and solve API, and
of the benchmark tracer's hooks into the library."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def test_eg_space_and_solve_demo_runs(tmp_path):
    proc = _run([str(ROOT / "demos" / "02_eg_space_and_solve.py")], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert not any(tmp_path.iterdir())


def test_benchmark_tracer_installs():
    # the tracer wraps library names by attribute and raises if one is gone
    proc = _run(["-c", 'import sys; sys.path.insert(0, "perfbench"); '
                 "from tracing import Tracer; from egadapt import problems; "
                 'Tracer("t").install(problems.example1())'], ROOT)
    assert proc.returncode == 0, proc.stderr
