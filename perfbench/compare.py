"""Summarise benchmark records, or compare the records of two commits.

    python3 perfbench/compare.py OUT_DIR [NEW_OUT_DIR]
    python3 perfbench/compare.py OUT_DIR --json

``OUT_DIR`` holds the ``<workload>-seed<n>-trace0.json`` records that
``perfbench/run.py`` writes to ``perfbench/out``.  For each workload and
end-to-end metric this prints the run count, the median and the
quartile spread (q3 - q1) / median over the runs.  With a second directory
it also prints the change of the median and a verdict against the
metric's bound in ``BENCHMARK.json``: ``worse`` when the new median is
worse by more than the bound, ``unresolved`` when either side's spread
exceeds the bound, ``ok`` otherwise.  ``--json`` prints the summary of
one directory as JSON instead (the form of ``perfbench/baseline.json``).
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(out_dir):
    """{workload: {metric: [value per run]}} from the untraced records."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(out_dir, "*-trace0.json"))):
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        per = runs.setdefault(rec["workload"], {})
        for name, value in rec["metrics"].items():
            per.setdefault(name, []).append(value)
    return runs


def spread(values):
    """Quartile distance over the median, as statistics.quantiles gives
    it; None for fewer than two values or a zero median."""
    med = statistics.median(values)
    if len(values) < 2 or not med:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def _fmt(v):
    return "     -" if v is None else f"{v:6.3f}"


def main(argv):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bounds = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    old = load(argv[0])
    if argv[1:] == ["--json"]:
        print(json.dumps({w: {name: {"runs": len(v),
                                     "median": statistics.median(v),
                                     "spread": spread(v)}
                              for name, v in per.items()}
                          for w, per in sorted(old.items())}, indent=1))
        return
    new = load(argv[1]) if len(argv) > 1 else None
    for workload in sorted(old):
        print(f"== {workload}")
        for name, values in old[workload].items():
            med = statistics.median(values)
            line = (f"  {name:12s} n={len(values):2d} median={med:<12.6g} "
                    f"spread={_fmt(spread(values))}")
            if new is not None and name in bounds and name in new.get(workload, {}):
                nv = new[workload][name]
                nmed = statistics.median(nv)
                bound = bounds[name]["bound"]
                sign = 1.0 if bounds[name]["better"] == "lower" else -1.0
                change = sign * (nmed / med - 1.0)
                spreads = [spread(values), spread(nv)]
                if any(x is None or x > bound for x in spreads):
                    verdict = "unresolved"
                elif change > bound:
                    verdict = "worse"
                else:
                    verdict = "ok"
                line += (f" | new median={nmed:<12.6g} spread={_fmt(spreads[1])}"
                         f" worse_by={change:+.3f} bound={bound} {verdict}")
            print(line)


if __name__ == "__main__":
    main(sys.argv[1:])
