#!/usr/bin/env python3
"""Compare two sets of benchmark results, workload by workload.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the ``<workload>-seed<n>-trace0.json`` files that
``bench/run.py`` writes.  For every workload and end-to-end metric named in
``BENCHMARK.json`` this prints each side's median and quartiles, the share of
pairs the change wins (runs pair up by seed, else in seed order; ties count
for neither side), the change in median as a share of the parent's, and a
verdict:

* ``better`` or ``worse``: one side wins at least 9 of 10 pairs and the
  medians differ by more than the parent's interquartile range;
* ``unresolved``: anything else.

The last column says whether the change's median stays within the metric's
bound, the share of the parent's median it may get worse by.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WIN_SHARE = 0.9


def load(directory: Path) -> dict:
    """{workload: {seed: {metric: value}}} from trace-0 result files."""
    runs: dict = {}
    for path in sorted(directory.glob("*-trace0.json")):
        result = json.loads(path.read_text())
        prov = result["provenance"]
        runs.setdefault(prov["workload"], {})[prov["seed"]] = {
            k: v["value"] for k, v in result["metrics"].items()}
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(parent: dict, change: dict):
    common = sorted(set(parent) & set(change))
    if common:
        return [(parent[s], change[s]) for s in common]
    return list(zip((parent[s] for s in sorted(parent)),
                    (change[s] for s in sorted(change))))


def compare(parent_runs: dict, change_runs: dict, spec: dict) -> list[str]:
    lines = [f"{'workload':8s} {'metric':12s} {'parent q1/med/q3':>32s} "
             f"{'change q1/med/q3':>32s} {'wins':>6s} {'delta':>8s} "
             f"{'verdict':>10s} {'bound':>6s}"]
    for workload in sorted(set(parent_runs) | set(change_runs)):
        p_runs = parent_runs.get(workload, {})
        c_runs = change_runs.get(workload, {})
        if not p_runs or not c_runs:
            lines.append(f"{workload:8s} missing on one side")
            continue
        for metric in spec["end_to_end"]:
            name, higher = metric["name"], metric["better"] == "higher"
            pv = [r[name] for r in p_runs.values()]
            cv = [r[name] for r in c_runs.values()]
            p1, pm, p3 = quartiles(pv)
            c1, cm, c3 = quartiles(cv)
            matched = pairs(p_runs, c_runs)
            c_wins = sum((c[name] > p[name]) if higher else (c[name] < p[name])
                         for p, c in matched)
            p_wins = sum((p[name] > c[name]) if higher else (p[name] < c[name])
                         for p, c in matched)
            resolved = abs(cm - pm) > p3 - p1
            if c_wins >= WIN_SHARE * len(matched) and resolved:
                verdict = "better"
            elif p_wins >= WIN_SHARE * len(matched) and resolved:
                verdict = "worse"
            else:
                verdict = "unresolved"
            delta = (cm - pm) / pm if pm else 0.0
            worse_by = -delta if higher else delta
            within = "ok" if worse_by <= metric["bound"] else "over"
            lines.append(
                f"{workload:8s} {name:12s} "
                f"{p1:10.4g} {pm:10.4g} {p3:10.4g} "
                f"{c1:10.4g} {cm:10.4g} {c3:10.4g} "
                f"{c_wins:>3d}/{len(matched):<2d} {delta:+8.2%} "
                f"{verdict:>10s} {within:>6s}")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = (load(Path(a)) for a in argv)
    if not parent or not change:
        print("compare: no trace-0 result files found", file=sys.stderr)
        return 2
    print("\n".join(compare(parent, change, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
