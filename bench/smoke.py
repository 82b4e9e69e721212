#!/usr/bin/env python3
"""Smoke test of the benchmark itself (not part of the tier-1 suite).

    python3 bench/smoke.py

Runs ``bench/run.py`` on every workload in ``BENCHMARK.json`` with a handful
of ops, untraced and traced, and checks that the last line of output is the
result object, that the run was correct, and that it reports exactly the
end-to-end (untraced) or per-layer (traced) metrics named in
``BENCHMARK.json``, each with its unit.  Then it checks that
``bench/compare.py`` reads the results back.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OPS = "6"


def run(*args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *map(str, args)], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)


def check_run(spec, workload, trace, results) -> list[str]:
    proc = run(BENCH / "run.py", "--workload", workload, "--seed", 7,
               "--seconds", 0, "--trace", trace, "--min-ops", OPS,
               "--results-dir", results)
    where = f"{workload} trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}: {proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["attempted"] < int(OPS) // 2:
        problems.append(f"{where}: correct={result['correct']} "
                        f"attempted={result['attempted']}")
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(want) - set(got))}, "
                        f"extra {sorted(set(got) - set(want))}, units "
                        f"{ {k: got[k] for k in want if got.get(k, want[k]) != want[k]} }")
    for name, value in result["metrics"].items():
        if not isinstance(value["value"], (int, float)):
            problems.append(f"{where}: {name} is not a number")
    record = json.loads(
        (results / f"{workload}-seed7-trace{trace}.json").read_text())
    if trace and len(record["all_metrics"]) <= len(want):
        problems.append(f"{where}: result file lacks the undeclared metrics")
    for line in proc.stdout.splitlines()[:-1]:
        name, _, unit = line.split()
        if name in got and got[name] != unit:
            problems.append(f"{where}: printed {name} with unit {unit}")
    missing = set(record["all_metrics"]) - {l.split()[0] for l in
                                            proc.stdout.splitlines()[:-1]}
    if missing:
        problems.append(f"{where}: not printed: {sorted(missing)}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    (BENCH / "results").mkdir(exist_ok=True)
    results = Path(tempfile.mkdtemp(prefix="smoke-", dir=BENCH / "results"))
    problems = []
    try:
        for workload in (w["name"] for w in spec["workloads"]):
            for trace in (0, 1):
                problems += check_run(spec, workload, trace, results)
                print(f"{workload} trace {trace}: done", flush=True)
        proc = run(BENCH / "compare.py", results, results)
        if proc.returncode != 0 or "unresolved" not in proc.stdout:
            problems.append(f"compare failed: {proc.stdout}{proc.stderr}")
    finally:
        shutil.rmtree(results, ignore_errors=True)
    for line in problems:
        print("FAIL", line)
    print("smoke:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
