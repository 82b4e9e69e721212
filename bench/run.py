#!/usr/bin/env python3
"""Benchmark of the ionmodes pipeline: one closed-loop client, seeded inputs.

    python3 bench/run.py --workload chain1d --seed 1 --seconds 20 --trace 0

One process issues the workload's ops back to back (no threads, no process
per op) for ``--seconds`` seconds and at least ``--min-ops`` ops, checks every
op's outputs, prints every metric by name with its unit, writes a result file
under ``bench/results/`` and prints one JSON object as its last line.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reports the
per-layer metrics: it runs the op sequence untraced for half the time, then
the same ops again with a span recorded around every public library call,
and derives layer times and shares from the spans.

``setup_s`` is the median over fresh child processes (this script with
``--setup-only``) of the time from process start to ready-to-time: imports,
input generation and one untimed warm-up op per op kind and size.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 5
MIN_OPS = 100            # p90 then has at least ten samples beyond it
CHILD_TIMEOUT_S = 120
REQUIRED = ("src/ionmodes/__init__.py", "src/ionmodes/cli.py", "configs",
            "data")


# ------------------------------------------------------------ statistics

def percentile(values, q: float) -> float:
    """Linear-interpolation percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    import numpy as np
    return float(np.percentile(values, q))


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


# ------------------------------------------------------------- tracing

def plain_call(name, fn, *args):
    return fn(*args)


class Recorder:
    """Spans kept in memory and written out when the run ends.

    A span is ``[name, start, end, parent, op, probe, error]``: ``parent``
    indexes the span that made the call (-1 for an op or probe root),
    ``op`` is the op's sequence number, ``probe`` marks calls made after the
    op on its inputs, and ``error`` is the exception class a call raised.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.mem_peaks: dict[str, list[float]] = {}
        self._stack: list[int] = []
        self.op = -1
        self.probe = False

    def call(self, name, fn, *args):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                self.op, self.probe, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args)
        except Exception as exc:
            span[6] = type(exc).__name__
            raise
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()


def traced_peak_mb(fn) -> float:
    """Peak bytes allocated while ``fn`` runs, in MB, from tracemalloc."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


# --------------------------------------------------------------- set-up

class Harness:
    """The imported library, the workload and its shared op context."""

    def __init__(self, workload: str, seed: int, scratch: Path):
        t_start = time.perf_counter()
        sys.path.insert(0, str(ROOT / "src"))
        import numpy as np
        import ionmodes
        from ionmodes.cli import main as cli_main
        import workloads
        t0 = time.perf_counter()
        self.import_s = t0 - t_start
        self.np, self.wl = np, workloads
        # the chi guard warns about every near-resonant band it accepts
        warnings.filterwarnings("ignore", message=".*near-resonant",
                                category=RuntimeWarning)
        scratch.mkdir(parents=True, exist_ok=True)
        self.ctx = workloads.Context(
            im=ionmodes, cli_main=cli_main, root=ROOT, scratch=scratch,
            chi_files={p.name: ionmodes.read_chi(p)
                       for p in sorted((ROOT / "data").glob("chi_*.txt"))})
        self.workload = workloads.WORKLOADS[workload]
        self.seed = seed
        warm = self.workload.warmups(np.random.default_rng([seed, 1]),
                                     self.ctx)
        t1 = time.perf_counter()
        self.warmup_failures = []
        for op in warm:
            try:
                op.check(op.run(plain_call))
            except Exception as exc:  # reported, and the run is not correct
                self.warmup_failures.append(f"{op.kind}: {exc!r}")
        self.seen_sizes = {n for op in warm for n in op.chain_sizes}
        self.gen_s = t1 - t0
        self.warmup_s = time.perf_counter() - t1

    def ops(self):
        return self.workload.ops(self.np.random.default_rng([self.seed, 0]),
                                 self.ctx)


def setup_sample(args) -> dict:
    """Time a fresh process from start to ready-to-time (one sample)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--results-dir", str(args.results_dir)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"set-up child failed with code {proc.returncode}")
    sample = json.loads(line)
    sample["setup_s"] = ready
    return sample


# ----------------------------------------------------------- measurement

class Phase:
    """Outcome of running ops back to back: latencies and failures."""

    def __init__(self):
        self.ops = []            # (kind, size, chain_sizes)
        self.latency = []        # seconds, every attempted op
        self.ok = []             # bool per op
        self.errors = []         # (op index, kind, message)
        self.wrong = 0           # ops whose outputs failed a check

    def completed(self):
        return [t for t, ok in zip(self.latency, self.ok) if ok]


def run_phase(harness, seconds, min_ops, rec: Recorder | None = None,
              max_ops=None) -> Phase:
    phase = Phase()
    call = rec.call if rec else plain_call
    mem_done = set()
    stream = harness.ops()
    t_end = time.perf_counter() + seconds
    while True:
        n = len(phase.ops)
        if max_ops is not None:
            if n >= max_ops:
                break
        elif n >= min_ops and time.perf_counter() >= t_end:
            break
        op = next(stream)
        phase.ops.append((op.kind, op.size, op.chain_sizes))
        if rec:
            rec.op = n
        out, err = None, None
        t0 = time.perf_counter()
        try:
            out = call("op." + op.kind, op.run, call)
        except Exception as exc:  # an exception is a failed op
            err = exc
        phase.latency.append(time.perf_counter() - t0)
        if err is None:
            try:
                op.check(out)
            except harness.wl.CheckFailed as exc:
                err = exc
                phase.wrong += 1
            except Exception as exc:
                err = exc
        phase.ok.append(err is None)
        if err is not None:
            phase.errors.append((n, op.kind, f"{type(err).__name__}: {err}"))
            continue
        if rec and op.probe:
            rec.probe = True
            try:
                rec.call("probe." + op.kind, op.probe, out, rec.call)
            finally:
                rec.probe = False
        if rec and op.mem:
            layer, size, fn = op.mem(out)
            if (layer, size) not in mem_done:
                mem_done.add((layer, size))
                rec.mem_peaks.setdefault(layer, []).append(traced_peak_mb(fn))
    return phase


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------- metrics

def end_to_end(phase: Phase, setup: list[dict]) -> dict:
    done = phase.completed()
    lat_ms = [t * 1e3 for t in done]
    return {
        "ops_per_s": (len(done) / sum(phase.latency), "1/s"),
        "op_ms_p50": (percentile(lat_ms, 50), "ms"),
        "op_ms_p90": (percentile(lat_ms, 90), "ms"),
        "ok_frac": (len(done) / len(phase.ops), "1"),
        "setup_s": (median([s["setup_s"] for s in setup]), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


# name -> (span name, op kinds the span is taken from or None for all)
LATENCY_METRICS = {
    "statics.solve_ms_p50": ("statics.solve_equilibrium", None),
    "statics.solve_ms_p90": ("statics.solve_equilibrium", None),
    "modes.spectrum_ms_p50": ("modes.mode_spectrum", None),
    "anharmonic.chi_ms_p50": ("anharmonic.chi_from_configuration", None),
    "anharmonic.chi_ms_p90": ("anharmonic.chi_from_configuration", None),
    "fockspace.exact_ms_p50": ("fockspace.exact_transition_frequency", None),
    "dynamics.sideband_ms_p50": ("dynamics.sideband_flop", None),
    "dynamics.coherence_ms_p50": ("dynamics.fock_coherence", None),
    "dynamics.gate_ms_p50": ("dynamics.thermal_gate_infidelity", None),
    "calibration.null_ms_p50": ("calibration.null_parameter", ("null",)),
    "calibration.infer_gradient_ms_p50": (
        "calibration.infer_pseudo_gradient", None),
    "calibration.order_shift_ms_p50": ("calibration.order_shift",
                                       ("order_shift",)),
    "calibration.scan_ms_p50": ("calibration.com_frequency_scan", None),
    "calibration.sensitivity_ms_p50": ("calibration.field_sensitivity", None),
}
STAGE_METRICS = {
    "anharmonic.stage.derivative_tensors_ms_p50":
        "anharmonic.derivative_tensors",
    "anharmonic.stage.mode_tensors_ms_p50": "anharmonic.mode_tensors",
    "anharmonic.stage.chi_matrix_ms_p50": "anharmonic.chi_matrix",
}
SHARE_LAYERS = ("statics", "modes", "anharmonic", "fockspace", "dynamics",
                "calibration", "two_ion", "cli")


def per_layer(rec: Recorder, phase: Phase, untraced: Phase, setup, wl) -> dict:
    spans = rec.spans
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]
    op_kind = [k for k, _, _ in phase.ops]
    by_name, stage, self_time = {}, {}, {}
    op_total = 0.0
    errors = {}
    for i, (name, t0, t1, parent, op, probe, err) in enumerate(spans):
        dur = t1 - t0
        if probe:
            if parent >= 0:
                stage.setdefault(name, []).append(dur * 1e3)
            continue
        if parent < 0:
            op_total += dur
        layer = "bench" if parent < 0 else name.split(".")[0]
        self_time[layer] = self_time.get(layer, 0.0) + dur - child_time[i]
        by_name.setdefault(name, []).append((dur * 1e3, op_kind[op]))
        if err:
            errors.setdefault(layer, []).append(err)

    def times(span_name, kinds=None):
        return [ms for ms, kind in by_name.get(span_name, [])
                if kinds is None or kind in kinds]

    n_ops = len(phase.ops)
    m = {}
    cli = {f"cli.{c}_ms_p50": (f"cli.{c}", None) for c in wl.CLI_COMMANDS}
    for name, (span_name, kinds) in {**LATENCY_METRICS, **cli}.items():
        q = 90 if name.endswith("_p90") else 50
        m[name] = (percentile(times(span_name, kinds), q), "ms")
    for name, span_name in STAGE_METRICS.items():
        m[name] = (percentile(stage.get(span_name, []), 50), "ms")
    statics_calls = sum(len(v) for k, v in by_name.items()
                        if k.startswith("statics."))
    m["statics.calls_per_op"] = (statics_calls / n_ops, "1/op")
    m["statics.fail"] = (len(errors.get("statics", [])), "count")
    m["anharmonic.refusals"] = (
        errors.get("anharmonic", []).count("ResonanceError"), "count")
    chi_d = [size for kind, size, _ in phase.ops if kind == "chi"]
    m["anharmonic.tensor_mb_computed"] = (
        sum(wl.tensor_bytes(d) for d in chi_d) / len(chi_d) / 1e6
        if chi_d else 0.0, "MB")
    m["anharmonic.alloc_peak_mb"] = (
        max(rec.mem_peaks.get("anharmonic", [0.0])), "MB")
    m["fockspace.alloc_peak_mb"] = (
        max(rec.mem_peaks.get("fockspace", [0.0])), "MB")
    m["fockspace.basis_dim_max"] = (
        max([size for kind, size, _ in phase.ops
             if kind.startswith("exact")], default=0), "count")
    m["fockspace.fail"] = (len(errors.get("fockspace", [])), "count")
    for layer in SHARE_LAYERS:
        m[f"{layer}.share"] = (self_time.get(layer, 0.0) / op_total, "1")
    m["setup.import_s"] = (median([s["import_s"] for s in setup]), "s")
    m["setup.warmup_s"] = (median([s["warmup_s"] for s in setup]), "s")
    m["bench.self_share"] = (self_time.get("bench", 0.0) / op_total, "1")
    traced_rate = n_ops / op_total
    plain_rate = len(untraced.ops) / sum(untraced.latency)
    m["trace.overhead_frac"] = (1.0 - traced_rate / plain_rate, "1")
    return dict(sorted(m.items()))


# -------------------------------------------------------------- records

def input_record(harness, phase: Phase) -> dict:
    """Properties of the generated inputs an optimisation might depend on."""
    n = len(phase.ops)
    sizes, kinds = {}, {}
    seen = set(harness.seen_sizes)
    repeats = 0
    for kind, size, chain_sizes in phase.ops:
        sizes[str(size)] = sizes.get(str(size), 0) + 1
        kinds[kind] = kinds.get(kind, 0) + 1
        if chain_sizes and all(c in seen for c in chain_sizes):
            repeats += 1
        seen.update(chain_sizes)
    with_chain = sum(1 for _, _, c in phase.ops if c)
    refusals = sum(1 for _, _, msg in phase.errors
                   if msg.startswith("ResonanceError"))
    return {
        "ops": n,
        "size_share": {k: v / n for k, v in sorted(sizes.items())},
        "kind_share": {k: v / n for k, v in sorted(kinds.items())},
        "repeated_chain_size_share": repeats / with_chain if with_chain else 0.0,
        "guard_refusals": refusals,
        "fock_basis_dim_max": max(
            [s for k, s, _ in phase.ops if k.startswith("exact")], default=0),
    }


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            path = ROOT / ".git" / ref[5:]
            if path.exists():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _source_sha256() -> str:
    import hashlib
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ionmodes").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _blas() -> dict:
    import ctypes
    import numpy as np
    info = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):
        pass
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and "/" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads",
                    "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
    return info


def provenance(harness, args) -> dict:
    import platform
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": harness.np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ------------------------------------------------------------------ main

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("chain1d", "chi3d", "calib", "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--min-ops", type=int, default=MIN_OPS)
    parser.add_argument("--results-dir", type=Path,
                        default=BENCH / "results")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # One client on one core: BLAS threads would compete with the client for
    # the machine's cores and make small-matrix calls jitter.  Set before
    # numpy loads; the set-up children inherit it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

    missing = [p for p in REQUIRED if not (ROOT / p).exists()]
    if missing:
        print(f"bench: not an ionmodes checkout, missing {missing}",
              file=sys.stderr)
        return 2
    scratch = args.results_dir / f"scratch-{os.getpid()}"
    try:
        if args.setup_only:
            harness = Harness(args.workload, args.seed, scratch)
            print(json.dumps({"import_s": harness.import_s,
                              "warmup_s": harness.warmup_s,
                              "gen_s": harness.gen_s}), flush=True)
            return 0
        return measure(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(args, scratch: Path) -> int:
    setup = [setup_sample(args) for _ in range(SETUP_SAMPLES)]
    harness = Harness(args.workload, args.seed, scratch)
    if args.trace:
        plain = run_phase(harness, args.seconds / 2, args.min_ops // 2)
        rec = Recorder()
        phase = run_phase(harness, 0, 0, rec, max_ops=len(plain.ops))
        metrics = per_layer(rec, phase, plain, setup, harness.wl)
    else:
        phase = run_phase(harness, args.seconds, args.min_ops)
        metrics = end_to_end(phase, setup)
    # The result line carries the metrics BENCHMARK.json declares.  Per-layer
    # latencies of single functions read 0 on workloads that never call them,
    # so only the layer metrics defined on every workload are declared; the
    # rest are printed and kept in the result file.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [m["name"] for m in spec["per_layer" if args.trace
                                        else "end_to_end"]]
    wrong = phase.wrong + len(harness.warmup_failures)
    result = {
        "correct": wrong == 0,
        "attempted": len(phase.ops),
        "failed": len(phase.ops) - sum(phase.ok),
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]}
                    for k in declared},
    }
    args.results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        **result,
        "all_metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()},
        "provenance": provenance(harness, args),
        "inputs": input_record(harness, phase),
        "setup_samples": setup,
        "errors": phase.errors[:20],
        "warmup_failures": harness.warmup_failures,
    }
    (args.results_dir / f"{stem}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    if args.trace:
        (args.results_dir / f"{stem}-spans.json").write_text(
            json.dumps(rec.spans) + "\n")
    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:16.6g} {unit}")
    print(f"{'fail_frac':45s} {result['failed'] / result['attempted']:16.6g} 1")
    print(f"{'ops_attempted':45s} {result['attempted']:16d} count")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
