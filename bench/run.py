"""arrconn benchmark: closed-loop verdict workloads, each in a fresh
interpreter, with every output checked against an answer the benchmark
computes on its own.

    python3 bench/run.py --workload exact-sweep --seed 1 --seconds 32 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 32 --trace 0

Run it from the root of a checkout; the program is imported from ``src/``
there.  One caller waits for each verdict before asking for the next.

--trace 0 reports the end-to-end metrics.  The timed phase lasts
``--seconds`` and at least MIN_OPS ops, split evenly over TIMED_WORKERS
fresh interpreters that start at evenly spaced points of the seed's op
list; their latencies are pooled.  On a shared VM, fresh interpreters
running the same A_4 holonomy op differ in speed by up to a fifth, even
after scaling to reference speed, and pooling averages that out.
``setup_s`` is the median over those interpreters and SETUP_PROBES more.

--trace 1 reports the per-layer metrics.  It runs the first TRACE_OPS
ops of the seed once untraced and twice traced, each in a fresh
interpreter.  The two traced runs must agree on every count; the spans
of the first are written under ``bench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The BLAS
environment is left as the user has it; its versions and thread count
are printed on the line before.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import LIST_LENGTH, WORKLOADS  # noqa: E402

MIN_OPS = 100  # keeps at least 10 samples above the 90th percentile
TIMED_WORKERS = 4
SETUP_PROBES = 1
TRACE_OPS = 40  # two blocks of cli-cold and holonomy, ten of exact-sweep
RUN_BUDGET_S = 170.0
# Share of ops whose verdict may come back numerically ambiguous (see
# ops.undecided) before the run counts as incorrect; such ops are neither
# right nor wrong and are reported on their own line.
MAX_UNDECIDED = 0.05


def run_worker(workload: str, seed: int, mode: str, deadline: float, **extra) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--src", os.path.join(ROOT, "src")]
    for key, value in extra.items():
        cmd += [f"--{key.replace('_', '-')}", str(value)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker for {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, fraction: float) -> tuple:
    """Nearest-rank percentile and the number of samples above it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def ops_per_s(result: dict, latencies=None) -> float:
    latencies = result["scaled"] if latencies is None else latencies
    return (result["attempted"] - result["failed"]) / sum(latencies)


def end_to_end(workload: str, seed: int, seconds: float, workdir: str, deadline: float):
    setup_runs = [run_worker(workload, seed, "setup", deadline) for _ in range(SETUP_PROBES)]
    stride = LIST_LENGTH[workload] // TIMED_WORKERS
    parts = [
        run_worker(workload, seed, "timed", deadline, seconds=seconds / TIMED_WORKERS,
                   workdir=workdir, offset=k * stride, min_ops=-(-MIN_OPS // TIMED_WORKERS))
        for k in range(TIMED_WORKERS)
    ]
    result = parts[0]
    for part in parts[1:]:
        for key in ("attempted", "failed", "undecided", "errors", "latencies", "wall", "scaled", "probes"):
            result[key] += part[key]
        result["peak_rss_mb"] = max(result["peak_rss_mb"], part["peak_rss_mb"])
    setups = [run["setup_s"] for run in setup_runs + parts]
    setup_wall = statistics.median(run["setup_wall_s"] for run in setup_runs + parts)
    latencies = result["scaled"]
    p90, beyond = percentile(latencies, 0.9)
    wall = result["wall"]
    metrics = {
        "ops_per_s": (ops_per_s(result, latencies), "ops/s"),
        "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "op_p90_ms": (1e3 * p90, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    notes = [
        f"op_p90_ms has {beyond} of {result['attempted']} samples above it",
        f"failed_frac {result['failed'] / result['attempted']:.6g} "
        f"({result['failed']} of {result['attempted']})",
        f"setup_s samples {[round(s, 4) for s in setups]}",
        f"wall clock: ops_per_s {ops_per_s(result, wall):.6g}, op_p50_ms "
        f"{1e3 * statistics.median(wall):.6g}, op_p90_ms {1e3 * percentile(wall, 0.9)[0]:.6g}; "
        f"reference probe median {1e3 * statistics.median(result['probes']):.4g} ms; setup_s {setup_wall:.6g}",
    ]
    return result, metrics, notes, True


def integer_counts(layers: dict) -> dict:
    return {k: value for k, (value, _) in layers.items() if isinstance(value, int)}


def per_layer(workload: str, seed: int, workdir: str, deadline: float):
    baseline = run_worker(workload, seed, "pass", deadline, ops=TRACE_OPS, workdir=workdir)
    spans = os.path.join(HERE, "out", f"spans-{workload}-{seed}.jsonl.gz")
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    first = run_worker(workload, seed, "traced", deadline, ops=TRACE_OPS, workdir=workdir, spans=spans)
    second = run_worker(workload, seed, "traced", deadline, ops=TRACE_OPS, workdir=workdir)
    counts, again = integer_counts(first["layers"]), integer_counts(second["layers"])
    deterministic = counts == again
    traced, untraced = ops_per_s(first), ops_per_s(baseline)
    metrics = {name: tuple(entry) for name, entry in first["layers"].items()}
    metrics["trace.ops_per_s"] = (traced, "ops/s")
    metrics["trace.untraced_ops_per_s"] = (untraced, "ops/s")
    metrics["trace.overhead_ratio"] = (untraced / traced, "ratio")
    notes = [
        f"traced ops_per_s {traced:.6g} vs untraced {untraced:.6g} on the same {TRACE_OPS} ops",
        "counts repeat exactly in a second traced run" if deterministic else
        "COUNTS DIFFER between two traced runs: "
        + ", ".join(f"{k} {counts[k]} != {again.get(k)}" for k in counts if counts[k] != again.get(k)),
        f"spans written to {os.path.relpath(spans, ROOT)}",
    ]
    for result in (baseline, second):
        for key in ("attempted", "failed", "undecided", "errors"):
            first[key] += result[key]
    return first, metrics, notes, deterministic


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    workdir = os.path.join(HERE, "work", f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        measure = per_layer if trace else end_to_end
        args = (workload, seed, workdir, deadline) if trace else (workload, seed, seconds, workdir, deadline)
        result, metrics, notes, consistent = measure(*args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"[{workload} seed {seed}] env {json.dumps(result['env'], sort_keys=True)}")
    for name, (value, unit) in metrics.items():
        print(f"[{workload}] {name} = {value:.6g} {unit}")
    for line in notes:
        print(f"[{workload}] {line}")
    undecided = result["undecided"]
    print(f"[{workload}] undecided verdicts {undecided} of {result['attempted']}")
    for line in result["errors"]:
        print(f"[{workload}] FAILED {line}")
    return {
        "correct": result["failed"] == 0 and consistent and undecided <= MAX_UNDECIDED * result["attempted"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="arrconn benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "arrconn", "__init__.py")):
        print(f"error: no arrconn sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        summary = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
