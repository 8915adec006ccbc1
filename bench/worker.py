"""One workload in a fresh interpreter; prints one JSON object.

Modes:
  setup   import arrconn and prepare, then report ``setup_s`` and exit
  timed   closed loop over the seed's ops from ``--offset`` on, for
          ``--seconds`` and at least ``--min-ops`` ops, untraced
  pass    the first ``--ops`` ops exactly once, untraced
  traced  the same ops with spans recorded around every layer boundary

Inputs are generated before the set-up clock starts.  The program is
imported from ``--src`` and nowhere else.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import json
import os
import platform
import resource
import sys
import time
from fractions import Fraction

import ops as opsmod
import workloads

# The end-to-end latencies are CPU time of the calling thread at reference
# speed: each op's thread CPU time is scaled by REFERENCE_S over the mean
# thread CPU time of the reference probes run just before and just after
# it.  On a shared VM the speed of interpreter code drifts by tens of
# percent within seconds, and the probes track it.  Thread CPU time leaves
# out the time the caller is not running: time the VM's CPU is given to
# other tenants or processes, and sleeps while OpenBLAS worker threads
# finish a call.  On a 2-vCPU VM an A_4 holonomy op sleeps for about an
# eighth of its wall time, mostly in its two SVDs, and that share moves
# with the load on the host.  The caller's own CPU in a threaded BLAS call
# (its share of the work and its spin-wait for the workers) stays in, so
# the cost of BLAS threading on tiny matrices still shows.  Wall times are
# reported beside the scaled ones.
REFERENCE_S = 0.010
SETTLE_WINDOW_S = 0.01
SETTLE_LIMIT_S = 0.5


def reference() -> float:
    """Thread CPU seconds taken by a fixed pure-Python Fraction loop (about
    10 ms): a probe of how fast this machine runs interpreter code right
    now.  The collector is off so that the program's heap cannot slow the
    probe."""
    gc.disable()
    try:
        start = time.thread_time()
        total = Fraction(0)
        for i in range(1, 1500):
            total += Fraction(i % 7 + 1, i % 11 + 1) * Fraction(3, i % 5 + 2)
        return time.thread_time() - start
    finally:
        gc.enable()


def settle():
    """Busy-wait until the process's other threads (OpenBLAS workers that
    keep spinning after a call) have used no CPU for SETTLE_WINDOW_S, so
    that they do not slow the next reference probe."""
    clock = time.perf_counter
    deadline = clock() + SETTLE_LIMIT_S
    others = time.process_time() - time.thread_time()
    while clock() < deadline:
        window_end = clock() + SETTLE_WINDOW_S
        while clock() < window_end:
            pass
        now = time.process_time() - time.thread_time()
        if now - others < 0.1 * SETTLE_WINDOW_S:
            return
        others = now


def probe() -> float:
    settle()
    return reference()


def scale(latencies, probes) -> list:
    """Latencies at reference speed; op i ran between probes i and i + 1."""
    return [
        t * 2.0 * REFERENCE_S / (probes[i] + probes[i + 1]) for i, t in enumerate(latencies)
    ]


def blas_info() -> dict:
    """Versions and the OpenBLAS thread count as the user's process has them."""
    import numpy
    import scipy

    info = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "openblas": None,
        "blas_threads": None,
    }
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_", "64_"), ("scipy_", ""), ("", "64_"), ("", "")):
            get_threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_threads.restype, get_threads.argtypes = ctypes.c_int, []
                get_config.restype, get_config.argtypes = ctypes.c_char_p, []
                info["blas_threads"] = get_threads()
                info["openblas"] = get_config().decode()
                return info
    return info


def import_from(src: str, workload: str):
    sys.path.insert(0, src)
    mods = opsmod.import_program(workload)
    import arrconn

    where = os.path.realpath(arrconn.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"arrconn was imported from {where}, not from {src}")
    return mods


def run(args) -> dict:
    ops = []
    if args.mode != "setup":
        length = args.ops if args.mode in ("pass", "traced") else None
        ops = workloads.generate(args.workload, args.seed, args.workdir, length)

    # Set-up is timed in thread CPU time, for the reasons given at
    # REFERENCE_S, but not scaled: the probe swings by up to 40% in moments
    # when imports and lattice building speed up by about 10%, so one pair
    # of probes around one long sample adds more noise than it removes.
    # Time the caller waits during imports is left out too: the wall-clock
    # set-up of cli-cold once moved by a quarter between two sets of runs
    # half an hour apart, while the probe moved by 5%.
    start, cpu_start = time.perf_counter(), time.thread_time()
    mods = import_from(args.src, args.workload)
    state = opsmod.prepare(args.workload, mods)
    out = {"setup_s": time.thread_time() - cpu_start, "setup_wall_s": time.perf_counter() - start}
    if args.mode == "setup":
        return out

    tracer = None
    if args.mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    latencies, wall, errors = [], [], []
    probes = [probe()]
    failed = undecided = 0
    clock, cpu = time.perf_counter, time.thread_time
    begin = clock()
    index = 0
    while True:
        if args.mode == "timed":
            if index >= args.min_ops and clock() - begin >= args.seconds:
                break
        elif index >= len(ops):
            break
        op = ops[(args.offset + index) % len(ops)]
        if tracer is not None:
            tracer.op = index
        t0, c0 = clock(), cpu()
        try:
            output = opsmod.run_op(args.workload, mods, state, op)
            problems = None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            problems = [f"raised {type(exc).__name__}: {exc}"]
        latencies.append(cpu() - c0)
        wall.append(clock() - t0)
        if tracer is not None:
            tracer.op = None
        probes.append(probe())
        if problems is None:
            problems = opsmod.check(args.workload, op, output)
            undecided += opsmod.undecided(args.workload, op, output)
        if problems:
            failed += 1
            if len(errors) < 5:
                errors.append(f"op {args.offset + index} ({op.kind}, a={[str(x) for x in op.a]}): {'; '.join(problems)}")
        index += 1

    out.update(
        attempted=index,
        failed=failed,
        undecided=undecided,
        errors=errors,
        latencies=latencies,
        wall=wall,
        scaled=scale(latencies, probes),
        probes=probes,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        env=blas_info(),
    )
    if tracer is not None:
        from tracer import layer_metrics

        out["layers"] = layer_metrics(tracer)
        if args.spans:
            tracer.write(args.spans)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "timed", "pass", "traced"))
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--ops", type=int, default=40)
    parser.add_argument("--offset", type=int, default=0)
    parser.add_argument("--min-ops", type=int, default=1)
    parser.add_argument("--src", required=True)
    parser.add_argument("--workdir")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    print(json.dumps(run(args)))


if __name__ == "__main__":
    main()
