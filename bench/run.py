"""se23nav benchmark.

Run from the root of a checkout:

    python3 bench/run.py --workload battery --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload's ops for ``--seconds`` seconds with
tracing off, sets it up several times over that window, and reports the
end-to-end metrics.  ``--trace 1`` repeats a fixed set of ops in rounds,
each round once untraced and once traced, and reports per-layer call
counts, self times, computed CSV byte counts and the tracing overhead of
every traced layer that ran.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; its metrics are the per-layer figures every workload
produces.  The line before it records the environment, the sample counts
behind each metric and, under ``layers``, the per-layer figures of the
layers only this workload reaches.  See
``bench/README.md`` for the workloads and what each metric should move.
"""

import argparse
import contextlib
import json
import os
import sys
import time

# BLAS / OpenMP pools are pinned to one thread before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(BENCH_DIR, ".work")

WORKLOADS = ("battery", "streaming", "record-replay")
SETUP_REPS = 5
MIN_OPS = 3
MIN_TRACE_ROUNDS = 2

# The per-layer figures every workload of BENCHMARK.json exercises; a traced
# run puts these on its result line and the figures of the layers only its
# own workload reaches on the line before it.
SHARED_LAYERS = frozenset(
    [f"{fn}.{kind}" for fn in (
        "liegroup.so3_gammas", "quaternion.rot_to_quat", "quaternion.quat_to_rot",
        "measurement.aggregate", "measurement.synthesize_observation",
        "measurement.check_configuration", "observer.compute_corrections",
        "simulator.build_streams") for kind in ("calls", "self_s")]
    + [f"{mod}.self_s" for mod in (
        "liegroup", "quaternion", "measurement", "observer", "simulator")]
    + ["trace.overhead"])


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_package():
    """Import se23nav from this checkout's ``src`` and time it."""
    if not os.path.isfile(os.path.join(SRC, "se23nav", "__init__.py")):
        raise SystemExit(f"error: no se23nav sources under {SRC}")
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import se23nav
    import_s = time.perf_counter() - t0
    if os.path.dirname(os.path.dirname(os.path.abspath(se23nav.__file__))) != SRC:
        raise SystemExit(f"error: se23nav was imported from {se23nav.__file__}")
    return import_s


def openblas_threads():
    """Thread count OpenBLAS reports, when numpy bundles it; else None."""
    import ctypes
    import glob
    import numpy as np
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(seed):
    import platform
    import numpy as np
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "seed": seed,
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
        "openblas_threads": openblas_threads(),
    }


def peak_rss_mb():
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_ops(run, indices, log):
    """Run ``run(i)`` for each op index; returns (ops that completed,
    failure count)."""
    done, failed = [], 0
    for i in indices:
        try:
            op = run(i)
        except Exception as e:  # counted as a failed op, never fatal
            print(f"op {i} raised {type(e).__name__}: {e}", file=log)
            failed += 1
            continue
        if not op.ok:
            print(f"op {i} failed its check", file=log)
            failed += 1
        op.output = None  # keep memory independent of how many ops ran
        done.append(op)
    return done, failed


def timed_setup(wl, times):
    """Run set-up rep ``len(times)`` and append its wall time to ``times``."""
    t0 = time.perf_counter()
    wl.setup(len(times))
    times.append(time.perf_counter() - t0)


def timed_phase(wl, seconds, setup_times, log):
    """Run ops for ``seconds``.  The set-ups after the first are spread over
    the window, so that ``setup_s`` samples the same stretch of time as the
    ops do."""
    ops, failed, attempted = [], 0, 0
    start = time.perf_counter()
    while attempted < MIN_OPS or time.perf_counter() - start < seconds:
        done, bad = run_ops(wl.op, [attempted], log)
        ops += done
        failed += bad
        attempted += 1
        reps = len(setup_times)
        if reps < SETUP_REPS and \
                time.perf_counter() - start >= reps * seconds / SETUP_REPS:
            timed_setup(wl, setup_times)
    while len(setup_times) < SETUP_REPS:
        timed_setup(wl, setup_times)
    return ops, attempted, failed


def end_to_end(wl, ops, setup_s):
    import numpy as np
    walls = np.array([op.wall for op in ops])
    if ops and ops[0].cycles_ns is not None:
        cycles_us = np.concatenate([op.cycles_ns for op in ops]) / 1e3
        p50 = np.percentile(cycles_us, 50)
        # p99 of each pass (80 cycles beyond it), median over passes: a
        # host stall that hits a few passes does not set the run's tail
        p99 = np.median([np.percentile(op.cycles_ns, 99) for op in ops]) / 1e3
    else:
        # the caller sees no single cycle: amortise each op over its samples
        cycles_us = walls / wl.samples_per_op * 1e6
        p50, p99 = np.percentile(cycles_us, [50, 99])
    # one-phase ops (battery, streaming) report their mean op wall as both
    # commands, on the same basis as samples_per_s
    mean_wall = float(walls.mean())
    sim = [op.parts["simulate"] for op in ops if "simulate" in op.parts]
    rep = [op.parts["replay"] for op in ops if "replay" in op.parts]
    metrics = {
        "setup_s": (setup_s, "s"),
        "samples_per_s": (wl.samples_per_op / mean_wall, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "terminal_ms": (wl.terminal_ms(), "mean_sq"),
        "cycle_us.p50": (float(p50), "us"),
        "cycle_us.p99": (float(p99), "us"),
        "simulate_s": (float(np.median(sim)) if sim else mean_wall, "s"),
        "replay_s": (float(np.median(rep)) if rep else mean_wall, "s"),
    }
    counts = {"ops": len(ops), "cycles": int(cycles_us.size),
              "simulate": len(sim) or len(ops), "replay": len(rep) or len(ops),
              "setup_reps": SETUP_REPS, "op_wall_s": walls.tolist()}
    return metrics, counts


def trace_phase(wl, seconds, log):
    """Rounds of (untraced, traced) runs of ``wl.trace_op`` over
    ``wl.trace_ops``.  Returns the per-layer figures of every traced
    function that ran, so no figure is a structural zero."""
    import numpy as np
    from tracer import MODULES, Tracer

    rounds, attempted, failed = [], 0, 0
    problems = []
    start = time.perf_counter()
    while len(rounds) < MIN_TRACE_ROUNDS or time.perf_counter() - start < seconds:
        plain, bad_plain = run_ops(wl.trace_op, wl.trace_ops, log)
        tracer = Tracer()
        with tracer:
            traced, bad_traced = run_ops(wl.trace_op, wl.trace_ops, log)
        attempted += 2 * len(wl.trace_ops)
        failed += bad_plain + bad_traced
        rounds.append({
            "plain": sum(op.wall for op in plain),
            "traced": sum(op.wall for op in traced),
            "calls": dict(tracer.calls),
            "bytes": (tracer.bytes_written, tracer.bytes_read),
            "self_s": dict(tracer.self_s),
            "module_s": tracer.module_self_s(),
        })

    first = rounds[0]
    for r in rounds[1:]:
        if r["calls"] != first["calls"] or r["bytes"] != first["bytes"]:
            problems.append("call or byte counts differ between traced rounds")
            break
    for key, n in wl.expected_calls().items():
        if first["calls"][key] != n:
            problems.append(f"{key} ran {first['calls'][key]} times, expected {n}")

    def median(field, key):
        return float(np.median([r[field][key] for r in rounds]))

    ran = {key: n for key, n in first["calls"].items() if n}
    layers = {}
    for key, n in ran.items():
        layers[f"{key}.calls"] = (n, "count")
        layers[f"{key}.self_s"] = (median("self_s", key), "s")
    for mod in MODULES:
        if any(key.startswith(mod + ".") for key in ran):
            layers[f"{mod}.self_s"] = (median("module_s", mod), "s")
    for name, n in zip(("dataio.bytes_written", "dataio.bytes_read"), first["bytes"]):
        if n:
            layers[name] = (n, "bytes")
    plain = float(np.median([r["plain"] for r in rounds]))
    traced = float(np.median([r["traced"] for r in rounds]))
    layers["trace.overhead"] = (traced / plain, "ratio")
    counts = {"rounds": len(rounds), "ops_per_round": len(wl.trace_ops),
              "dataio.bytes": "computed from the sizes of the files dataio read or wrote"}
    return layers, counts, attempted, failed, problems


def main(argv=None):
    args = parse_args(argv)
    import_s = import_package()

    from pathlib import Path
    import numpy as np
    import workloads

    log = sys.stderr
    wl = workloads.make(args.workload, args.seed, Path(WORKDIR) / f"{os.getpid()}")
    try:
        layers = None
        if args.trace:
            wl.setup(0)
            layers, counts, attempted, failed, problems = trace_phase(
                wl, args.seconds, log)
            metrics = {k: v for k, v in layers.items() if k in SHARED_LAYERS}
            layers = {k: v for k, v in layers.items() if k not in SHARED_LAYERS}
        else:
            setup_times = []
            timed_setup(wl, setup_times)
            ops, attempted, failed = timed_phase(wl, args.seconds, setup_times, log)
            setup_s = import_s + float(np.median(setup_times))
            problems = [] if ops else ["no op completed; nothing to measure"]
            metrics, counts = end_to_end(wl, ops, setup_s) if ops else ({}, {})
            counts["setup_wall_s"] = setup_times
        problems += wl.problems
    finally:
        wl.close()
        with contextlib.suppress(OSError):
            os.rmdir(WORKDIR)  # only when no other run is using it

    for msg in problems:
        print(f"check failed: {msg}", file=log)
    correct = failed == 0 and not problems
    print(json.dumps({
        "workload": args.workload, "trace": args.trace, "env": environment(args.seed),
        "failed_ops": failed, "ops": attempted, "samples": counts,
        "import_s": import_s,
        **({"layers": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}}
           if layers is not None else {}),
    }))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
