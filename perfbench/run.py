#!/usr/bin/env python3
"""chernloc benchmark: one closed-loop caller running seeded verification
workloads against the library's public entry points.

    python3 perfbench/run.py --workload exact-bar --seed 1 --seconds 42 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
Every operation checks its identity; a failed check is counted, reported
with the failing operation, and makes the command exit with status 1.

A workload is a unit of 100 operations.  ``--trace 0`` times the unit in
passes, each on fresh inputs drawn from the same seed, until ``--seconds``
are used (at least ``MIN_PASSES``), and reports for every operation its
best time over the passes: on a shared host, contention slows the CPU by up
to 1.8x for seconds to minutes at a time, and the best of several passes
spread over the run is the estimate that noise moves least.  The times are
then scaled to a reference host speed, measured by the best time of a fixed
reference kernel over the same run (see ``reference_kernel``).  ``--trace 1``
runs one warm-up unit, then the same number of fresh units untraced and
traced, and reports the per-layer metrics and the tracing overhead.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# Pin the BLAS pools before anything imports numpy.
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import gc
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

DEFAULT_SEED = 1
HELD_OUT_SEED = 20101105   # reserved for confirming claims; never tune on it
MIN_PASSES = 3             # timed passes over the unit, however long they take
SETUP_PROBES = 2           # fresh-interpreter set-ups, plus the run's own
TRACE_UNIT_SECONDS = 18    # traced runs time one unit each way per this many --seconds
OP_LIMIT = None            # run only the unit's first ops (for tests of the benchmark)
REFERENCE_EVERY = 10       # ops between two timings of the reference kernel
REFERENCE_MS = 6.5         # the kernel's best time at the reference host speed
MAX_REPORTED_FAILURES = 10
WORKLOADS = ("exact-bar", "heat-supertrace", "gaussian-localize")

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment():
    """Facts that make numbers from different machines incomparable."""
    import numpy
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "git_sha": _git_sha(),
        "held_out_seed": HELD_OUT_SEED,
    }


def _git_sha():
    """The checked-out commit, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _probe_setup(workload, seed):
    """Set-up seconds measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _run_op(op):
    try:
        return op.run()
    except Exception:  # a raising op is a failed op, reported with its traceback
        from bench_workloads import Check
        return Check(False, detail=traceback.format_exc(limit=4).strip().replace("\n", " | "))


def reference_kernel():
    """Fixed work on the standard library alone, Fraction products and dict
    updates like the exact algebra's.  It calls no chernloc code, so its
    best time over a run measures only how fast the host ran the process."""
    acc = {}
    for i in range(1500):
        key = (i % 97, i % 13)
        acc[key] = acc.get(key, 0) + Fraction(i % 7 + 1, i % 5 + 2) * Fraction(3, i % 11 + 1)
    return acc


def _settle():
    """Collect, then keep the objects alive so far out of later collections."""
    gc.collect()
    gc.freeze()


def fresh_unit(workload):
    """A new unit of ``workload``, built after the garbage of earlier ones
    is collected; callers drop their previous unit first."""
    gc.unfreeze()
    gc.collect()
    unit = workload.unit()
    if OP_LIMIT is not None:
        unit.ops = unit.ops[:OP_LIMIT]
    _settle()
    return unit


class Loop:
    """Closed loop over units of a workload; one caller, one op at a time.
    ``best[j]`` is the shortest time op ``j`` of the unit took in any pass;
    ``reference`` the shortest time of the reference kernel, timed before
    every REFERENCE_EVERY-th op."""

    def __init__(self):
        self.best = []
        self.passes = 0
        self.attempted = 0
        self.failures = []
        self.max_residual = 0.0
        self.op_seconds = 0.0
        self.pass_seconds = []
        self.reference = math.inf

    def run_unit(self, unit, after_op=None):
        clock = time.perf_counter
        times = []
        for j, op in enumerate(unit.ops):
            if j % REFERENCE_EVERY == 0:
                t0 = clock()
                reference_kernel()
                self.reference = min(self.reference, clock() - t0)
            t0 = clock()
            check = _run_op(op)
            times.append(clock() - t0)
            self.max_residual = max(self.max_residual, check.residual)
            if not check.ok:
                self.failures.append((self.passes, j, op.kind, op.label, check.detail))
            if after_op is not None:
                after_op(j)
        self.best = times if not self.best else list(map(min, self.best, times))
        self.passes += 1
        self.attempted += len(times)
        self.op_seconds += sum(times)
        self.pass_seconds.append(sum(times))
        return sum(times)

    def run_for(self, workload, unit, seconds, between=None):
        """Passes on fresh units until the next pass would end after
        ``seconds``, and at least MIN_PASSES of them; ``between(k)`` runs
        after pass k and its time counts in ``seconds``."""
        clock = time.perf_counter
        start = clock()
        lengths = []
        while True:
            began = clock()
            if self.passes:
                del unit
                unit = fresh_unit(workload)
            self.run_unit(unit)
            if between is not None:
                between(self.passes)
            lengths.append(clock() - began)
            if (self.passes >= MIN_PASSES
                    and clock() - start + statistics.median(lengths) > seconds):
                break
        return clock() - start


def _block_cache_entries(models):
    """Entries held in the models' curvature-block caches; None if the
    workload has models but none carries a cache, yet or any more."""
    if not models:
        return 0
    caches = [vars(m).get("_block_cache") for m in models]
    if all(c is None for c in caches):
        return None
    return sum(len(c) for c in caches if c is not None)


def _peak_cache_entries(readings):
    """Largest reading; None (missing) if no model made a cache during the
    traced ops, as when the library no longer keeps one."""
    found = [r for r in readings if r is not None]
    return max(found) if found else None


def _print_metric(name, value, unit, note=""):
    shown = "missing" if value is None else f"{value:.6g}"
    print(f"{name:42s} {shown:>14s} {unit}{'  (' + note + ')' if note else ''}")


def _print_failures(failures):
    for k, j, kind, label, detail in failures[:MAX_REPORTED_FAILURES]:
        print(f"FAILED op {j} of pass {k} [{kind}: {label}]: {detail}")
    if len(failures) > MAX_REPORTED_FAILURES:
        print(f"... and {len(failures) - MAX_REPORTED_FAILURES} more failed ops")


def _untraced(args, workload, unit, setup_main):
    setup_samples = [setup_main]

    def probe(passes):
        # one set-up after each of the first passes, so that the set-ups
        # sample the host's speed at several times in the run
        if passes <= SETUP_PROBES:
            setup_samples.append(_probe_setup(args.workload, args.seed))

    loop = Loop()
    wall = loop.run_for(workload, unit, args.seconds, between=probe)
    n = len(loop.best)
    # Times are reported at the reference host speed: divided by how much
    # slower than REFERENCE_MS the reference kernel ran at best in this run.
    slowdown = loop.reference * 1e3 / REFERENCE_MS
    ms = sorted(t * 1e3 for t in loop.best)
    cuts = statistics.quantiles(ms, n=10, method="inclusive")
    raw = {"ops_per_s": n / sum(loop.best), "op_ms_p50": statistics.median(ms),
           "op_ms_p90": cuts[8]}
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    beyond_p90 = sum(1 for t in ms if t > cuts[8])
    raw["setup_s"] = statistics.median(setup_samples)
    metrics = {
        "setup_s": raw["setup_s"] / slowdown,
        "ops_per_s": raw["ops_per_s"] * slowdown,
        "op_ms_p50": raw["op_ms_p50"] / slowdown,
        "op_ms_p90": raw["op_ms_p90"] / slowdown,
        "peak_rss_mb": peak_rss_mb,
    }
    best_of = f"best of {loop.passes} passes"
    notes = {
        "setup_s": f"median of {len(setup_samples)} set-ups: "
                   + ", ".join(f"{s:.3f}" for s in setup_samples)
                   + f"; {raw['setup_s']:.4g} at this run's speed",
        "ops_per_s": f"{n} ops, {best_of}; {raw['ops_per_s']:.4g} at this run's speed",
        "op_ms_p50": f"{n} ops, {best_of}; {raw['op_ms_p50']:.4g} at this run's speed",
        "op_ms_p90": f"{n} ops, {best_of}, {beyond_p90} beyond p90; "
                     f"{raw['op_ms_p90']:.4g} at this run's speed",
    }
    for name, value in metrics.items():
        _print_metric(name, value, END_TO_END_UNITS[name], notes.get(name, ""))
    print(f"host_speed reference kernel best {loop.reference * 1e3:.3f} ms, "
          f"{slowdown:.3f} x the reference {REFERENCE_MS} ms")
    print(f"all_ops {loop.attempted} ops in {loop.op_seconds:.2f} s of ops, "
          f"{wall:.2f} s of loop")
    print("pass_s " + " ".join(f"{t:.3f}" for t in loop.pass_seconds)
          + "  (seconds of ops in each pass)")
    failed = len(loop.failures)
    _print_metric("fail_ratio", failed / loop.attempted, "ratio",
                  f"{failed} of {loop.attempted} ops failed")
    _print_metric("max_residual", loop.max_residual, "abs",
                  "largest McKean-Singer |lhs - rhs_heat_sq|; 0 on exact workloads")
    _print_failures(loop.failures)
    result = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
              for name, value in metrics.items()}
    return loop.attempted, failed, result


def trace_units(seconds):
    return max(1, int(seconds // TRACE_UNIT_SECONDS))


def _traced(args, workload, unit):
    """A warm-up unit, then ``trace_units`` fresh units untraced and as many
    traced, so that caches held by the inputs start cold in every unit."""
    import bench_trace
    units = trace_units(args.seconds)
    loop = Loop()
    loop.run_unit(unit)
    untraced_s = 0.0
    for _ in range(units):
        del unit
        unit = fresh_unit(workload)
        untraced_s += loop.run_unit(unit)
    del unit
    traced = [fresh_unit(workload) for _ in range(units)]
    traced_s = 0.0
    cache_readings = []
    with bench_trace.Tracer() as tracer:
        for k, unit in enumerate(traced):
            def after_op(j, models=unit.models, base=k * len(unit.ops)):
                cache_readings.append(_block_cache_entries(models))
                tracer.op = base + j + 1
            tracer.op = k * len(unit.ops)
            traced_s += loop.run_unit(unit, after_op=after_op)
    count = sum(len(u.ops) for u in traced)
    metrics = tracer.metrics({
        "fredholm.block_cache_entries": _peak_cache_entries(cache_readings),
        "trace.ops": count,
        "trace.untraced_s": untraced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.overhead_ratio": traced_s / untraced_s,
    })
    for name, m in metrics.items():
        _print_metric(name, m["value"], m["unit"])
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"trace-{args.workload}.jsonl"
    tracer.write_spans(span_file, {"workload": args.workload, "seed": args.seed, "ops": count})
    print(f"spans written to {span_file.relative_to(ROOT)}")
    _print_failures(loop.failures)
    return loop.attempted, len(loop.failures), metrics


def main(argv=None):
    args = _parse_args(argv)
    if not (SRC / "chernloc" / "__init__.py").is_file():
        print(f"perfbench: no chernloc package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))

    start = time.perf_counter()
    import bench_workloads
    workload = bench_workloads.build(args.workload, args.seed)
    unit = fresh_unit(workload)
    setup_main = time.perf_counter() - start

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  (closed loop, 1 caller)")
    print("env " + json.dumps(environment()))
    if args.trace:
        attempted, failed, metrics = _traced(args, workload, unit)
    else:
        attempted, failed, metrics = _untraced(args, workload, unit, setup_main)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
