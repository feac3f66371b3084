#!/usr/bin/env python3
"""Benchmark of the delayfilter package in this checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is cli-filter, mc-square, stream-minvar, analyze, or all. The run
builds its inputs from the seed, measures a closed loop of the
workload for S seconds, checks every output, and prints a readable
report followed, on the last line, by one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are
the end-to-end ones; with --trace 1 they are the per-layer ones, from
a separate run that wraps the package's public functions.
"""

import os

# One process, one thread: BLAS must not start a pool of its own.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import calibration

# `workloads` and `tracing` import the package, so they are imported only
# after main() has put this checkout's src/ on the path.

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 7
IMPORT_REPEATS = 3

# Fresh-interpreter set-up: import the CLI and load the workload's model
# files, timed inside the child so interpreter start-up is left out, then
# the machine's slowdown on the child's core, measured once numpy is in.
SETUP_PROBE = """
import sys, time
sys.path.insert(0, sys.argv.pop(1))
t0 = time.perf_counter()
import delayfilter.cli
for path in sys.argv[1:]:
    delayfilter.load_model_file(path)
elapsed = time.perf_counter() - t0
import calibration
print(elapsed, calibration.slowdown())
"""

IMPORT_PROBE = """
import time
t0 = time.perf_counter()
import delayfilter
print(time.perf_counter() - t0)
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_floats(code: str, args=(), env=None) -> list[float]:
    """Run `python -c code args` and return the floats it prints last."""
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return [float(v) for v in proc.stdout.strip().splitlines()[-1].split()]


def wall_seconds(argv, env=None) -> float:
    t0 = time.perf_counter()
    subprocess.run(argv, env=env, capture_output=True, timeout=120, check=True)
    return time.perf_counter() - t0


def run_context() -> dict:
    import scipy
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown (not a git checkout)"
    except OSError:
        commit = "unknown (git not found)"
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((SRC / "delayfilter").glob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": commit,
        "src_delayfilter_lines": src_lines,
    }


def attempt(work, tally, in_process=False):
    """work.op(), or None when the package raised; that counts as a failure."""
    try:
        return work.op(tally, in_process=in_process)
    except Exception as exc:        # the program under test crashed: record, go on
        tally.record(getattr(work, "key", work.name),
                     f"{work.name} raised {type(exc).__name__}", str(exc)[:200])
        return None


def measure(work, tally, seconds):
    """A closed loop for `seconds` of whole cycles.

    A cycle is the workload's fixed mix of operations, so every run
    measures the same mix. Returns each operation's timings and the
    machine slowdown around it: the one the operation measured itself,
    else the mean of the calibration runs on either side.
    """
    ops, slowdowns, turns = [], [], 0
    before = calibration.slowdown()
    deadline = time.perf_counter() + seconds
    while turns == 0 or turns % work.cycle or time.perf_counter() < deadline:
        op = attempt(work, tally)
        turns += 1
        after = calibration.slowdown()
        if op is not None:
            ops.append(op)
            slowdowns.append(op.slowdown or 0.5 * (before + after))
        before = after
    if not ops:
        raise RuntimeError(f"{work.name}: every operation failed")
    return ops, slowdowns


def p50_ms(ops) -> float:
    return 1e3 * float(np.median(np.concatenate([o.latencies for o in ops])))


def end_to_end(work, tally, seconds, env) -> tuple[dict, dict]:
    """End-to-end metrics, every time corrected for the machine's slowdown."""
    from workloads import throughput
    setups = [t / slow for t, slow in (
        child_floats(SETUP_PROBE, [HERE, *work.model_files], env)
        for _ in range(SETUP_REPEATS))]
    # Warm-up: every operation of the seeded set runs once, so the counts
    # of attempted and failed operations do not depend on the run's length;
    # caches fill and lazy set-up finishes.
    for _ in range(work.cover):
        attempt(work, tally)
    # Peak memory of the program, read before the run's own records of
    # every operation grow with the run's length.
    who = resource.RUSAGE_CHILDREN if work.name == "cli-filter" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    raw, slowdowns = measure(work, tally, seconds)
    if hasattr(work, "finish"):
        work.finish(tally)
    ops = [o.scaled(slow) for o, slow in zip(raw, slowdowns)]
    metrics = {
        "throughput_per_s": (throughput(ops), "1/s"),
        "op_p50_ms": (p50_ms(ops), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    details = {**work.details(ops),
               "uncorrected.throughput_per_s": (throughput(raw), "1/s"),
               "uncorrected.op_p50_ms": (p50_ms(raw), "ms"),
               "machine_slowdown_p50": (statistics.median(slowdowns), "x")}
    return metrics, details


def traced(work, everyone, tally, seconds, env) -> tuple[dict, dict]:
    """Per-layer metrics: a first pass of every workload, then `work` alone.

    The fixed pass runs every operation of each workload's seeded set
    once, so every layer metric exists on every workload. The
    loop that follows alternates traced and untraced cycles of `work`,
    and the difference in their time per unit is the overhead.
    """
    import tracing
    interp = [wall_seconds([sys.executable, "-c", "pass"], env) for _ in range(IMPORT_REPEATS)]
    imports = [child_floats(IMPORT_PROBE, env=env)[0] for _ in range(IMPORT_REPEATS)]
    tracer = tracing.Tracer()
    with tracer:
        for other in everyone:
            for _ in range(other.cover):
                attempt(other, tally, in_process=True)
    spent = {True: [0.0, 0], False: [0.0, 0]}       # traced?: [seconds, units]
    deadline = time.perf_counter() + seconds
    on = True
    while time.perf_counter() < deadline or not (spent[True][1] and spent[False][1]):
        if time.perf_counter() > deadline + 60:
            raise RuntimeError(f"{work.name}: no operation succeeded in the traced loop")
        with tracer if on else contextlib.nullcontext():
            for _ in range(work.cycle):
                o, slow = calibration.timed(lambda: attempt(work, tally, in_process=True))
                if o is not None:
                    spent[on][0] += o.elapsed / slow
                    spent[on][1] += o.units
        on = not on
    if hasattr(work, "finish"):
        work.finish(tally)
    metrics = tracing.layer_metrics(tracer)
    metrics["import.interpreter_s"] = (statistics.median(interp), "s")
    metrics["import.delayfilter_s"] = (statistics.median(imports), "s")
    (t_on, n_on), (t_off, n_off) = spent[True], spent[False]
    metrics["trace.overhead_pct"] = (100.0 * ((t_on / n_on) / (t_off / n_off) - 1.0), "%")
    return metrics, {"traced_units": (n_on, "count"), "untraced_units": (n_off, "count"),
                     "spans": (len(tracer.spans), "count")}


def report(name, context, metrics, details, tally) -> dict:
    from workloads import KNOWN_FAILURES
    print(f"== {name}")
    print("context: " + json.dumps(context, sort_keys=True))
    for key, (value, unit) in {**metrics, **details}.items():
        print(f"  {key:<44} {value:>16.6g} {unit}")
    rate = tally.failed / tally.attempted
    print(f"  {'error_rate':<44} {rate:>16.6g} ({tally.failed} of {tally.attempted} "
          f"operations failed; {sum(tally.reasons.values())} of {tally.executions} executions)")
    for reason, count in sorted(tally.reasons.items()):
        known = KNOWN_FAILURES.get(reason)
        tag = f"known: {known}" if known else "UNEXPECTED"
        print(f"  failure x{count} {reason}: {tally.examples[reason]} [{tag}]")
    return {"correct": not tally.unexpected(), "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "delayfilter" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC / 'delayfilter'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, Tally, child_env
    if args.workload == "all":
        return run_all(list(WORKLOADS), args)
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"pick one of {', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2

    name, env, tally = args.workload, child_env(SRC), Tally()
    context = dict(run_context(), workload=name, unit_of_work=WORKLOADS[name].unit,
                   seed=args.seed, seconds=args.seconds, trace=args.trace)
    workdir = HERE / "_work" / f"{os.getpid()}"
    try:
        if args.trace:
            everyone = []
            for other, cls in WORKLOADS.items():
                (workdir / other).mkdir(parents=True)
                everyone.append(cls(workdir / other, args.seed, SRC))
            work = next(w for w in everyone if w.name == name)
            metrics, details = traced(work, everyone, tally, args.seconds, env)
        else:
            workdir.mkdir(parents=True)
            work = WORKLOADS[name](workdir, args.seed, SRC)
            metrics, details = end_to_end(work, tally, args.seconds, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):      # another run may still use it
            workdir.parent.rmdir()
    print(json.dumps(report(name, context, metrics, details, tally)))
    return 0


def run_all(names, args) -> int:
    """Each workload in its own process, so none inherits another's memory."""
    results = {}
    for name in names:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, timeout=900)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            print(proc.stderr, end="", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "metrics": {f"{n}.{k}": v for n, r in results.items()
                                  for k, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
