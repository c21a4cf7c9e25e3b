#!/usr/bin/env python3
"""Benchmark of the expsampling library, one workload per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --repeat 10 --workload NAME[,NAME...] --seconds S

A run builds its inputs from the seed, runs one op at a time in a closed
loop for S seconds of op time (and at least 100 ops, so that the 90th
percentile has ten ops beyond it), checks every op's output against the
oracles in `oracles.py`, and prints one JSON line last.  With --trace 0 it
reports the end-to-end metrics; with --trace 1 it wraps the library's entry
points and reports per-layer metrics instead.  --repeat runs the benchmark
once per seed in fresh processes and prints each metric's median and
quartiles.  The library is imported from `src/` next to this directory; the
run fails when it is not there.
"""

import os

# numpy links a multithreaded OpenBLAS: pin it to one thread before numpy is
# imported, so the load stays a single steady process on a 2-core machine
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_PROBES = 7
MIN_OPS = 100
MAX_LOOP_WALL_S = 120.0
PROBLEMS_SHOWN = 5


def import_library():
    sys.path[:0] = [str(SRC), str(BENCH)]
    try:
        import expsampling
    except ImportError as exc:
        sys.exit(f"cannot import expsampling from {SRC}: {exc}")
    if SRC.resolve() not in Path(expsampling.__file__).resolve().parents:
        sys.exit(f"expsampling was imported from {expsampling.__file__}, not from {SRC}")


class Workdir:
    """A scratch directory under .bench_out, removed on exit."""

    def __enter__(self):
        OUT.mkdir(exist_ok=True)
        self.path = tempfile.mkdtemp(dir=OUT, prefix="run-")
        return self.path

    def __exit__(self, *exc):
        shutil.rmtree(self.path, ignore_errors=True)


def setup_probe(args) -> int:
    """Fresh-interpreter set-up: import, build the inputs, one warm-up op."""
    import workloads

    with Workdir() as workdir:
        workload = workloads.WORKLOADS[args.workload](args.seed, workloads.Hooks(), workdir)
        try:
            workload.run(workload.inputs(0))
        finally:
            workload.close()
    return 0


def setup_seconds(args) -> float:
    """Median wall time of SETUP_PROBES fresh interpreters doing the set-up."""
    times = []
    for _ in range(SETUP_PROBES):
        argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                "--workload", args.workload, "--seed", str(args.seed)]
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            sys.exit(f"set-up probe failed ({proc.returncode}):\n{proc.stderr}")
    return statistics.median(times)


def timed_loop(workload, seconds, hooks):
    """Closed loop, one op at a time; op 0 is the untimed warm-up."""
    workload.run(workload.inputs(0))
    hooks.clear()
    latencies, failed, wrong, shown = [], 0, False, 0
    busy_ns, i = 0, 1
    wall_start = time.perf_counter()
    while (busy_ns < seconds * 1e9 or len(latencies) < MIN_OPS) and (
        time.perf_counter() - wall_start < MAX_LOOP_WALL_S
    ):
        inputs = workload.inputs(i)
        hooks.new_op()
        start = time.perf_counter_ns()
        try:
            result = workload.run(inputs)
            problems = None
        except Exception as exc:  # an op that raises is a failed op; the run goes on
            problems = [f"op {i} raised {exc!r}"]
        elapsed = time.perf_counter_ns() - start
        latencies.append(elapsed)
        busy_ns += elapsed
        if problems is None:
            problems = workload.check(inputs, result)
            wrong = wrong or bool(problems)
        if problems:
            failed += 1
            for line in problems[: max(0, PROBLEMS_SHOWN - shown)]:
                print(f"[{workload.name}] {line}", file=sys.stderr)
            shown += len(problems)
        i += 1
    return latencies, failed, wrong, busy_ns, i


def peak_mb(workload, i) -> float:
    """tracemalloc peak of one op, outside the timed loop."""
    inputs = workload.inputs(i)
    tracemalloc.start()
    try:
        workload.run(inputs)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def measure(args) -> dict:
    import stats
    import workloads

    setup = setup_seconds(args)
    with Workdir() as workdir:
        hooks = workloads.Hooks()
        workload = workloads.WORKLOADS[args.workload](args.seed, hooks, workdir)
        try:
            latencies, failed, wrong, busy_ns, next_op = timed_loop(workload, args.seconds, hooks)
            peak = peak_mb(workload, next_op)
        finally:
            workload.close()
    ms = [t / 1e6 for t in latencies]
    metrics = {
        "setup_s": (setup, "s"),
        "ops_per_s": ((len(latencies) - failed) / (busy_ns / 1e9), "1/s"),
        "op_p50_ms": (statistics.median(ms), "ms"),
        "op_p90_ms": (stats.p90(ms), "ms"),
        "peak_mb": (peak, "MB"),
    }
    return {
        "correct": not wrong,
        "attempted": len(latencies),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items() if v is not None},
    }


def measure_traced(args) -> dict:
    import tracing
    import workloads

    tracer = tracing.Tracer()
    tracer.install()
    try:
        with Workdir() as workdir:
            workload = workloads.WORKLOADS[args.workload](args.seed, tracer, workdir)
            try:
                latencies, failed, wrong, busy_ns, _ = timed_loop(workload, args.seconds, tracer)
            finally:
                workload.close()
    finally:
        tracer.uninstall()
    ops = len(latencies)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}.json.gz", ops)
    print(f"[{args.workload}] traced ops_per_s={(ops - failed) / (busy_ns / 1e9):.6g} "
          f"over {ops} ops", file=sys.stderr)
    return {"correct": not wrong, "attempted": ops, "failed": failed, "metrics": tracer.metrics(ops)}


def repeat(args) -> int:
    """Run each workload once per seed in fresh processes; print the spreads."""
    import stats

    for name in args.workload.split(","):
        runs = []
        for seed in range(args.seed, args.seed + args.repeat):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit code {proc.returncode}", file=sys.stderr)
                return 1
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            print(f"{name} seed {seed}: {runs[-1]}", file=sys.stderr, flush=True)
        print(f"\n{name}: {len(runs)} runs, seeds {args.seed}..{args.seed + args.repeat - 1}, "
              f"attempted {[r['attempted'] for r in runs]}, failed {[r['failed'] for r in runs]}, "
              f"correct {all(r['correct'] for r in runs)}")
        print(f"{'metric':40s} {'unit':>6s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/median':>10s}")
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs if metric in r["metrics"]]
            if len(values) >= 2:
                s = stats.spread(values)
                print(f"{metric:40s} {runs[0]['metrics'][metric]['unit']:>6s} {s['median']:12.6g} "
                      f"{s['q1']:12.6g} {s['q3']:12.6g} {s['iqr_share']:10.4f}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, help="runs per workload, one seed each")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_library()
    import workloads

    for name in args.workload.split(","):
        if name not in workloads.WORKLOADS:
            parser.error(f"unknown workload {name!r}; choose from {', '.join(workloads.WORKLOADS)}")
    if args.repeat:
        return repeat(args)
    if "," in args.workload:
        parser.error("a single run takes one workload")
    if args.setup_probe:
        return setup_probe(args)
    result = measure_traced(args) if args.trace else measure(args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
