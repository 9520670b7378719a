#!/usr/bin/env python3
"""Builds and runs the serving benchmark.

One run (the last stdout line is the JSON result):

    python3 perfbench/run.py --workload zipf_hits --seed 1 --seconds 20 --trace 0

Steadiness mode: N runs per workload, workloads alternating, seeds 1..N,
then each metric's median, quartiles and IQR / median:

    python3 perfbench/run.py --steady 10 --seconds 20 [--trace 0]

The library is built from the repository's src/ into $CARGO_TARGET_DIR
(default .bench_build) under the repository root. If the sources are
missing or do not build, the runner exits non-zero and prints no result.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["zipf_hits", "cold_refill", "fleet_forward"]


def build_root():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return root if os.path.isabs(root) else os.path.join(ROOT, root)


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: library sources not found (src/CMakeLists.txt)",
              file=sys.stderr)
        return None
    build_dir = os.path.join(build_root(), "perfbench")
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [] if os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")) \
        else [configure]
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(step), file=sys.stderr)
            return None
    binary = os.path.join(build_dir, "perfbench")
    return binary if os.path.isfile(binary) else None


def bench_args(binary, workload, seed, seconds, trace):
    return [binary, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--work-dir", os.path.join(build_root(), "perfbench-work")]


def steady(binary, args):
    values = {w: {} for w in WORKLOADS}
    failures = {w: 0 for w in WORKLOADS}
    for run in range(args.steady):
        for workload in WORKLOADS:
            seed = args.seed + run
            proc = subprocess.run(
                bench_args(binary, workload, seed, args.seconds, args.trace),
                stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}",
                      file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            failures[workload] += result["failed"] + (not result["correct"])
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print(f"# {workload} seed {seed}: "
                  + " ".join(f"{k}={v['value']:.6g}"
                             for k, v in result["metrics"].items()),
                  file=sys.stderr, flush=True)
    for workload in WORKLOADS:
        print(f"\n{workload}: {args.steady} runs, failures {failures[workload]}")
        print(f"  {'metric':34} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'iqr/median':>10}")
        for name, series in values[workload].items():
            median = statistics.median(series)
            q1, _, q3 = (statistics.quantiles(series, n=4)
                         if len(series) > 1 else (series[0],) * 3)
            spread = (q3 - q1) / abs(median) if median else 0.0
            print(f"  {name:34} {median:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:10.4f}")
    return 0 if not any(failures.values()) else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steady", type=int, metavar="N",
                        help="repeat each workload N times and summarize")
    args = parser.parse_args()
    if args.steady is None and args.workload is None:
        parser.error("--workload or --steady is required")

    binary = build()
    if binary is None:
        return 2
    if args.steady is not None:
        return steady(binary, args)
    sys.stdout.flush()
    return subprocess.run(bench_args(binary, args.workload, args.seed,
                                     args.seconds, args.trace)).returncode


if __name__ == "__main__":
    sys.exit(main())
