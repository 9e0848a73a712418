#!/usr/bin/env python3
"""Builds and runs the host-cost benchmark for one workload.

    python3 hostbench/run.py --workload rpc_small --seed 1 --seconds 10 --trace 0

Run from the repository root. The benchmark is built from source into
$CARGO_TARGET_DIR/hostbench (default .bench_build/hostbench) on first use.
--trace 0 runs the plain link and reports the end-to-end metrics; --trace 1
runs the traced link and reports the per-layer ledger. Both print a
human-readable table, then, as the last line, one JSON object holding the
metrics BENCHMARK.json declares for that mode. Exits non-zero, without a
result line, if the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("rpc_small", "kv_bulk", "kv_sharded_open", "kv_cached_zipf")


def fail(message):
    print(f"hostbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, what):
    """Runs a build step; its output goes to stderr only if it fails."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"{what} failed (exit {proc.returncode})")


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no library sources under {ROOT}/src")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd, "configure")
    run_quiet(["cmake", "--build", build_dir, "--target", "hostbench",
               "hostbench_traced", "--parallel", "4"], "build")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(target, "hostbench"))
    build(build_dir)

    binary = os.path.join(build_dir, "hostbench_traced" if args.trace else "hostbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.trace:
        cmd += ["--spans", os.path.join(build_dir, f"spans-{args.workload}.tsv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False,
                              timeout=3 * args.seconds + 120)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        fail(f"benchmark exited with {proc.returncode} and no result")
    result = json.loads(lines[-1])
    wanted = declared_metrics(args.trace)
    missing = [name for name in wanted if name not in result["metrics"]]
    if missing:
        fail(f"benchmark did not report {', '.join(missing)}")
    result["metrics"] = {name: result["metrics"][name] for name in wanted}
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
