#!/usr/bin/env python3
"""Builds the benchmark program in plain Release and runs one workload.

    python3 perfbench/run.py --workload cube-batch --seed 1 --seconds 10 --trace 0

Run from the repository root. The first call configures and builds the
library from src/ plus x3perf into .bench_build/perfbench (later
calls only rebuild what changed). Build output goes to stderr; stdout
carries x3perf's output, whose last line is the result object.
Scratch files (database, WAL, spill) live in .bench_build/runs/ and are
removed when the run ends; traced runs keep their spans in
.bench_build/traces/.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
WORKLOADS = ("cube-batch", "serve-mixed", "serve-ingest")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds x3perf; returns its path."""
    jobs = str(min(os.cpu_count() or 1, 4))
    configured = any(os.path.exists(os.path.join(BUILD_DIR, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "x3perf",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(BUILD_DIR, "x3perf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 1

    tag = f"{args.workload}-seed{args.seed}"
    workdir = os.path.join(BUILD_ROOT, "runs", f"{tag}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir]
    if args.trace:
        traces = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(traces, f"{tag}.jsonl")]
    env = dict(os.environ, TMPDIR=workdir)
    try:
        result = subprocess.run(command, env=env, timeout=RUN_TIMEOUT_S)
        code = result.returncode
    except subprocess.TimeoutExpired:
        print(f"run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        code = 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
