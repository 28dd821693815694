#!/usr/bin/env python3
"""Builds and runs the repository's end-to-end benchmark.

    python3 perfbench/run.py --workload mixed_serial --seed 1 --seconds 20 --trace 0

The first run in a checkout configures and builds perfbench/ (which builds
the program from src/) into .bench_build/perfbench; later runs only check
that the build is current. Build output goes to stderr, so the last line of
stdout is the benchmark's one-line JSON result. A traced run (--trace 1) also
writes its spans to .bench_build/traces/. --tiny and --inject are for
perfbench/test_bench.py.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "onoff_perfbench")
WORKLOADS = ("mixed_serial", "compute_parallel", "protocol_lifecycle")
# A run must end within 180 s, so it is stopped a little before that.
RUN_TIMEOUT_S = 170


def build_step(cmd):
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode


def build():
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        code = build_step(["cmake", "-S", HERE, "-B", BUILD,
                           "-DCMAKE_BUILD_TYPE=Release"])
        if code != 0:
            return code
    return build_step(["cmake", "--build", BUILD, "--target",
                       "onoff_perfbench", "-j", jobs])


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small state, for the benchmark's own test")
    parser.add_argument("--inject", choices=("root", "payout"),
                        help="inject a wrong expected result; the run must fail")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    code = build()
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        return code if code > 0 else 1

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    if args.tiny:
        cmd.append("--tiny")
    if args.inject:
        cmd += ["--inject", args.inject]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return code if code >= 0 else 1


if __name__ == "__main__":
    sys.exit(main())
