#!/usr/bin/env python3
"""Builds and runs the AQUA request benchmark for one workload.

Usage (from the repository root):

    python3 reqbench/run.py --workload mixed_rw --seed 1 --seconds 45 --trace 0

Builds the AQUA library from ./src plus the benchmark program with CMake
(Release) into $CARGO_TARGET_DIR/reqbench, or .bench_build/reqbench when that
variable is unset, then runs one closed-loop benchmark process. The last line
of standard output is the JSON result; build output goes to standard error.
With --trace 1 the span JSON is written under <build dir>/traces/.
"""

import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "reqbench")
# Time a run may take beyond --seconds: repeated set-ups, the reference
# answers, the repeated dump + reload and the post-reload checks.
RUN_MARGIN_S = 120


def fail(msg):
    print(f"reqbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run_child(cmd, timeout=None, **kwargs):
    """Runs `cmd` to completion; a timeout or SIGTERM/SIGINT kills it first."""
    try:
        proc = subprocess.Popen(cmd, **kwargs)
    except OSError as e:
        fail(f"cannot run {cmd[0]}: {e}")

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{os.path.basename(cmd[0])} did not finish within {timeout} s")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "reqbench")


def build(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"AQUA sources not found under {ROOT}/src")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "-j", jobs])
    for cmd in steps:
        if run_child(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(out_dir, "aqua_reqbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["list_batch", "mixed_rw"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(out_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]

    # Learned optimizer state and slow-query logs must not leak between
    # runs; the benchmark binary unsets these too and sets AQUA_THREADS.
    env = dict(os.environ)
    for var in ("AQUA_STATS_FILE", "AQUA_SLOW_QUERY_LOG"):
        env.pop(var, None)
    sys.exit(run_child(cmd, timeout=args.seconds + RUN_MARGIN_S, env=env,
                         cwd=ROOT))


if __name__ == "__main__":
    main()
