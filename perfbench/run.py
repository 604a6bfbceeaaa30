#!/usr/bin/env python3
"""pc-bench: build and run the private-consensus benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload paper-batch --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py                # every workload, untraced then traced

The first call configures and builds perfbench/ (the protocol libraries,
pc_trace and pc_bench) under $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later calls rebuild only
what changed.  Each run prints the human report and, as its last stdout
line, one JSON object {"correct", "attempted", "failed", "metrics"}.  Its
pc-bench-v1 record (and, traced, its pc-trace-v1 file) lands in the build
directory's out/ and must pass `pc_trace --check` before the JSON line is
printed.  Any failed check exits nonzero without a JSON line.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["paper-batch", "serve", "deploy-split"]
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"pc-bench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
                  "--target", "pc_bench", "pc_trace"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail(f"build failed: {' '.join(cmd)} (log: {log_path})")


def git_revision():
    rev = os.environ.get("PCL_GIT_REV")
    if rev:
        return rev
    # The ceiling keeps git from searching above the checkout's root.
    root = os.path.dirname(HERE)
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10, env=env)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def run_one(build_dir, workload, seed, seconds, trace):
    """Runs one workload; returns the result line, or None on failure."""
    out_dir = os.path.join(build_dir, "out")
    cmd = [os.path.join(build_dir, "pc_bench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", out_dir]
    env = dict(os.environ, PCL_GIT_REV=git_revision())
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stderr.write(e.stdout or "")
        print(f"pc-bench: {workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0:
        print(lines[-1], file=sys.stderr)
        print(f"pc-bench: {workload} failed (exit {proc.returncode})",
              file=sys.stderr)
        return None

    stem = os.path.join(out_dir, f"{workload}-seed{seed}"
                        + ("-traced" if trace else ""))
    artifacts = [stem + ".bench.json"] + ([stem + ".trace.json"] if trace else [])
    check = subprocess.run([os.path.join(build_dir, "pc_trace", "pc_trace"),
                            "--check"] + artifacts,
                           stdout=subprocess.PIPE, text=True, timeout=60)
    print(check.stdout.rstrip("\n"))
    if check.returncode != 0:
        print(f"pc-bench: pc_trace --check rejected {workload}'s artifacts",
              file=sys.stderr)
        return None
    return lines[-1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    args = parser.parse_args()

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    build(build_dir)

    if args.workload != "all":
        result = run_one(build_dir, args.workload, args.seed, args.seconds,
                         args.trace or 0)
        if result is None:
            sys.exit(1)
        print(result)
        return

    traces = [0, 1] if args.trace is None else [args.trace]
    ok = True
    for workload in WORKLOADS:
        for trace in traces:
            ok = run_one(build_dir, workload, args.seed, args.seconds,
                         trace) is not None and ok
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
