#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: oltp-inline, durable-2pc, scan-evict; `--workload all` runs
the three one after another, each in its own process, and prints each
one's result line. The build goes to
$CARGO_TARGET_DIR, or to .bench_build at the root when that is unset. The
last line of standard output is the run's JSON result; the exit code is
the benchmark's (non-zero when a correctness check failed or the build
did not succeed).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
WORKLOADS = ["oltp-inline", "durable-2pc", "scan-evict"]


def run_one(binary, args, env):
    """Run the benchmark binary once; its output passes straight through."""
    try:
        return subprocess.run([binary] + args, env=env, timeout=RUN_TIMEOUT_S, check=False).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


def main() -> int:
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, check=False)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    binary = os.path.join(target, "release", "perfbench")
    args = sys.argv[1:]
    at = args.index("--workload") + 1 if "--workload" in args else None
    if at is None or at >= len(args) or args[at] != "all":
        return run_one(binary, args, env)
    worst = 0
    for w in WORKLOADS:
        print(f"perfbench: workload {w}", file=sys.stderr, flush=True)
        rc = run_one(binary, args[:at] + [w] + args[at + 1:], env)
        worst = worst or rc
    return worst


if __name__ == "__main__":
    sys.exit(main())
