#!/usr/bin/env python3
"""Builds the manytest benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <probe_sweep|mesh128_admit|dark64_idle>
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is the Rust package beside this script. It is built with
`cargo build --release --offline` into $CARGO_TARGET_DIR (default
`.bench_build` under the repository root) and run with the same
arguments. With `--trace 1` the recorded spans are written to
`<target dir>/perfbench-spans/<workload>.jsonl`. The last line of
standard output is the benchmark's JSON result; the exit code is the
benchmark's (1 when an output check failed, 2 on a usage or I/O error).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def arg_value(argv, flag):
    for i, a in enumerate(argv[:-1]):
        if a == flag:
            return argv[i + 1]
    return None


def main(argv):
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    try:
        # Cargo writes its progress to stderr; stdout stays for the result.
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 3
    if build.returncode != 0:
        print(f"perfbench: build failed with exit code {build.returncode}", file=sys.stderr)
        return 3
    cmd = [os.path.join(target, "release", "manytest-perfbench"), *argv]
    if arg_value(argv, "--trace") == "1":
        workload = arg_value(argv, "--workload") or "unknown"
        cmd += ["--spans-out", os.path.join(target, "perfbench-spans", f"{workload}.jsonl")]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: run failed: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
