#!/usr/bin/env python3
"""Build the REMO benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <plan-churn|collect|collect-lossy|dist-hub> \
        --seed <n> --seconds <s> --trace <0|1> [--quick]

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
depends on the workspace crates by path. It is built in release mode
into $CARGO_TARGET_DIR (default: .bench_build at the repository root);
cargo's output goes to standard error, so the last line of standard
output is the benchmark's JSON result. Exits non-zero without a result
when the build or the run fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", MANIFEST],
        cwd=ROOT, env=env, stdout=sys.stderr, timeout=1500)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(target, "release", "remo-perfbench")
    run = subprocess.run([exe] + sys.argv[1:], cwd=ROOT, timeout=900)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
