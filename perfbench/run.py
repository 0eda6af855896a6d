#!/usr/bin/env python3
"""Builds and runs the corridor benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-pv --seed 1 --seconds 10 --trace 0

Builds the benchmark package (perfbench/Cargo.toml) and the workspace's
`serve` binary into one target directory (CARGO_TARGET_DIR, default
.bench_build), then runs the benchmark with the given arguments. Build
output goes to stderr; the benchmark's last stdout line is its result.
Exits non-zero, printing no result, when either build fails.
"""

import os
import subprocess
import sys


def main() -> int:
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    builds = [
        ["cargo", "build", "--release", "--quiet", "--manifest-path", "perfbench/Cargo.toml"],
        ["cargo", "build", "--release", "--quiet", "-p", "corridor_bench", "--bin", "serve"],
    ]
    for build in builds:
        if subprocess.run(build, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(build), file=sys.stderr)
            return 1
    exe = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
