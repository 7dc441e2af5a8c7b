#!/usr/bin/env python3
"""Builds `pmc` and the benchmark runner from source, then runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads and metrics are listed in BENCHMARK.json. Build output goes to
$CARGO_TARGET_DIR (default `.bench_build`); journals and span files go to
`<target dir>/perfbench`. The last line of standard output is the result
object; a failed build exits non-zero without printing one.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--bin", "pmc"],
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--manifest-path",
            os.path.join("perfbench", "Cargo.toml"),
        ],
    ]
    for cmd in builds:
        # Build chatter goes to stderr; stdout carries only the result.
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    runner = os.path.join(target, "release", "pmc-perfbench")
    cmd = [
        runner,
        *sys.argv[1:],
        "--pmc",
        os.path.join(target, "release", "pmc"),
        "--work",
        os.path.join(target, "perfbench"),
    ]
    return subprocess.run(cmd, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
