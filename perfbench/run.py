#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark package (perfbench/Cargo.toml) and the gcs-node
daemon from source with cargo, in release mode, into $CARGO_TARGET_DIR
(default: .bench_build at the checkout root), then runs the benchmark
binary with the given arguments from the checkout root. The benchmark's
output, whose last line is the JSON result, passes through unchanged;
the exit code is the benchmark's, or cargo's when a build fails.
"""

import os
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(root, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(root, "perfbench", "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(root, "Cargo.toml"), "--bin", "gcs-node"],
    ]
    for cmd in builds:
        built = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr)
        if built.returncode != 0:
            print(f"build failed: {' '.join(cmd)}", file=sys.stderr)
            return built.returncode or 1
    release = os.path.join(target, "release")
    bench = [
        os.path.join(release, "gcs-perfbench"),
        *sys.argv[1:],
        "--root", root,
        "--node-bin", os.path.join(release, "gcs-node"),
    ]
    sys.stdout.flush()
    return subprocess.run(bench, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
