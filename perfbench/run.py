#!/usr/bin/env python3
"""Build and run the fediscope benchmark from the root of a checkout.

    python3 perfbench/run.py --workload storm --seed 1534 --seconds 20 --trace 0

Builds the `perfbench` cargo package (a workspace of its own that depends
on the repository's crates by path) in release mode under
$CARGO_TARGET_DIR (default `.bench_build`), then runs one workload in one
process. The benchmark's output passes through unchanged: the last line
of standard output is the JSON result. Records, spans and scratch shard
files go to `<target dir>/perfbench/`.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = "fediscope-perfbench"
BUILD_LIMIT_S = 870
RUN_LIMIT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def main():
    for needed in ("Cargo.toml", "crates", "shims", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} is missing beside perfbench/; run from a full checkout")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, env=env, stdout=sys.stderr, timeout=BUILD_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail(f"the build took longer than {BUILD_LIMIT_S} s")
    if built.returncode != 0:
        fail(f"the build failed with exit code {built.returncode}")
    command = [os.path.join(target, "release", BINARY), *sys.argv[1:],
               "--out-dir", os.path.join(target, "perfbench")]
    try:
        ran = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail(f"the run took longer than {RUN_LIMIT_S} s")
    sys.stdout.write(ran.stdout)
    sys.stdout.flush()
    sys.exit(ran.returncode)


if __name__ == "__main__":
    main()
