#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Cargo builds into $CARGO_TARGET_DIR, or
`.bench_build` when it is unset; its output goes to stderr so that the
benchmark's JSON result stays the last line of stdout. A failed build
exits non-zero without printing a result.
"""

import os
import subprocess
import sys

here = os.path.dirname(os.path.abspath(__file__))
target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
env = dict(os.environ, CARGO_TARGET_DIR=target)
build = subprocess.run(
    ["cargo", "build", "--release", "--offline", "--quiet",
     "--manifest-path", os.path.join(here, "Cargo.toml")],
    env=env, stdout=sys.stderr)
if build.returncode != 0:
    sys.exit(build.returncode)
run = subprocess.run([os.path.join(target, "release", "perfbench")] + sys.argv[1:])
sys.exit(run.returncode)
