#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the `onoff-serve` daemon from the repository's workspace and the
`perfbench` harness from this directory (release, offline, into
$CARGO_TARGET_DIR, default `.bench_build`), then runs the harness. The
harness prints the result as the last line of stdout; build output goes to
stderr. Exits non-zero, without a result, when a build fails or a check
does not hold.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(manifest, *extra):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", manifest, *extra]
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    env_target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = env_target if os.path.isabs(env_target) else os.path.join(ROOT, env_target)
    os.environ["CARGO_TARGET_DIR"] = target
    build(os.path.join(ROOT, "Cargo.toml"), "-p", "onoff-serve", "--bin", "onoff-serve")
    build(os.path.join(HERE, "Cargo.toml"), "--locked")
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"), *sys.argv[1:],
           "--daemon", os.path.join(release, "onoff-serve")]
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
