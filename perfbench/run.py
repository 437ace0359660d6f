#!/usr/bin/env python3
"""Builds and runs one perfbench workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds the benchmark binary (its own Cargo package in this directory)
and the `perilsd` daemon from source, offline, into $CARGO_TARGET_DIR
(default `.bench_build`), then runs the workload. Build output goes to
stderr; the last stdout line is the result JSON. Exits non-zero without
a result when a build fails or an answer check fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(target_dir, manifest, *extra):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", manifest, *extra]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    # Build output belongs on stderr: stdout carries only the result.
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target_dir):
        target_dir = os.path.join(ROOT, target_dir)
    build(target_dir, os.path.join(HERE, "Cargo.toml"))
    build(target_dir, os.path.join(ROOT, "Cargo.toml"),
          "-p", "perils-service", "--bin", "perilsd")
    release = os.path.join(target_dir, "release")
    argv = [os.path.join(release, "perfbench"), *sys.argv[1:],
            "--root", ROOT, "--perilsd", os.path.join(release, "perilsd")]
    sys.stdout.flush()
    os.execv(argv[0], argv)


if __name__ == "__main__":
    main()
