#!/usr/bin/env python3
"""Build `mani serve` and the benchmark from source, then run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload fair-solve --seed 1 --seconds 30 --trace 0

Every argument is passed to the benchmark binary (see perfbench/README.md).
Builds go to $CARGO_TARGET_DIR, or `.bench_build` when it is unset. The last
line of standard output is the JSON result; build output goes to stderr.
"""

import hashlib
import os
import subprocess
import sys

# Directories that hold no build input.
SKIP_DIRS = {".git", "target", "__pycache__"}


def source_digest(root, target):
    """A hash of every file that can feed the build: paths and contents."""
    digest = hashlib.sha256()
    for directory, subdirs, files in os.walk(root):
        subdirs[:] = sorted(d for d in subdirs if d not in SKIP_DIRS
                            and os.path.join(directory, d) != target)
        for name in sorted(files):
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def main() -> int:
    root = os.getcwd()
    for required in ("Cargo.toml", os.path.join("crates", "serve", "Cargo.toml")):
        if not os.path.isfile(os.path.join(root, required)):
            print(f"perfbench: {required} not found; run from the repository root",
                  file=sys.stderr)
            return 2

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    release = os.path.join(target, "release")
    binaries = [os.path.join(release, "perfbench"), os.path.join(release, "mani")]
    # The server's build script re-runs whenever the tree is not a git checkout,
    # which recompiles the server on every `cargo build`; a stamp of the source
    # tree skips cargo when nothing changed since the last successful build.
    stamp = os.path.join(target, "perfbench.stamp")
    digest = source_digest(root, target)
    built = all(map(os.path.isfile, binaries)) and os.path.isfile(stamp) \
        and open(stamp).read() == digest
    if not built:
        env = dict(os.environ, CARGO_TARGET_DIR=target)
        builds = (
            ["cargo", "build", "--release", "--offline", "-q", "-p", "mani-serve",
             "--bin", "mani"],
            ["cargo", "build", "--release", "--offline", "-q",
             "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
        )
        for command in builds:
            if subprocess.run(command, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
                print(f"perfbench: build failed: {' '.join(command)}", file=sys.stderr)
                return 2
        with open(stamp, "w") as f:
            f.write(digest)

    command = [binaries[0], "--server", binaries[1], *sys.argv[1:]]
    sys.stdout.flush()
    return subprocess.run(command, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
