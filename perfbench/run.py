#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the repository root; every argument goes to the benchmark:

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 10 --trace 0

The Go build cache, the binary and everything the run writes stay under
.bench_build/ in the current directory. A failed build exits non-zero
without printing a result.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    src = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        TMPDIR=tmp,
        GOTOOLCHAIN="local",
        GOPROXY="off",
    )
    binary = os.path.join(build, "perfbench", "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=src, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(1)
    os.execve(binary, [binary] + sys.argv[1:], env)


if __name__ == "__main__":
    main()
