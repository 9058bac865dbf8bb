#!/usr/bin/env python3
"""Build the perfbench binary from this checkout and run it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload fig5-16k --seed 1 --seconds 20 --trace 0

Every argument is passed on to the binary (see perfbench/README.md). The
Go build cache and the binary live under .bench_build/ in the checkout, so
nothing is read or written outside it apart from the Go toolchain itself.
"""
import os
import subprocess
import sys

ROOT = os.getcwd()
BENCH = os.path.join(ROOT, "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "perfbench")


def main() -> int:
    if not os.path.isfile(os.path.join(BENCH, "go.mod")):
        print("perfbench: run from the repository root", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(OUT, "gocache"),
        GOMODCACHE=os.path.join(OUT, "gomodcache"),
        GOPATH=os.path.join(OUT, "gopath"),
        GOENV="off",
        GOTOOLCHAIN="local",
        GOFLAGS="",
        GOWORK="off",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(OUT, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=BENCH, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    os.execve(binary, [binary] + sys.argv[1:], env)
    return 2  # not reached


if __name__ == "__main__":
    sys.exit(main())
