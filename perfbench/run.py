#!/usr/bin/env python3
"""Build and run Perm's benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload fig10-tpch --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10
    python3 perfbench/run.py --compare OLD_RESULTS_DIR NEW_RESULTS_DIR

The benchmark is a Go module of its own (perfbench/go.mod) that builds
against the engine in the enclosing directory. Everything the build and
the runs write stays under .bench_build/ in the repository root: the Go
build cache, temporary files, the binary and the result files. The
engine's PERM_* environment variables are cleared, so every workload
measures a default perm.Options{} database.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def environment():
    env = {k: v for k, v in os.environ.items() if not k.startswith("PERM_")}
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env.update(
        # The go command keeps telemetry counters under the user config
        # directory; point it into the build directory too.
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOCACHE=os.path.join(BUILD, "go-cache"),
        GOPATH=os.path.join(BUILD, "go-path"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOFLAGS="",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    return env


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("perfbench: no engine module (go.mod) next to perfbench/", file=sys.stderr)
        return 2
    env = environment()
    build = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    run = subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT, env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
