#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of the repository:

    python3 _perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark is a Go module of its own in this directory. It is built from
source on every call (Go's build cache, kept in the build directory, makes
rebuilds quick) and then run from the repository root. Everything it builds
or writes stays in the build directory: $CARGO_TARGET_DIR when set, else
.bench_build at the root. The last line of standard output is the result
object; see NOTES.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("run.py: the pmblade module is not next to the benchmark", file=sys.stderr)
        return 2
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    out = os.path.join(ROOT, build, "perfbench")  # join keeps an absolute build dir
    os.makedirs(out, exist_ok=True)
    home = os.path.join(out, "home")
    env = dict(
        os.environ,
        GOCACHE=os.path.join(out, "gocache"),
        GOPATH=os.path.join(out, "gopath"),
        GOFLAGS="",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOENV="off",
        HOME=home,
        XDG_CONFIG_HOME=os.path.join(home, ".config"),
        XDG_CACHE_HOME=os.path.join(home, ".cache"),
    )
    binary = os.path.join(out, "perfbench")
    try:
        built = subprocess.run(
            ["go", "build", "-o", binary, "."], cwd=HERE, env=env, timeout=BUILD_TIMEOUT_S
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2
    if built.returncode != 0:
        return built.returncode
    try:
        ran = subprocess.run(
            [binary, *sys.argv[1:], "--out", out], cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: benchmark failed: {e}", file=sys.stderr)
        return 2
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
