#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: serve-kernels-a and figures-a (see BENCHMARK.json); serve-screen
runs by name but is not part of the benchmark.
The benchmark is compiled from source into $CARGO_TARGET_DIR (default
perfbench/target); its state directories, span files and the program's
log live under <target>/perfbench-work. The last line of standard output
is the result object; the exit code is nonzero when the build fails or
any job's output is incorrect.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env={**os.environ, "CARGO_TARGET_DIR": target},
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    work = os.path.join(target, "perfbench-work")
    os.makedirs(work, exist_ok=True)
    # The service logs a line per cache hit; keep that chatter in a file
    # and show its tail only when the run fails.
    log_path = os.path.join(work, "perfbench.log")
    with open(log_path, "w") as log:
        run = subprocess.run(
            [os.path.join(target, "release", "perfbench"), "--work", work] + sys.argv[1:],
            stderr=log,
        )
    if run.returncode != 0:
        with open(log_path) as log:
            tail = [line for line in log if not line.startswith("[resume]")][-20:]
        sys.stderr.writelines(tail)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
