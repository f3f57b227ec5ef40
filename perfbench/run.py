#!/usr/bin/env python3
"""Build the gpu-fpx CLI and the perfbench package, then run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload {sweep,replay,serve} --seed N \
        --seconds S --trace {0,1}

Build output goes to $CARGO_TARGET_DIR (default .bench_build); trace
files, the server's log and span dumps go to perfbench-work/ inside it.
The last line of standard output is the result object.
"""

import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Longest a single run may take once built; a run that overstays is
# killed with everything it started.
RUN_TIMEOUT_S = 170


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["sweep", "replay", "serve"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    a = p.parse_args()

    target = os.path.abspath(
        os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    )
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--quiet", "-p", "fpx-cli"],
        ["cargo", "build", "--release", "--quiet", "--manifest-path", "perfbench/Cargo.toml"],
    ]
    for cmd in builds:
        # Keep standard output for the result: build chatter goes to stderr.
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if r.returncode != 0:
            sys.exit(r.returncode or 1)

    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", a.workload,
        "--seed", str(a.seed),
        "--seconds", str(a.seconds),
        "--trace", str(a.trace),
        "--gpu-fpx", os.path.join(target, "release", "gpu-fpx"),
        "--work-dir", os.path.join(target, "perfbench-work"),
    ]
    # A session of its own, so the whole group (the served workload's
    # server included) can be stopped if the benchmark fails to.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        code = 1
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    sys.exit(code)


if __name__ == "__main__":
    main()
