#!/usr/bin/env python3
"""Build and run the all-reduce benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

The script builds the benchmark package in ``perfbench/`` (release
profile, offline) into ``$CARGO_TARGET_DIR`` (``perfbench/target`` when
unset), records build provenance, and runs the binary once. Build output
goes to standard error; the binary's standard output is passed through,
so its last line is the result object. Traced runs write their spans to
``perfbench/out/``. Exits non-zero, printing no result, when the build or
the run fails.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["allreduce_fp16", "allreduce_switchml", "chaos_fp16", "readout_fp32x"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def tool_output(cmd):
    """First line a tool prints, or "unknown" if it cannot run."""
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30, cwd=HERE)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    line = out.stdout.strip().splitlines()
    return line[0] if out.returncode == 0 and line else "unknown"


def main():
    # A terminated run raises SystemExit inside subprocess.run, which then
    # kills and reaps the child before exiting.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", default="0", choices=["0", "1"])
    args = p.parse_args()

    manifest = os.path.join(HERE, "Cargo.toml")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    build = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        built = subprocess.run(build, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 3
    if built.returncode != 0:
        print(f"perfbench: build failed with exit code {built.returncode}", file=sys.stderr)
        return 3

    binary = os.path.join(os.path.abspath(target), "release", "perfbench")
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--out-dir", os.path.join(HERE, "out"),
        "--rustc", tool_output(["rustc", "-V"]),
        "--rustflags", os.environ.get("RUSTFLAGS", ""),
        "--commit", tool_output(["git", "rev-parse", "HEAD"]),
    ]
    try:
        ran = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: run failed: {e}", file=sys.stderr)
        return 4
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
