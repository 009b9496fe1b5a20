#!/usr/bin/env python3
"""Build and run the NUCA simulator benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload miss-heavy --seed 2007 --seconds 30 --trace 0

The script builds the `perfbench` package (its own Cargo workspace, with
the simulator crates as path dependencies) in release mode, then runs one
workload in one single-threaded process. The last line of standard output
is the result: one JSON object with `correct`, `attempted`, `failed` and
`metrics`. `--trace 1` prints the per-layer metrics instead of the
end-to-end ones and writes the recorded spans to
`perfbench/out/spans-<workload>-<seed>.jsonl`.

The build goes to `$CARGO_TARGET_DIR`, or `.bench_build` at the repository
root when that is unset. Exit status is 0 on success; a failed build or
run exits non-zero without printing a result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("miss-heavy", "hit-heavy", "time-sampled")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=2007)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--self-test",
        action="store_true",
        help="run one round with one wrong digest; succeed iff exactly that cell fails",
    )
    p.add_argument(
        "--record-digests",
        action="store_true",
        help="print the digest line of every cell of one round",
    )
    return p.parse_args()


def target_dir():
    t = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return t if os.path.isabs(t) else os.path.join(os.getcwd(), t)


def build(target):
    """Builds the benchmark; returns the binary path or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [
        "cargo",
        "build",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print(f"perfbench: build failed with status {done.returncode}", file=sys.stderr)
        return None
    return os.path.join(target, "release", "perfbench")


def main():
    args = parse_args()
    binary = build(target_dir())
    if binary is None:
        return 1
    cmd = [
        binary,
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        "--trace",
        str(args.trace),
    ]
    if args.self_test:
        cmd.append("--self-test")
    elif args.record_digests:
        cmd.append("--record-digests")
    elif args.trace:
        out = os.path.join(HERE, "out")
        os.makedirs(out, exist_ok=True)
        cmd += ["--spans", os.path.join(out, f"spans-{args.workload}-{args.seed}.jsonl")]
    sys.stdout.flush()
    try:
        # On timeout, run() kills the benchmark process and waits for it.
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: run failed: {e}", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
