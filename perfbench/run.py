#!/usr/bin/env python3
"""Builds the benchmark binary from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload edit-loop --seed 1 --seconds 30 --trace 0

The build goes to $CARGO_TARGET_DIR (default: .bench_build in the
checkout). Everything the binary writes stays under .bench_work and
.bench_out in the checkout. The binary prints the human-readable
metrics table and, as its last stdout line, the JSON result; this
script relays both and exits with the binary's exit code. Cargo's own
output goes to stderr.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("cold-check", "edit-loop", "signoff", "fleet-campaign")
# A run must end within 180 s; the first build in a checkout may take
# much longer and has its own limit.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--tiny", action="store_true",
                        help="tiny machines and lists (self-test)")
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    manifest = root / "perfbench" / "Cargo.toml"
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", str(root / ".bench_build")))
    if not target.is_absolute():
        target = root / target
        env["CARGO_TARGET_DIR"] = str(target)

    build = ["cargo", "build", "--offline", "--release", "--quiet",
             "--manifest-path", str(manifest)]
    try:
        done = subprocess.run(build, cwd=root, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2
    if done.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2

    binary = target / "release" / "ced-perfbench"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.tiny:
        cmd.append("--tiny")
    try:
        # subprocess.run kills the child and waits for it on timeout.
        done = subprocess.run(cmd, cwd=root, env=env, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: benchmark did not finish: {e}", file=sys.stderr)
        return 3
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
