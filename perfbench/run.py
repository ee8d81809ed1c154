#!/usr/bin/env python3
"""Builds the benchmark program in Release and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

`--workload reference` prints the README's reference figures instead of a
result line. Run from the root of a checkout. The benchmark program is
built from the checkout's own sources into .bench_build/perfbench (the
first run builds; later runs reuse it). Build output goes to stderr; the
program's output goes to stdout, whose last line is the result object.
Exits non-zero, without a result line, when the build or the run fails.
"""
import argparse
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("tpcw-phase-cost", "fleet-tiny-rollout")


def build():
    jobs = str(os.cpu_count() or 1)
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "-j", jobs, "--target", "perfbench"],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"build failed: {' '.join(cmd)}")
    return BUILD / "perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("reference",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    program = build()
    cmd = [str(program), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = BUILD / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans / f"{args.workload}-seed{args.seed}.tsv")]
    # The program's default engine is what is measured.
    env = {k: v for k, v in os.environ.items() if k != "PSE_VECTORIZED"}
    try:
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, timeout=175)
    except subprocess.TimeoutExpired:
        sys.exit("benchmark program timed out")
    sys.stdout.write(done.stdout.decode())
    sys.stdout.flush()
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
