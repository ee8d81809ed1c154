#!/usr/bin/env python3
"""Steadiness check: runs workloads K times and compares sets of runs.

    python3 perfbench/steady.py [--runs K] [--first-seed N] [--workloads a,b]
                                [--seconds S] [--trace [--overhead]] [--save FILE]
    python3 perfbench/steady.py --compare A.json B.json

Run from the root of a checkout. Each run uses its own seed (first-seed,
first-seed+1, ...). For every metric the tool prints the median, the first
and third quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median. An end-to-end metric is flagged OVER when its spread
exceeds its bound in BENCHMARK.json and warn when it exceeds a third of
it. --save writes the runs' result lines to FILE.

--compare reads two saved sets of the same workloads and, for every
end-to-end metric, prints both medians and the change of the second
against the first, flagged OVER when the metric got worse by more than its
bound; it also requires the same share of failed statements in every run
of both sets.

With --trace the per-layer metrics are collected instead; with --overhead
the untraced runs of the same seeds are made too, and trace.rollout_s is
set against their rollout_s median.
Exits 1 when a run fails or anything is flagged OVER.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    lines = done.stdout.decode().strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def failed_shares(results):
    return sorted({r["failed"] / r["attempted"] for r in results})


def report(workload, label, results, bounds):
    """Prints one set's medians and spreads; returns (medians, any OVER)."""
    correct = all(r["correct"] for r in results)
    shares = failed_shares(results)
    print(f"\n{workload} ({label}, {len(results)} runs, correct={correct}, "
          f"failed shares={shares})")
    bad = not correct or len(shares) != 1
    print(f"  {'metric':48} {'unit':7} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}")
    medians = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        q1, med, q3 = quartiles(values)
        medians[name] = med
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            if spread > bound:
                flag, bad = "OVER", True
            elif spread > bound / 3:
                flag = "warn"
        print(f"  {name:48} {unit:7} {med:14.6g} {q1:14.6g} {q3:14.6g} "
              f"{spread:8.4f} {'' if bound is None else bound:>6} {flag}")
    return medians, bad


def compare(path_a, path_b, metrics):
    sets = [json.loads(pathlib.Path(p).read_text()) for p in (path_a, path_b)]
    bad = False
    for workload in sets[0]:
        if workload not in sets[1]:
            continue
        a, b = sets[0][workload], sets[1][workload]
        shares = failed_shares(a + b)
        print(f"\n{workload} (first {len(a)} runs, second {len(b)} runs, "
              f"failed shares={shares})")
        bad = bad or len(shares) != 1
        print(f"  {'metric':24} {'first median':>14} {'second median':>14} {'change':>8} "
              f"{'bound':>6}")
        for m in metrics:
            name = m["name"]
            if name not in a[0]["metrics"]:
                continue
            med_a = statistics.median(r["metrics"][name]["value"] for r in a)
            med_b = statistics.median(r["metrics"][name]["value"] for r in b)
            change = med_b / med_a - 1 if med_a else 0.0
            worse = change if m["better"] == "lower" else -change
            flag = ""
            if worse > m["bound"]:
                flag, bad = "OVER", True
            elif abs(change) > m["bound"] / 3:
                flag = "warn"
            print(f"  {name:24} {med_a:14.6g} {med_b:14.6g} {change:+8.3f} {m['bound']:>6} "
                  f"{flag}")
    return bad


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", action="store_true", help="collect the per-layer metrics")
    ap.add_argument("--overhead", action="store_true",
                    help="also make untraced runs and report the tracing overhead")
    ap.add_argument("--save", help="write the result lines of the runs to this file")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="compare two saved sets instead of running")
    args = ap.parse_args()

    if args.compare:
        sys.exit(1 if compare(*args.compare, bench["end_to_end"]) else 0)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    bad = False
    saved = {}
    for workload in args.workloads.split(","):
        modes = [args.trace] + ([False] if args.trace and args.overhead else [])
        medians = {}
        for trace in modes:
            results = []
            for i in range(args.runs):
                try:
                    results.append(run_once(workload, args.first_seed + i, args.seconds, trace))
                except RuntimeError as e:
                    print(f"FAILED {e}")
                    bad = True
            if not results:
                continue
            if not trace:
                saved[workload] = results
            got, over = report(workload, "traced" if trace else "untraced", results, bounds)
            medians.update(got)
            bad = bad or over
        if "trace.rollout_s" in medians and medians.get("rollout_s"):
            overhead = medians["trace.rollout_s"] / medians["rollout_s"] - 1
            print(f"  tracing overhead on rollout_s: {100 * overhead:+.1f}%")
    if args.save:
        pathlib.Path(args.save).write_text(json.dumps(saved))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
