#!/usr/bin/env python3
"""Steadiness check for perfbench: runs workloads repeatedly, each run with
another seed, and prints per metric the median, the quartiles and the
relative spread (interquartile distance / median).

    python3 perfbench/steady.py [--workloads lint,wave] [--runs 10]
        [--sets 1] [--seed-base 1]

Each run is `run.py --trace 0` for BENCHMARK.json's run_seconds, and the
metrics are its end-to-end metrics.  Bounds come from BENCHMARK.json.  An end-to-end metric is flagged SPREAD
when its spread exceeds its bound, and "warn" when the spread exceeds a
third of the bound.  setup_s is only ever marked "warn": a set-up is a
few milliseconds of one-shot work that a run cannot repeat over its whole
length as it does the operations, so only its median is held to its
bound, as the acceptance rule for this benchmark does.  With
--sets 2, the second set's median must not be worse than the first's by
more than the bound, and the share of failed operations must be identical
in both sets.  Exits 1 if anything is flagged.  Run from the repository
root.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    if proc.returncode != 0:
        raise SystemExit("run failed (%d): %s" % (proc.returncode, " ".join(cmd)))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def worse_by(metric, first, second):
    """Relative worsening of `second` against `first`."""
    if metric["better"] == "lower":
        return (second - first) / first
    return (first - second) / first


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    ap.add_argument("--seed-base", type=int, default=1)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    metrics = spec["end_to_end"]
    flagged = False
    for w in workloads:
        sets = []
        for s in range(args.sets):
            runs = [run_once(w, args.seed_base + s * 1000 + k, seconds)
                    for k in range(args.runs)]
            sets.append(runs)
        print("\n== %s (%d runs x %d set(s), %gs each)" % (w, args.runs, args.sets,
                                                          seconds))
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in sets]
        bad_runs = sum(not r["correct"] for runs in sets for r in runs)
        print("attempted/run median %d, failed share %s, incorrect runs %d" % (
            statistics.median(r["attempted"] for r in sets[0]),
            " / ".join("%.6f" % x for x in shares), bad_runs))
        if bad_runs or len(set(shares)) > 1:
            flagged = True
            print("  FLAG: incorrect runs or differing failed share")
        print("%-36s %-6s %12s %12s %12s %8s %8s  %s" % (
            "metric", "unit", "median", "q1", "q3", "spread", "bound", "verdict"))
        for m in metrics:
            name, bound = m["name"], m["bound"]
            meds = []
            for runs in sets:
                vals = [r["metrics"][name]["value"] for r in runs]
                med, q1, q3, spread = summary(vals)
                meds.append(med)
                verdict = ""
                if spread > bound and name != "setup_s":
                    verdict, flagged = "SPREAD", True
                elif spread > bound / 3:
                    verdict = "warn"
                print("%-36s %-6s %12.6g %12.6g %12.6g %8.4f %8.3f  %s" % (
                    name, m["unit"], med, q1, q3, spread, bound, verdict))
            if len(meds) == 2 and meds[0]:
                drift = worse_by(m, meds[0], meds[1])
                status = "DRIFT" if drift > bound else "ok"
                flagged = flagged or drift > bound
                print("%-36s second set worse by %+.4f (bound %.3f) %s" % (
                    "", drift, bound, status))
        sys.stdout.flush()
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
