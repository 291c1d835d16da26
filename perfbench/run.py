#!/usr/bin/env python3
"""End-to-end benchmark of the cgp libraries.

Run from the repository root:

    python3 perfbench/run.py --workload lint|simplify|wave|heartbeat \
        --seed N --seconds S --trace 0|1

It builds the C++ runner (perfbench/CMakeLists.txt) into .bench_build/ship
(and, for --trace 1, its telemetry-compiled-out twin into
.bench_build/twin), runs the workload, and prints one JSON object as the
last line of stdout:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.

--trace 0 reports the end-to-end metrics.  --trace 1 reports the per-layer
metrics: the shipped runner times half of its share untraced and half with
spans around every library call, then the twin times the same rounds
untraced for telemetry.tax.  The traced run writes
.bench_build/traces/<workload>.trace.json and prints the per-layer table to
stderr.
"""
import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("lint", "simplify", "wave", "heartbeat")

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# Per-layer metrics; a workload that does not exercise a layer reports 0
# for that layer's metrics.
PER_LAYER = {
    "stllint.lex_ms": "ms",
    "stllint.parse_ms": "ms",
    "stllint.analyze_ms": "ms",
    "stllint.tokens": "count",
    "stllint.statements": "count",
    "stllint.loop_passes": "count",
    "stllint.cache_hit_ratio": "ratio",
    "rewrite.parse_ms": "ms",
    "rewrite.simplify_ms": "ms",
    "rewrite.passes": "count",
    "rewrite.rule_hits": "count",
    "rewrite.memo_hit_ratio": "ratio",
    "distributed.construct_ms": "ms",
    "distributed.spawn_ms": "ms",
    "distributed.run_ms": "ms",
    "distributed.ns_per_message": "ns",
    "distributed.ns_per_node_round": "ns",
    "distributed.rounds": "count",
    "distributed.messages": "count",
    "distributed.sim.ns_per_message": "ns",
    "distributed.parallel.ns_per_message": "ns",
    "distributed.stealing.ns_per_message": "ns",
    "distributed.inproc.ns_per_message": "ns",
    "parallel.tasks_per_round": "count",
    "parallel.busy_share": "ratio",
    "parallel.idle_us_per_round": "us",
    "telemetry.tax": "ratio",
    "bench.trace_overhead": "ratio",
}

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_ROOT = ".bench_build"
VARIANTS = {"ship": [], "twin": ["-DCMAKE_CXX_FLAGS=-DCGP_TELEMETRY_DISABLED"]}
RUN_TIMEOUT_S = 170
# In a traced run the shipped runner gets this share of --seconds (half
# untraced, half traced) and the twin the rest.
SHIP_SHARE = 0.7


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(variant):
    """Configures and builds one runner variant; returns its path."""
    bdir = os.path.join(BUILD_ROOT, variant)
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, variant + ".log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", BENCH_DIR, "-B", bdir,
              "-DCMAKE_BUILD_TYPE=Release"] + VARIANTS[variant],
             ["cmake", "--build", bdir, "--target", "perfbench_runner",
              "-j", jobs]]
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build of the %s runner failed (log: %s)" % (variant, log_path))
    return os.path.join(bdir, "perfbench_runner")


def run_binary(binary, argv):
    """Runs a runner binary; returns its JSON result (the last stdout line)."""
    try:
        proc = subprocess.run([binary] + argv, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("runner timed out: " + " ".join(argv))
    if proc.returncode != 0:
        fail("runner exited with %d: %s" % (proc.returncode, " ".join(argv)))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("runner printed no result")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    ship = build("ship")
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    if not args.trace:
        res = run_binary(ship, common + ["--seconds", str(args.seconds)])
        metrics = {k: {"value": res["metrics"][k], "unit": u}
                   for k, u in END_TO_END.items()}
        out = {"correct": res["correct"], "attempted": res["attempted"],
               "failed": res["failed"], "metrics": metrics}
    else:
        twin = build("twin")
        traced = run_binary(ship, common + [
            "--seconds", str(args.seconds * SHIP_SHARE), "--trace", "1"])
        plain = run_binary(twin, common + [
            "--seconds", str(args.seconds * (1 - SHIP_SHARE))])
        values = dict(traced["metrics"])
        values["telemetry.tax"] = values["mean_op_ns"] / plain["metrics"]["mean_op_ns"]
        print("telemetry tax: %.3fx (shipped %.1f us vs compiled-out %.1f us "
              "per operation)" % (values["telemetry.tax"],
                                  values["mean_op_ns"] / 1e3,
                                  plain["metrics"]["mean_op_ns"] / 1e3),
              file=sys.stderr)
        metrics = {k: {"value": values.get(k, 0.0), "unit": u}
                   for k, u in PER_LAYER.items()}
        out = {"correct": traced["correct"] and plain["correct"],
               "attempted": traced["attempted"] + plain["attempted"],
               "failed": traced["failed"] + plain["failed"],
               "metrics": metrics}
    print(json.dumps(out))


if __name__ == "__main__":
    main()
