#!/usr/bin/env python3
"""Self-test of the benchmark itself (run from the repository root):

    python3 perfbench/tests/selftest.py

1. For every workload, a short run with --corrupt 1 damages one output
   before its check and must report at least one failed operation, while
   the same short run without corruption must report none.  This shows
   every workload's check can fail.
2. The metric names and units run.py reports agree with BENCHMARK.json.
"""
import importlib.util
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
spec = importlib.util.spec_from_file_location(
    "perfbench_run", os.path.join(HERE, "..", "run.py"))
run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run)


def main():
    problems = []
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    if [w["name"] for w in bench["workloads"]] != list(run.WORKLOADS):
        problems.append("workload list differs from run.py")
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in bench[key]}
        if declared != table:
            problems.append("%s metrics differ from run.py" % key)

    runner = run.build("ship")
    for w in run.WORKLOADS:
        for corrupt in (0, 1):
            res = run.run_binary(runner, [
                "--workload", w, "--seed", "7", "--seconds", "0.5",
                "--corrupt", str(corrupt)])
            ok = res["correct"] and (res["failed"] >= 1 if corrupt
                                     else res["failed"] == 0)
            print("%-10s corrupt=%d attempted=%-6d failed=%-3d %s" % (
                w, corrupt, res["attempted"], res["failed"],
                "ok" if ok else "FAIL"))
            if not ok:
                problems.append("%s corrupt=%d" % (w, corrupt))
    for p in problems:
        print("FAIL: " + p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
