#!/usr/bin/env python3
"""Run one workload once per seed and report, for every metric, the
median and the quartile distance as a share of the median, next to the
metric's bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload sweep-fast --seeds 1 2 3 4 5
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import metrics as M  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values = {}
    for seed in args.seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        flow = result["metrics"].get("flow_s", {}).get("value", float("nan"))
        print("seed %d: exit %d correct %s failed %d flow_s %.4g" % (
            seed, proc.returncode, result["correct"], result["failed"], flow), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vs in values.items():
        spread = M.quartile_spread(vs) if len(vs) > 1 and M.median(vs) else 0.0
        bound = bounds.get(name)
        print("%-36s median %12.5g  spread %.3f  bound %s" % (
            name, M.median(vs), spread, bound if bound is not None else "-"))


if __name__ == "__main__":
    main()
