#!/usr/bin/env python3
"""Runs the benchmark command from BENCHMARK.json once per seed and prints,
for every metric, the median, the quartiles and the quartile spread as a
share of the median (Python's statistics.quantiles(values, n=4)).

    python3 perfbench/spread.py --workloads zipf-hot,scatter,churn \
        --seeds 1-10 [--trace 0|1] [--seconds S] [--json out.json]

Run it from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--json", help="also write every run's result here")
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    runs = {}
    for w in args.workloads.split(","):
        runs[w] = []
        for seed in args.seeds:
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", args.trace]
            p = subprocess.run(cmd, capture_output=True, text=True)
            if p.returncode != 0:
                sys.exit(f"{w} seed {seed} exited {p.returncode}:\n{p.stderr[-2000:]}")
            result = json.loads(p.stdout.strip().splitlines()[-1])
            runs[w].append(result)
            print(f"{w} seed {seed}: attempted {result['attempted']} failed {result['failed']}",
                  file=sys.stderr)
        print(f"\n{w} ({len(args.seeds)} runs)")
        print(f"  {'metric':34} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name, m in runs[w][0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs[w]]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            print(f"  {name:34} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} "
                  f"{'' if bound is None else bound:>6} {m['unit']}")
    if args.json:
        json.dump(runs, open(args.json, "w"), indent=1)


if __name__ == "__main__":
    main()
