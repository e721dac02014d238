#!/usr/bin/env python3
"""Run the benchmark several times per workload and report run-to-run spread.

For each end-to-end metric this prints the median of the runs, the
quartiles (statistics.quantiles(values, n=4)) and the interquartile
distance as a share of the median, next to the metric's bound from
BENCHMARK.json. Each run uses its own seed, starting at --first-seed.

    python3 perfbench/spread.py --runs 10
    python3 perfbench/spread.py --runs 5 --workloads serve-mix --seconds 20

Run from the repository root. The command comes from BENCHMARK.json
unless --binary names a built perfbench executable.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--binary", help="run this executable instead of the BENCHMARK.json command")
    args = ap.parse_args()
    command = [args.binary] if args.binary else spec["command"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for i in range(args.runs):
            seed = args.first_seed + i
            lines = subprocess.run(
                command + ["--workload", workload, "--seed", str(seed),
                           "--seconds", str(args.seconds), "--trace", "0"],
                check=True, capture_output=True, text=True,
            ).stdout.strip().splitlines()
            out = lines[-1]
            result = json.loads(out)
            steal = json.loads(lines[-2])["record"]["host"]["steal_share"]
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: output check failed: {out}")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: steal {steal:.3f} " + " ".join(
                f"{n}={result['metrics'][n]['value']:.6g}" for n in bounds), flush=True)
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            share = (q3 - q1) / med
            if name != "setup_s":
                worst = max(worst, share / bounds[name])
            print(f"  {workload:12} {name:18} median {med:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g}"
                  f" spread {share:7.4f}  bound {bounds[name]}", flush=True)
    print(f"largest spread / bound (setup_s excluded): {worst:.3f}")


if __name__ == "__main__":
    main()
