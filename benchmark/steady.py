#!/usr/bin/env python3
"""Steadiness mode: run workloads repeatedly and report each metric's spread.

Runs the benchmark command from BENCHMARK.json once per seed, one run at a
time, and prints for every metric its median, first and third quartile
(Python's statistics.quantiles with n=4) and the spread: the quartile
distance as a share of the median. End-to-end spreads are set against the
metric's bound; a spread above a third of its bound is flagged.

Run from the repository root:

    python3 benchmark/steady.py --runs 10 [--workload NAME ...] [--trace 1]
        [--first-seed N] [--seconds S] [--out benchmark/spread.json]
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        sys.exit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {result}")
    return result


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med if med else float("inf")
    return {"median": med, "q1": q1, "q3": q3, "spread": spread,
            "min": min(values), "max": max(values)}


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="default: the workloads of BENCHMARK.json")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="also write the summary as JSON here")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")

    defs = bench["per_layer"] if args.trace else bench["end_to_end"]
    summary = {"runs": args.runs, "seconds": args.seconds,
               "first_seed": args.first_seed, "trace": args.trace,
               "workloads": {}}
    steady = True
    for workload in args.workload or names:
        values = {d["name"]: [] for d in defs}
        for i in range(args.runs):
            result = run_once(bench["command"], workload, args.first_seed + i,
                              args.seconds, args.trace)
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"  {workload} seed {args.first_seed + i} done", file=sys.stderr)
        print(f"== {workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, {args.seconds} s each ==")
        print(f"{'metric':<26} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>7}")
        summary["workloads"][workload] = {}
        for d in defs:
            s = summarise(values[d["name"]])
            s["values"] = values[d["name"]]
            summary["workloads"][workload][d["name"]] = s
            bound = d.get("bound")
            flag = ""
            if bound is not None and d["name"] != "setup_s" and s["spread"] > bound / 3:
                flag = "  > bound/3"
                steady = False
            bound_txt = f"{bound:.0%}" if bound is not None else "-"
            print(f"{d['name']:<26} {s['median']:>14.6g} {s['q1']:>14.6g} "
                  f"{s['q3']:>14.6g} {s['spread']:>8.2%} {bound_txt:>7}{flag}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")
    if not steady:
        print("some spreads exceed a third of their bound")


if __name__ == "__main__":
    main()
