#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the benchmark `--runs` times per workload, each run with its own
seed (`--seed-base`, `--seed-base + 1`, ...), and prints for every
end-to-end metric the median, the quartiles and the interquartile range
as a share of the median, next to the bound `BENCHMARK.json` fixes.

    python3 perfbench/steadiness.py --runs 10 --seed-base 1
    python3 perfbench/steadiness.py --runs 10 --seed-base 101 --workload bulk_big

Run it from the repository root. It builds the benchmark first (through
the `command` of `BENCHMARK.json`) and writes nothing.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(args)} failed ({proc.returncode}):\n"
                 f"{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: output check failed\n{proc.stdout}")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    args = parser.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    print("| workload | metric | unit | median | q1 | q3 | IQR/median | bound "
          "| values in seed order |")
    print("|---|---|---|---|---|---|---|---|---|")
    for workload in workloads:
        results = [run_once(bench["command"], workload, args.seed_base + i,
                            bench["run_seconds"])
                   for i in range(args.runs)]
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(f"| {workload} | {name} | {metric['unit']} | {med:.6g} | "
                  f"{q1:.6g} | {q3:.6g} | {(q3 - q1) / med:.4f} | "
                  f"{metric['bound']} | {' '.join(f'{v:.4g}' for v in values)} |",
                  flush=True)


if __name__ == "__main__":
    main()
