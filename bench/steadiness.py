"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 bench/steadiness.py

Runs bench/run.py once per workload of BENCHMARK.json and seed 1-10, with
the run length from BENCHMARK.json, and prints, per workload and metric,
the median, the first and third quartile (``statistics.quantiles(values,
n=4)``) and their distance as a share of the median, next to the metric's
bound, and per workload the runs that were correct and the operations
attempted and failed.  The raw results go to bench-out/steadiness.json.
"""

import json
import os
import statistics
import subprocess
import sys

SEEDS = range(1, 11)


def main():
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)

    runs = {}
    for workload in bench["workloads"]:
        name = workload["name"]
        runs[name] = []
        for seed in SEEDS:
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", "0"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs[name].append(result)
            values = {k: round(m["value"], 4) for k, m in result["metrics"].items()}
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} {values}",
                  flush=True)

    print(f"\n{'workload':<14} {'metric':<12} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'bound':>6}")
    for name, results in runs.items():
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            print(f"{name:<14} {metric['name']:<12} {median:>10.4f} {q1:>10.4f} "
                  f"{q3:>10.4f} {(q3 - q1) / median:>7.3f} {metric['bound']:>6}")
    print()
    for name, results in runs.items():
        print(f"{name:<14} correct {sum(r['correct'] for r in results)}/{len(results)} "
              f"attempted {sum(r['attempted'] for r in results)} "
              f"failed {sum(r['failed'] for r in results)}")
    os.makedirs("bench-out", exist_ok=True)
    with open(os.path.join("bench-out", "steadiness.json"), "w", encoding="utf-8") as fh:
        json.dump(runs, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
