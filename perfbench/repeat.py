"""Run the benchmark once per seed and summarise each end-to-end metric.

    python3 perfbench/repeat.py --workload collect-paper --workload learn-small \
        --seeds 1-10 --out bench.json

For every metric it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread, the distance
between the quartiles as a share of the median, next to the metric's bound
from BENCHMARK.json. Runs go one after another, the workloads interleaved
seed by seed. --out writes the runs, their environment stamps and the
summary as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit("seed %d failed (%d): %s"
                         % (seed, proc.returncode, proc.stderr[-2000:]))
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["perfbench_report"], json.loads(lines[-1])


def summarise(results, specs):
    summary = {}
    for spec in specs:
        values = [r["metrics"][spec["name"]]["value"] for r in results]
        values = [v for v in values if v is not None]
        if len(values) < 2:
            continue
        q1, median, q3 = statistics.quantiles(values, n=4)
        summary[spec["name"]] = {
            "unit": spec["unit"], "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "bound": spec.get("bound"), "n": len(values)}
    return summary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    specs = bench["per_layer" if args.trace else "end_to_end"]
    runs = {w: [] for w in args.workload}
    for seed in parse_seeds(args.seeds):
        for workload in args.workload:
            report, result = run_once(workload, seed, seconds, args.trace)
            runs[workload].append({"seed": seed, "result": result,
                                   "environment": report["environment"]})
            print(workload, seed,
                  json.dumps({k: v["value"]
                              for k, v in result["metrics"].items()}),
                  flush=True)
    summary = {}
    for workload, done in runs.items():
        summary[workload] = summarise([r["result"] for r in done], specs)
        for name, s in summary[workload].items():
            print("%-14s %-32s median %-12.6g q1 %-12.6g q3 %-12.6g "
                  "spread %.4f bound %s"
                  % (workload, name, s["median"], s["q1"], s["q3"],
                     s["spread"], s["bound"]))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"seconds": seconds, "trace": args.trace,
                       "summary": summary, "runs": runs}, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
