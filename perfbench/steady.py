"""Steadiness report: run workloads with several seeds and show the spread.

    python3 perfbench/steady.py --runs 10 [--workload NAME ...] [--first-seed 1]

Runs ``run.py`` once per seed for each workload (all in BENCHMARK.json by
default), then prints, for every end-to-end metric, the median, the first
and third quartile (``statistics.quantiles(values, n=4)``) and the spread
(third minus first quartile) as a share of the median.  A metric whose spread
exceeds its bound in BENCHMARK.json is flagged OVER; one above a third of its
bound is flagged wide.  ``setup_s`` is shown but its spread is not gated.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", help="repeatable; default every workload")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload in workloads:
        values = {name: [] for name in bounds}
        failed = 0
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            failed += result["failed"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"# {workload} seed {seed}: " + ", ".join(
                f"{name}={values[name][-1]:.6g}" for name in bounds), flush=True)
        print(f"{workload}: {args.runs} runs, {failed} failed operations")
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            flag = ""
            if name != "setup_s":
                flag = "OVER" if spread > bounds[name] else "wide" if spread > bounds[name] / 3 else ""
            print(f"  {name:12s} median {median:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {spread:7.2%}  bound {bounds[name]:5.0%} {flag}", flush=True)


if __name__ == "__main__":
    main()
