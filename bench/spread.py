"""Run one workload N times and print the spread of each metric.

    python3 bench/spread.py --workload NAME [--runs 10] [--first-seed 1]
                            [--seconds S]

--seconds defaults to run_seconds in BENCHMARK.json.  Each run is a fresh
`bench/run.py --trace 0` process (which starts its own workers with
PYTHONHASHSEED pinned) on the next seed.  For every end-to-end metric it
prints the median, the first and third quartiles (statistics.quantiles,
n=4) and the quartile distance as a share of the median, plus the number
of timed rounds and the failed share of attempted operations in each run.
Used to set the bounds in BENCHMARK.json; the full table is written to
bench/out/spread-<workload>-<first seed>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        run_seconds = json.load(f)["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=run_seconds)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        with open(os.path.join(OUT_DIR, f"result-{args.workload}-{seed}-"
                                        "trace0.json"),
                  encoding="utf-8") as handle:
            result["rounds"] = len(json.load(handle)["rounds"])
        result["seed"] = seed
        runs.append(result)
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            + f", {result['rounds']} rounds"
            + f", failed {result['failed']}/{result['attempted']}"
            + ("" if result["correct"] else ", INCORRECT"), flush=True)

    table = {name: summarize([r["metrics"][name]["value"] for r in runs])
             for name in runs[0]["metrics"]}
    print(f"\n{args.workload}: {args.runs} runs, seeds {args.first_seed}.."
          f"{args.first_seed + args.runs - 1}, {args.seconds:g} s each")
    for name, row in table.items():
        print(f"  {name:36s} median {row['median']:.6g}  q1 {row['q1']:.6g}"
              f"  q3 {row['q3']:.6g}  spread {row['spread']:.3f}")
    print("  rounds per run: " + ", ".join(str(r["rounds"]) for r in runs))
    shares = sorted({(r["failed"], r["attempted"]) for r in runs})
    print("  failed/attempted: " + ", ".join(f"{f}/{a}" for f, a in shares))
    print("  all correct: " + str(all(r["correct"] for r in runs)))
    path = os.path.join(OUT_DIR, f"spread-{args.workload}-"
                                 f"{args.first_seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"runs": runs, "summary": table}, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
