"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

strandcalc is imported from the src/ directory beside bench/; without
it the command exits with code 2 and prints no result.  Workloads:
g2-homotopy, g2-algebra, g2-clf, tutorial-cli (see bench/README.md).

With --trace 0 the benchmark starts SETUPS fresh worker processes one
after another, each with PYTHONHASHSEED pinned.  Every worker sets up;
the middle one then runs whole rounds of the workload's operations for
--seconds, so that the set-ups sample the machine's speed before,
at the start of and after the measured stretch.  It reports the end-to-end metrics:

    wall_s       mean time of one round (the fixed operation list)
    setup_s      median set-up time over the SETUPS workers
    peak_rss_mb  peak resident memory of the measuring worker

With --trace 1 a single worker runs with the layer tracer installed and
the per-layer metrics are reported instead: the set-up's share plus one
round's share of each (see bench/tracing.py).

The last line of standard output is the result object; a copy is written
to bench/out/result-<workload>-<seed>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
PACKAGE = os.path.join(ROOT, "src", "strandcalc", "__init__.py")
WORKLOAD_NAMES = ("g2-homotopy", "g2-algebra", "g2-clf", "tutorial-cli")
SETUPS = 3
MEASURING = SETUPS // 2
TIME_LIMIT_S = 170.0
HASH_SEED = "0"


def run_worker(args, measure: bool, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--measure", str(int(measure)),
           "--trace", str(args.trace)]
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(PACKAGE):
        print(f"error: no strandcalc sources at {PACKAGE}; run from the "
              "root of a source checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        if args.trace:
            workers = [run_worker(args, True, deadline)]
        else:
            workers = [run_worker(args, i == MEASURING, deadline)
                       for i in range(SETUPS)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError,
            IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    measured = workers[0] if args.trace else workers[MEASURING]
    if args.trace:
        metrics = {name: metric(value, "count" if not name.endswith("_s")
                                else "s")
                   for name, value in sorted(measured["layers"].items())}
    else:
        metrics = {
            "wall_s": metric(statistics.fmean(measured["rounds"]), "s"),
            "setup_s": metric(statistics.median(w["setup_s"]
                                                for w in workers), "s"),
            "peak_rss_mb": metric(measured["peak_rss_mb"], "MB"),
        }
    result = {"correct": not measured["wrong"],
              "attempted": measured["attempted"],
              "failed": measured["failed"],
              "metrics": metrics}
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"result-{args.workload}-{args.seed}-"
                                 f"trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(dict(result, rounds=measured["rounds"],
                       setups=[w["setup_s"] for w in workers],
                       wrong=measured["wrong"],
                       op_medians={label: statistics.median(times)
                                   for label, times
                                   in measured.get("op_times", {}).items()},
                       self_time_gap_s=measured.get("self_time_gap_s")),
                  handle, indent=1)
    if measured["wrong"]:
        print("wrong: " + "; ".join(measured["wrong"]), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
