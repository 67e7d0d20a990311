"""One workload process: set up, run whole rounds, print one JSON line.

    python3 bench/worker.py --workload NAME --seed N --seconds S
                            [--measure 0|1] [--trace 0|1]

With --measure 0 the process only sets up.  Otherwise it runs rounds of
the workload's fixed operation list until --seconds have passed (at least
one round), collecting garbage before each operation.  A round's time is
the sum of its timed operations' times.  set-up time
runs from the first statement of this file, before strandcalc is
imported, to the end of the workload's set-up.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))
sys.path.insert(0, BENCH_DIR)

import tracing  # noqa: E402
from workloads import OUT_DIR, WORKLOADS  # noqa: E402


def run_rounds(workload, seconds: float, tracer):
    """Returns (round times, per-op times by label, per-op statuses,
    labels of wrong ops).  A round's time sums its timed operations."""
    ops = workload.ops()
    rounds, statuses, wrong = [], [], []
    op_times: dict[str, list[float]] = {op.label: [] for op in ops}
    deadline = time.perf_counter() + seconds
    while True:
        elapsed = 0.0
        for op in ops:
            gc.collect()
            scope = tracer.root(op.label) if tracer else nullcontext()
            start = time.perf_counter()
            with scope:
                try:
                    result = op.run()
                except Exception as exc:  # counted, never fatal
                    result = exc
            took = time.perf_counter() - start
            if op.timed:
                elapsed += took
            op_times[op.label].append(took)
            status = ("failed" if isinstance(result, Exception)
                      else op.check(result))
            del result
            statuses.append(status)
            if status == "wrong":
                wrong.append(op.label)
        rounds.append(elapsed)
        if time.perf_counter() >= deadline:
            return rounds, op_times, statuses, wrong


def dump_spans(path: str, spans) -> None:
    index = {id(s): i for i, s in enumerate(spans)}
    rows = [{"name": s.name,
             "parent": index.get(id(s.parent)) if s.parent else None,
             "start": s.start, "end": s.end, "self": s.self_time,
             "counts": s.counts} for s in spans]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(rows, handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--measure", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    workload = WORKLOADS[args.workload]()
    with tracer.root("setup") if tracer else nullcontext():
        workload.setup(args.seed)
    setup_s = time.perf_counter() - STARTED
    out = {"setup_s": setup_s, "rounds": [], "attempted": 0, "failed": 0,
           "wrong": []}
    if args.measure:
        rounds, op_times, statuses, wrong = run_rounds(
            workload, args.seconds, tracer)
        out.update(rounds=rounds, op_times=op_times,
                   attempted=len(statuses),
                   failed=statuses.count("failed"), wrong=wrong)
    if tracer:
        setup_spans = [s for s in tracer.spans
                       if tracing.root_of(s).name == "setup"]
        op_spans = [s for s in tracer.spans
                    if tracing.root_of(s).name != "setup"]
        n = len(out["rounds"]) or 1
        fixed = tracing.layer_totals(setup_spans)
        all_rounds = tracing.layer_totals(op_spans)
        out["layers"] = {k: tracing.per_round(fixed[k], all_rounds[k], n)
                         for k in fixed}
        out["self_time_gap_s"] = tracing.self_time_gap(tracer.spans)
        os.makedirs(OUT_DIR, exist_ok=True)
        ops_per_round = len(workload.ops())
        first_round = set(id(r) for r in
                          [r for r in tracer.roots
                           if r.name != "setup"][:ops_per_round])
        dump_spans(os.path.join(OUT_DIR, f"trace-{args.workload}-"
                                         f"{args.seed}.json"),
                   [s for s in tracer.spans
                    if tracing.root_of(s).name == "setup"
                    or id(tracing.root_of(s)) in first_round])
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                          / 1024.0)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
