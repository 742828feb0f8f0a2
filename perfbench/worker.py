"""One workload, or one sweep suite, in a fresh process.

    worker.py --workload NAME --seed N --seconds S --trace 0|1 --spawned-at T
    worker.py --suite NAME --jobs J

The first form prints one JSON line: set-up time, operation counts,
summary timings, check failures and, with --trace 1, the per-layer
metrics.  The second runs one sweep suite and prints its report and
in-process time.  A fresh process matters: decide keeps a process-wide
cache of oracle answers, and forked sweep workers inherit it.
"""

import time

import sfiber  # noqa: F401  (timed: the set-up every sfiber process pays)
import sfiber.cli  # noqa: F401

IMPORTED_AT = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from random import Random  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

ERRORS_SHOWN = 20


def run_workload(args) -> dict:
    setup_s = IMPORTED_AT - args.spawned_at
    traced = bool(args.trace)
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install()
    run = workloads.Run()
    rng = Random(args.seed)
    cold = not traced  # a traced run stays in one process: no CLI or suite subprocesses
    if args.workload == "interactive":
        workload = workloads.Interactive(rng, run, cold)
    elif args.workload == "deep":
        workload = workloads.Deep(rng, run, cold)
    else:
        jobs = 1 if traced else min(2, os.cpu_count() or 1)
        workload = workloads.Sweep(rng, run, cold, jobs)

    rounds = 0
    start = time.perf_counter()
    while True:
        workload.round()
        rounds += 1
        if time.perf_counter() - start >= args.seconds:
            break

    op_seconds = [t for times in run.seconds.values() for t in times]
    busy = sum(op_seconds)
    out = {
        "attempted": run.attempted,
        "failed": run.failed,
        "errors": run.errors[:ERRORS_SHOWN],
        "error_count": len(run.errors),
        "rounds": rounds,
        "op_s_per_round": busy / rounds,
        "setup_s": setup_s,
        "ops_per_s": len(op_seconds) / busy if busy else 0.0,
        "op_p50_ms": 1e3 * workloads.quantile(op_seconds, 50),
        "op_p90_ms": 1e3 * workloads.quantile(op_seconds, 90),
        "cli_cold_ms": 1e3 * statistics.median(run.cli_seconds) if run.cli_seconds else 0.0,
        "cli_calls": len(run.cli_seconds),
        "detail": workloads.detail(args.workload, run),
    }
    if traced:
        consults = sum(reference.decide(*d)["consults"] for d in tracer.decisions)
        out["layers"] = tracer.metrics(rounds, busy, consults)
        out["consults_per_op"] = consults / len(op_seconds) if op_seconds else 0.0
    return out


def run_suite(args) -> dict:
    start = time.perf_counter()
    report = workloads.run_suite(args.suite, args.jobs)
    return {"seconds": time.perf_counter() - start, "report": report}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=("interactive", "deep", "sweep"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, default=IMPORTED_AT)
    parser.add_argument("--suite", choices=tuple(workloads.SUITES))
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()
    if args.suite:
        result = run_suite(args)
    elif args.workload:
        result = run_workload(args)
    else:
        parser.error("give --workload or --suite")
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
