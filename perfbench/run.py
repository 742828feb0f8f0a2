"""Benchmark entry point; run it from the root of a checkout.

    python3 perfbench/run.py --workload interactive|deep|sweep \\
        --seed N --seconds S --trace 0|1

Compiles src/sfiber to bytecode, starts the workload in a fresh process
(worker.py) and prints, as the last line of standard output, one JSON
object with the keys correct, attempted, failed and metrics: the
end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer
metrics with --trace 1.  The whole record of the run, with the
per-kind figures, goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER_TIMEOUT_S = 170


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("interactive", "deep", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "sfiber" / "__init__.py").is_file():
        return fail(f"no sfiber sources under {root / 'src'}; run from the root of a checkout")
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build = subprocess.run([sys.executable, "-m", "compileall", "-q", "src/sfiber"], cwd=root)
    if build.returncode != 0:
        return fail("compiling src/sfiber failed")

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    spawned_at = time.monotonic()
    # A session of its own, so that a timeout can stop the worker's children too.
    with subprocess.Popen(argv + ["--spawned-at", repr(spawned_at)], cwd=root, env=env,
                          stdout=subprocess.PIPE, text=True, start_new_session=True) as worker:
        try:
            stdout, _ = worker.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(worker.pid, signal.SIGKILL)
            worker.communicate()
            return fail(f"{args.workload} did not finish within {WORKER_TIMEOUT_S} s")
    if worker.returncode != 0:
        return fail(f"{args.workload} worker exited {worker.returncode}")
    raw = json.loads(stdout.strip().splitlines()[-1])
    # ru_maxrss of waited-for descendants is in KiB on Linux: the largest single process
    raw["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    values = raw["layers"] if args.trace else raw
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        return fail(f"the run produced no value for {missing}")
    for error in raw["errors"]:
        print(f"perfbench: wrong answer: {error}", file=sys.stderr)
    result = {
        "correct": raw["error_count"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    record = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"args": vars(args), "result": result, "raw": raw}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
