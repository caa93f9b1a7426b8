"""Run the benchmark over several seeds and summarize the run-to-run spread.

    python3 bench/steady.py --seeds 10 --out bench/baseline.json

It runs every workload of BENCHMARK.json for its ``run_seconds``, with seeds
1 to N, interleaved (seed 1 of every workload, then seed 2, ...) so that
drift on a shared machine spreads over all of them. For each workload
and end-to-end metric it reports the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (Q3 - Q1) / median,
next to the metric's bound in BENCHMARK.json. Every run goes through
``bench/run.py`` through its command line in BENCHMARK.json.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command, workload, seed, seconds, trace):
    start = time.perf_counter()
    result = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=900, cwd=ROOT)
    wall = time.perf_counter() - start
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {result.returncode}: "
                           f"{result.stderr[-2000:]}")
    return json.loads(lines[-1]), wall


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else None, "values": values}


def environment():
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "machine": platform.machine(),
            "processor": _cpu_model()}


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary JSON here")
    args = parser.parse_args()

    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    key = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in spec[key]}
    values = {w: {name: [] for name in bounds} for w in workloads}
    walls = {w: [] for w in workloads}
    for seed in range(1, args.seeds + 1):
        for workload in workloads:
            result, wall = run_once(spec["command"], workload, seed, seconds, args.trace)
            walls[workload].append(wall)
            for name in bounds:
                values[workload][name].append(result["metrics"][name]["value"])
            print(f"seed {seed} {workload}: {wall:.1f} s, attempted {result['attempted']}, "
                  f"failed {result['failed']}", file=sys.stderr, flush=True)

    summary = {"environment": environment(), "run_seconds": seconds,
               "seeds": [1, args.seeds],
               "trace": args.trace, "workloads": {}}
    worst = 0.0
    for workload in workloads:
        rows = {}
        for name, bound in bounds.items():
            row = summarize(values[workload][name])
            row["bound"] = bound
            rows[name] = row
            if bound is not None:
                worst = max(worst, row["spread"] / bound)
            limit = f" / bound {bound}" if bound is not None else ""
            spread = "n/a" if row["spread"] is None else f"{row['spread']:.4f}"
            print(f"{workload:18s} {name:40s} median {row['median']:12.6g}  "
                  f"IQR/median {spread}{limit}")
        summary["workloads"][workload] = {
            "metrics": rows, "wall_s": summarize(walls[workload])}
        print(f"{workload:18s} wall per run: median {statistics.median(walls[workload]):.1f} s, "
              f"max {max(walls[workload]):.1f} s")
    if not args.trace:
        print(f"largest spread as a share of its bound: {worst:.3f}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
