"""Self-test for the benchmark itself.

    python3 bench/selftest.py                   # exit 0 when every check holds
    python3 bench/selftest.py --record-digests  # rewrite bench/digests.json

It runs every workload at tiny size, traced and untraced, and checks that
each prints exactly the metrics BENCHMARK.json names, with their units. It
then feeds the gates faults: one decision flipped inside the engine, one
log line corrupted on its way to disk, and, in a traced run, a millisecond
of work added inside every traced ``decide`` outside any span must each make
a run fail with exit code 1. Last, a copy of the benchmark without the program must exit
non-zero without printing a result.
"""

import argparse
import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
import time

import run  # sets up the import path and imports carebot

from carebot import behavior
from oracles import naive_decide

import gates
import inputs
import tracing

SECONDS = "0.5"
# Traced runs compare traced with untraced decide times (the span accounting
# gate), which takes more rounds than a tiny 0.5 s run always makes.
TRACED_SECONDS = "2"


def check(condition, message, failures):
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        failures.append(message)


def run_tiny(workload, traced):
    """The benchmark through its command line, at tiny size."""
    result = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", TRACED_SECONDS if traced else SECONDS, "--trace", str(int(traced)),
         "--scale", "tiny"],
        capture_output=True, text=True, timeout=300, cwd=run.ROOT)
    last = result.stdout.strip().splitlines()[-1] if result.stdout.strip() else ""
    return result.returncode, last, result.stderr


def check_metric_names(failures):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check(sorted(w["name"] for w in spec["workloads"]) == sorted(inputs.SCALES["full"]),
          "BENCHMARK.json names every workload", failures)
    for workload in inputs.SCALES["tiny"]:
        for traced, key in ((False, "end_to_end"), (True, "per_layer")):
            code, last, stderr = run_tiny(workload, traced)
            label = f"{workload} --trace {int(traced)}"
            try:
                result = json.loads(last)
            except json.JSONDecodeError:
                check(False, f"{label}: last line is JSON ({stderr[-300:]})", failures)
                continue
            check(code == 0 and result["correct"] and result["failed"] == 0,
                  f"{label}: exit 0, correct, nothing failed", failures)
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            check(printed == wanted, f"{label}: metrics match BENCHMARK.json {key}", failures)


def flip_target(workload):
    """Timestamp of the first default-seed event a flipped expression must
    trip the oracle on: not alerting and clear of the oracle's band."""
    events = inputs.make_inputs(workload, run.DEFAULT_SEED,
                                run.WORKDIR / "selftest-events").events
    for fields in events:
        actions, _, c_o = naive_decide(tuple(fields["emotion_probs"]),
                                       fields["sound_norm"], fields["head_angle_deg"])
        if "call_nurses" not in actions \
                and all(abs(v - gates.THRESHOLD) >= gates.ORACLE_BAND for v in c_o.values()):
            return fields["timestamp"]
    raise RuntimeError("no event clear of the oracle band")


def run_with_fault(owner, attr, faulty, trace=0):
    """A tiny default-seed replay_stock run with ``owner.attr`` replaced;
    returns its exit code and the gates that reported a failure."""
    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    setattr(owner, attr, faulty(original))
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run.main(["--workload", "replay_stock", "--seed", str(run.DEFAULT_SEED),
                             "--seconds", SECONDS, "--trace", str(trace), "--scale", "tiny"])
    finally:
        setattr(owner, attr, original)
    failed = [line[len("FAILED "):] for line in err.getvalue().splitlines()
              if line.startswith("FAILED ")]
    return code, failed


def check_gates_trip(failures):
    workload = inputs.SCALES["tiny"]["replay_stock"]
    target = flip_target(workload)

    def flip_decision(decide):
        def flipped(self, event):
            decision = decide(self, event)
            if event.timestamp != target:
                return decision
            other = "neutral" if decision.expression == "smile" else "smile"
            return dataclasses.replace(decision, expression=other)
        return flipped

    code, failed = run_with_fault(behavior.Engine, "decide", flip_decision)
    tripped = {problem.split(":")[0] for problem in failed}
    check(code == 1 and {"oracle", "digest"} <= tripped,
          f"a flipped decision trips the oracle and digest gates (tripped: {sorted(tripped)})",
          failures)

    def corrupt_record(serialize):
        def corrupted(record):
            line = serialize(record)
            return line[: len(line) // 2] if record["timestamp"] == target else line
        return corrupted

    code, failed = run_with_fault(behavior, "serialize_record", corrupt_record)
    check(code == 1 and any("unreadable record" in problem for problem in failed),
          "a corrupted log line trips the log gate", failures)

    def slow_fire_rules(wrap):
        def wrapped(self, name, fn):
            traced = wrap(self, name, fn)
            if name != "inference.fire_rules":
                return traced

            def slowed(*args, **kwargs):
                result = traced(*args, **kwargs)
                time.sleep(0.001)  # inside decide's span, outside fire_rules'
                return result
            return slowed
        return wrapped

    code, failed = run_with_fault(tracing.Tracer, "wrap", slow_fire_rules, trace=1)
    check(code == 1 and any(problem.startswith("span accounting") for problem in failed),
          "unspanned work inside a traced decide trips the span accounting gate", failures)


def check_bare_copy(failures):
    bare = run.WORKDIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "replay_stock", "--seed", "1",
         "--seconds", SECONDS, "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=bare)
    check(result.returncode != 0 and not result.stdout.strip(),
          "without the program the benchmark exits non-zero and prints no result", failures)


def record_digests():
    digests = {scale: {name: run.default_seed_digest(workload, scale)[0]
                       for name, workload in workloads.items()}
               for scale, workloads in inputs.SCALES.items()}
    run.DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n",
                           encoding="utf-8")
    print(f"wrote {run.DIGESTS}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--record-digests", action="store_true",
                        help="record the default seed's decision digests and exit")
    if parser.parse_args().record_digests:
        record_digests()
        return 0
    failures = []
    check_metric_names(failures)
    check_gates_trip(failures)
    check_bare_copy(failures)
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
