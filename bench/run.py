"""carebot benchmark: seeded trace-replay workloads, timed end to end.

Run from the root of a checkout:

    python3 bench/run.py --workload replay_stock --seed 1 --seconds 35 --trace 0

One run generates the workload's inputs from ``--seed``, measures set-up
time in fresh interpreters, warms up, then repeats rounds of ``simulate``,
``report`` and a pass of ``Engine.decide`` over the trace until
``--seconds`` have passed, checking every output as it goes. With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` the
per-layer ones from spans (see bench/README.md). The last line of stdout is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``. The exit
code is 0 when every correctness gate passed and 1 otherwise, also when the
program cannot be imported from the checkout.
"""

import argparse
import contextlib
import json
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path[1:1] = [str(SRC), str(ROOT / "tests")]
try:
    import carebot
    import oracles  # noqa: F401  -- the gates' reference pipeline
except ImportError as err:
    sys.exit(f"bench: cannot import the program from {ROOT}: {err}")
if Path(carebot.__file__).resolve().parent != SRC / "carebot":
    sys.exit(f"bench: carebot resolves to {carebot.__file__}, not to {SRC}")

from carebot import Engine, cli, load_trace, parse_rulebase  # noqa: E402

import gates  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

WORKDIR = ROOT / ".bench_work"
DIGESTS = BENCH / "digests.json"
DEFAULT_SEED = 1
SETUP_CHILDREN = 20
MIN_ROUNDS = 3
DECIDE_EVERY = 2  # rounds per decide pass

# Set-up as a user pays it: a fresh interpreter imports carebot, parses the
# workload's rule file and builds an Engine. Deciding one event is included
# so that work deferred to the first decision still counts as set-up.
SETUP_CHILD = """\
import json, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import carebot
with open(sys.argv[2], encoding="utf-8") as handle:
    engine = carebot.Engine.default(rulebase=carebot.parse_rulebase(handle.read()))
engine.decide(carebot.PerceptionEvent(**json.loads(sys.argv[3])))
print(time.perf_counter() - start)
"""

REPORT_SUBJECT = re.compile(r"^subject \S+: (\d+) events, (\d+) alerts$", re.MULTILINE)


def run_cli(argv, stdout_path):
    """cli.main with stdout sent to a file; returns (exit code, seconds, output)."""
    with open(stdout_path, "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
        start = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - start
    return code, seconds, stdout_path.read_text(encoding="utf-8")


class Run:
    """One workload run: its inputs, its timed operations and its gate results."""

    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.inp = inputs.make_inputs(workload, seed, workdir)
        self.stdout_path = workdir / "stdout.txt"
        rules_text = self.inp.rules.read_text(encoding="utf-8")
        self.engine = Engine.default(rulebase=parse_rulebase(rules_text))
        self.events = load_trace(self.inp.trace).events
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.simulate_s = []
        self.report_s = []
        self.decide_best_ns = [float("inf")] * len(self.events)  # per event
        self.decide_calls = 0
        self.setup_s = []
        self.log_ref = None      # bytes of the first intact log
        self.report_ref = None   # output of the first report
        self.session = None      # the records this run's simulate appends
        self.log_records = 0
        self.log_alerts = 0

    def op(self, what, fn):
        """Count one operation; it fails on an exception or any problem it returns."""
        self.attempted += 1
        try:
            problems = fn()
        except Exception:
            problems = [traceback.format_exc()]
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {problem}" for problem in problems)

    def simulate(self):
        inp = self.inp
        if inp.pristine_log is not None:
            shutil.copyfile(inp.pristine_log, inp.log)
        else:
            inp.log.unlink(missing_ok=True)
        code, seconds, out = run_cli(
            ["simulate", "--trace", str(inp.trace), "--rules", str(inp.rules),
             "--deterministic", "--log", str(inp.log)], self.stdout_path)
        self.simulate_s.append(seconds)
        if code != 0:
            return [f"exit code {code}"]
        data = inp.log.read_bytes()
        problems = gates.check_log(data, inp.prebuilt_records + len(inp.events), self.log_ref)
        if self.log_ref is None and not problems:
            records = gates.parse_log(data)
            self.session = records[inp.prebuilt_records:]
            problems = gates.check_session(inp.events, self.session)
            if problems:
                self.session = None
                return problems
            self.log_ref = data
            self.log_records = len(records)
            self.log_alerts = sum("call_nurses" in r["actions"] for r in records)
        if self.session is not None:
            alerts = sum("call_nurses" in r["actions"] for r in self.session)
            if f"events: {len(inp.events)}\nalerts: {alerts}\n" not in out:
                problems.append("simulate summary disagrees with its log")
        return problems

    def report(self):
        code, seconds, out = run_cli(["report", "--log", str(self.inp.log)], self.stdout_path)
        self.report_s.append(seconds)
        if code != 0:
            return [f"exit code {code}"]
        if self.report_ref is not None:
            return [] if out == self.report_ref else ["report output differs from its first run"]
        counts = [(int(n), int(k)) for n, k in REPORT_SUBJECT.findall(out)]
        if (sum(n for n, _ in counts), sum(k for _, k in counts)) \
                != (self.log_records, self.log_alerts):
            return ["report totals disagree with the log"]
        self.report_ref = out
        return []

    def decide_pass(self):
        # Only each event's fastest call is kept, so the harness's memory
        # does not grow with the number of passes a faster program makes.
        decide, clock, best = self.engine.decide, time.perf_counter_ns, self.decide_best_ns
        outcomes = []
        for i, event in enumerate(self.events):
            start = clock()
            decision = decide(event)
            elapsed = clock() - start
            if elapsed < best[i]:
                best[i] = elapsed
            outcomes.append((decision.actions, decision.expression))
        self.decide_calls += len(self.events)
        if self.session is None:
            return ["no intact simulate log to compare with"]
        return gates.check_outcomes(outcomes, [gates.outcome(r) for r in self.session])

    def setup_child(self):
        result = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), str(self.inp.rules),
             json.dumps(self.inp.events[0])],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if result.returncode != 0:
            return [f"set-up child exited {result.returncode}: {result.stderr[-500:]}"]
        self.setup_s.append(float(result.stdout))
        return []

    def round(self, tracer=None, decide=True):
        if tracer is not None:
            tracer.install()
        try:
            self.op("simulate", self.simulate)
            self.op("report", self.report)
        finally:
            if tracer is not None:
                tracer.remove()
        if decide:
            self.op("decide", self.decide_pass)

    def measure(self, seconds, tracer=None, setups=0):
        # The first simulate in a fresh process runs markedly slower; one
        # untimed round pays that, and its checks still count.
        self.round()
        self.simulate_s.clear()
        self.report_s.clear()
        self.decide_best_ns = [float("inf")] * len(self.events)
        self.decide_calls = 0
        start = time.perf_counter()
        rounds = spawned = 0
        while rounds < MIN_ROUNDS or time.perf_counter() < start + seconds:
            # Set-up interpreters are spread over the run, so that their
            # median does not hang on one moment of it.
            if spawned < setups and time.perf_counter() >= start + seconds * spawned / setups:
                self.op("setup", self.setup_child)
                spawned += 1
            # Every event's fastest call needs fewer passes than a steady
            # median needs sessions, so only every other round makes a
            # decide pass.
            self.round(tracer, decide=rounds % DECIDE_EVERY == 0)
            rounds += 1
        for _ in range(spawned, setups):
            self.op("setup", self.setup_child)
        return rounds


def default_seed_digest(workload, scale):
    """Digest of the default seed's decisions, and the recorded value."""
    ref = Run(workload, DEFAULT_SEED, WORKDIR / f"{workload.name}-default-seed")
    problems = ref.simulate()
    if problems:
        raise RuntimeError(f"default-seed simulate failed: {problems}")
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    return (gates.decision_digest(gates.outcome(r) for r in ref.session),
            recorded.get(scale, {}).get(workload.name))


def check_digest(workload, scale):
    digest, recorded = default_seed_digest(workload, scale)
    if digest != recorded:
        return [f"default-seed decision digest {digest} != recorded {recorded}"]
    return []


def end_to_end(run):
    """The end-to-end metrics, robust to a shared machine's slow phases.

    On a shared cloud VM, co-tenants can slow a core about twofold in
    bursts of ~10 ms, in a share that changes from run to run (see
    bench/README.md). Whole operations (set-up interpreters, ``simulate``
    and ``report`` sessions, each 5 to 300 ms) are many per run, and their
    median over the run averages that share; the fastest of them, one
    extreme value, spread up to three times as much from run to run.
    ``decide`` calls are short enough that each event's fastest call over
    all passes is reliably undisturbed; p50 and p90 are taken across events.
    """
    n = len(run.events)
    per_event_ns = run.decide_best_ns
    return {
        "setup_s": (statistics.median(run.setup_s), "s"),
        "simulate_events_per_s": (n / statistics.median(run.simulate_s), "1/s"),
        "decide_p50_us": (statistics.median(per_event_ns) / 1e3, "us"),
        "decide_p90_us": (statistics.quantiles(per_event_ns, n=10)[8] / 1e3, "us"),
        "report_records_per_s": (run.log_records / statistics.median(run.report_s), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def run_workload(workload, seed, seconds, traced, scale="full"):
    """Generate, measure and check one workload; returns the result object."""
    workdir = WORKDIR / workload.name
    shutil.rmtree(workdir, ignore_errors=True)
    run = Run(workload, seed, workdir)
    tracer = tracing.Tracer() if traced else None
    if not traced:
        run.op("setup", run.setup_child)  # untimed: fills bytecode and page caches
        run.setup_s.clear()
    rounds = run.measure(seconds, tracer, setups=0 if traced else SETUP_CHILDREN)
    if not workload.wide_rules:
        run.op("oracle", lambda: gates.check_oracle(run.inp.events, run.session))
    run.op("digest", lambda: check_digest(workload, scale))

    notes = {"rounds": rounds, "decide samples": run.decide_calls}
    if run.session is not None:
        notes["alert share"] = sum(
            "call_nurses" in r["actions"] for r in run.session) / len(run.session)
        notes["smile share"] = sum(
            r["expression"] == "smile" for r in run.session) / len(run.session)
    metrics = {}
    if run.failed == 0:
        if traced:
            untraced_p50 = statistics.median(run.decide_best_ns) / 1e3
            metrics, spans_per_decide = tracing.layer_metrics(
                tracer, len(run.events), run.session, len(run.engine.rulebase.rules),
                run.log_records, len(run.log_ref) / run.log_records, untraced_p50)
            span_ns = tracing.span_cost_ns()
            notes["span cost ns"] = span_ns
            notes["spans per decide"] = spans_per_decide
            run.op("span accounting", lambda: tracing.check_accounting(
                metrics["trace.decide_p50_us"][0], untraced_p50, spans_per_decide, span_ns))
            tracer.write(workdir / "spans.tsv")
            notes["absent layers"] = sorted(tracer.absent) or "none"
        else:
            metrics = end_to_end(run)
    notes["error rate"] = run.failed / run.attempted
    samples = {"setup_s": run.setup_s, "simulate_s": run.simulate_s,
               "report_s": run.report_s, "decide_fastest_ns": run.decide_best_ns}
    (workdir / "samples.json").write_text(json.dumps(samples), encoding="utf-8")
    return {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
            "metrics": metrics, "notes": notes, "problems": run.problems}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.SCALES["full"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(inputs.SCALES), default="full",
                        help="input sizes; 'tiny' is for the self-test")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    workload = inputs.SCALES[args.scale][args.workload]
    result = run_workload(workload, args.seed, args.seconds, bool(args.trace), args.scale)
    for problem in result["problems"][:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"workload {workload.name} seed {args.seed} scale {args.scale}")
    for name, value in result["notes"].items():
        print(f"  {name}: {value}")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
