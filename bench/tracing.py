"""Per-layer spans for the traced run, recorded without changing the program.

The traced run rebinds the attributes the program calls through (module
globals such as ``carebot.behavior.fire_rules`` and class attributes such as
``Engine.decide``) to wrappers that record one span per call: name, start,
end and the index of the enclosing span. Spans stay in memory and are
written out when the run ends; self time is a span's duration minus the
durations of its direct children.

A decide span's self time plus its children's durations is its duration by
definition, so the check that carries information compares the traced
``decide`` with the untraced one: the difference must be the cost of the
spans inside it, calibrated on a no-op (``check_accounting``).
"""

import statistics
import time
from collections import defaultdict

from carebot import appraisal, behavior, cli

# (owner, attribute, span name). The owner is the namespace the caller looks
# the name up in: Engine.decide reads ``fuzzify`` from carebot.behavior's
# globals and p_activations from carebot.appraisal's, so both are rebound.
BINDINGS = (
    (cli, "cmd_simulate", "cli.simulate"),
    (cli, "cmd_report", "cli.report"),
    (cli, "load_trace", "perception.load_trace"),
    (cli, "parse_rulebase", "rules.parse_rulebase"),
    (cli, "log_read", "behavior.log_read"),
    (behavior.EventLog, "__init__", "behavior.EventLog.open"),
    (behavior.EventLog, "append", "behavior.EventLog.append"),
    (behavior.Engine, "decide", "behavior.decide"),
    (behavior, "fuzzify", "fuzzy.fuzzify"),
    (appraisal, "fuzzify", "fuzzy.fuzzify"),
    (behavior, "fire_rules", "inference.fire_rules"),
    (behavior, "aggregate", "inference.aggregate"),
    (behavior, "defuzzify_wcog", "inference.defuzzify_wcog"),
    (behavior, "ea_activations", "appraisal.ea_activations"),
    (behavior, "p_activations", "appraisal.p_activations"),
    (behavior, "fuse", "appraisal.fuse"),
)


class Tracer:
    """Installs span wrappers on BINDINGS and keeps every span in memory."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index or -1]
        self.absent = set()  # span names with no call site left to rebind
        self._stack = []
        self._saved = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self):
        installed = set()
        for owner, attr, name in BINDINGS:
            original = owner.__dict__.get(attr) if isinstance(owner, type) \
                else getattr(owner, attr, None)
            if original is None:
                continue
            installed.add(name)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))
        # A call site a later version removed is reported absent, not failed.
        self.absent = {name for _, _, name in BINDINGS} - installed

    def remove(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name\tstart_ns\tend_ns\tparent\n")
            for name, start, end, parent in self.spans:
                handle.write(f"{name}\t{start}\t{end}\t{parent}\n")


def span_cost_ns(calls=2000, repeats=20):
    """What one span adds to a call: a wrapped no-op less a bare one, each
    the fastest of ``repeats`` loops of ``calls`` calls."""
    tracer = Tracer()

    def noop():
        return None

    def fastest(fn):
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter_ns()
            for _ in range(calls):
                fn()
            best = min(best, time.perf_counter_ns() - start)
            tracer.spans.clear()
        return best / calls

    return fastest(tracer.wrap("calibration", noop)) - fastest(noop)


def fastest_per_event(samples_ns, events):
    """Each event's fastest time, from passes that each time every event in order."""
    return [min(samples_ns[i::events]) for i in range(events)]


def summarize(spans):
    """Per span name: calls, total ns, self ns; the decide durations; and
    the number of spans, at any depth, inside decide spans."""
    child_ns = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    stats = defaultdict(lambda: [0, 0, 0])
    decide_durations = []
    inside_decide = 0
    for i, (name, start, end, parent) in enumerate(spans):
        entry = stats[name]
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - child_ns[i]
        if name == "behavior.decide":
            decide_durations.append(end - start)
        while parent >= 0 and spans[parent][0] != "behavior.decide":
            parent = spans[parent][3]
        inside_decide += parent >= 0
    return stats, decide_durations, inside_decide


def layer_metrics(tracer, events, session, rules, report_records, log_bytes_per_record,
                  untraced_decide_p50_us):
    """Every per-layer metric, as name -> (value, unit), and the spans per
    decide call, itself included.

    ``events`` is the trace length, ``session`` the log records one simulate
    session wrote, ``rules`` the size of the rule base and ``report_records``
    the records each report reads. The fire and degenerate ratios come from
    the evidence each decision logs (its fired rules, its degenerate
    channels), so that no counting runs inside the timed spans.
    """
    stats, decide_durations, inside_decide = summarize(tracer.spans)
    sessions = stats["cli.simulate"][0] or 1
    reports = stats["cli.report"][0] or 1

    def calls(name):
        return stats[name][0] / sessions

    def per_call_us(name):
        count, total, _ = stats[name]
        return total / count / 1e3 if count else 0.0

    alerts = sum("call_nurses" in r["actions"] for r in session)
    smiles = sum(r["expression"] == "smile" for r in session)
    fired = sum(len(r.get("fired_rules", ())) for r in session)
    flags = [flag for r in session for flag in r.get("degenerate_flags", {}).values()]
    decide_calls = stats["behavior.decide"][0]
    traced_p50_us = (statistics.median(fastest_per_event(decide_durations, events)) / 1e3
                     if decide_durations else 0.0)
    metrics = {
        "perception.load_trace.us_per_event": (
            stats["perception.load_trace"][1] / 1e3 / (sessions * events), "us"),
        "fuzzy.fuzzify.us_per_call": (per_call_us("fuzzy.fuzzify"), "us"),
        "fuzzy.fuzzify.calls": (calls("fuzzy.fuzzify"), "count"),
        "rules.parse_rulebase.ms": (per_call_us("rules.parse_rulebase") / 1e3, "ms"),
        "inference.fire_rules.us_per_call": (per_call_us("inference.fire_rules"), "us"),
        "inference.fire_rules.calls": (calls("inference.fire_rules"), "count"),
        "inference.fire_ratio": (fired / (len(session) * rules), "ratio"),
        "inference.aggregate.us_per_call": (per_call_us("inference.aggregate"), "us"),
        "inference.aggregate.calls": (calls("inference.aggregate"), "count"),
        "inference.defuzzify_wcog.us_per_call": (
            per_call_us("inference.defuzzify_wcog"), "us"),
        "inference.defuzzify_wcog.calls": (calls("inference.defuzzify_wcog"), "count"),
        "inference.defuzzify_wcog.degenerate_ratio": (
            sum(flags) / len(flags) if flags else 0.0, "ratio"),
        "appraisal.ea_activations.us_per_call": (
            per_call_us("appraisal.ea_activations"), "us"),
        "appraisal.ea_activations.calls": (calls("appraisal.ea_activations"), "count"),
        "appraisal.p_activations.us_per_call": (
            per_call_us("appraisal.p_activations"), "us"),
        "appraisal.p_activations.calls": (calls("appraisal.p_activations"), "count"),
        "appraisal.fuse.us_per_call": (per_call_us("appraisal.fuse"), "us"),
        "appraisal.fuse.calls": (calls("appraisal.fuse"), "count"),
        "behavior.decide.us_per_call": (per_call_us("behavior.decide"), "us"),
        "behavior.decide.self_us": (
            stats["behavior.decide"][2] / decide_calls / 1e3 if decide_calls else 0.0, "us"),
        "behavior.decide.calls": (calls("behavior.decide"), "count"),
        "behavior.EventLog.append.us_per_record": (
            per_call_us("behavior.EventLog.append"), "us"),
        "behavior.EventLog.open_ms": (per_call_us("behavior.EventLog.open") / 1e3, "ms"),
        "behavior.log.bytes_per_record": (log_bytes_per_record, "B"),
        "behavior.log_read.us_per_record": (
            stats["behavior.log_read"][1] / 1e3 / (reports * report_records), "us"),
        "cli.simulate.self_s": (stats["cli.simulate"][2] / 1e9 / sessions, "s"),
        "cli.report.self_s": (stats["cli.report"][2] / 1e9 / reports, "s"),
        "cli.alerts": (alerts, "count"),
        "cli.smiles": (smiles, "count"),
        "cli.alert_share": (alerts / events, "ratio"),
        "cli.smile_share": (smiles / events, "ratio"),
        "trace.decide_p50_us": (traced_p50_us, "us"),
        "trace.overhead_us": (traced_p50_us - untraced_decide_p50_us, "us"),
    }
    spans_per_decide = 1 + inside_decide / decide_calls if decide_calls else 0.0
    return metrics, spans_per_decide


# Share of the untraced decide time that the traced decide, less the cost
# of its spans, may differ by before the spans count as not accounting for
# it. Traced and untraced decides alternate within one run, and their
# difference moved by under 5% of decide between runs.
ACCOUNTING_SHARE = 0.1


def check_accounting(traced_p50_us, untraced_p50_us, spans_per_decide, span_ns):
    """The traced decide is the untraced one plus the cost of its spans.

    The allowance is that cost or ACCOUNTING_SHARE of the untraced time,
    whichever is larger. Work a traced run adds inside decide beyond the
    spans themselves, or time the spans miss, fails it.
    """
    expected_us = spans_per_decide * span_ns / 1e3
    gap_us = traced_p50_us - untraced_p50_us - expected_us
    allowance_us = max(expected_us, ACCOUNTING_SHARE * untraced_p50_us)
    if abs(gap_us) <= allowance_us:
        return []
    return [f"traced decide {traced_p50_us:.1f} us is untraced {untraced_p50_us:.1f} us "
            f"+ {spans_per_decide:.1f} spans x {span_ns:.0f} ns + {gap_us:.1f} us unaccounted "
            f"(allowed {allowance_us:.1f} us)"]
