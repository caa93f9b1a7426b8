"""Command-line front end: simulate, check, eval, report.

Exit codes are part of the contract: 0 success, 1 usage, 2 configuration
problem, 3 bad input data (traces, rule files, logs, fixtures). Output is
reproducible byte for byte when ``--deterministic`` suppresses the one
wall-clock banner line.
"""

import argparse
import sys
from dataclasses import replace
from datetime import datetime

from .appraisal import AppraisalWeights
from .behavior import Engine, EventLog, log_read
from .config import EngineConfig, default_config, load_config
from .errors import (CarebotError, ConfigError, EvaluationError,
                     RuleBaseError, TraceError, ValidationError, is_number)
from .evaluation import (load_fixture, matrix_from_events, predict_dominant,
                         render_table, report)
from .fuzzy import EMOTION_LABELS
from .inference import ACTION_CHANNELS
from .perception import load_trace
from .rules import EXPRESSIONS, default_rulebase, parse_rulebase, serialize_rulebase

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_DATA = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; this contract reserves 2 for config."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _weights_triple(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected three comma-separated numbers: a,b,c")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"could not parse {text!r} as numbers") from None


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="carebot",
                     description="Trace-driven fuzzy behavior engine for an assistive care robot.")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    sim = sub.add_parser("simulate", help="run the decision pipeline over a trace")
    sim.add_argument("--trace", required=True, help="trace file (JSON lines)")
    sim.add_argument("--rules", help="rule file; defaults to the built-in rule base")
    sim.add_argument("--config", help="YAML config file")
    sim.add_argument("--weights", type=_weights_triple, metavar="A,B,C",
                     help="appraisal weights ea,fkbs,p (must sum to 1)")
    sim.add_argument("--threshold", type=float,
                     help="activation threshold applied to every channel")
    sim.add_argument("--resolution", type=int, help="defuzzification sample count")
    sim.add_argument("--log", help="decision log path (appended, never truncated)")
    sim.add_argument("--lenient", action="store_true",
                     help="ignore unknown trace fields instead of rejecting them")
    sim.add_argument("--deterministic", action="store_true",
                     help="suppress the wall-clock banner for reproducible output")
    sim.add_argument("--parallel", type=_positive_int, metavar="N",
                     help="accepted for compatibility; has no effect (events are decided serially)")
    sim.set_defaults(func=cmd_simulate)

    chk = sub.add_parser("check", help="validate a rule file and print its canonical form")
    chk.add_argument("--rules", required=True, help="rule file to check")
    chk.set_defaults(func=cmd_check)

    ev = sub.add_parser("eval", help="score predictions against ground truth")
    ev.add_argument("--trace", help="trace whose events carry truth_emotion")
    ev.add_argument("--fixture", help="percentage-table fixture (TSV) to render instead")
    ev.add_argument("--lenient", action="store_true",
                    help="ignore unknown trace fields instead of rejecting them")
    ev.set_defaults(func=cmd_eval)

    rep = sub.add_parser("report", help="summarize a decision log for clinicians")
    rep.add_argument("--log", required=True, help="decision log to read")
    rep.add_argument("--subject", help="restrict to one subject id")
    rep.add_argument("--since", type=float, help="earliest timestamp, inclusive")
    rep.add_argument("--until", type=float, help="latest timestamp, inclusive")
    rep.set_defaults(func=cmd_report)

    parser.set_defaults(func=None)
    return parser


def _print_diagnostics(path, diagnostics, stream=None):
    stream = stream or sys.stderr
    for diag in diagnostics:
        print(f"{path}:{diag}", file=stream)


def _build_engine(args) -> tuple[Engine, EngineConfig]:
    config = load_config(args.config) if args.config else default_config()
    if args.weights is not None:
        ea, fkbs, p = args.weights
        config = replace(config, weights=AppraisalWeights(w_ea=ea, w_fkbs=fkbs, w_p=p))
    if args.threshold is not None:
        config = replace(config,
                         thresholds={channel: args.threshold for channel in ACTION_CHANNELS})
    if args.resolution is not None:
        config = replace(config, resolution=args.resolution)

    rules_path = args.rules or config.rules_path
    if rules_path:
        with open(rules_path, "r", encoding="utf-8") as handle:
            text = handle.read()
        try:
            rulebase = parse_rulebase(text)
        except RuleBaseError as err:
            _print_diagnostics(rules_path, err.diagnostics)
            raise
    else:
        rulebase = default_rulebase()

    return Engine(
        rulebase=rulebase,
        input_variables=dict(config.variables),
        weights=config.weights,
        thresholds=dict(config.thresholds),
        resolution=config.resolution,
    ), config


def cmd_simulate(args) -> int:
    engine, config = _build_engine(args)
    try:
        trace = load_trace(args.trace, lenient=args.lenient)
    except TraceError as err:
        _print_diagnostics(args.trace, err.diagnostics)
        return EXIT_DATA

    if not args.deterministic:
        print(f"run started {datetime.now().isoformat(timespec='seconds')}")

    log_path = args.log or config.log_path
    log = EventLog(log_path) if log_path else None
    try:
        alerts = 0
        expression_counts = {name: 0 for name in EXPRESSIONS}
        for event in trace.events:
            decision = engine.decide(event)
            if log is not None:
                log.append(event, decision)
            expression_counts[decision.expression] += 1
            if decision.alerting:
                alerts += 1
                print(f"ALERT t={decision.timestamp:g} subject={decision.subject_id} "
                      f"call_nurses={decision.c_o['call_nurses']:.3f}")
    finally:
        if log is not None:
            log.close()

    print(f"events: {len(trace.events)}")
    print(f"alerts: {alerts}")
    print("expressions: " + " ".join(f"{name}={expression_counts[name]}"
                                     for name in EXPRESSIONS))
    if log_path:
        print(f"log: {log_path}")
    return EXIT_OK


def cmd_check(args) -> int:
    with open(args.rules, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        rulebase = parse_rulebase(text)
    except RuleBaseError as err:
        _print_diagnostics(args.rules, err.diagnostics)
        return EXIT_DATA
    print(serialize_rulebase(rulebase), end="")
    return EXIT_OK


def cmd_eval(args) -> int:
    if bool(args.trace) == bool(args.fixture):
        print("eval: exactly one of --trace or --fixture is required", file=sys.stderr)
        return EXIT_USAGE
    if args.fixture:
        rep = load_fixture(args.fixture)
    else:
        try:
            trace = load_trace(args.trace, lenient=args.lenient)
        except TraceError as err:
            _print_diagnostics(args.trace, err.diagnostics)
            return EXIT_DATA
        rep = report(matrix_from_events(trace.events))
    print(render_table(rep))
    return EXIT_OK


def _alerts(record: dict) -> bool:
    """Whether a log record alerts: its ``actions`` is a list naming call_nurses."""
    actions = record.get("actions")
    return isinstance(actions, list) and "call_nurses" in actions


def cmd_report(args) -> int:
    records, diagnostics = log_read(args.log, start=args.since, end=args.until,
                                    subject=args.subject)
    if diagnostics:
        _print_diagnostics(args.log, diagnostics)
    if not records:
        print("no matching records", file=sys.stderr)
        return EXIT_DATA if diagnostics else EXIT_OK

    subjects: dict[str, list[dict]] = {}
    for record in records:
        subjects.setdefault(record["subject_id"], []).append(record)

    for subject in sorted(subjects):
        rows = subjects[subject]
        alert_count = sum(map(_alerts, rows))
        print(f"subject {subject}: {len(rows)} events, {alert_count} alerts")
        for r in rows:
            state = "?"
            probs = r.get("emotion_probs")
            if isinstance(probs, list) and len(probs) == len(EMOTION_LABELS) \
                    and all(map(is_number, probs)):
                state = predict_dominant(probs)
            valence = r.get("valence")
            try:
                valence_text = f"{valence:+.2f}" if isinstance(valence, (int, float)) else "?"
            except OverflowError:  # an int beyond the float range
                valence_text = "?"
            flags = " ALERT" if _alerts(r) else ""
            print(f"  t={r['timestamp']:g} state={state} valence={valence_text} "
                  f"expression={r.get('expression', '?')}{flags}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.func is None:
            parser.error("a subcommand is required")
        return args.func(args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else EXIT_USAGE
        return code
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (TraceError, RuleBaseError) as err:
        # Diagnostics were already printed where the path was known.
        print(f"data error: {err}", file=sys.stderr)
        return EXIT_DATA
    except (EvaluationError, ValidationError) as err:
        print(f"data error: {err}", file=sys.stderr)
        return EXIT_DATA
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_DATA
    except CarebotError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
