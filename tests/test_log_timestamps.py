"""Log lines whose timestamp ``json`` parses but which is no time: NaN,
Infinity and integers beyond the float range.

``EventLog`` skips them when it looks for the last timestamp, ``log_read``
reports them as positioned ``corrupt`` lines, and ``report`` never prints
them.
"""

import json

import pytest

from carebot.behavior import log_read
from carebot.cli import main

HUGE = "1" + "0" * 400
NON_FINITE = pytest.mark.parametrize("timestamp", ("NaN", "Infinity", "-Infinity", HUGE),
                                     ids=("nan", "inf", "-inf", "huge-int"))


def write_log(path, *lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def line_at(timestamp: str) -> str:
    return f'{{"timestamp": {timestamp}, "subject_id": "s"}}'


def simulate_at(tmp_path, nine_rules_trace_path, log, start):
    """simulate the nine-rule trace, shifted to begin at ``start``, onto ``log``."""
    lines = nine_rules_trace_path.read_text(encoding="utf-8").splitlines()
    header, events = json.loads(lines[0]), [json.loads(line) for line in lines[1:]]
    first = events[0]["timestamp"]
    for event in events:
        event["timestamp"] += start - first
    trace = tmp_path / "trace.jsonl"
    trace.write_text("\n".join(json.dumps(x) for x in [header, *events]) + "\n",
                     encoding="utf-8")
    return main(["simulate", "--trace", str(trace), "--log", str(log), "--deterministic"]), \
        len(events)


@NON_FINITE
def test_simulate_appends_after_a_non_finite_last_record(tmp_path, nine_rules_trace_path,
                                                         capsys, timestamp):
    log = write_log(tmp_path / "log.jsonl", line_at(timestamp))
    code, events = simulate_at(tmp_path, nine_rules_trace_path, log, 0.0)
    assert code == 0, capsys.readouterr().err
    records, diagnostics = log_read(log)
    assert len(records) == events
    assert [(d.line, d.code) for d in diagnostics] == [(1, "corrupt")]


def test_a_nan_last_record_does_not_reopen_the_past(tmp_path, nine_rules_trace_path, capsys):
    log = write_log(tmp_path / "log.jsonl", line_at("50"), line_at("NaN"))
    code, _ = simulate_at(tmp_path, nine_rules_trace_path, log, 0.0)
    assert code == 3
    assert "non-decreasing" in capsys.readouterr().err
    code, _ = simulate_at(tmp_path, nine_rules_trace_path, log, 50.0)
    assert code == 0


@NON_FINITE
def test_read_reports_a_non_finite_timestamp_as_corrupt(tmp_path, timestamp):
    log = write_log(tmp_path / "log.jsonl", line_at("2"), line_at(timestamp), line_at("3"))
    records, diagnostics = log_read(log)
    assert [r["timestamp"] for r in records] == [2, 3]
    assert [(d.line, d.column, d.code) for d in diagnostics] == [(2, 1, "corrupt")]


@NON_FINITE
def test_report_skips_a_non_finite_timestamp(tmp_path, capsys, timestamp):
    log = write_log(tmp_path / "log.jsonl", line_at(timestamp), line_at("4"))
    assert main(["report", "--log", str(log)]) == 0
    captured = capsys.readouterr()
    assert "subject s: 1 events, 0 alerts" in captured.out
    assert "t=4 " in captured.out
    assert "nan" not in captured.out and "inf" not in captured.out
    assert "line 1, col 1: corrupt" in captured.err
