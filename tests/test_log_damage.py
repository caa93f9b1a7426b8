"""Decision logs with lines that parse as JSON but are not records, or do
not parse at all: the readers report them and carry on.

``report`` prints ``state=?`` for a record whose ``emotion_probs`` is not six
numbers, ``EventLog`` skips such lines when it opens a log, and ``log_read``
returns them as positioned ``corrupt`` diagnostics.
"""

import json

import pytest

from carebot.behavior import Engine, EventLog, log_read
from carebot.cli import main
from carebot.errors import ValidationError
from carebot.perception import PerceptionEvent

RECORD = {"timestamp": 5.0, "subject_id": "p01", "actions": ["record_data"],
          "expression": "neutral", "valence": 0.1}
DEEP = "[" * 100_000


def write_log(path, *lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


@pytest.mark.parametrize("probs", ([1], [1, "a", 0, 0, 0, 0], [True] * 6))
def test_report_shows_unknown_state_for_bad_probabilities(tmp_path, capsys, probs):
    path = write_log(tmp_path / "log.jsonl", json.dumps({**RECORD, "emotion_probs": probs}))
    assert main(["report", "--log", str(path)]) == 0
    out = capsys.readouterr().out
    assert "subject p01: 1 events, 0 alerts" in out
    assert "  t=5 state=? valence=+0.10 expression=neutral" in out


def test_report_names_the_dominant_state_of_six_numbers(tmp_path, capsys):
    probs = [0.1, 0.5, 0.1, 0.1, 0.1, 0.1]
    path = write_log(tmp_path / "log.jsonl", json.dumps({**RECORD, "emotion_probs": probs}))
    assert main(["report", "--log", str(path)]) == 0
    assert "state=happiness" in capsys.readouterr().out


def append_one(path, timestamp):
    event = PerceptionEvent(timestamp=timestamp, subject_id="p02",
                            emotion_probs=(0.2, 0.2, 0.15, 0.15, 0.15, 0.15),
                            sound_norm=0.5, head_angle_deg=10.0)
    with EventLog(path) as log:
        position = log.append(event, Engine.default().decide(event))
    return position


@pytest.mark.parametrize("line", ("[1]", "7", '"text"', "null", DEEP),
                         ids=("list", "number", "string", "null", "deep"))
def test_open_skips_a_line_that_is_not_a_record(tmp_path, line):
    path = write_log(tmp_path / "log.jsonl", json.dumps(RECORD), line)
    assert append_one(path, 10.0) == 3
    records, diagnostics = log_read(path)
    assert [(r["subject_id"], r["timestamp"]) for r in records] == [("p01", 5.0), ("p02", 10.0)]
    assert [(d.line, d.code) for d in diagnostics] == [(2, "corrupt")]


def test_open_keeps_the_last_timestamp_of_the_records(tmp_path):
    path = write_log(tmp_path / "log.jsonl", json.dumps(RECORD), "[1]")
    with pytest.raises(ValidationError, match="non-decreasing"):
        append_one(path, 1.0)


def test_read_reports_deep_nesting_as_a_positioned_corrupt_line(tmp_path):
    path = write_log(tmp_path / "log.jsonl", json.dumps(RECORD), DEEP, json.dumps(RECORD))
    records, diagnostics = log_read(path)
    assert len(records) == 2
    assert [(d.line, d.column, d.code) for d in diagnostics] == [(2, 1, "corrupt")]
    assert diagnostics[0].message.startswith("invalid JSON")


def test_report_survives_deep_nesting(tmp_path, capsys):
    path = write_log(tmp_path / "log.jsonl", DEEP, json.dumps(RECORD))
    assert main(["report", "--log", str(path)]) == 0
    captured = capsys.readouterr()
    assert "line 1, col 1: corrupt: invalid JSON" in captured.err
    assert "subject p01: 1 events, 0 alerts" in captured.out
