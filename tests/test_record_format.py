"""One definition of a log record and one JSON-lines line decoder.

Reopening a log and ``report`` agree on which lines are records: after
``str.strip()``, a JSON object with a finite float ``timestamp`` and a string
``subject_id``. Traces and logs both end a line only at ``\\n``, ``\\r\\n`` or
``\\r``, so a string may hold any other line separator.
"""

import json

import pytest

from carebot.behavior import EventLog, log_read
from carebot.cli import main
from carebot.errors import TraceError
from carebot.perception import load_trace

HEADER = {"schema_version": 1, "subjects": ["p01"]}


def event_at(timestamp, **extra):
    return {"timestamp": timestamp, "subject_id": "p01",
            "emotion_probs": [0.1, 0.5, 0.1, 0.1, 0.1, 0.1],
            "sound_norm": 0.4, "head_angle_deg": 5.0, **extra}


def write_trace(path, *events):
    path.write_text("".join(json.dumps(x) + "\n" for x in (HEADER, *events)),
                    encoding="utf-8")
    return path


def record_line(timestamp):
    return json.dumps({"timestamp": timestamp, "subject_id": "p01"})


def simulate(tmp_path, log, *timestamps):
    trace = write_trace(tmp_path / "trace.jsonl", *(event_at(t) for t in timestamps))
    return main(["simulate", "--trace", str(trace), "--log", str(log), "--deterministic"])


class TestSubjectlessLine:
    """A line with a timestamp but no subject_id is corrupt to both readers."""

    def test_reopen_skips_it(self, tmp_path):
        log = tmp_path / "log.jsonl"
        log.write_text(record_line(1.0) + '\n{"timestamp": 9.0}\n', encoding="utf-8")
        assert simulate(tmp_path, log, 2.0, 3.0) == 0
        with EventLog(log) as reopened:
            assert len(reopened) == 4

    def test_report_calls_it_corrupt(self, tmp_path, capsys):
        log = tmp_path / "log.jsonl"
        log.write_text('{"timestamp": 1e9}\n', encoding="utf-8")
        assert simulate(tmp_path, log, 2.0) == 0
        capsys.readouterr()
        assert main(["report", "--log", str(log)]) == 0
        err = capsys.readouterr().err
        assert "line 1, col 1: corrupt: record lacks timestamp/subject_id" in err

    @pytest.mark.parametrize("line", ['{"timestamp": 9.0, "subject_id": 7}',
                                      '{"timestamp": 9.0, "subject_id": null}'])
    def test_non_string_subject_is_skipped(self, tmp_path, line):
        log = tmp_path / "log.jsonl"
        log.write_text(record_line(1.0) + "\n" + line + "\n", encoding="utf-8")
        assert simulate(tmp_path, log, 2.0) == 0


@pytest.mark.parametrize("prefix", ["\u00a0", "\x0b", "\x1c", "\u2028"],
                         ids=["nbsp", "vt", "fs", "ls"])
class TestWhitespacePrefixedRecord:
    """``str.strip()`` whitespace before a record does not hide it from reopen."""

    def test_reopen_sees_it(self, tmp_path, capsys, prefix):
        log = tmp_path / "log.jsonl"
        log.write_text(record_line(1.0) + "\n" + prefix + record_line(5.0) + "\n",
                       encoding="utf-8")
        records, diagnostics = log_read(log)
        assert [r["timestamp"] for r in records] == [1.0, 5.0] and not diagnostics
        before = log.read_bytes()
        assert simulate(tmp_path, log, 2.0) == 3
        assert "non-decreasing, 2.0 after 5.0" in capsys.readouterr().err
        assert log.read_bytes() == before


class TestRawSeparatorInTraceString:
    """A trace line ends only at \\n, \\r\\n or \\r, never inside a string."""

    @pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85"],
                             ids=["ls", "ps", "nel"])
    def test_line_loads(self, tmp_path, separator):
        action = f"rest{separator}ing"
        path = tmp_path / "trace.jsonl"
        path.write_text("".join(json.dumps(x, ensure_ascii=False) + "\n" for x in
                                (HEADER, event_at(0.0, user_action=action), event_at(1.0))),
                        encoding="utf-8")
        trace = load_trace(path)
        assert [e.user_action for e in trace.events] == [action, None]
        assert main(["simulate", "--trace", str(path), "--deterministic"]) == 0

    @pytest.mark.parametrize("control", ["\x0c", "\x1c"], ids=["ff", "fs"])
    def test_control_character_is_one_positioned_line(self, tmp_path, control):
        # JSON forbids raw control characters in strings: the line is invalid,
        # but it stays one line, and the lines after it keep their numbers.
        path = tmp_path / "trace.jsonl"
        text = "".join(json.dumps(x) + "\n" for x in
                       (HEADER, event_at(0.0, user_action="rest@ing"),
                        event_at(1.0, sound_norm=2.0)))
        path.write_text(text.replace("@", control), encoding="utf-8")
        with pytest.raises(TraceError) as info:
            load_trace(path)
        assert [(d.line, d.code) for d in info.value.diagnostics] == [(2, "schema"),
                                                                      (3, "range")]
        assert "invalid JSON: Invalid control character" in str(info.value)
