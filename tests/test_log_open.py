"""Opening a decision log reads only its end.

``EventLog`` counts the log's lines in one pass that parses none of them, and
parses lines back from the end only until it meets a record. The property
below holds it to the full parse it replaced, kept here as ``full_parse``:
the same count, the same last timestamp (seen through which appends are
accepted) and the same bytes after one append, for any mix of lines and any
block size. ``full_parse`` takes a line for a record exactly when the README
does: after ``str.strip()``, a JSON object with a finite float ``timestamp``
and a string ``subject_id``. A boolean is not a timestamp, in either reader.
"""

import json
import math
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carebot import behavior
from carebot.behavior import (Engine, EventLog, decision_record, log_read,
                              serialize_record)
from carebot.cli import main
from carebot.errors import ValidationError, is_number
from carebot.perception import PerceptionEvent

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)

EVENT = PerceptionEvent(timestamp=0.0, subject_id="p09",
                        emotion_probs=(0.2, 0.2, 0.15, 0.15, 0.15, 0.15),
                        sound_norm=0.5, head_angle_deg=10.0)
DECISION = Engine.default().decide(EVENT)
BOOLEAN_LINE = '{"timestamp": true, "subject_id": "a"}'


def full_parse(path):
    """Count, last record timestamp and tornness, parsing every line in order."""
    count, last, line = 0, None, "\n"
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        for line in handle:
            if not line.strip():
                continue
            count += 1
            try:
                obj = json.loads(line.strip())
            except (ValueError, RecursionError):
                continue
            ts = obj.get("timestamp") if isinstance(obj, dict) else None
            try:
                finite = is_number(ts) and math.isfinite(ts)
            except OverflowError:  # an integer beyond the float range
                finite = False
            if finite and isinstance(obj.get("subject_id"), str):
                last = ts
    return count, last, not line.endswith("\n")


def probes(last):
    """Append timestamps, each with whether a log whose last record is at
    ``last`` accepts it; together they pin ``last`` down exactly."""
    if last is None:
        return [(-sys.float_info.max, True)]
    return [(last, True), (math.nextafter(float(last), -math.inf), False)]


def dumps(obj) -> bytes:
    return json.dumps(obj).encode()


def record(ts, pad=""):
    return dumps({"timestamp": ts, "subject_id": "p01", "pad": pad})


timestamps = (st.integers(-10 ** 12, 10 ** 12)
              | st.floats(allow_nan=False, allow_infinity=False))
records = st.builds(record, timestamps, st.text(max_size=4))
long_records = st.builds(record, timestamps, st.text(min_size=64, max_size=400))
non_numeric_timestamps = st.builds(
    lambda ts: dumps({"timestamp": ts, "subject_id": "a"}),
    st.booleans() | st.text(max_size=3) | st.none() | st.lists(st.integers(), max_size=2))
# A timestamp that makes no record: no subject_id, or one that is not a string.
subjectless = st.builds(
    lambda ts, subject: dumps({"timestamp": ts, **subject}), timestamps,
    st.sampled_from([{}, {"subject_id": 7}, {"subject_id": None}, {"subject_id": True},
                     {"subject_id": ["p01"]}]))
# str.strip() whitespace that is not JSON whitespace, before a record.
prefixed = st.builds(lambda prefix, line: prefix + line,
                     st.sampled_from(["\u00a0".encode(), b"\x0b", b"\x1c"]), records)
non_objects = st.sampled_from([b"[1]", b"7", b'"text"', b"null", b"true",
                               b'[{"timestamp": 3, "subject_id": "a"}]'])
blanks = st.sampled_from([b"", b" ", b"\t  ", "\u00a0".encode(), "\u2028".encode(),
                          b"\x0b", b"\x1c"])
corrupt = st.binary(max_size=12) | st.builds(lambda r, k: r[:k], records, st.integers(0, 30))
# Invalid UTF-8 inside a string still decodes, with replacement characters,
# to a record; outside one it makes the line corrupt.
bad_utf8 = st.builds(
    lambda ts, junk, inside: (b'{"timestamp": %d, "subject_id": "%s"}' % (ts, junk) if inside
                              else b'{"timestamp": %d, %s"subject_id": "a"}' % (ts, junk)),
    st.integers(0, 10 ** 6), st.sampled_from([b"\xff", b"\xe2\x82", b"\xc3", b"\x80\x80"]),
    st.booleans())
deep = st.sampled_from([b"[" * 5000,
                        b'{"timestamp": 4, "d": ' + b"[" * 5000 + b"]" * 5000 + b"}",
                        b'{"timestamp": 5, "d": [[[[[[1]]]]]], "subject_id": "a"}'])
contents = (records | long_records | non_numeric_timestamps | subjectless | prefixed
            | non_objects | blanks | corrupt | bad_utf8 | deep)
breaks = st.sampled_from([b"\n", b"\r\n", b"\r"])


@st.composite
def logs(draw):
    """Any mix of lines, each with its own line break, and maybe a torn last line."""
    lines = draw(st.lists(st.tuples(contents, breaks), max_size=10))
    torn = draw(st.none() | contents)
    return b"".join(content + brk for content, brk in lines) + (torn or b"")


block_sizes = st.sampled_from([1, 2, 3, 7, 64, behavior.TAIL_BLOCK_BYTES]) | st.integers(1, 300)

TWO_RECORDS = record(1.5) + b"\n" + record(2.5) + b"\n"


@PROPERTY
@given(data=logs(), block=block_sizes)
@example(data=b"", block=behavior.TAIL_BLOCK_BYTES)
@example(data=TWO_RECORDS, block=behavior.TAIL_BLOCK_BYTES)
# A record longer than the block, then one straddling a block boundary.
@example(data=record(7, "x" * 20_000) + b"\r\n" + record(3, "y" * 5000) + b"\n",
         block=behavior.TAIL_BLOCK_BYTES)
@example(data=TWO_RECORDS, block=len(record(2.5)) - 4)
# A "\r\n" cut by the block boundary, and a torn record after the last break.
@example(data=record(8) + b"\r\n" + record(9)[:-1], block=len(record(9)))
@example(data=record(3) + b"\n" + BOOLEAN_LINE.encode() + b"\n\n   \r", block=5)
@example(data=record(1) + b"\n" + b'{"timestamp": 9.0}\n', block=behavior.TAIL_BLOCK_BYTES)
@example(data=record(5) + b"\n\xc2\xa0" + record(2) + b"\n", block=behavior.TAIL_BLOCK_BYTES)
def test_open_matches_a_full_parse(data, block):
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setattr(behavior, "TAIL_BLOCK_BYTES", block)
        path = Path(tmp) / "log.jsonl"
        path.write_bytes(data)
        count, last, torn = full_parse(path)
        for ts, accepted in probes(last):
            path.write_bytes(data)
            decision = replace(DECISION, timestamp=ts)
            with EventLog(path) as log:
                assert len(log) == count
                if accepted:
                    assert log.append(EVENT, decision) == count + 1
                else:
                    with pytest.raises(ValidationError, match="non-decreasing"):
                        log.append(EVENT, decision)
            appended = serialize_record(decision_record(EVENT, decision)) + "\n"
            assert path.read_bytes() == (data + (b"\n" if torn else b"")
                                         + (appended.encode() if accepted else b""))


def test_open_parses_only_the_tail(tmp_path, monkeypatch):
    path = tmp_path / "log.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for n in range(5000):
            handle.write(record(float(n), "x" * 600).decode() + "\n")
    loads = json.loads
    parsed = []
    monkeypatch.setattr(json, "loads", lambda text, **kw: parsed.append(text) or loads(text, **kw))
    with EventLog(path) as log:
        assert len(log) == 5000
    assert len(parsed) <= 3


def append_at(path, timestamp):
    with EventLog(path) as log:
        return log.append(EVENT, replace(DECISION, timestamp=timestamp))


def test_open_skips_a_boolean_timestamp(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text(BOOLEAN_LINE + "\n", encoding="utf-8")
    assert append_at(path, 0.5) == 2


def test_open_keeps_the_record_before_a_boolean_timestamp(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text(record(3.0).decode() + "\n" + BOOLEAN_LINE + "\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="0.5 after 3.0"):
        append_at(path, 0.5)


def test_read_reports_a_boolean_timestamp_as_corrupt(tmp_path, capsys):
    path = tmp_path / "log.jsonl"
    path.write_text(BOOLEAN_LINE + "\n" + record(3.0).decode() + "\n", encoding="utf-8")
    records, diagnostics = log_read(path)
    assert [r["subject_id"] for r in records] == ["p01"]
    assert [(d.line, d.code) for d in diagnostics] == [(1, "corrupt")]
    assert main(["report", "--log", str(path)]) == 0
    captured = capsys.readouterr()
    assert "line 1, col 1: corrupt: record lacks timestamp/subject_id" in captured.err
    assert "subject a" not in captured.out
    assert "t=1 " not in captured.out
