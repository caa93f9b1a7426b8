"""Command-line input files that are not what they should be, and subject ids
that are not plain text.

A rule file or a fixture with a byte that is not UTF-8, or a fixture value
that is not a number, is bad input data: exit 3 with a diagnostic, never a
traceback. A subject id is printed JSON-quoted unless it is plain printable
text, so no id can add a line to ``report`` or ``simulate`` output.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carebot.cli import main, shown_id
from carebot.rules import DEFAULT_RULES_TEXT, MAX_CONDITION_DEPTH

FIXTURE = ("# claimed_overall: 58.3\n"
           "label\tanger\thappiness\n"
           "anger\t80.0\t20.0\n"
           "happiness\t10.0\t90.0\n")


def run(capsys, *argv):
    code = main([str(arg) for arg in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(path: Path, data: bytes) -> Path:
    path.write_bytes(data)
    return path


class TestRuleFileBytes:
    def bad_rules(self, tmp_path):
        data = DEFAULT_RULES_TEXT.encode().replace(b"VAR sound", b"VAR s\xe9und")
        return write(tmp_path / "bad.fkb", data)

    def test_check_reports_the_byte_with_its_position(self, capsys, tmp_path):
        path = self.bad_rules(tmp_path)
        code, out, err = run(capsys, "check", "--rules", path)
        assert code == 3
        assert out == ""
        assert err == f"{path}:line 6, col 6: encoding: invalid UTF-8 byte 0xe9\n"

    def test_simulate_reports_it_as_a_data_error(self, capsys, tmp_path, nine_rules_trace_path):
        path = self.bad_rules(tmp_path)
        code, _, err = run(capsys, "simulate", "--trace", nine_rules_trace_path,
                           "--rules", path, "--deterministic")
        assert code == 3
        assert f"{path}:line 6, col 6: encoding:" in err
        assert "Traceback" not in err

    def test_a_bad_byte_in_a_comment_counts_too(self, capsys, tmp_path):
        path = write(tmp_path / "c.fkb", b"# caf\xe9\r\n" + DEFAULT_RULES_TEXT.encode())
        code, _, err = run(capsys, "check", "--rules", path)
        assert code == 3
        assert err == f"{path}:line 1, col 6: encoding: invalid UTF-8 byte 0xe9\n"

    def test_line_ends_count_as_text_mode_reads_them(self, capsys, tmp_path):
        text = DEFAULT_RULES_TEXT.replace("\n", "\r\n", 5).replace("\n", "\r", 2)
        path = write(tmp_path / "ends.fkb", text.encode())
        code, out, _ = run(capsys, "check", "--rules", path)
        assert code == 0
        _, reference, _ = run(capsys, "check", "--rules",
                              write(tmp_path / "lf.fkb", DEFAULT_RULES_TEXT.encode()))
        assert out == reference


class TestDeepConditions:
    @pytest.mark.parametrize("condition", [
        " AND ".join(["sound IS low"] * 1200),
        "(" * 1200 + "sound IS low" + ")" * 1200,
    ], ids=["chain", "parens"])
    def test_are_a_positioned_data_error(self, capsys, tmp_path, nine_rules_trace_path,
                                         condition):
        path = write(tmp_path / "deep.fkb",
                     f"VAR sound: low\nRULE 1: IF {condition} THEN record_data\n".encode())
        message = f"syntax: condition nested deeper than {MAX_CONDITION_DEPTH} levels\n"
        code, _, err = run(capsys, "check", "--rules", path)
        assert code == 3
        assert err.startswith(f"{path}:line 2, col ") and err.endswith(message)
        code, _, err = run(capsys, "simulate", "--trace", nine_rules_trace_path,
                           "--rules", path, "--deterministic")
        assert code == 3
        assert message in err
        assert "Traceback" not in err


class TestFixtureValues:
    @pytest.mark.parametrize("data, where", [
        (FIXTURE.encode().replace(b"anger\t80", b"ang\xe9r\t80"), ":line 3, col 4: encoding:"),
        (FIXTURE.replace("58.3", "abc").encode(), ":line 1: claimed_overall"),
        (FIXTURE.replace("58.3", "nan").encode(), ":line 1: claimed_overall"),
        (FIXTURE.replace("80.0", "abc").encode(), ": could not convert"),
        (FIXTURE.replace("80.0", "inf").encode(), "finite"),
        (FIXTURE.replace("80.0", "x" * 200_000).encode(), "field larger than field limit"),
    ], ids=["byte", "claimed_abc", "claimed_nan", "cell_abc", "cell_inf", "huge_cell"])
    def test_is_a_data_error(self, capsys, tmp_path, data, where):
        path = write(tmp_path / "fixture.tsv", data)
        code, out, err = run(capsys, "eval", "--fixture", path)
        assert code == 3
        assert out == ""
        assert err.startswith("data error: ")
        assert where in err
        assert "Traceback" not in err

    def test_a_valid_fixture_still_renders(self, capsys, tmp_path):
        code, out, _ = run(capsys, "eval", "--fixture", write(tmp_path / "f.tsv", FIXTURE.encode()))
        assert code == 0
        assert "Overall accuracy (mean of per-class): 85.0%" in out


class TestShownId:
    @pytest.mark.parametrize("subject_id", ["p01", "s-7.b", "Pat\xedent_3"])
    def test_plain_text_is_printed_as_is(self, subject_id):
        assert shown_id(subject_id) == subject_id

    @pytest.mark.parametrize("subject_id", [
        "p01\n  t=5 state=anger valence=-0.90 expression=neutral ALERT",
        "p 01", "", '"p01"', "p01\x1b[2J", "p01\u2028x", "p01\u202e10p", "p01\t",
    ])
    def test_anything_else_is_json_quoted(self, subject_id):
        shown = shown_id(subject_id)
        assert shown == json.dumps(subject_id)
        assert shown.isprintable() and shown.isascii()


ANGRY = [0.9, 0.02, 0.02, 0.02, 0.02, 0.02]
CALM = [0.1, 0.5, 0.1, 0.1, 0.1, 0.1]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.text(min_size=1, max_size=12), st.booleans()),
                min_size=1, max_size=6))
@example([("p01\n  t=5 state=anger valence=-0.90 expression=neutral ALERT", False)])
def test_each_record_prints_one_row_and_each_alert_one_alert_line(events):
    """Whatever the ids, ``simulate`` prints one ALERT line per alert and
    ``report`` one header line per subject and one row line per record."""
    with tempfile.TemporaryDirectory() as tmp:
        trace, log = Path(tmp) / "t.jsonl", Path(tmp) / "d.jsonl"
        lines = [json.dumps({"schema_version": 1})]
        for i, (subject_id, angry) in enumerate(events):
            lines.append(json.dumps({"timestamp": float(i), "subject_id": subject_id,
                                     "emotion_probs": ANGRY if angry else CALM,
                                     "sound_norm": 0.5, "head_angle_deg": 10.0}))
        trace.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["simulate", "--trace", str(trace), "--log", str(log),
                         "--deterministic"]) == 0
        alerts = sum(angry for _, angry in events)
        printed = out.getvalue().split("\n")
        assert sum(line.startswith("ALERT ") for line in printed) == alerts
        assert f"alerts: {alerts}" in printed

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["report", "--log", str(log)]) == 0
        printed = out.getvalue().split("\n")
        assert printed.pop() == ""
        headers = [line for line in printed if line.startswith("subject ")]
        rows = [line for line in printed if line.startswith("  t=")]
        assert len(headers) == len({subject_id for subject_id, _ in events})
        assert len(rows) == len(events)
        assert len(headers) + len(rows) == len(printed)
        assert sum(row.endswith(" ALERT") for row in rows) == alerts
