"""``report`` counts and flags a record as an alert only when its
``actions`` is a list naming ``call_nurses``; any other ``actions`` value is
a record that does not alert, not a crash."""

import json

import pytest

from carebot.cli import main

RECORD = {"timestamp": 1.0, "subject_id": "a", "expression": "neutral", "valence": 0.0}


def report(tmp_path, capsys, actions):
    path = tmp_path / "log.jsonl"
    path.write_text(json.dumps({**RECORD, "actions": actions}) + "\n", encoding="utf-8")
    code = main(["report", "--log", str(path)])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("actions", (5, None, "call_nurses", {"call_nurses": 1}))
def test_actions_that_are_not_a_list_never_alert(tmp_path, capsys, actions):
    code, out = report(tmp_path, capsys, actions)
    assert code == 0
    assert "subject a: 1 events, 0 alerts" in out
    assert "ALERT" not in out


def test_a_list_naming_call_nurses_alerts(tmp_path, capsys):
    code, out = report(tmp_path, capsys, ["call_nurses", "no_action", "record_data"])
    assert code == 0
    assert "subject a: 1 events, 1 alerts" in out
    assert out.rstrip().endswith(" ALERT")


def test_valence_beyond_the_float_range_prints_a_question_mark(tmp_path, capsys):
    path = tmp_path / "log.jsonl"
    record = {**RECORD, "actions": ["record_data"]}
    path.write_text(json.dumps(record).replace('"valence": 0.0', '"valence": 1' + "0" * 400)
                    + "\n", encoding="utf-8")
    code = main(["report", "--log", str(path)])
    assert code == 0
    assert "valence=? " in capsys.readouterr().out
