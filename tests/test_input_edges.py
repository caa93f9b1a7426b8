"""Inputs at the edges of the contracts.

Booleans and NaN where numbers belong, integers too large for a float,
probability sums at the edge of their tolerance, and a decision log whose
last line a cut-short write left torn.
"""

import json

import pytest

from carebot.behavior import Engine, EventLog, log_read
from carebot.config import load_config
from carebot.errors import ConfigError, TraceError
from carebot.fuzzy import valence_score
from carebot.perception import PerceptionEvent, load_trace

HEADER = json.dumps({"schema_version": 1})
EVENT = {
    "timestamp": 0.0,
    "subject_id": "p01",
    "emotion_probs": [0.2, 0.2, 0.15, 0.15, 0.15, 0.15],
    "sound_norm": 0.5,
    "head_angle_deg": 10.0,
}

# Each sums to 1 within PROB_SUM_TOL, but its valence lands just past +/-1.
EDGE_PROBS = ((0.0, 1.0000005, 0.0, 0.0, 0.0, 0.0),
              (0.5000004, 0.0, 0.5000004, 0.0, 0.0, 0.0))


def trace_error(tmp_path, *lines):
    path = tmp_path / "t.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(TraceError) as info:
        load_trace(path)
    return info.value.diagnostics


def event_text(**overrides):
    return json.dumps({**EVENT, **overrides})


class TestTraceNumbers:
    def test_nan_probability_is_a_range_diagnostic(self, tmp_path):
        probs = [float("nan"), 1.0, 0.0, 0.0, 0.0, 0.0]
        [diag] = trace_error(tmp_path, HEADER, event_text(emotion_probs=probs))
        assert (diag.line, diag.code) == (2, "range")
        assert "NaN" in diag.message

    @pytest.mark.parametrize("field, value", [
        ("timestamp", True),
        ("sound_norm", True),
        ("head_angle_deg", False),
        ("emotion_probs", [False, True, False, False, False, False]),
    ])
    def test_boolean_is_a_schema_diagnostic(self, tmp_path, field, value):
        [diag] = trace_error(tmp_path, HEADER, event_text(**{field: value}))
        assert (diag.line, diag.code) == (2, "schema")
        assert field in diag.message

    def test_null_probabilities_is_a_schema_diagnostic(self, tmp_path):
        [diag] = trace_error(tmp_path, HEADER, event_text(emotion_probs=None))
        assert (diag.line, diag.code) == (2, "schema")

    def test_boolean_schema_version_rejected(self, tmp_path):
        diags = trace_error(tmp_path, json.dumps({"schema_version": True}), event_text())
        assert [(d.line, d.code) for d in diags] == [(1, "schema")]

    @pytest.mark.parametrize("field, value", [
        ("timestamp", 10 ** 400),
        ("emotion_probs", [10 ** 400, 0, 0, 0, 0, 0]),
    ], ids=["timestamp", "emotion_probs"])
    def test_integer_beyond_float_is_a_range_diagnostic(self, tmp_path, field, value):
        [diag] = trace_error(tmp_path, HEADER, event_text(**{field: value}))
        assert (diag.line, diag.code) == (2, "range")

    @pytest.mark.parametrize("line", [
        '{"timestamp": ' + "1" * 5000 + "}",
        "[" * 100_000 + "]" * 100_000,
    ], ids=["long-integer", "deep-nesting"])
    def test_undecodable_json_is_a_schema_diagnostic(self, tmp_path, line):
        diags = trace_error(tmp_path, HEADER, line)
        assert {(d.line, d.code) for d in diags} == {(2, "schema")}


SOUND_VARIABLE = """\
variables:
  sound:
    universe: {universe}
    terms:
      low: {{shape: trapezoid, params: {low}}}
      normal: {{shape: triangle, params: [0.1, 0.5, 0.9]}}
      high: {{shape: trapezoid, params: [0.5, 0.9, 1, 1]}}
"""


class TestConfigNumbers:
    @pytest.mark.parametrize("text", [
        SOUND_VARIABLE.format(universe="[false, true]", low="[0, 0, 0.1, 0.5]"),
        SOUND_VARIABLE.format(universe="[0, 1]", low="[false, false, 0.1, 0.5]"),
        "weights: {ea: true, fkbs: false, p: false}\n",
        "weights: {ea: abc, fkbs: 0.5, p: 0.25}\n",
    ], ids=["bool-universe", "bool-params", "bool-weights", "string-weight"])
    def test_non_numbers_rejected(self, tmp_path, text):
        path = tmp_path / "c.yaml"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match="must be"):
            load_config(path)

    def test_numeric_universe_still_loads(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text(SOUND_VARIABLE.format(universe="[0, 1]", low="[0, 0, 0.1, 0.5]"),
                        encoding="utf-8")
        assert load_config(path).variables["sound"].universe == (0.0, 1.0)


class TestValenceAtTolerance:
    def test_valence_clamped_to_unit_range(self):
        assert [valence_score(p) for p in EDGE_PROBS] == [1.0, -1.0]

    @pytest.mark.parametrize("probs", EDGE_PROBS)
    def test_edge_event_decides(self, probs):
        event = PerceptionEvent(timestamp=0.0, subject_id="p01", emotion_probs=probs,
                                sound_norm=0.5, head_angle_deg=10.0)
        decision = Engine.default().decide(event)
        assert decision.valence == valence_score(probs)


class TestTornLog:
    def test_append_after_every_cut_of_the_last_record(self, tmp_path):
        engine = Engine.default()
        events = [PerceptionEvent(timestamp=float(t), subject_id="p01",
                                  emotion_probs=EVENT["emotion_probs"],
                                  sound_norm=0.5, head_angle_deg=10.0)
                  for t in range(4)]
        path = tmp_path / "log.jsonl"
        with EventLog(path) as log:
            for event in events[:3]:
                log.append(event, engine.decide(event))
        whole = path.read_bytes()
        last_start = whole.rindex(b"\n", 0, len(whole) - 1) + 1
        new_event = events[3]
        new_decision = engine.decide(new_event)

        for cut in range(last_start, len(whole)):
            prefix = whole[:cut]
            path.write_bytes(prefix)
            with EventLog(path) as log:
                log.append(new_event, new_decision)
            data = path.read_bytes()
            assert data.startswith(prefix), f"cut {cut}: log was truncated"
            added = 1 if prefix.endswith(b"\n") else 2  # a torn line gets its newline
            assert data.count(b"\n") == prefix.count(b"\n") + added
            records, _ = log_read(path)
            stamps = [r["timestamp"] for r in records]
            assert stamps[:2] == [0.0, 1.0] and stamps[-1] == 3.0, f"cut {cut}: {stamps}"
