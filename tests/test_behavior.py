"""End-to-end decision pipeline, arbitration invariants, and the event log."""

import json
import math
import random

import pytest

from carebot.behavior import (BehaviorDecision, Engine, EventLog,
                              decision_record, default_thresholds, log_read,
                              serialize_record)
from carebot.errors import ConfigError, ValidationError
from carebot.fuzzy import default_input_variables
from carebot.inference import ACTION_CHANNELS
from carebot.perception import PerceptionEvent
from carebot.rules import parse_rulebase

import oracles


def make_event(timestamp=0.0, probs=(0.2, 0.2, 0.15, 0.15, 0.15, 0.15),
               sound=0.5, head=10.0, subject="p01"):
    return PerceptionEvent(timestamp=timestamp, subject_id=subject,
                           emotion_probs=probs, sound_norm=sound,
                           head_angle_deg=head)


@pytest.fixture(scope="module")
def engine():
    return Engine.default()


class TestReferenceScenarios:
    def test_distressed_subject_triggers_alert(self, engine):
        event = make_event(probs=(0.9, 0.02, 0.02, 0.02, 0.02, 0.02),
                           sound=0.5, head=0.0)
        decision = engine.decide(event)
        assert set(decision.actions) == {"no_action", "call_nurses", "record_data"}
        assert decision.expression == "neutral"
        assert decision.alerting

    def test_balanced_subject_only_records(self, engine):
        event = make_event(probs=(0.1, 0.5, 0.1, 0.1, 0.1, 0.1),
                           sound=0.4, head=5.0)
        decision = engine.decide(event)
        assert decision.actions == ("record_data",)
        assert decision.expression == "neutral"
        assert not decision.alerting

    def test_joyful_subject_smiles(self, engine):
        event = make_event(probs=(0.01, 0.95, 0.01, 0.01, 0.01, 0.01),
                           sound=0.3, head=5.0)
        decision = engine.decide(event)
        assert decision.actions == ("record_data",)
        assert decision.expression == "smile"


class TestDecisionInvariants:
    def test_random_events_satisfy_contract(self, engine):
        rng = random.Random(301)
        for i in range(300):
            event = PerceptionEvent(**oracles.random_event_fields(rng, timestamp=float(i)))
            decision = engine.decide(event)
            assert "record_data" in decision.actions
            assert ("no_action" in decision.actions) == ("call_nurses" in decision.actions)
            assert decision.expression in ("neutral", "smile")
            if decision.expression == "smile":
                assert not decision.alerting
            assert set(decision.c_o) == set(ACTION_CHANNELS)
            for value in decision.c_o.values():
                assert 0.0 <= value <= 1.0
            assert set(decision.degenerate_flags) == set(ACTION_CHANNELS)
            ids = [rid for rid, _ in decision.fired_rules]
            assert ids == sorted(ids)
            assert all(0.0 < s <= 1.0 for _, s in decision.fired_rules)
            assert decision.clamped_inputs == ()

    def test_matches_independent_pipeline(self, engine):
        rng = random.Random(302)
        checked_actions = 0
        for i in range(200):
            fields = oracles.random_event_fields(rng, timestamp=float(i))
            event = PerceptionEvent(**fields)
            decision = engine.decide(event)
            actions, expression, c_o = oracles.naive_decide(
                tuple(fields["emotion_probs"]), fields["sound_norm"],
                fields["head_angle_deg"])
            for channel in ACTION_CHANNELS:
                assert decision.c_o[channel] == pytest.approx(c_o[channel], abs=5e-3)
            # near a threshold the two samplers may legitimately disagree
            if all(abs(c_o[ch] - 0.5) >= 0.01 for ch in ACTION_CHANNELS):
                assert set(decision.actions) == actions
                assert decision.expression == expression
                checked_actions += 1
        assert checked_actions > 100

    def test_no_evidence_channel_reads_as_zero(self, engine):
        # strongly negative valence: the smile rule cannot fire at all
        event = make_event(probs=(0.9, 0.02, 0.02, 0.02, 0.02, 0.02),
                           sound=0.5, head=0.0)
        decision = engine.decide(event)
        assert decision.degenerate_flags["smile"]
        assert decision.c_o["smile"] == 0.0

    def test_fired_rules_reported_by_id(self, engine):
        event = make_event(probs=(0.9, 0.02, 0.02, 0.02, 0.02, 0.02),
                           sound=0.5, head=0.0)
        fired = dict(engine.decide(event).fired_rules)
        assert 1 in fired  # distress rule dominates
        assert fired[1] > 0.8
        assert 3 not in fired


class TestThresholdSweep:
    def test_lower_alert_threshold_alerts_more(self):
        rng = random.Random(303)
        strict = Engine.default(thresholds={"call_nurses": 0.9,
                                            "record_data": 0.5, "smile": 0.5})
        lax = Engine.default(thresholds={"call_nurses": 0.1,
                                         "record_data": 0.5, "smile": 0.5})
        strict_alerts = lax_alerts = 0
        for i in range(100):
            event = PerceptionEvent(**oracles.random_event_fields(rng, timestamp=float(i)))
            strict_alerts += strict.decide(event).alerting
            lax_alerts += lax.decide(event).alerting
        assert lax_alerts > strict_alerts


    @pytest.mark.parametrize("channel, probs", [
        ("smile", (0.01, 0.95, 0.01, 0.01, 0.01, 0.01)),
        ("call_nurses", (0.9, 0.02, 0.02, 0.02, 0.02, 0.02)),
    ])
    def test_a_channel_exactly_at_its_threshold_acts(self, engine, channel, probs):
        event = make_event(probs=probs, sound=0.5, head=5.0)
        value = engine.decide(event).c_o[channel]
        assert 0.0 < value < 1.0

        def acts(threshold):
            thresholds = dict(engine.thresholds, **{channel: threshold})
            decision = Engine.default(thresholds=thresholds).decide(event)
            return decision.alerting if channel == "call_nurses" \
                else decision.expression == "smile"

        assert acts(value)
        assert not acts(math.nextafter(value, 1.0))

class TestDecisionModel:
    def test_record_data_mandatory(self):
        with pytest.raises(ValidationError):
            BehaviorDecision(timestamp=0.0, subject_id="s",
                             actions=("call_nurses", "no_action"),
                             expression="neutral", fired_rules=(),
                             c_o={}, degenerate_flags={})

    def test_no_action_requires_call(self):
        with pytest.raises(ValidationError):
            BehaviorDecision(timestamp=0.0, subject_id="s",
                             actions=("no_action", "record_data"),
                             expression="neutral", fired_rules=(),
                             c_o={}, degenerate_flags={})

    def test_smile_never_with_alert(self):
        with pytest.raises(ValidationError):
            BehaviorDecision(timestamp=0.0, subject_id="s",
                             actions=("no_action", "call_nurses", "record_data"),
                             expression="smile", fired_rules=(),
                             c_o={}, degenerate_flags={})

    def test_unknown_expression_rejected(self):
        with pytest.raises(ValidationError):
            BehaviorDecision(timestamp=0.0, subject_id="s",
                             actions=("record_data",), expression="frown",
                             fired_rules=(), c_o={}, degenerate_flags={})


class TestEngineValidation:
    def test_incomplete_thresholds(self):
        with pytest.raises(ConfigError):
            Engine.default(thresholds={"call_nurses": 0.5})

    def test_threshold_bounds_exclusive(self):
        for bad in (0.0, 1.0, -0.2, float("nan")):
            thresholds = default_thresholds()
            thresholds["smile"] = bad
            with pytest.raises(ConfigError):
                Engine.default(thresholds=thresholds)

    def test_resolution_too_small(self):
        with pytest.raises(ConfigError):
            Engine.default(resolution=1)

    def test_rule_variable_without_definition(self):
        rb = parse_rulebase(
            "VAR pulse: low, normal, high\n"
            "RULE 1: IF pulse IS high THEN no_action, call_nurses, record_data\n")
        with pytest.raises(ConfigError, match="pulse"):
            Engine(rulebase=rb, input_variables=default_input_variables())


class TestEventLog:
    def decide_pair(self, engine, timestamp):
        event = make_event(timestamp=timestamp)
        return event, engine.decide(event)

    def test_append_and_read_back(self, engine, tmp_path):
        path = tmp_path / "log.jsonl"
        with EventLog(path) as log:
            for ts in (0.0, 10.0, 20.0):
                event, decision = self.decide_pair(engine, ts)
                log.append(event, decision)
        records, diags = log_read(path)
        assert diags == []
        assert [r["timestamp"] for r in records] == [0.0, 10.0, 20.0]
        event, decision = self.decide_pair(engine, 0.0)
        assert records[0] == json.loads(serialize_record(decision_record(event, decision)))

    def test_positions_are_one_based(self, engine, tmp_path):
        with EventLog(tmp_path / "log.jsonl") as log:
            event, decision = self.decide_pair(engine, 0.0)
            assert log.append(event, decision) == 1
            event, decision = self.decide_pair(engine, 1.0)
            assert log.append(event, decision) == 2
            assert len(log) == 2

    def test_reopen_appends_never_truncates(self, engine, tmp_path):
        path = tmp_path / "log.jsonl"
        with EventLog(path) as log:
            event, decision = self.decide_pair(engine, 0.0)
            log.append(event, decision)
            event, decision = self.decide_pair(engine, 10.0)
            log.append(event, decision)
        with EventLog(path) as log:
            assert len(log) == 2
            event, decision = self.decide_pair(engine, 20.0)
            assert log.append(event, decision) == 3
        records, _ = log_read(path)
        assert [r["timestamp"] for r in records] == [0.0, 10.0, 20.0]

    def test_monotonicity_enforced_across_reopen(self, engine, tmp_path):
        path = tmp_path / "log.jsonl"
        with EventLog(path) as log:
            event, decision = self.decide_pair(engine, 100.0)
            log.append(event, decision)
        with EventLog(path) as log:
            event, decision = self.decide_pair(engine, 50.0)
            with pytest.raises(ValidationError, match="non-decreasing"):
                log.append(event, decision)

    def test_append_after_close_rejected(self, engine, tmp_path):
        log = EventLog(tmp_path / "log.jsonl")
        log.close()
        event, decision = self.decide_pair(engine, 0.0)
        with pytest.raises(ValidationError):
            log.append(event, decision)

    def test_read_filters(self, engine, tmp_path):
        path = tmp_path / "log.jsonl"
        with EventLog(path) as log:
            for ts, subject in ((0.0, "a"), (10.0, "b"), (20.0, "a"), (30.0, "b")):
                event = make_event(timestamp=ts, subject=subject)
                log.append(event, engine.decide(event))
        records, _ = log_read(path, start=10.0, end=20.0)
        assert [r["timestamp"] for r in records] == [10.0, 20.0]
        records, _ = log_read(path, subject="a")
        assert [r["timestamp"] for r in records] == [0.0, 20.0]
        records, _ = log_read(path, start=15.0, subject="b")
        assert [r["timestamp"] for r in records] == [30.0]

    def test_corrupt_lines_reported_not_fatal(self, engine, tmp_path):
        path = tmp_path / "log.jsonl"
        with EventLog(path) as log:
            event, decision = self.decide_pair(engine, 0.0)
            log.append(event, decision)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("{mangled\n")
            handle.write(json.dumps({"note": "no timestamp"}) + "\n")
        with EventLog(path) as log:
            event, decision = self.decide_pair(engine, 10.0)
            log.append(event, decision)
        records, diags = log_read(path)
        assert [r["timestamp"] for r in records] == [0.0, 10.0]
        assert [d.line for d in diags] == [2, 3]
        assert all(d.code == "corrupt" for d in diags)


class TestSerialization:
    def test_key_order_independent(self):
        record = {"b": 1, "a": {"y": 2, "x": 3}}
        shuffled = {"a": {"x": 3, "y": 2}, "b": 1}
        assert serialize_record(record) == serialize_record(shuffled)

    def test_repeat_decide_is_stable(self, engine):
        event = make_event(probs=(0.3, 0.4, 0.1, 0.1, 0.05, 0.05))
        first = serialize_record(decision_record(event, engine.decide(event)))
        second = serialize_record(decision_record(event, engine.decide(event)))
        assert first == second
