"""The compiled rule kernel against the stage-by-stage pipeline, and the
checks an engine now makes when it is built.

``reference_decide`` assembles a decision from the public stage functions
(``fuzzify``, ``fire_rules``, ``aggregate``, ``defuzzify_wcog``, the
appraisal routes and arbitration) one call at a time. ``Engine.decide`` runs
the same arithmetic from tables compiled at build, so the two must give
equal ``BehaviorDecision``s: every c_o value, fired-rule strength and flag
bit for bit, not within a tolerance.
"""

import dataclasses
import json
import random

import pytest

from carebot.appraisal import (ChannelActivations, ea_activations, fuse,
                               p_activations)
from carebot.behavior import BehaviorDecision, Engine, crisp_inputs
from carebot.cli import main
from carebot.errors import ConfigError
from carebot.fuzzy import (EMOTION_LABELS, LinguisticVariable,
                           default_input_variables, fuzzify,
                           three_term_variable)
from carebot.inference import (ACTION_CHANNELS, CHANNEL_OUTPUTS, aggregate,
                               default_output_variables, defuzzify_wcog,
                               fire_rules)
from carebot.perception import PerceptionEvent
from carebot.rules import ACTIONS, RuleBase, parse_rulebase

STOCK_EVENTS = 100_000
RANDOM_BASES = 250
EVENTS_PER_BASE = 40  # 10,000 events over the random bases

VOCABULARY = {
    "emotion": ("negative", "neutral", "positive"),
    "sound": ("low", "normal", "high"),
    "head_angle": ("normal", "low", "high"),
}


def reference_decide(engine: Engine, event: PerceptionEvent) -> BehaviorDecision:
    """One decision from the public stage functions, one stage at a time."""
    crisp = crisp_inputs(event)
    fuzzified = {}
    clamped = []
    for name, var in sorted(engine.input_variables.items()):
        fuzzified[name] = fuzzify(var, crisp[name])
        if fuzzified[name].clamped:
            clamped.append(name)

    firings = fire_rules(engine.rulebase, fuzzified)

    x_fkbs = {}
    degenerate = {}
    for channel in ACTION_CHANNELS:
        var = default_output_variables()[CHANNEL_OUTPUTS[channel]]
        out = defuzzify_wcog(aggregate(firings, engine.rulebase, var), var, engine.resolution)
        x_fkbs[channel] = 0.0 if out.degenerate else out.value
        degenerate[channel] = out.degenerate

    valence = crisp["emotion"]
    c_o = fuse(engine.weights, ChannelActivations(
        x_ea=ea_activations(valence, event.emotion_probs),
        x_fkbs=x_fkbs,
        x_p=p_activations(event, head_var=engine.input_variables.get("head_angle")),
    )).c_o

    chosen = {"record_data"}
    if c_o["call_nurses"] >= engine.thresholds["call_nurses"]:
        chosen |= {"call_nurses", "no_action"}
    if "call_nurses" not in chosen and c_o["smile"] >= engine.thresholds["smile"]:
        expression = "smile"
    else:
        expression = "neutral"
    return BehaviorDecision(
        timestamp=event.timestamp,
        subject_id=event.subject_id,
        actions=tuple(a for a in ACTIONS if a in chosen),
        expression=expression,
        fired_rules=tuple((f.rule_id, f.strength) for f in firings if f.strength > 0.0),
        c_o=c_o,
        degenerate_flags=degenerate,
        clamped_inputs=tuple(clamped),
        valence=valence,
    )


def dominant_event(rng: random.Random, timestamp: float) -> PerceptionEvent:
    """One class dominates with probability in [1/6, 1]; the rest share what
    is left. With happiness dominant or not, valence spans [-1, 1]. Sound and
    head angle sometimes sit exactly on a breakpoint of the stock terms."""
    dominant = rng.randrange(len(EMOTION_LABELS))
    top = 1.0 if rng.random() < 0.02 else rng.uniform(1.0 / 6.0, 1.0)
    rest = [rng.random() for _ in range(len(EMOTION_LABELS) - 1)]
    scale = (1.0 - top) / sum(rest)
    probs = [p * scale for p in rest]
    probs.insert(dominant, top)
    sound = rng.choice((0.0, 0.1, 0.5, 0.9, 1.0)) if rng.random() < 0.05 else rng.random()
    head = rng.choice((0.0, 25.0, 45.0, 90.0)) if rng.random() < 0.05 \
        else rng.uniform(0.0, 90.0)
    return PerceptionEvent(timestamp=timestamp, subject_id="p", emotion_probs=tuple(probs),
                           sound_norm=sound, head_angle_deg=head)


def assert_parity(engine: Engine, events) -> list[BehaviorDecision]:
    """Every event decides equally both ways; returns the decisions."""
    decisions = []
    max_delta = 0.0
    for event in events:
        compiled = engine.decide(event)
        reference = reference_decide(engine, event)
        max_delta = max(max_delta, *(abs(compiled.c_o[ch] - reference.c_o[ch])
                                     for ch in ACTION_CHANNELS))
        assert compiled == reference, f"decisions differ for {event}"
        decisions.append(compiled)
    assert max_delta == 0.0
    return decisions


def test_stock_base_100k_events_are_bit_identical():
    rng = random.Random(4001)
    engine = Engine.default()
    events = [dominant_event(rng, float(i)) for i in range(STOCK_EVENTS)]
    valences = [crisp_inputs(e)["emotion"] for e in events]
    assert min(valences) == -1.0 and max(valences) == 1.0
    decisions = assert_parity(engine, events)
    alerts = sum(d.alerting for d in decisions)
    smiles = sum(d.expression == "smile" for d in decisions)
    # both arbitration outcomes are exercised, not only the common one
    assert alerts > 1000 and smiles > 1000 and alerts + smiles < STOCK_EVENTS


def random_condition(rng: random.Random, depth: int, atoms: list) -> str:
    """Nested AND/OR over the stock vocabulary. ``atoms`` is a small pool,
    so atoms repeat within and across rules; OR lands under AND often."""
    if depth <= 0 or rng.random() < 0.25:
        variable, term = rng.choice(atoms)
        return f"{variable} IS {term}"
    op = rng.choice(("AND", "OR"))
    text = f"{random_condition(rng, depth - 1, atoms)} {op} " \
           f"{random_condition(rng, depth - 1, atoms)}"
    return f"({text})" if rng.random() < 0.7 else text


CONSEQUENTS = (
    "record_data", "record_data, smile", "smile", "neutral", "record_data, neutral",
    "no_action, call_nurses, record_data", "call_nurses", "call_nurses, neutral",
)


def random_stock_vocabulary_base(rng: random.Random) -> str:
    """A rule file over the stock vocabulary. Some bases draw consequents
    from a subset, so that some channels are asserted by no rule."""
    pairs = [(v, t) for v, terms in VOCABULARY.items() for t in terms]
    atoms = rng.sample(pairs, rng.randint(2, 5))
    consequents = rng.sample(CONSEQUENTS, rng.randint(1, len(CONSEQUENTS)))
    lines = [f"VAR {name}: {', '.join(terms)}" for name, terms in VOCABULARY.items()]
    for rule_id in rng.sample(range(1, 200), rng.randint(1, 24)):
        weight = f" WEIGHT {rng.uniform(0.05, 1.0):.3f}" if rng.random() < 0.4 else ""
        lines.append(f"RULE {rule_id}{weight}: IF {random_condition(rng, rng.randint(0, 6), atoms)}"
                     f" THEN {rng.choice(consequents)}")
    return "\n".join(lines) + "\n"


def narrow_inputs() -> dict[str, LinguisticVariable]:
    """Input universes narrower than the events' ranges, so inputs clamp."""
    return {
        "emotion": three_term_variable("emotion", (-0.6, 0.7), (-0.4, 0.1, 0.5),
                                       VOCABULARY["emotion"]),
        "sound": three_term_variable("sound", (0.2, 0.8), (0.3, 0.45, 0.7),
                                     VOCABULARY["sound"]),
        "head_angle": three_term_variable("head_angle", (10.0, 60.0), (12.0, 30.0, 50.0),
                                          VOCABULARY["head_angle"]),
    }


def test_random_bases_resolutions_and_variables_are_bit_identical():
    rng = random.Random(4002)
    resolutions = (2, 7, 1001)
    clamped = degenerate = 0
    for b in range(RANDOM_BASES):
        rulebase = parse_rulebase(random_stock_vocabulary_base(rng))
        engine = Engine(
            rulebase=rulebase,
            input_variables=narrow_inputs() if b % 3 == 1 else default_input_variables(),
            resolution=resolutions[b % len(resolutions)],
        )
        decisions = assert_parity(
            engine, [dominant_event(rng, float(i)) for i in range(EVENTS_PER_BASE)])
        clamped += sum(bool(d.clamped_inputs) for d in decisions)
        degenerate += sum(any(d.degenerate_flags.values()) for d in decisions)
    assert clamped > 1000 and degenerate > 1000


def test_rule_base_without_rules_reads_every_channel_degenerate():
    engine = Engine(rulebase=RuleBase(variables={}, rules=()),
                    input_variables=default_input_variables())
    event = dominant_event(random.Random(4003), 0.0)
    assert_parity(engine, [event])
    assert all(engine.decide(event).degenerate_flags.values())


class TestBuildTimeChecks:
    def test_engine_is_frozen(self):
        engine = Engine.default()
        with pytest.raises(dataclasses.FrozenInstanceError):
            engine.resolution = 7

    def test_unfed_input_variable_fails_at_build(self):
        variables = default_input_variables()
        variables["pulse"] = three_term_variable("pulse", (0.0, 1.0), (0.1, 0.5, 0.9),
                                                 ("low", "normal", "high"))
        with pytest.raises(ConfigError, match="no event field feeds input variable 'pulse'"):
            Engine(rulebase=parse_rulebase("VAR sound: low, normal, high\n"
                                           "RULE 1: IF sound IS high THEN record_data\n"),
                   input_variables=variables)

    def test_cli_reports_unfed_variable_before_any_event(self, tmp_path, capsys):
        # A trace with no events never reaches decide: the check runs at build.
        config = tmp_path / "config.yaml"
        config.write_text("variables:\n  pulse:\n    universe: [0, 1]\n    terms:\n"
                          "      any: {shape: trapezoid, params: [0, 0, 1, 1]}\n",
                          encoding="utf-8")
        trace = tmp_path / "empty.jsonl"
        trace.write_text(json.dumps({"schema_version": 1, "subjects": ["p"]}) + "\n",
                         encoding="utf-8")
        code = main(["simulate", "--trace", str(trace), "--config", str(config),
                     "--deterministic"])
        assert code == 2
        assert "no event field feeds input variable 'pulse'" in capsys.readouterr().err
