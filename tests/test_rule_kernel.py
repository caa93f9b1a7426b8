"""The generated ``decide``: what its source may hold, and its edge cases.

An engine writes its whole decision path (clamp, membership, rule kernel,
fusion and arbitration) as the source of one Python function and compiles
it once. Only slot indices, ``repr`` of floats and the fixed vocabulary
enter that source, so no name from a rule or config file can reach ``exec``;
the rule ids are a global tuple. On random rule bases and any term degrees
it must agree bit for bit with the stage functions.
"""

import math
import random
import re

import pytest

from carebot.appraisal import AppraisalWeights
from carebot.behavior import EVENT_INPUTS, Engine, crisp_inputs
from carebot.errors import ConfigError, ValidationError
from carebot.fuzzy import (TRAPEZOIDAL, TRIANGULAR, LinguisticVariable, MembershipFunction,
                           default_input_variables, trapezoid)
from carebot.inference import ACTION_CHANNELS
from carebot.perception import PerceptionEvent
from carebot.rules import (ACTIONS, EXPRESSIONS, MAX_CONDITION_DEPTH, Atom, BinOp, Consequent,
                           Rule, RuleBase, default_rulebase, parse_rulebase)
from test_compiled_parity import reference_decide

import oracles

GLOBALS = {"IDS", "RESOLUTION", "compress", "max", "ramp_wcog", "tuple", "zip",
           "BehaviorDecision", "ValidationError", "VALENCE_RANGE", "format",
           "timestamp", "subject_id", *EVENT_INPUTS.values()}
LOCAL = re.compile(r"(d|n|t|m|f|c|x|e)\d+|event|clamped|strengths|fired|quiet|turned"
                   r"|actions|expression")
VOCABULARY = {*ACTION_CHANNELS, *ACTIONS, *EXPRESSIONS, *EVENT_INPUTS}

INPUTS = tuple(sorted(EVENT_INPUTS))
# Each input's event range: valence, head_angle_deg and sound_norm.
RANGES = {"emotion": (-1.0, 1.0), "head_angle": (0.0, 90.0), "sound": (0.0, 1.0)}


def constants(values):
    for value in values:
        if isinstance(value, tuple):
            yield from constants(value)
        else:
            yield value


def check_source(engine: Engine):
    code = engine.compiled.__code__
    assert set(code.co_names) <= GLOBALS, set(code.co_names) - GLOBALS
    assert all(LOCAL.fullmatch(name) for name in code.co_varnames), code.co_varnames
    for value in constants(code.co_consts):
        assert value is None or type(value) in (int, float) or value in VOCABULARY, value


def assert_same(decision, reference):
    """Equal decisions, down to the sign of a zero in c_o and fired strengths."""
    assert decision == reference
    assert [c.hex() for c in decision.c_o.values()] == [c.hex() for c in reference.c_o.values()]
    assert [s.hex() for _, s in decision.fired_rules] == \
        [s.hex() for _, s in reference.fired_rules]


def event_at(timestamp, valence, sound, head):
    """An event with these sound and head values and a valence near ``valence``:
    happiness against anger, so P(happiness) - P(anger) rounds to about it."""
    happiness = (1.0 + valence) / 2.0
    return PerceptionEvent(timestamp=timestamp, subject_id="p",
                           emotion_probs=(1.0 - happiness, happiness, 0.0, 0.0, 0.0, 0.0),
                           sound_norm=sound, head_angle_deg=head)


def with_valence(event, valence):
    """``event`` with exactly this valence. Valence is derived from the
    emotion vector, which cannot hit every float (-0.0 or one ulp past a
    breakpoint), so it is set directly."""
    object.__setattr__(event, "valence", valence)
    return event


def mf_giving(degree, x, lo, hi, rng):
    """A membership function on [lo, hi] whose degree at ``x``, inside it, is
    ``degree``, or a float next to it: on a rising or falling edge."""
    if degree == 0.0:
        return trapezoid(lo, lo, lo, lo)
    if degree == 1.0:
        return trapezoid(lo, lo, hi, hi)
    room = min(x - lo, hi - x)
    if rng.random() < 0.5:
        return trapezoid(x - degree * room, x + (1.0 - degree) * room, hi, hi)
    return trapezoid(lo, lo, x - (1.0 - degree) * room, x + degree * room)


def variables_giving(terms, degrees, at, rng):
    """Input variables on the event ranges with terms ``terms[name]``, whose
    degrees at ``at[name]`` are ``degrees[(name, term)]``, plus a ``cover``
    term that is 1 everywhere, and a ``normal`` head-angle term if missing."""
    variables = {}
    for name in INPUTS:
        lo, hi = RANGES[name]
        names = list(terms.get(name, ()))
        if name == "head_angle" and "normal" not in names:
            names.append("normal")
        mfs = [(term, mf_giving(degrees.get((name, term), rng.random()), at[name], lo, hi, rng))
               for term in names]
        variables[name] = LinguisticVariable(name, (lo, hi),
                                             (*mfs, ("cover", trapezoid(lo, lo, hi, hi))))
    return variables


def on_the_inputs(rulebase: RuleBase) -> RuleBase:
    """``rulebase`` over the engine's inputs: variable i becomes input i % 3,
    its term t that input's term ``<variable>_t``."""
    home = {var: INPUTS[i % len(INPUTS)] for i, var in enumerate(rulebase.variables)}

    def moved(node):
        if isinstance(node, Atom):
            return Atom(home[node.variable], f"{node.variable}_{node.term}")
        return BinOp(node.op, moved(node.left), moved(node.right))

    terms = {name: tuple(f"{var}_{term}" for var, names in rulebase.variables.items()
                         if home[var] == name for term in names) for name in INPUTS}
    return RuleBase(terms, tuple(Rule(r.id, moved(r.antecedent), r.consequent, r.weight)
                                 for r in rulebase.rules))


def test_random_bases_compile_to_plain_source_and_agree_with_the_stages():
    """Each engine's terms take, at the event, degrees drawn independently of
    one another (0, 1 or anywhere between), so the kernel sees any vector,
    not only those the stock terms produce."""
    rng = random.Random(1616)
    for _ in range(150):
        rulebase = on_the_inputs(parse_rulebase(oracles.random_rulebase_text(rng)))
        for j in range(20):
            event = event_at(float(j), rng.uniform(-0.99, 0.99), rng.uniform(0.01, 0.99),
                             rng.uniform(1.0, 89.0))
            degrees = {(name, term): rng.choice([0.0, 1.0, rng.random()])
                       for name, names in rulebase.variables.items() for term in names}
            engine = Engine(rulebase, variables_giving(rulebase.variables, degrees,
                                                       crisp_inputs(event), rng),
                            resolution=rng.choice((2, 1001)))
            if j == 0:
                check_source(engine)
            assert_same(engine.decide(event), reference_decide(engine, event))


def engine_for(*rules, degrees=None):
    """An engine on the rules' vocabulary, whose terms take ``degrees`` at
    the event ``EVENT``."""
    terms = {}
    for rule in rules:
        stack = [rule.antecedent]
        while stack:
            node = stack.pop()
            if isinstance(node, Atom):
                terms.setdefault(node.variable, {})[node.term] = None
            else:
                stack += [node.left, node.right]
    terms = {name: tuple(names) for name, names in terms.items()}
    variables = variables_giving(terms, degrees or {}, crisp_inputs(EVENT), random.Random(7))
    engine = Engine(RuleBase(terms, tuple(rules)), variables)
    check_source(engine)
    assert_same(engine.decide(EVENT), reference_decide(engine, EVENT))
    return engine


EVENT = event_at(0.0, 0.5, 0.5, 45.0)
RECORD = Consequent(frozenset({"record_data"}))
ALERT = Consequent(frozenset({"no_action", "call_nurses", "record_data"}))


def test_an_empty_rule_base_fires_nothing_and_leaves_every_channel_degenerate():
    decision = engine_for().decide(EVENT)
    assert decision.fired_rules == ()
    assert decision.degenerate_flags == dict.fromkeys(ACTION_CHANNELS, True)


def test_one_rule():
    rule = Rule(7, Atom("sound", "hi"), RECORD)
    decision = engine_for(rule, degrees={("sound", "hi"): 0.5}).decide(EVENT)
    assert decision.fired_rules == ((7, 0.5),)
    assert decision.degenerate_flags == {"call_nurses": True, "record_data": False,
                                         "smile": True}
    assert engine_for(rule, degrees={("sound", "hi"): 0.0}).decide(EVENT).fired_rules == ()


def test_a_weight_below_one_scales_the_clip_and_one_is_left_out():
    half = Rule(1, Atom("sound", "lo"), ALERT, weight=0.5)
    full = Rule(2, Atom("sound", "hi"), RECORD)
    engine = engine_for(half, full, degrees={("sound", "lo"): 0.75, ("sound", "hi"): 0.25})
    slots = [(name, term) for name, var in sorted(engine.input_variables.items())
             for term in var.term_names]
    assert f"d{slots.index(('sound', 'lo'))} * 0.5" in engine.source
    assert f"d{slots.index(('sound', 'hi'))} *" not in engine.source


def test_repeated_subtrees_are_computed_once():
    def shared():
        return BinOp("AND", Atom("sound", "lo"), Atom("emotion", "hi"))

    engine = engine_for(Rule(1, shared(), RECORD),
                        Rule(2, BinOp("OR", shared(), Atom("sound", "hi")), ALERT),
                        Rule(3, BinOp("OR", shared(), Atom("sound", "hi")), RECORD),
                        degrees={("sound", "lo"): 0.5, ("emotion", "hi"): 1.0,
                                 ("sound", "hi"): 0.0})
    assert re.findall(r"^    (n\d+) = ", engine.source, re.MULTILINE) == ["n0", "n1"]
    assert engine.decide(EVENT).fired_rules == ((1, 0.5), (2, 0.5), (3, 0.5))


def test_a_weight_that_is_no_finite_number_is_rejected():
    with pytest.raises(ConfigError, match="weight"):
        engine_for(Rule(1, Atom("sound", "lo"), RECORD, weight=float("nan")))


def test_an_atom_no_input_defines_is_rejected():
    rulebase = RuleBase(variables={}, rules=(Rule(1, Atom("sound", "lo"), RECORD),))
    with pytest.raises(ConfigError, match="no input variable defines"):
        Engine(rulebase, default_input_variables())


def test_a_condition_built_deeper_than_the_parser_allows_is_rejected():
    node = Atom("sound", "lo")
    for _ in range(MAX_CONDITION_DEPTH):
        node = BinOp("AND", node, Atom("sound", "lo"))
    engine_for(Rule(1, node, RECORD))
    with pytest.raises(ConfigError, match="nested deeper"):
        engine_for(Rule(1, BinOp("OR", node, Atom("sound", "lo")), RECORD))
    for _ in range(1200):
        node = BinOp("AND", node, Atom("sound", "lo"))
    with pytest.raises(ConfigError, match="nested deeper"):
        engine_for(Rule(1, node, RECORD))


def int_engine():
    """Int weights, bounds and breakpoints, the bounds inside the event
    ranges so that events clamp. Thresholds cannot be ints: they lie in (0, 1)."""
    def mf(*params):
        return MembershipFunction(TRIANGULAR if len(params) == 3 else TRAPEZOIDAL, params)

    variables = {
        "emotion": LinguisticVariable("emotion", (-1, 1), (
            ("negative", mf(-1, -1, -1, 0)), ("neutral", mf(-1, 0, 1)),
            ("positive", mf(0, 1, 1, 1)))),
        "sound": LinguisticVariable("sound", (0, 1), (
            ("low", mf(0, 0, 0, 1)), ("normal", mf(0, 1, 1)), ("high", mf(0, 1, 1, 1)))),
        "head_angle": LinguisticVariable("head_angle", (10, 80), (
            ("normal", mf(10, 10, 20, 40)), ("low", mf(20, 40, 60)),
            ("high", mf(40, 60, 80, 80)))),
    }
    return Engine(default_rulebase(), variables, AppraisalWeights(0, 1, 0))


def near(points):
    """Each point and its neighbouring floats on either side."""
    return sorted({y for p in points
                   for y in (math.nextafter(p, -math.inf), float(p), math.nextafter(p, math.inf))})


@pytest.mark.parametrize("engine, clamps", [(Engine.default(), False), (int_engine(), True)],
                         ids=["stock", "ints"])
def test_events_on_every_breakpoint_and_next_to_it(engine, clamps):
    check_source(engine)
    values = {}
    for name, var in engine.input_variables.items():
        lo, hi = RANGES[name]
        points = {*var.universe, *(p for _, mf in var.terms for p in mf.params), lo, hi}
        values[name] = [x for x in near(points) if lo <= x <= hi]
    clamped = 0
    for valence in values["emotion"]:
        for sound in values["sound"]:
            for head in values["head_angle"]:
                event = with_valence(event_at(0.0, 0.0, sound, head), valence)
                decision = engine.decide(event)
                assert_same(decision, reference_decide(engine, event))
                clamped += bool(decision.clamped_inputs)
    assert bool(clamped) == clamps


@pytest.mark.parametrize("engine", [Engine.default(), int_engine()], ids=["stock", "ints"])
@pytest.mark.parametrize("valence", [0.0, -0.0])
def test_a_valence_of_signed_zero(engine, valence):
    event = with_valence(event_at(0.0, 0.0, 0.3, 17.0), valence)
    decision = engine.decide(event)
    assert_same(decision, reference_decide(engine, event))
    assert decision.valence.hex() == valence.hex()


def test_a_valence_out_of_range_raises_what_the_emotion_route_raises():
    event = with_valence(event_at(0.0, 0.0, 0.3, 17.0), 1.5)
    with pytest.raises(ValidationError, match=r"valence must be in \[-1, 1\], got 1.5"):
        Engine.default().decide(event)
