"""The generated rule kernel: what its source may hold, and its edge cases.

``CompiledRules`` writes the rule base as the source of one Python function
and compiles it. Only slot indices, ``repr`` of float weights and the
channel names enter that source, so no name from a rule file can reach
``exec``; the rule ids are a global tuple. On random vocabularies the
kernel must also agree bit for bit with the stage functions.
"""

import random
import re

import pytest

from carebot.errors import ConfigError
from carebot.fuzzy import FuzzifiedValue, LinguisticVariable, trapezoid
from carebot.inference import (ACTION_CHANNELS, CHANNEL_OUTPUTS, CompiledRules,
                               aggregate, default_output_variables, defuzzify_wcog,
                               fire_rules)
from carebot.rules import Atom, BinOp, Consequent, Rule, RuleBase, parse_rulebase

import oracles

GLOBALS = {"IDS", "RESOLUTION", "compress", "max", "min", "ramp_wcog", "tuple", "zip"}
LOCAL = re.compile(r"(d|n|t|m)\d+|degrees|strengths")


def variables_for(rulebase: RuleBase) -> dict[str, LinguisticVariable]:
    """A variable per declared name whose terms all cover [0, 1]."""
    full = trapezoid(0.0, 0.0, 1.0, 1.0)
    return {name: LinguisticVariable(name, (0.0, 1.0), tuple((t, full) for t in terms))
            for name, terms in rulebase.variables.items()}


def constants(values):
    for value in values:
        if isinstance(value, tuple):
            yield from constants(value)
        else:
            yield value


def check_source(compiled: CompiledRules):
    code = compiled.evaluate.__code__
    assert set(code.co_names) <= GLOBALS
    assert all(LOCAL.fullmatch(name) for name in code.co_varnames)
    for value in constants(code.co_consts):
        assert value is None or value in ACTION_CHANNELS \
            or type(value) in (int, float), value


def stage_result(rulebase: RuleBase, variables, degrees, resolution):
    """What ``fire_rules``, ``aggregate`` and ``defuzzify_wcog`` give for
    term degrees in slot order, in the kernel's output form."""
    inputs, slot = {}, 0
    for name, var in sorted(variables.items()):
        terms = var.term_names
        inputs[name] = FuzzifiedValue(name, dict(zip(terms, degrees[slot:slot + len(terms)])), 0.0)
        slot += len(terms)
    firings = fire_rules(rulebase, inputs)
    crisp, degenerate = {}, {}
    for channel in ACTION_CHANNELS:
        var = default_output_variables()[CHANNEL_OUTPUTS[channel]]
        out = defuzzify_wcog(aggregate(firings, rulebase, var), var, resolution)
        crisp[channel] = 0.0 if out.degenerate else out.value
        degenerate[channel] = out.degenerate
    fired = tuple((f.rule_id, f.strength) for f in firings if f.strength > 0.0)
    return fired, crisp, degenerate


def test_random_bases_compile_to_plain_source_and_agree_with_the_stages():
    rng = random.Random(1616)
    for _ in range(150):
        rulebase = parse_rulebase(oracles.random_rulebase_text(rng))
        variables = variables_for(rulebase)
        compiled = CompiledRules(rulebase, variables, 1001)
        check_source(compiled)
        for _ in range(20):
            degrees = [rng.choice([0.0, 1.0, rng.random()]) for _ in compiled.slot_of]
            assert compiled.evaluate(degrees) == stage_result(rulebase, variables, degrees, 1001)


VOCABULARY = {"a": ("lo", "hi"), "b": ("lo", "hi")}
RECORD = Consequent(frozenset({"record_data"}))
ALERT = Consequent(frozenset({"no_action", "call_nurses", "record_data"}))


def compiled_for(*rules, resolution=1001):
    rulebase = RuleBase(variables=dict(VOCABULARY), rules=tuple(rules))
    compiled = CompiledRules(rulebase, variables_for(rulebase), resolution)
    check_source(compiled)
    return compiled


def test_an_empty_rule_base_fires_nothing_and_leaves_every_channel_degenerate():
    compiled = compiled_for()
    assert compiled.evaluate([0.5, 1.0, 0.25, 0.0]) == (
        (), dict.fromkeys(ACTION_CHANNELS, 0.0), dict.fromkeys(ACTION_CHANNELS, True))


def test_one_rule():
    compiled = compiled_for(Rule(7, Atom("b", "hi"), RECORD))
    fired, crisp, degenerate = compiled.evaluate([0.0, 0.0, 0.0, 0.5])
    assert fired == ((7, 0.5),)
    assert degenerate == {"call_nurses": True, "record_data": False, "smile": True}
    assert compiled.evaluate([0.0, 0.0, 0.0, 0.0])[0] == ()


def test_a_weight_below_one_scales_the_clip_and_one_is_left_out():
    half = Rule(1, Atom("a", "lo"), ALERT, weight=0.5)
    full = Rule(2, Atom("a", "hi"), RECORD)
    compiled = compiled_for(half, full)
    assert "d0 * 0.5" in compiled.source
    assert "d1 *" not in compiled.source
    degrees = [0.8, 0.3, 0.0, 0.0]
    rulebase = RuleBase(variables=dict(VOCABULARY), rules=(half, full))
    assert compiled.evaluate(degrees) == stage_result(
        rulebase, variables_for(rulebase), degrees, 1001)


def test_repeated_subtrees_are_computed_once():
    def shared():
        return BinOp("AND", Atom("a", "lo"), Atom("b", "hi"))

    compiled = compiled_for(Rule(1, shared(), RECORD),
                            Rule(2, BinOp("OR", shared(), Atom("a", "hi")), ALERT),
                            Rule(3, BinOp("OR", shared(), Atom("a", "hi")), RECORD))
    assert re.findall(r"^    (n\d+) = ", compiled.source, re.MULTILINE) == ["n0", "n1"]
    fired, _, _ = compiled.evaluate([0.4, 0.1, 0.0, 0.9])
    assert fired == ((1, 0.4), (2, 0.4), (3, 0.4))


def test_a_weight_that_is_no_finite_number_is_rejected():
    with pytest.raises(ConfigError, match="weight"):
        compiled_for(Rule(1, Atom("a", "lo"), RECORD, weight=float("nan")))


def test_an_atom_no_input_defines_is_rejected():
    rulebase = RuleBase(variables=dict(VOCABULARY), rules=(Rule(1, Atom("c", "lo"), RECORD),))
    with pytest.raises(ConfigError, match="no input variable defines"):
        CompiledRules(rulebase, variables_for(rulebase), 1001)
