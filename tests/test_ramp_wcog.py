"""The closed-form weighted centre of gravity of the low/high ramp pair.

``ramp_wcog`` must give the sums an explicit ``np.linspace`` sampling gives,
for any clips and resolution; ``Engine.decide`` and ``defuzzify_wcog`` both
use it for ramp-pair channels, so neither builds a sample grid for them, and
``decide`` hands the perception route the head-angle degree it already has.
"""

import sys
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carebot import appraisal, inference
from carebot.behavior import Engine
from carebot.errors import ConfigError
from carebot.fuzzy import (LinguisticVariable, default_emotion_variable,
                           default_sound_variable, trapezoid)
from carebot.inference import (AggregatedOutput, default_output_variables,
                               defuzzify_wcog, is_ramp_pair, ramp_wcog)
from carebot.perception import PerceptionEvent
from carebot.rules import parse_rulebase

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)

EVENT = PerceptionEvent(timestamp=0.0, subject_id="p01",
                        emotion_probs=(0.05, 0.1, 0.6, 0.1, 0.1, 0.05),
                        sound_norm=0.3, head_angle_deg=17.0)


def sampled_sums(l, h, n):
    xs = np.linspace(0.0, 1.0, n)
    mu = np.maximum(np.minimum(l, 1.0 - xs), np.minimum(h, xs))
    return float(mu.sum()), float((xs * mu).sum())


# Subnormal clips are left out: there the sampled sums themselves round away
# whole products (0.5 * 5e-324 == 0.0), so they are no reference. The
# smallest normal float is drawn explicitly instead.
clips = (st.sampled_from([0.0, 0.5, 1.0, sys.float_info.min])
         | st.floats(0.0, 1.0, allow_subnormal=False))


@PROPERTY
@given(l=clips, h=clips, same=st.booleans(),
       n=st.sampled_from([2, 3, 1001]) | st.integers(2, 100_001))
@example(l=0.0, h=0.0, same=False, n=2)
@example(l=0.0, h=0.0, same=False, n=100_001)
@example(l=0.5, h=0.5, same=False, n=2)
@example(l=1.0, h=1.0, same=False, n=1001)
@example(l=0.3, h=0.0, same=False, n=11)
@example(l=0.0, h=0.7, same=False, n=11)
@example(l=1.0, h=0.0, same=False, n=100_001)
def test_closed_form_matches_the_sampled_sums(l, h, same, n):
    if same:
        h = l
    total, moment = sampled_sums(l, h, n)
    closed_total, closed_moment = ramp_wcog(l, h, n)
    assert (closed_total == 0.0) == (total == 0.0) == (l == h == 0.0)
    if total:
        assert abs(closed_moment / closed_total - moment / total) <= 1e-12
        assert closed_total == pytest.approx(total, rel=1e-12)


def test_clips_outside_the_unit_interval_clip_nothing_or_everything():
    assert ramp_wcog(1.7, 3.0, 101) == ramp_wcog(1.0, 1.0, 101)
    assert ramp_wcog(-0.2, 0.4, 101) == ramp_wcog(0.0, 0.4, 101)


def containers_in(obj, seen=None):
    """Every list, tuple, dict and numpy array reachable from ``obj`` through
    attributes, containers, and the constants and namespace of a generated
    function (a module's globals are not followed)."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [obj]
    found = []
    if isinstance(obj, dict):
        found, children = [obj], list(obj.values())
    elif isinstance(obj, (list, tuple)):
        found, children = [obj], list(obj)
    elif isinstance(obj, types.FunctionType):
        namespace = {} if "__name__" in obj.__globals__ else obj.__globals__
        children = list(obj.__code__.co_consts) + [
            value for name, value in namespace.items() if name != "__builtins__"]
    elif hasattr(obj, "__dict__"):
        children = list(vars(obj).values())
    else:
        return []
    return found + [c for child in children for c in containers_in(child, seen)]


def test_stock_engine_holds_no_per_sample_array():
    resolution = 10 ** 6
    engine = Engine.default(resolution=resolution)
    sizes = [c.size if isinstance(c, np.ndarray) else len(c)
             for c in containers_in(engine.compiled)]
    assert sizes
    assert max(sizes) < 100
    coarse = Engine.default().decide(EVENT)
    fine = engine.decide(EVENT)
    assert fine.actions == coarse.actions
    assert fine.c_o == pytest.approx(coarse.c_o, abs=1e-3)


def test_only_the_ramp_pair_is_summed_in_closed_form():
    ramp = default_output_variables()["record_intensity"]
    assert is_ramp_pair(ramp)
    shoulder = LinguisticVariable(name=ramp.name, universe=(0.0, 1.0), terms=(
        ("low", trapezoid(0.0, 0.0, 0.2, 1.0)), ramp.terms[1]))
    assert not is_ramp_pair(shoulder)
    wider = LinguisticVariable(name=ramp.name, universe=(0.0, 2.0), terms=(
        ("low", trapezoid(0.0, 0.0, 0.0, 2.0)), ("high", trapezoid(0.0, 2.0, 2.0, 2.0))))
    assert not is_ramp_pair(wider)
    swapped = LinguisticVariable(name=ramp.name, universe=(0.0, 1.0),
                                 terms=tuple(reversed(ramp.terms)))
    assert not is_ramp_pair(swapped)


def test_decide_and_defuzzify_share_one_closed_form(monkeypatch):
    calls = []

    def counting(l, h, n):
        calls.append(n)
        return ramp_wcog(l, h, n)

    monkeypatch.setattr(inference, "ramp_wcog", counting)
    Engine.default(resolution=77).decide(EVENT)
    assert calls == [77, 77, 77]
    var = default_output_variables()["expression_intensity"]
    out = defuzzify_wcog(AggregatedOutput(var.name, {"low": 0.2, "high": 0.6}, (1,)), var, 9)
    assert calls == [77, 77, 77, 9]
    total, moment = sampled_sums(0.2, 0.6, 9)
    assert out.value == pytest.approx(moment / total, abs=1e-12)


def test_decide_fuzzifies_the_head_angle_once(monkeypatch):
    engine = Engine.default()
    expected = engine.decide(EVENT)
    monkeypatch.setattr(appraisal, "fuzzify", lambda *args: pytest.fail("fuzzified again"))
    assert engine.decide(EVENT) == expected


def test_engine_without_head_angle_input_is_config_error():
    rulebase = parse_rulebase("VAR sound: low, normal, high\n"
                              "RULE 1: IF sound IS low THEN call_nurses\n")
    with pytest.raises(ConfigError, match="missing input variable 'head_angle'"):
        Engine(rulebase=rulebase,
               input_variables={"emotion": default_emotion_variable(),
                                "sound": default_sound_variable()})
