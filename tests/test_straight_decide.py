"""``Engine.decide`` runs straight from event to decision.

It fuzzifies into the compiled kernel's term-degree slots and fuses with
``fuse_channel``, building none of the stage objects (``FuzzifiedValue``,
``ChannelActivations``, ``CognitiveOutput``) that the public stage functions
return. Its decisions still equal ``reference_decide``'s, which is built from
those stage functions, for any input variables an engine accepts.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from carebot.appraisal import ChannelActivations, CognitiveOutput
from carebot.behavior import Engine
from carebot.fuzzy import FuzzifiedValue, three_term_variable
from carebot.perception import PerceptionEvent
from carebot.rules import default_rulebase
from test_compiled_parity import VOCABULARY, dominant_event, reference_decide

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

# Each input's event range: valence, sound_norm and head_angle_deg.
EVENT_RANGES = {"emotion": (-1.0, 1.0), "sound": (0.0, 1.0), "head_angle": (0.0, 90.0)}
# Breakpoints sit on a grid of this many steps over each event range. The
# steps are powers of two times the range, so a valence on a breakpoint is
# rebuilt exactly from its emotion vector.
GRID = 32


def test_decide_builds_no_stage_objects(monkeypatch):
    engine = Engine.default()
    rng = random.Random(4004)
    events = [dominant_event(rng, float(i)) for i in range(200)]
    expected = [engine.decide(event) for event in events]

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"decide built a {type(self).__name__}")

    for cls in (FuzzifiedValue, ChannelActivations, CognitiveOutput):
        monkeypatch.setattr(cls, "__init__", refuse)
    assert [engine.decide(event) for event in events] == expected


@st.composite
def input_variable(draw, name):
    """A ``three_term_variable`` whose universe and anchors sit on a grid
    that runs a quarter past each end of the event range, with the terms in
    any order."""
    lo, hi = EVENT_RANGES[name]
    step = (hi - lo) / GRID
    points = draw(st.lists(st.integers(-GRID // 4, GRID + GRID // 4),
                           min_size=5, max_size=5, unique=True))
    u_lo, a1, a2, a3, u_hi = (lo + i * step for i in sorted(points))
    terms = draw(st.permutations(VOCABULARY[name]))
    return three_term_variable(name, (u_lo, u_hi), (a1, a2, a3), tuple(terms))


def crisp_value(draw, name, var):
    """An event value: on one of the variable's breakpoints, at an end of
    the event range (often outside the universe) or anywhere in the range."""
    lo, hi = EVENT_RANGES[name]
    breakpoints = sorted({p for _, mf in var.terms for p in mf.params if lo <= p <= hi})
    return draw(st.one_of(st.sampled_from(breakpoints + [lo, hi]),
                          st.floats(lo, hi, allow_nan=False)))


@st.composite
def event(draw, variables, timestamp):
    """An event whose valence, sound level and head angle are drawn by
    ``crisp_value``; the emotion vector mixes happiness against anger to hit
    the drawn valence v, so P(happiness) - P(anger) = v."""
    valence = crisp_value(draw, "emotion", variables["emotion"])
    happiness = min(1.0, max(0.0, (1.0 + valence) / 2.0))
    probs = (1.0 - happiness, happiness, 0.0, 0.0, 0.0, 0.0)
    return PerceptionEvent(
        timestamp=timestamp, subject_id="p", emotion_probs=probs,
        sound_norm=crisp_value(draw, "sound", variables["sound"]),
        head_angle_deg=crisp_value(draw, "head_angle", variables["head_angle"]))


@st.composite
def engine_and_events(draw):
    variables = {name: draw(input_variable(name)) for name in EVENT_RANGES}
    engine = Engine(rulebase=default_rulebase(), input_variables=variables,
                    resolution=draw(st.sampled_from((2, 7, 1001))))
    count = draw(st.integers(1, 6))
    return engine, [draw(event(variables, float(i))) for i in range(count)]


@PROPERTY
@given(engine_and_events())
def test_decide_equals_reference_on_random_input_variables(case):
    engine, events = case
    for e in events:
        assert engine.decide(e) == reference_decide(engine, e)
