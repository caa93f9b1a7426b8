"""Property tests for the trace contract.

Any sequence of lines loads to a ``Trace`` or raises ``TraceError``, never
anything else, and every event of a loaded trace decides without raising.
Examples are derived from the test function, not drawn afresh, so every run
of the suite checks the same inputs.
"""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carebot.behavior import Engine
from carebot.errors import TraceError
from carebot.fuzzy import PROB_SUM_TOL
from carebot.perception import Trace, load_trace

HEADER = json.dumps({"schema_version": 1})

# Inside the tolerance by a margin that float rounding cannot cross.
EDGE_SCALES = (1.0 - 0.99 * PROB_SUM_TOL, 1.0, 1.0 + 0.99 * PROB_SUM_TOL)

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)

json_scalars = (st.none() | st.booleans() | st.floats() | st.text(max_size=6)
                | st.integers(min_value=-(10 ** 400), max_value=10 ** 400))
json_values = st.recursive(
    json_scalars,
    lambda children: (st.lists(children, max_size=6)
                      | st.dictionaries(st.text(max_size=6), children, max_size=6)),
    max_leaves=12)


@st.composite
def edge_probs(draw):
    """Six probabilities whose sum sits anywhere within PROB_SUM_TOL of 1."""
    raw = draw(st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6)
               .filter(lambda ps: sum(ps) > 0.0))
    scale = draw(st.sampled_from(EDGE_SCALES) | st.floats(*EDGE_SCALES[::2]))
    total = sum(raw)
    return [p / total * scale for p in raw]


def event_objects(probs):
    return st.fixed_dictionaries({
        "timestamp": st.floats(0.0, 1e9),
        "subject_id": st.text(min_size=1, max_size=4),
        "emotion_probs": probs,
        "sound_norm": st.floats(0.0, 1.0),
        "head_angle_deg": st.floats(0.0, 90.0),
    }, optional={"truth_emotion": st.sampled_from(["anger", "happiness"]),
                 "user_action": st.text(max_size=4)})


# An event-shaped object with any field swapped for any JSON value.
mangled_events = st.builds(lambda event, key, value: {**event, key: value},
                           event_objects(edge_probs()),
                           st.sampled_from(["timestamp", "subject_id", "emotion_probs",
                                            "sound_norm", "head_angle_deg", "extra"]),
                           json_values)

lines = st.one_of(
    st.just(HEADER),
    st.builds(json.dumps, event_objects(edge_probs())),
    st.builds(json.dumps, mangled_events),
    st.builds(json.dumps, json_values),
    st.text(max_size=40),
    st.binary(max_size=40).map(lambda b: b.decode("utf-8", errors="surrogateescape")),
)


@pytest.fixture(scope="module")
def engine():
    return Engine.default()


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    return tmp_path_factory.mktemp("properties") / "trace.jsonl"


def write(path, text_lines):
    path.write_bytes("\n".join(text_lines).encode("utf-8", errors="surrogateescape"))


def event_with(field, json_text):
    event = {"timestamp": 0, "subject_id": "p01", "emotion_probs": [0, 1, 0, 0, 0, 0],
             "sound_norm": 0.5, "head_angle_deg": 10, field: "?"}
    return json.dumps(event).replace('"?"', json_text)


@PROPERTY
@given(text_lines=st.lists(lines, max_size=8))
@example(text_lines=[HEADER, event_with("emotion_probs", "null")])
@example(text_lines=[HEADER, event_with("timestamp", "1" + "0" * 400)])
def test_any_lines_load_or_raise_trace_error(engine, trace_path, text_lines):
    write(trace_path, text_lines)
    try:
        trace = load_trace(trace_path)
    except TraceError as err:
        assert err.diagnostics and all(d.line >= 1 for d in err.diagnostics)
        return
    assert isinstance(trace, Trace)
    for event in trace.events:
        engine.decide(event)


@PROPERTY
@given(probs=st.lists(edge_probs(), min_size=1, max_size=6))
@example(probs=[[0.0, 1.0000005, 0.0, 0.0, 0.0, 0.0]])
@example(probs=[[0.5000004, 0.0, 0.5000004, 0.0, 0.0, 0.0]])
def test_every_loaded_event_decides(engine, trace_path, probs):
    events = [json.dumps({"timestamp": float(i), "subject_id": "p01", "emotion_probs": p,
                          "sound_norm": 0.5, "head_angle_deg": 10.0})
              for i, p in enumerate(probs)]
    write(trace_path, [HEADER, *events])
    trace = load_trace(trace_path)
    assert len(trace.events) == len(probs)
    for event in trace.events:
        decision = engine.decide(event)
        assert -1.0 <= decision.valence <= 1.0
