"""What an engine accepts when it is built, and the valence an event keeps.

An engine's resolution is an ``int`` in [2, ``MAX_RESOLUTION``]: beyond
2**53, ``ramp_wcog``'s grid indices are no longer exact, and beyond the
float range it overflows. An event computes its valence once, when it is
built, and ``decide`` reads that value.
"""

import dataclasses
import sys

import pytest

from carebot.behavior import Engine
from carebot.cli import main
from carebot.errors import ConfigError
from carebot.fuzzy import valence_score
from carebot.inference import MAX_RESOLUTION
from carebot.perception import PerceptionEvent

EVENT = PerceptionEvent(timestamp=0.0, subject_id="p01",
                        emotion_probs=(0.05, 0.1, 0.6, 0.1, 0.1, 0.05),
                        sound_norm=0.3, head_angle_deg=17.0)
BEYOND_FLOAT = "1" + "0" * 400


@pytest.mark.parametrize("resolution", (
    1, 0, -3, 7.5, 1001.0, True, MAX_RESOLUTION + 1,
    pytest.param(int(BEYOND_FLOAT), id="beyond_float"), "1001", None))
def test_engine_rejects_resolution(resolution):
    with pytest.raises(ConfigError, match="resolution"):
        Engine.default(resolution=resolution)


def test_engine_decides_at_max_resolution():
    decision = Engine.default(resolution=MAX_RESOLUTION).decide(EVENT)
    assert decision.c_o == pytest.approx(Engine.default().decide(EVENT).c_o, abs=1e-3)


def test_resolution_flag_beyond_float_range_is_config_error(nine_rules_trace_path, capsys):
    code = main(["simulate", "--trace", str(nine_rules_trace_path), "--deterministic",
                 "--resolution", BEYOND_FLOAT])
    assert code == 2
    assert "resolution must be an integer" in capsys.readouterr().err


def test_yaml_resolution_beyond_float_range_is_config_error(nine_rules_trace_path, tmp_path,
                                                            capsys):
    config = tmp_path / "engine.yaml"
    config.write_text(f"resolution: {BEYOND_FLOAT}\n", encoding="utf-8")
    code = main(["simulate", "--trace", str(nine_rules_trace_path), "--deterministic",
                 "--config", str(config)])
    assert code == 2
    assert "resolution must be an integer" in capsys.readouterr().err


def test_event_keeps_its_valence_out_of_equality_and_log():
    assert EVENT.valence == valence_score(EVENT.emotion_probs)
    assert "valence" not in EVENT.to_dict() and "valence" not in repr(EVENT)
    angry = dataclasses.replace(EVENT, emotion_probs=(1.0, 0.0, 0.0, 0.0, 0.0, 0.0))
    assert angry.valence == -1.0 and angry == dataclasses.replace(angry)


def test_decide_reads_the_valence_the_event_computed(monkeypatch):
    engine = Engine.default()
    expected = engine.decide(EVENT)
    modules = [module for name, module in sorted(sys.modules.items())
               if name.split(".")[0] == "carebot" and hasattr(module, "valence_score")]
    assert modules
    for module in modules:
        monkeypatch.setattr(module, "valence_score",
                            lambda probs: pytest.fail("valence computed again"))
    assert engine.decide(EVENT) == expected
