"""YAML configuration loading and validation."""

import pytest

from carebot.cli import main
from carebot.config import EngineConfig, default_config, load_config
from carebot.errors import ConfigError


def write_config(tmp_path, text):
    path = tmp_path / "engine.yaml"
    path.write_text(text, encoding="utf-8")
    return path


class TestDefaults:
    def test_default_values(self):
        config = default_config()
        assert config.weights.w_ea == 0.25
        assert config.weights.w_fkbs == 0.5
        assert config.weights.w_p == 0.25
        assert config.thresholds == {"call_nurses": 0.5, "record_data": 0.5,
                                     "smile": 0.5}
        assert config.resolution == 1001
        assert config.rules_path is None
        assert config.log_path is None
        assert set(config.variables) == {"emotion", "sound", "head_angle"}

    def test_empty_file_is_all_defaults(self, tmp_path):
        path = write_config(tmp_path, "")
        assert load_config(path) == default_config()


class TestOverrides:
    def test_partial_override_keeps_rest(self, tmp_path):
        path = write_config(tmp_path, "resolution: 501\n")
        config = load_config(path)
        assert config.resolution == 501
        assert config.weights == default_config().weights

    def test_weights_override(self, tmp_path):
        path = write_config(tmp_path,
                            "weights:\n  ea: 0.2\n  fkbs: 0.6\n  p: 0.2\n")
        config = load_config(path)
        assert config.weights.w_fkbs == 0.6

    def test_threshold_override_merges(self, tmp_path):
        path = write_config(tmp_path, "thresholds:\n  call_nurses: 0.7\n")
        config = load_config(path)
        assert config.thresholds["call_nurses"] == 0.7
        assert config.thresholds["smile"] == 0.5

    def test_paths(self, tmp_path):
        path = write_config(tmp_path,
                            "rules_path: custom.fkb\nlog_path: out.jsonl\n")
        config = load_config(path)
        assert config.rules_path == "custom.fkb"
        assert config.log_path == "out.jsonl"

    def test_variable_override(self, tmp_path):
        path = write_config(tmp_path, """
variables:
  sound:
    universe: [0, 1]
    terms:
      low: {shape: trapezoid, params: [0, 0, 0.2, 0.6]}
      normal: {shape: triangle, params: [0.2, 0.55, 0.9]}
      high: {shape: trapezoid, params: [0.5, 0.8, 1, 1]}
""")
        config = load_config(path)
        sound = config.variables["sound"]
        assert sound.universe == (0.0, 1.0)
        assert set(sound.term_names) == {"low", "normal", "high"}
        # other variables keep their stock shapes
        assert config.variables["head_angle"] == default_config().variables["head_angle"]


class TestRejections:
    def reject(self, tmp_path, text, match=None):
        path = write_config(tmp_path, text)
        with pytest.raises(ConfigError, match=match):
            load_config(path)

    def test_unknown_top_key(self, tmp_path):
        self.reject(tmp_path, "speed: 11\n", match="unknown config keys")

    def test_non_mapping_root(self, tmp_path):
        self.reject(tmp_path, "- a\n- b\n", match="mapping")

    def test_invalid_yaml(self, tmp_path):
        self.reject(tmp_path, "weights: [unclosed\n", match="invalid YAML")

    def test_weights_missing_key(self, tmp_path):
        self.reject(tmp_path, "weights:\n  ea: 0.5\n  fkbs: 0.5\n",
                    match="missing")

    def test_weights_unknown_key(self, tmp_path):
        self.reject(tmp_path,
                    "weights:\n  ea: 0.25\n  fkbs: 0.5\n  p: 0.25\n  extra: 0\n",
                    match="unknown weight keys")

    def test_weights_bad_sum(self, tmp_path):
        self.reject(tmp_path, "weights:\n  ea: 0.5\n  fkbs: 0.5\n  p: 0.5\n")

    def test_threshold_unknown_channel(self, tmp_path):
        self.reject(tmp_path, "thresholds:\n  wave: 0.5\n",
                    match="unknown threshold channels")

    def test_threshold_out_of_range(self, tmp_path):
        self.reject(tmp_path, "thresholds:\n  smile: 1.0\n", match="in \\(0, 1\\)")

    def test_resolution_not_integer(self, tmp_path):
        self.reject(tmp_path, "resolution: 10.5\n", match="integer")

    def test_resolution_too_small(self, tmp_path):
        self.reject(tmp_path, "resolution: 1\n")

    def test_rules_path_not_string(self, tmp_path):
        self.reject(tmp_path, "rules_path: [a, b]\n", match="string path")

    def test_mf_unknown_shape(self, tmp_path):
        self.reject(tmp_path, """
variables:
  sound:
    universe: [0, 1]
    terms:
      low: {shape: gaussian, params: [0, 1]}
""", match="triangle")

    def test_mf_wrong_param_count(self, tmp_path):
        self.reject(tmp_path, """
variables:
  sound:
    universe: [0, 1]
    terms:
      low: {shape: triangle, params: [0, 1]}
""", match="3 params")

    def test_mf_unsorted_params_wrapped(self, tmp_path):
        # shape construction fails inside fuzzy; must surface as ConfigError
        self.reject(tmp_path, """
variables:
  sound:
    universe: [0, 1]
    terms:
      low: {shape: triangle, params: [0.9, 0.5, 0.1]}
""")

    def test_variable_bad_universe(self, tmp_path):
        self.reject(tmp_path, """
variables:
  sound:
    universe: [0, 0.5, 1]
    terms:
      low: {shape: triangle, params: [0, 0.5, 1]}
""", match="universe")

    def test_variable_coverage_gap_wrapped(self, tmp_path):
        # a single narrow term leaves most of the universe uncovered
        self.reject(tmp_path, """
variables:
  sound:
    universe: [0, 1]
    terms:
      low: {shape: triangle, params: [0, 0.05, 0.1]}
""")

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_config(tmp_path / "nope.yaml")


class TestModel:
    def test_config_is_frozen(self):
        config = EngineConfig()
        with pytest.raises(AttributeError):
            config.resolution = 5


@pytest.mark.parametrize("text", (
    pytest.param("resolution: 1" + "0" * 5000 + "\n", id="integer_over_digit_limit"),
    pytest.param("weights: " + "[" * 50_000 + "]" * 50_000 + "\n", id="deep_nesting")))
def test_yaml_the_parser_cannot_build_is_config_error(tmp_path, nine_rules_trace_path, capsys,
                                                      text):
    # Python refuses to convert an integer string over 4,300 digits, and the
    # YAML composer recurses once per nesting level; both are invalid YAML
    # here, not a crash.
    path = write_config(tmp_path, text)
    with pytest.raises(ConfigError, match="invalid YAML"):
        load_config(path)
    code = main(["simulate", "--trace", str(nine_rules_trace_path), "--deterministic",
                 "--config", str(path)])
    assert code == 2
    assert "invalid YAML" in capsys.readouterr().err
