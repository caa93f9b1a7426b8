"""Engine configuration: defaults, YAML loading, validation.

Everything tunable lives here: appraisal weights, per-channel thresholds,
defuzzification resolution, input variable shapes, and the rule/log file
paths. Defaults are embedded so the engine runs with no config file at all;
a YAML file overrides only the keys it names.
"""

import math
from dataclasses import dataclass, field, replace

from .appraisal import AppraisalWeights, DEFAULT_WEIGHTS
from .errors import CarebotError, ConfigError, is_number
from .fuzzy import (MembershipFunction, LinguisticVariable,
                    default_input_variables, triangle, trapezoid)
from .inference import ACTION_CHANNELS, DEFAULT_RESOLUTION, check_resolution

_TOP_KEYS = ("weights", "thresholds", "resolution", "rules_path", "log_path",
             "variables")
_WEIGHT_KEYS = ("ea", "fkbs", "p")


@dataclass(frozen=True)
class EngineConfig:
    weights: AppraisalWeights = DEFAULT_WEIGHTS
    thresholds: dict[str, float] = field(
        default_factory=lambda: {c: 0.5 for c in ACTION_CHANNELS})
    resolution: int = DEFAULT_RESOLUTION
    rules_path: str | None = None
    log_path: str | None = None
    variables: dict[str, LinguisticVariable] = field(
        default_factory=default_input_variables)


def default_config() -> EngineConfig:
    return EngineConfig()


def _require_mapping(value, context: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{context} must be a mapping, got {type(value).__name__}")
    return value


def _parse_weights(raw) -> AppraisalWeights:
    data = _require_mapping(raw, "weights")
    unknown = set(data) - set(_WEIGHT_KEYS)
    if unknown:
        raise ConfigError(f"unknown weight keys {sorted(unknown)}, expected {list(_WEIGHT_KEYS)}")
    missing = set(_WEIGHT_KEYS) - set(data)
    if missing:
        raise ConfigError(f"weights must name all of {list(_WEIGHT_KEYS)}, missing {sorted(missing)}")
    for key in _WEIGHT_KEYS:
        if not is_number(data[key]):
            raise ConfigError(f"weights.{key} must be a number, got {data[key]!r}")
    return AppraisalWeights(w_ea=float(data["ea"]), w_fkbs=float(data["fkbs"]),
                            w_p=float(data["p"]))


def _parse_thresholds(raw, base: dict[str, float]) -> dict[str, float]:
    data = _require_mapping(raw, "thresholds")
    unknown = set(data) - set(ACTION_CHANNELS)
    if unknown:
        raise ConfigError(f"unknown threshold channels {sorted(unknown)}, "
                          f"expected {sorted(ACTION_CHANNELS)}")
    merged = dict(base)
    for channel, value in data.items():
        if not isinstance(value, (int, float)) or not math.isfinite(value) \
                or not 0.0 < float(value) < 1.0:
            raise ConfigError(f"threshold for {channel} must be in (0, 1), got {value!r}")
        merged[channel] = float(value)
    return merged


def _parse_mf(raw, context: str) -> MembershipFunction:
    data = _require_mapping(raw, context)
    unknown = set(data) - {"shape", "params"}
    if unknown:
        raise ConfigError(f"{context}: unknown keys {sorted(unknown)}")
    shape = data.get("shape")
    params = data.get("params")
    if not isinstance(params, list) or not all(is_number(p) for p in params):
        raise ConfigError(f"{context}: params must be a list of numbers")
    values = [float(p) for p in params]
    try:
        if shape == "triangle":
            if len(values) != 3:
                raise ConfigError(f"{context}: triangle takes 3 params, got {len(values)}")
            return triangle(*values)
        if shape == "trapezoid":
            if len(values) != 4:
                raise ConfigError(f"{context}: trapezoid takes 4 params, got {len(values)}")
            return trapezoid(*values)
    except CarebotError as err:
        raise ConfigError(f"{context}: {err}") from None
    raise ConfigError(f"{context}: shape must be 'triangle' or 'trapezoid', got {shape!r}")


def _parse_variable(name: str, raw) -> LinguisticVariable:
    data = _require_mapping(raw, f"variables.{name}")
    unknown = set(data) - {"universe", "terms"}
    if unknown:
        raise ConfigError(f"variables.{name}: unknown keys {sorted(unknown)}")
    universe = data.get("universe")
    if (not isinstance(universe, list) or len(universe) != 2
            or not all(is_number(v) for v in universe)):
        raise ConfigError(f"variables.{name}: universe must be [lo, hi]")
    terms_raw = _require_mapping(data.get("terms"), f"variables.{name}.terms")
    terms = {term: _parse_mf(mf, f"variables.{name}.terms.{term}")
             for term, mf in terms_raw.items()}
    try:
        return LinguisticVariable(name=name,
                                  universe=(float(universe[0]), float(universe[1])),
                                  terms=terms)
    except CarebotError as err:
        raise ConfigError(f"variables.{name}: {err}") from None


def load_config(path) -> EngineConfig:
    """Load a YAML config; keys not present keep their defaults."""
    import yaml

    with open(path, "r", encoding="utf-8") as handle:
        try:
            raw = yaml.safe_load(handle)
        except (yaml.YAMLError, ValueError, RecursionError) as err:
            # ValueError: an integer over 4,300 digits; RecursionError: deep nesting.
            raise ConfigError(f"{path}: invalid YAML: {err}") from None
    if raw is None:
        return default_config()
    data = _require_mapping(raw, "config root")
    unknown = set(data) - set(_TOP_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)}, expected {list(_TOP_KEYS)}")

    config = default_config()
    if "weights" in data:
        config = replace(config, weights=_parse_weights(data["weights"]))
    if "thresholds" in data:
        config = replace(config,
                         thresholds=_parse_thresholds(data["thresholds"], config.thresholds))
    if "resolution" in data:
        check_resolution(data["resolution"])
        config = replace(config, resolution=data["resolution"])
    if "rules_path" in data and data["rules_path"] is not None:
        if not isinstance(data["rules_path"], str):
            raise ConfigError("rules_path must be a string path")
        config = replace(config, rules_path=data["rules_path"])
    if "log_path" in data and data["log_path"] is not None:
        if not isinstance(data["log_path"], str):
            raise ConfigError("log_path must be a string path")
        config = replace(config, log_path=data["log_path"])
    if "variables" in data:
        variables = dict(config.variables)
        for name, shape in _require_mapping(data["variables"], "variables").items():
            variables[name] = _parse_variable(name, shape)
        config = replace(config, variables=variables)
    return config
