"""Weighted fusion of the three appraisal channels into one activation per action.

Three sources score every action channel in [0, 1]: the emotion-appraisal
channel (from the valence of the perceived emotion), the rule-engine channel
(defuzzified intensities), and the direct-perception channel (raw signal
heuristics). A fixed convex combination folds them into the final activation
the behavior module thresholds.
"""

from dataclasses import dataclass

from .errors import ConfigError, ValidationError
from .fuzzy import LinguisticVariable, default_head_angle_variable, fuzzify
from .inference import ACTION_CHANNELS

WEIGHT_SUM_TOL = 1e-9


@dataclass(frozen=True)
class AppraisalWeights:
    """Convex weights for the emotion, rule-engine, and perception channels."""

    w_ea: float
    w_fkbs: float
    w_p: float

    def __post_init__(self):
        for name, value in (("w_ea", self.w_ea), ("w_fkbs", self.w_fkbs),
                            ("w_p", self.w_p)):
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {value}")
        total = self.w_ea + self.w_fkbs + self.w_p
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ConfigError(
                f"appraisal weights must sum to 1 +/- {WEIGHT_SUM_TOL:g}, got {total!r}"
            )


# The rule-engine channel is deliberately the heaviest input.
DEFAULT_WEIGHTS = AppraisalWeights(w_ea=0.25, w_fkbs=0.5, w_p=0.25)


def _check_activation_map(name: str, acts: dict[str, float]):
    if set(acts) != set(ACTION_CHANNELS):
        raise ValidationError(
            f"{name} must cover channels {sorted(ACTION_CHANNELS)}, got {sorted(acts)}"
        )
    for channel, value in acts.items():
        if not 0.0 <= value <= 1.0:
            raise ValidationError(f"{name}[{channel}] must be in [0, 1], got {value}")


@dataclass(frozen=True)
class ChannelActivations:
    """Per-action activations from each of the three sources."""

    x_ea: dict[str, float]
    x_fkbs: dict[str, float]
    x_p: dict[str, float]

    def __post_init__(self):
        _check_activation_map("x_ea", self.x_ea)
        _check_activation_map("x_fkbs", self.x_fkbs)
        _check_activation_map("x_p", self.x_p)


@dataclass(frozen=True)
class CognitiveOutput:
    """Fused activation per action, plus the inputs that produced it."""

    c_o: dict[str, float]
    weights: AppraisalWeights
    provenance: dict[str, tuple[float, float, float]]


def fuse_channel(weights: AppraisalWeights, ea: float, fkbs: float, p: float) -> float:
    """One channel's convex combination of its three route activations."""
    return weights.w_ea * ea + weights.w_fkbs * fkbs + weights.w_p * p


def fuse(weights: AppraisalWeights, acts: ChannelActivations) -> CognitiveOutput:
    """Per-channel convex combination of the three activation maps."""
    c_o = {}
    provenance = {}
    for channel in ACTION_CHANNELS:
        routes = (acts.x_ea[channel], acts.x_fkbs[channel], acts.x_p[channel])
        c_o[channel] = fuse_channel(weights, *routes)
        provenance[channel] = routes
    return CognitiveOutput(c_o=c_o, weights=weights, provenance=provenance)


# What a valence outside [-1, 1] raises, formatted with the valence.
VALENCE_RANGE = "valence must be in [-1, 1], got {}"


def ea_activations(valence: float, emotion_probs) -> dict[str, float]:
    """Emotion-appraisal channel: alert tracks negative valence, smiling
    tracks positive valence, and recording is unconditional.

    The full probability vector is accepted alongside the collapsed valence
    so finer per-emotion shaping can slot in later; today only the polarity
    is used.
    """
    if not -1.0 <= valence <= 1.0:
        raise ValidationError(VALENCE_RANGE.format(valence))
    return {
        "call_nurses": max(0.0, -valence),
        "smile": max(0.0, valence),
        "record_data": 1.0,
    }


def perception_activations(sound_norm: float, head_normalcy: float) -> dict[str, float]:
    """Direct-perception channel: quiet audio or an off-normal head pose
    raises the alert activation; recording is unconditional; perception
    alone never smiles. ``head_normalcy`` is the head angle's degree in the
    ``normal`` term.
    """
    return {
        "call_nurses": max(1.0 - sound_norm, 1.0 - head_normalcy),
        "smile": 0.0,
        "record_data": 1.0,
    }


def p_activations(event, head_var: LinguisticVariable | None = None) -> dict[str, float]:
    """:func:`perception_activations` for one event, its head angle fuzzified
    on ``head_var`` (the stock head-angle variable when None)."""
    if head_var is None:
        head_var = default_head_angle_variable()
    return perception_activations(
        event.sound_norm, fuzzify(head_var, event.head_angle_deg).degrees["normal"])
