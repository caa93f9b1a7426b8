"""Fuzzy rule-based behavior engine for an assistive care robot.

Pipeline: perception events are fuzzified into linguistic terms, a rule base
fires under Mamdani inference, each action channel is defuzzified by weighted
center of gravity, three appraisal routes are blended into fused activations,
and thresholding plus arbitration yields one logged behavior decision.
"""

from .appraisal import (AppraisalWeights, ChannelActivations, CognitiveOutput,
                        DEFAULT_WEIGHTS, ea_activations, fuse, p_activations)
from .behavior import (BehaviorDecision, Engine, EventLog, crisp_inputs,
                       log_read)
from .config import EngineConfig, default_config, load_config
from .errors import (CarebotError, ConfigError, Diagnostic, EvaluationError,
                     RuleBaseError, RuleSyntaxError, RuleValidationError,
                     TraceError, ValidationError)
from .evaluation import (AccuracyReport, ConfusionMatrix, accumulate,
                         load_fixture, render_table, report,
                         report_from_percentages)
from .fuzzy import (EMOTION_LABELS, FuzzifiedValue, LinguisticVariable,
                    MembershipFunction, default_emotion_variable,
                    default_head_angle_variable, default_input_variables,
                    default_sound_variable, fuzzify, membership_degree,
                    triangle, trapezoid, valence_score)
from .inference import (ACTION_CHANNELS, DEFAULT_RESOLUTION, aggregate,
                        default_output_variables, defuzzify_wcog, fire_rules)
from .perception import PerceptionEvent, Trace, load_trace, write_trace
from .rules import (ACTIONS, EXPRESSIONS, Rule, RuleBase, default_rulebase,
                    parse_rule, parse_rulebase, serialize_rule,
                    serialize_rulebase)

__version__ = "0.1.0"

__all__ = [
    "ACTIONS",
    "ACTION_CHANNELS",
    "AccuracyReport",
    "AppraisalWeights",
    "BehaviorDecision",
    "CarebotError",
    "ChannelActivations",
    "CognitiveOutput",
    "ConfigError",
    "ConfusionMatrix",
    "DEFAULT_RESOLUTION",
    "DEFAULT_WEIGHTS",
    "Diagnostic",
    "EMOTION_LABELS",
    "EXPRESSIONS",
    "Engine",
    "EngineConfig",
    "EvaluationError",
    "EventLog",
    "FuzzifiedValue",
    "LinguisticVariable",
    "MembershipFunction",
    "PerceptionEvent",
    "Rule",
    "RuleBase",
    "RuleBaseError",
    "RuleSyntaxError",
    "RuleValidationError",
    "Trace",
    "TraceError",
    "ValidationError",
    "accumulate",
    "aggregate",
    "crisp_inputs",
    "default_config",
    "default_emotion_variable",
    "default_head_angle_variable",
    "default_input_variables",
    "default_output_variables",
    "default_rulebase",
    "default_sound_variable",
    "defuzzify_wcog",
    "ea_activations",
    "fire_rules",
    "fuse",
    "fuzzify",
    "load_config",
    "load_fixture",
    "load_trace",
    "log_read",
    "membership_degree",
    "p_activations",
    "parse_rule",
    "parse_rulebase",
    "render_table",
    "report",
    "report_from_percentages",
    "serialize_rule",
    "serialize_rulebase",
    "trapezoid",
    "triangle",
    "valence_score",
    "write_trace",
]
