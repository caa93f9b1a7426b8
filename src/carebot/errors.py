"""Exception types, positioned diagnostics and input checks shared across the engine."""

import json
from dataclasses import dataclass


def is_number(value) -> bool:
    """An int or float from outside input; JSON and YAML booleans are not."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def decode_json_line(line: str):
    """Decode one line of a JSON-lines file (traces and the decision log):
    ``(value, None)``, or ``(None, (column, message))`` if it is not JSON.
    Integers too long to convert and nesting too deep to parse are not JSON."""
    try:
        return json.loads(line), None
    except json.JSONDecodeError as err:
        return None, (err.colno, f"invalid JSON: {err.msg}")
    except (ValueError, RecursionError) as err:
        return None, (1, f"invalid JSON: {err}")


@dataclass(frozen=True)
class Diagnostic:
    """One positioned problem report (1-based line/column, column may be 0)."""

    line: int
    column: int
    code: str
    message: str

    def __str__(self) -> str:
        if self.column:
            return f"line {self.line}, col {self.column}: {self.code}: {self.message}"
        return f"line {self.line}: {self.code}: {self.message}"


class CarebotError(Exception):
    """Base class for all engine errors."""


class ConfigError(CarebotError):
    """Invalid engine configuration (bad weights, thresholds, variables...)."""


class ValidationError(CarebotError):
    """A single input value violates its contract (e.g. unnormalized probabilities)."""


class EvaluationError(CarebotError):
    """Rule evaluation could not proceed (e.g. missing input variable)."""


class RuleSyntaxError(CarebotError):
    """Rule text does not match the grammar. Carries a positioned diagnostic."""

    def __init__(self, diagnostic: Diagnostic):
        super().__init__(str(diagnostic))
        self.diagnostic = diagnostic


class RuleValidationError(CarebotError):
    """Rule text is grammatical but references unknown names or breaks rule-base
    invariants. Distinct from :class:`RuleSyntaxError` so callers can tell a typo
    in the grammar from a typo in the vocabulary."""

    def __init__(self, diagnostic: Diagnostic):
        super().__init__(str(diagnostic))
        self.diagnostic = diagnostic


class RuleBaseError(CarebotError):
    """Aggregate of every parse/validation problem found in a rule file."""

    def __init__(self, diagnostics: list[Diagnostic]):
        super().__init__("\n".join(str(d) for d in diagnostics))
        self.diagnostics = list(diagnostics)


class TraceError(CarebotError):
    """Aggregate of every schema/range problem found in a trace file."""

    def __init__(self, diagnostics: list[Diagnostic]):
        super().__init__("\n".join(str(d) for d in diagnostics))
        self.diagnostics = list(diagnostics)
