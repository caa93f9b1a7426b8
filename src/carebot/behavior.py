"""Decision pipeline and append-only decision log.

The engine turns one perception event into one discrete decision through a
fixed pipeline: fuzzify the crisp inputs, fire the rule base, combine and
defuzzify each action channel, blend the three appraisal routes, threshold
the fused activations, and arbitrate conflicts (alerting outranks affect
display). The whole pipeline is generated as one Python function and
compiled once, when the engine is built. Every decision is written to a
line-delimited log that is only ever appended to.
"""

import json
import math
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from .appraisal import VALENCE_RANGE, AppraisalWeights, DEFAULT_WEIGHTS
from .errors import ConfigError, Diagnostic, ValidationError, decode_json_line, is_number
from .fuzzy import LinguisticVariable, default_input_variables, degree_source
from .inference import ACTION_CHANNELS, DEFAULT_RESOLUTION, check_resolution, rule_kernel
from .perception import PerceptionEvent
from .rules import ACTIONS, EXPRESSIONS, RuleBase, default_rulebase

DEFAULT_THRESHOLD = 0.5


def default_thresholds() -> dict[str, float]:
    return {channel: DEFAULT_THRESHOLD for channel in ACTION_CHANNELS}


# Each input variable an event feeds -> the PerceptionEvent field feeding it.
EVENT_INPUTS = {"emotion": "valence", "sound": "sound_norm", "head_angle": "head_angle_deg"}


def crisp_inputs(event: PerceptionEvent) -> dict[str, float]:
    """Map an event onto the rule vocabulary's crisp input values."""
    return {name: getattr(event, attr) for name, attr in EVENT_INPUTS.items()}


@dataclass(frozen=True)
class BehaviorDecision:
    """Discrete outcome for one event, with the evidence that produced it."""

    timestamp: float
    subject_id: str
    actions: tuple[str, ...]
    expression: str
    fired_rules: tuple[tuple[int, float], ...]
    c_o: dict[str, float]
    degenerate_flags: dict[str, bool]
    clamped_inputs: tuple[str, ...] = ()
    valence: float = 0.0

    def __post_init__(self):
        if "record_data" not in self.actions:
            raise ValidationError("decision must always include record_data")
        if ("no_action" in self.actions) != ("call_nurses" in self.actions):
            raise ValidationError("no_action must accompany call_nurses exactly")
        if self.expression not in EXPRESSIONS:
            raise ValidationError(f"unknown expression {self.expression!r}")
        if self.expression == "smile" and "call_nurses" in self.actions:
            raise ValidationError("smile and call_nurses must not co-occur")

    @property
    def alerting(self) -> bool:
        return "call_nurses" in self.actions


def _decide_source(engine: "Engine") -> tuple[str, dict]:
    """Python source of ``decide(event)`` for ``engine``, and its globals.

    The function makes the stage functions' decision with the same float
    operations, bit for bit. Per input variable, in slot order (variables
    sorted by name, terms in declaration order), it reads the event field,
    clamps it to the universe with conditionals that give
    ``min(max(x, lo), hi)`` and records the variable's name if that moved
    it, and computes each term's degree as :func:`~carebot.fuzzy.degree_source`
    writes it. Then come the rule kernel's lines (:func:`rule_kernel`); the
    emotion route of ``ea_activations``, its valence check included; the
    perception route of ``perception_activations``; ``fuse_channel``'s
    weighted sum in its operand order; and the thresholds and arbitration.
    The event was checked when it was built and is not checked again.

    Only slot indices, ``repr(float(v))`` of breakpoints, bounds, weights and
    thresholds, and the fixed names of ``ACTION_CHANNELS``, ``ACTIONS``,
    ``EXPRESSIONS`` and ``EVENT_INPUTS`` enter the text.
    """
    lines = ["    clamped = ()"]
    slots: dict[tuple[str, str], int] = {}
    raw = {}  # input variable -> the local holding its unclamped event value
    # The engine's inputs are exactly EVENT_INPUTS; the names are taken from there.
    for i, name in enumerate(sorted(EVENT_INPUTS)):
        var = engine.input_variables[name]
        raw[name] = f"e{i}"
        lo, hi = (repr(float(bound)) for bound in var.universe)
        lines += [f"    x{i} = e{i} = event.{EVENT_INPUTS[name]}",
                  f"    if x{i} < {lo}:", f"        x{i} = {lo}", f"        clamped += ({name!r},)",
                  f"    elif x{i} > {hi}:", f"        x{i} = {hi}", f"        clamped += ({name!r},)"]
        for term, mf in var.terms:
            slots[(name, term)] = slot = len(slots)
            lines.append(f"    d{slot} = {degree_source(mf, f'x{i}')}")
    kernel, namespace = rule_kernel(engine.rulebase, slots, engine.resolution)
    lines += kernel

    # The routes as conditionals that give what max(a, b) gives: a unless b > a.
    valence = raw["emotion"]
    routes = {"call_nurses": (f"(-{valence} if {valence} < 0.0 else 0.0)",
                              "(turned if turned > quiet else quiet)"),
              "record_data": ("1.0", "1.0"),
              "smile": (f"({valence} if {valence} > 0.0 else 0.0)", "0.0")}
    w_ea, w_fkbs, w_p = (repr(float(w)) for w in
                         (engine.weights.w_ea, engine.weights.w_fkbs, engine.weights.w_p))
    lines += [f"    if not -1.0 <= {valence} <= 1.0:",
              f"        raise ValidationError(VALENCE_RANGE.format({valence}))",
              f"    quiet = 1.0 - {raw['sound']}",
              f"    turned = 1.0 - d{slots[('head_angle', 'normal')]}"]
    for c, channel in enumerate(ACTION_CHANNELS):
        ea, p = routes[channel]
        lines.append(f"    c{c} = {w_ea} * {ea} + {w_fkbs} * f{c} + {w_p} * {p}")

    # record_data is unconditional: every stock rule logs, and a care record
    # with holes is worse than a noisy one. An alert adds call_nurses and
    # no_action and rules out the smile.
    alert = tuple(a for a in ACTIONS if a in ("no_action", "call_nurses", "record_data"))
    call, smile = ACTION_CHANNELS.index("call_nurses"), ACTION_CHANNELS.index("smile")
    lines += [f"    if c{call} >= {float(engine.thresholds['call_nurses'])!r}:",
              f"        actions, expression = {alert!r}, 'neutral'",
              "    else:",
              "        actions = ('record_data',)",
              f"        expression = 'smile' if c{smile} >= "
              f"{float(engine.thresholds['smile'])!r} else 'neutral'"]
    c_o = ", ".join(f"{channel!r}: c{c}" for c, channel in enumerate(ACTION_CHANNELS))
    degenerate = ", ".join(f"{channel!r}: t{c} == 0.0" for c, channel in enumerate(ACTION_CHANNELS))
    lines += ["    return BehaviorDecision(event.timestamp, event.subject_id, actions, expression,",
              f"                            fired, {{{c_o}}},",
              f"                            {{{degenerate}}},",
              f"                            clamped, {valence})"]
    namespace.update(BehaviorDecision=BehaviorDecision, ValidationError=ValidationError,
                     VALENCE_RANGE=VALENCE_RANGE)
    return "def decide(event):\n" + "\n".join(lines) + "\n", namespace


@dataclass(frozen=True)
class Engine:
    """Validated bundle of everything decide() needs, plus decide() itself.

    Frozen, so the function generated from it cannot go stale: ``source``
    is the text of ``decide(event)`` (see :func:`_decide_source`) and
    ``compiled`` that function, compiled once when the engine is built.
    """

    rulebase: RuleBase
    input_variables: dict[str, LinguisticVariable]
    weights: AppraisalWeights = DEFAULT_WEIGHTS
    thresholds: dict[str, float] = field(default_factory=default_thresholds)
    resolution: int = DEFAULT_RESOLUTION
    source: str = field(init=False, repr=False, compare=False)
    compiled: Callable[[PerceptionEvent], BehaviorDecision] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        if set(self.thresholds) != set(ACTION_CHANNELS):
            raise ConfigError(
                f"thresholds must cover channels {sorted(ACTION_CHANNELS)}, "
                f"got {sorted(self.thresholds)}"
            )
        for channel, value in self.thresholds.items():
            if not (isinstance(value, (int, float)) and math.isfinite(value)
                    and 0.0 < value < 1.0):
                raise ConfigError(f"threshold for {channel} must be in (0, 1), got {value!r}")
        check_resolution(self.resolution)
        for name, terms in self.rulebase.variables.items():
            var = self.input_variables.get(name)
            if var is None:
                raise ConfigError(f"rule base uses variable {name!r} with no definition")
            missing = set(terms) - set(var.term_names)
            if missing:
                raise ConfigError(
                    f"variable {name!r} is missing terms {sorted(missing)} used by the rule base"
                )
        for name in sorted(set(self.input_variables) | set(EVENT_INPUTS)):
            if name not in EVENT_INPUTS:
                raise ConfigError(f"no event field feeds input variable {name!r}")
            if name not in self.input_variables:
                raise ConfigError(f"missing input variable {name!r}, which the event feeds")
        if "normal" not in self.input_variables["head_angle"].term_names:
            raise ConfigError("variable 'head_angle' needs a 'normal' term, "
                              "which the perception route reads")
        source, namespace = _decide_source(self)
        exec(compile(source, "<compiled decide>", "exec"), namespace)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "compiled", namespace["decide"])

    @classmethod
    def default(cls, weights: AppraisalWeights = DEFAULT_WEIGHTS,
                thresholds: dict[str, float] | None = None,
                resolution: int = DEFAULT_RESOLUTION,
                rulebase: RuleBase | None = None) -> "Engine":
        return cls(
            rulebase=rulebase if rulebase is not None else default_rulebase(),
            input_variables=default_input_variables(),
            weights=weights,
            thresholds=thresholds if thresholds is not None else default_thresholds(),
            resolution=resolution,
        )

    def decide(self, event: PerceptionEvent) -> BehaviorDecision:
        """The stage functions' decision for ``event``, bit for bit, from the
        function generated when the engine was built."""
        return self.compiled(event)


def decision_record(event: PerceptionEvent, decision: BehaviorDecision) -> dict:
    """Flat log record: the event snapshot plus every decision field."""
    record = event.to_dict()
    record["timestamp"] = decision.timestamp
    record["subject_id"] = decision.subject_id
    record["actions"] = list(decision.actions)
    record["expression"] = decision.expression
    record["fired_rules"] = [[rid, strength] for rid, strength in decision.fired_rules]
    record["c_o"] = dict(decision.c_o)
    record["degenerate_flags"] = dict(decision.degenerate_flags)
    record["clamped_inputs"] = list(decision.clamped_inputs)
    record["valence"] = decision.valence
    return record


_ENCODER = json.JSONEncoder(sort_keys=True)


def serialize_record(record: dict) -> str:
    return _ENCODER.encode(record)


# Bytes read per step when scanning a log backwards for its last record.
TAIL_BLOCK_BYTES = 8192
# The line breaks text mode splits on.
_LINE_BREAK = re.compile(rb"\r\n|\r|\n")


def _parse_record(line: str):
    """What one log line holds: ``(record, None)``, ``(None, (column,
    message))`` if it is corrupt, or ``(None, None)`` if it is blank.

    A record is, after ``str.strip()``, a JSON object with a finite float
    ``timestamp`` and a string ``subject_id``. Reopening a log and
    :func:`log_read` both read lines through this, so they agree.
    """
    line = line.strip()
    if not line:
        return None, None
    obj, error = decode_json_line(line)
    if error is not None:
        return None, error
    ts = obj.get("timestamp") if isinstance(obj, dict) else None
    try:  # json parses NaN, Infinity and integers beyond the float range, none a time
        is_record = is_number(ts) and math.isfinite(ts) and isinstance(obj.get("subject_id"), str)
    except OverflowError:
        is_record = False
    return (obj, None) if is_record else (None, (1, "record lacks timestamp/subject_id"))


def _lines_backwards(handle):
    """The lines of a file open in binary mode, last first, undecoded.

    Reads back from the end in blocks, so a caller that stops early reads
    only the tail. Lines split as in text mode; a line that straddles blocks
    is joined as bytes. A CR LF pair cut by a block boundary reads as two
    breaks around an empty line.
    """
    pos = handle.seek(0, os.SEEK_END)
    pieces = []  # the line being gathered, its last block first
    while pos > 0:
        step = min(pos, TAIL_BLOCK_BYTES)
        pos -= step
        handle.seek(pos)
        parts = _LINE_BREAK.split(handle.read(step))
        pieces.append(parts.pop())
        if parts:
            yield b"".join(reversed(pieces))
            yield from reversed(parts[1:])
            pieces = [parts[0]]
    yield b"".join(reversed(pieces))


def _last_timestamp(path):
    """Timestamp of the last line of the log that is a record, or None."""
    with open(path, "rb") as handle:
        for raw in _lines_backwards(handle):
            record, _ = _parse_record(raw.decode("utf-8", errors="replace"))
            if record is not None:
                return record["timestamp"]
    return None


class EventLog:
    """Append-only JSONL decision log with monotone timestamps."""

    def __init__(self, path):
        self.path = Path(path)
        self._count = 0
        self._last_timestamp = None
        line = "\n"
        if self.path.exists():
            # Counting decodes every line but parses none, and only the lines
            # from the end back to the last record are parsed, so opening a
            # healthy log costs one decode pass however long it has grown.
            with open(self.path, "r", encoding="utf-8", errors="replace") as handle:
                for line in handle:
                    if not line.isspace():  # blank to log_read too: strip() leaves nothing
                        self._count += 1
            self._last_timestamp = _last_timestamp(self.path)
        self._handle = open(self.path, "a", encoding="utf-8")
        # A write cut short left a torn last line; start on a fresh one so the
        # next record is not glued onto it.
        if not line.endswith("\n"):
            self._handle.write("\n")

    def append(self, event: PerceptionEvent, decision: BehaviorDecision) -> int:
        """Append and flush one record; returns its 1-based position."""
        if self._handle.closed:
            raise ValidationError("log is closed")
        if self._last_timestamp is not None and decision.timestamp < self._last_timestamp:
            raise ValidationError(
                f"log timestamps must be non-decreasing, "
                f"{decision.timestamp} after {self._last_timestamp}"
            )
        line = serialize_record(decision_record(event, decision))
        self._handle.write(line + "\n")
        self._handle.flush()
        self._count += 1
        self._last_timestamp = decision.timestamp
        return self._count

    def close(self):
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def __len__(self):
        return self._count


def log_read(path, start: float | None = None, end: float | None = None,
             subject: str | None = None) -> tuple[list[dict], list[Diagnostic]]:
    """Read a decision log back, tolerating damage.

    Corrupt lines become positioned diagnostics; every intact record is
    still returned, filtered to the requested time window and subject and
    ordered by timestamp.
    """
    records = []
    diagnostics = []
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        for line_no, line in enumerate(handle, start=1):
            record, error = _parse_record(line)
            if error is not None:
                column, message = error
                diagnostics.append(Diagnostic(line_no, column, "corrupt", message))
            elif record is not None and (start is None or record["timestamp"] >= start) \
                    and (end is None or record["timestamp"] <= end) \
                    and (subject is None or record["subject_id"] == subject):
                records.append(record)
    records.sort(key=lambda r: r["timestamp"])
    return records, diagnostics
