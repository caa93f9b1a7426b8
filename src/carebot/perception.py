"""Perception event model and line-delimited trace ingestion.

A trace is the engine's stand-in for live sensing: one JSON object per line,
the first line a header ``{"schema_version": 1, "subjects": [...]}``, every
following line one timestamped perception snapshot. Loading is total — any
byte sequence yields either a validated :class:`Trace` or a
:class:`~carebot.errors.TraceError` carrying a positioned diagnostic per
problem, never a crash.
"""

import json
import math
from dataclasses import dataclass, field

from .errors import Diagnostic, TraceError, ValidationError, decode_json_line, is_number
from .fuzzy import EMOTION_LABELS, valence_score

SCHEMA_VERSION = 1

_REQUIRED_KEYS = ("timestamp", "subject_id", "emotion_probs", "sound_norm",
                  "head_angle_deg")
_OPTIONAL_KEYS = ("user_action", "truth_emotion")
_HEADER_KEYS = ("schema_version", "subjects")


@dataclass(frozen=True)
class PerceptionEvent:
    """One sensor snapshot: emotion distribution, sound level, head pose."""

    timestamp: float
    subject_id: str
    emotion_probs: tuple[float, ...]
    sound_norm: float
    head_angle_deg: float
    user_action: str | None = None
    truth_emotion: str | None = None
    valence: float = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "emotion_probs",
                           tuple(float(p) for p in self.emotion_probs))
        if not math.isfinite(self.timestamp) or self.timestamp < 0:
            raise ValidationError(f"timestamp must be >= 0, got {self.timestamp!r}")
        if not self.subject_id:
            raise ValidationError("subject_id must be a non-empty string")
        # valence_score enforces length, sign, and sum.
        object.__setattr__(self, "valence", valence_score(self.emotion_probs))
        if not 0.0 <= self.sound_norm <= 1.0:
            raise ValidationError(f"sound_norm must be in [0, 1], got {self.sound_norm!r}")
        if not 0.0 <= self.head_angle_deg <= 90.0:
            raise ValidationError(
                f"head_angle_deg must be in [0, 90], got {self.head_angle_deg!r}"
            )
        if self.truth_emotion is not None and self.truth_emotion not in EMOTION_LABELS:
            raise ValidationError(
                f"truth_emotion must be one of {EMOTION_LABELS}, got {self.truth_emotion!r}"
            )

    def to_dict(self) -> dict:
        record = {
            "timestamp": self.timestamp,
            "subject_id": self.subject_id,
            "emotion_probs": list(self.emotion_probs),
            "sound_norm": self.sound_norm,
            "head_angle_deg": self.head_angle_deg,
        }
        if self.user_action is not None:
            record["user_action"] = self.user_action
        if self.truth_emotion is not None:
            record["truth_emotion"] = self.truth_emotion
        return record


@dataclass(frozen=True)
class Trace:
    """Validated, immutable sequence of perception events."""

    events: tuple[PerceptionEvent, ...]
    schema_version: int = SCHEMA_VERSION
    subjects: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.schema_version != SCHEMA_VERSION:
            raise ValidationError(
                f"unsupported schema version {self.schema_version} "
                f"(supported: {SCHEMA_VERSION})"
            )
        if not self.events:
            raise ValidationError("empty trace")
        last = None
        for event in self.events:
            if last is not None and event.timestamp < last:
                raise ValidationError(
                    f"timestamps must be non-decreasing, {event.timestamp} after {last}"
                )
            last = event.timestamp


def _type_name(value) -> str:
    return type(value).__name__


def _check_event_shape(obj: dict, lenient: bool) -> list[tuple[str, str]]:
    """Type/key problems as (code, message) pairs; range checks happen later."""
    problems = []
    for key in _REQUIRED_KEYS:
        if key not in obj:
            problems.append(("schema", f"missing field {key!r}"))
    if not lenient:
        for key in obj:
            if key not in _REQUIRED_KEYS and key not in _OPTIONAL_KEYS:
                problems.append(("schema", f"unknown field {key!r}"))
    if "timestamp" in obj and not is_number(obj["timestamp"]):
        problems.append(("schema", f"timestamp must be a number, got {_type_name(obj['timestamp'])}"))
    if "subject_id" in obj and not isinstance(obj["subject_id"], str):
        problems.append(("schema", f"subject_id must be a string, got {_type_name(obj['subject_id'])}"))
    if "emotion_probs" in obj:
        probs = obj["emotion_probs"]
        if not isinstance(probs, list) or not all(is_number(p) for p in probs):
            problems.append(("schema", "emotion_probs must be a list of numbers"))
        elif len(probs) != len(EMOTION_LABELS):
            problems.append(("schema",
                             f"emotion_probs needs {len(EMOTION_LABELS)} entries, got {len(probs)}"))
    for key in ("sound_norm", "head_angle_deg"):
        if key in obj and not is_number(obj[key]):
            problems.append(("schema", f"{key} must be a number, got {_type_name(obj[key])}"))
    for key in _OPTIONAL_KEYS:
        if obj.get(key) is not None and key in obj and not isinstance(obj[key], str):
            problems.append(("schema", f"{key} must be a string, got {_type_name(obj[key])}"))
    return problems


def load_trace(path, lenient: bool = False) -> Trace:
    """Load and validate a trace file.

    I/O problems propagate as OSError; every schema violation (bad shape,
    unknown key, bad header) and range violation (value outside its contract)
    is collected into one :class:`TraceError` with its line number.
    """
    diagnostics: list[Diagnostic] = []
    events: list[PerceptionEvent] = []
    header = None
    header_line = 0
    subjects = None
    last_timestamp = None

    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            obj, error = decode_json_line(line)
            if error is not None:
                column, message = error
                diagnostics.append(Diagnostic(line_no, column, "schema", message))
                continue
            if not isinstance(obj, dict):
                diagnostics.append(Diagnostic(line_no, 1, "schema",
                                              f"expected an object, got {_type_name(obj)}"))
                continue

            if header is None:
                header = obj
                header_line = line_no
                version = obj.get("schema_version")
                if isinstance(version, bool) or version != SCHEMA_VERSION:
                    diagnostics.append(Diagnostic(
                        line_no, 1, "schema",
                        f"unsupported schema_version {version!r} (supported: {SCHEMA_VERSION})"))
                roster = obj.get("subjects")
                if roster is not None:
                    if isinstance(roster, list) and all(isinstance(s, str) for s in roster):
                        subjects = tuple(roster)
                    else:
                        diagnostics.append(Diagnostic(line_no, 1, "schema",
                                                      "subjects must be a list of strings"))
                if not lenient:
                    for key in obj:
                        if key not in _HEADER_KEYS:
                            diagnostics.append(Diagnostic(line_no, 1, "schema",
                                                          f"unknown header field {key!r}"))
                continue

            shape_problems = _check_event_shape(obj, lenient)
            if shape_problems:
                diagnostics.extend(Diagnostic(line_no, 1, code, msg)
                                   for code, msg in shape_problems)
                continue
            try:
                event = PerceptionEvent(
                    timestamp=obj["timestamp"],
                    subject_id=obj["subject_id"],
                    emotion_probs=obj["emotion_probs"],
                    sound_norm=obj["sound_norm"],
                    head_angle_deg=obj["head_angle_deg"],
                    user_action=obj.get("user_action"),
                    truth_emotion=obj.get("truth_emotion"),
                )
            except (ValidationError, OverflowError) as err:  # OverflowError: int beyond float
                diagnostics.append(Diagnostic(line_no, 1, "range", str(err)))
                continue
            if subjects is not None and event.subject_id not in subjects:
                diagnostics.append(Diagnostic(line_no, 1, "schema",
                                              f"subject {event.subject_id!r} not in header roster"))
                continue
            if last_timestamp is not None and event.timestamp < last_timestamp:
                diagnostics.append(Diagnostic(
                    line_no, 1, "range",
                    f"timestamps must be non-decreasing, {event.timestamp} after {last_timestamp}"))
                continue
            last_timestamp = event.timestamp
            events.append(event)

    if header is None:
        diagnostics.append(Diagnostic(1, 1, "schema", "empty trace: missing header line"))
    elif not events and not diagnostics:
        diagnostics.append(Diagnostic(header_line, 1, "schema", "empty trace: no events"))
    if diagnostics:
        raise TraceError(diagnostics)
    return Trace(events=tuple(events), subjects=subjects)


def write_trace(trace: Trace, path) -> None:
    """Write a trace back out; loading the result reproduces ``trace``."""
    header: dict = {"schema_version": trace.schema_version}
    if trace.subjects is not None:
        header["subjects"] = list(trace.subjects)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(header) + "\n")
        for event in trace.events:
            handle.write(json.dumps(event.to_dict()) + "\n")
