"""Correctness gates over what the program wrote.

Each gate returns a list of problems (empty means it passed), so the runner
counts a failure per gate and the self-test can feed each gate doctored
input and watch it trip.
"""

import hashlib
import json

from oracles import naive_decide

# Same band as the engine-vs-oracle test: within it the engine's sampled
# centroid and the oracle's finer one may land on opposite sides.
ORACLE_BAND = 0.01
THRESHOLD = 0.5


def parse_log(data: bytes) -> list[dict]:
    """Every line of a decision log as a record; a bad line raises ValueError."""
    return [json.loads(line) for line in data.decode("utf-8").splitlines()]


def outcome(record: dict) -> tuple[tuple[str, ...], str]:
    """The discrete part of a decision: what the robot does and shows."""
    return tuple(record["actions"]), record["expression"]


def decision_digest(outcomes) -> str:
    """sha256 over the (actions, expression) sequence; float c_o is left out
    so a defuzzifier that rounds differently still passes."""
    text = "".join(f"{','.join(actions)}|{expression}\n" for actions, expression in outcomes)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_log(data: bytes, expected_records: int, reference: bytes | None) -> list[str]:
    """One intact record per line, the expected count, and the same bytes as
    the first run when there is one."""
    problems = []
    lines = data.splitlines()
    if len(lines) != expected_records:
        problems.append(f"log holds {len(lines)} lines, expected {expected_records}")
    try:
        parse_log(data)
    except ValueError as err:
        problems.append(f"log has an unreadable record: {err}")
    if reference is not None and data != reference:
        problems.append("log bytes differ from the first run of this workload")
    return problems


def check_session(events: list[dict], records: list[dict]) -> list[str]:
    """The session's records are the trace's events, in order."""
    if len(records) != len(events):
        return [f"{len(records)} session records for {len(events)} events"]
    for i, (fields, record) in enumerate(zip(events, records)):
        if record.get("timestamp") != fields["timestamp"] \
                or record.get("subject_id") != fields["subject_id"]:
            return [f"record {i} does not match event {i}"]
    return []


def check_oracle(events: list[dict], records: list[dict]) -> list[str]:
    """Stock-rule decisions against the from-scratch pipeline.

    Events whose oracle activation lies within ORACLE_BAND of the threshold
    on any channel are skipped; a trace that leaves none to compare fails.
    """
    checked = 0
    problems = []
    for i, (fields, record) in enumerate(zip(events, records)):
        actions, expression, c_o = naive_decide(
            tuple(fields["emotion_probs"]), fields["sound_norm"], fields["head_angle_deg"])
        if any(abs(value - THRESHOLD) < ORACLE_BAND for value in c_o.values()):
            continue
        checked += 1
        if set(record["actions"]) != actions or record["expression"] != expression:
            problems.append(f"event {i}: engine {outcome(record)} "
                            f"oracle {(sorted(actions), expression)}")
    if not checked:
        problems.append("no event lies clear of the oracle band")
    return problems


def check_outcomes(decided, logged) -> list[str]:
    """Decisions from a direct decide pass against the logged ones."""
    if list(decided) == list(logged):
        return []
    mismatched = sum(1 for a, b in zip(decided, logged) if a != b)
    return [f"{mismatched} of {len(logged)} decide() outcomes differ from the log"]
