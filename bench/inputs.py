"""Seeded input generators for the benchmark workloads.

Everything the program sees is written here from ``--seed``: a
multi-subject perception trace, a rule file (the stock nine rules or a wide
random base over the stock vocabulary) and, for the audit workload, a
pre-built decision log. The same seed and scale always give the same bytes.
"""

import json
import random
from dataclasses import dataclass, replace
from pathlib import Path

from carebot import (Engine, EventLog, PerceptionEvent,
                     default_rulebase, parse_rulebase, serialize_rulebase)

# The stock rule vocabulary; the wide base uses exactly these terms so the
# stock input variables serve it unchanged.
VOCABULARY = {
    "emotion": ("negative", "neutral", "positive"),
    "sound": ("low", "normal", "high"),
    "head_angle": ("normal", "low", "high"),
}

# Consequent lists for wide rules; together they drive every channel. No
# rule asserts ``neutral``: among 150 rules one always fires strongly, which
# holds the expression channel near its midpoint so that no event smiles.
WIDE_CONSEQUENTS = (
    ("record_data",),
    ("no_action", "call_nurses", "record_data"),
    ("call_nurses", "record_data"),
    ("record_data", "smile"),
    ("smile",),
)

WIDE_ATOMS = 5  # atoms per wide rule

SUBJECTS = tuple(f"s{i:02d}" for i in range(1, 9))
GAP_MS = 1000.0  # between events, as in the reference trace

# The repository's own trace. Its nine events, written to exercise the nine
# stock rules, are the only recorded inputs the repository has, so the
# generated traffic is built around them.
REFERENCE_TRACE = Path(__file__).resolve().parent.parent / "traces" / "nine_rules.jsonl"


@dataclass(frozen=True)
class Workload:
    """Sizes of one workload's generated inputs."""

    name: str
    events: int            # events in the trace that simulate replays
    wide_rules: int = 0    # 0: the stock nine-rule base
    audit_records: int = 0  # >0: simulate appends to a pre-built log this long
    audit_distinct: int = 0  # distinct events the pre-built log cycles through


SCALES = {
    "full": {
        "replay_stock": Workload("replay_stock", events=250),
        "replay_wide_rules": Workload("replay_wide_rules", events=100, wide_rules=150),
        "audit_log": Workload("audit_log", events=100, audit_records=1500,
                              audit_distinct=300),
    },
    "tiny": {
        "replay_stock": Workload("replay_stock", events=60),
        "replay_wide_rules": Workload("replay_wide_rules", events=30, wide_rules=40),
        "audit_log": Workload("audit_log", events=20, audit_records=200,
                              audit_distinct=50),
    },
}


@dataclass(frozen=True)
class Inputs:
    """Paths of one workload's generated files, plus the events as written."""

    trace: Path
    rules: Path
    log: Path
    pristine_log: Path | None  # pre-built log that each simulate starts from
    prebuilt_records: int
    events: list[dict]


def deck(rng: random.Random, items, count: int) -> list:
    """``count`` draws that use every item equally often, in random order.

    Drawing from decks rather than independently keeps the mix, and with it
    the work a workload does, nearly the same from seed to seed.
    """
    cards = [items[i % len(items)] for i in range(count)]
    rng.shuffle(cards)
    return cards


def reference_events() -> list[dict]:
    """The events of REFERENCE_TRACE (its first line is the header)."""
    with open(REFERENCE_TRACE, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()][1:]


def generate_events(rng: random.Random, count: int, start: float = 0.0) -> list[dict]:
    """Events near those of REFERENCE_TRACE, interleaved over SUBJECTS.

    Each event copies a reference event drawn from a deck, with its emotion
    probabilities scaled by up to ±20% and renormalised, its sound level
    moved by up to ±0.05 and its head angle by up to ±2.5°, so that events
    differ but keep the reference marginals: one dominant emotion class
    (happiness for seven of nine, anger for two), sound 0.05 to 0.95, head
    angle 0° to 45°. The subject count and the jitter widths are this
    benchmark's assumptions; the trace has one subject.
    """
    events = []
    for i, ref in enumerate(deck(rng, reference_events(), count)):
        probs = [p * rng.uniform(0.8, 1.2) for p in ref["emotion_probs"]]
        total = sum(probs)
        subject = rng.choice(SUBJECTS)
        sound = ref["sound_norm"] + rng.uniform(-0.05, 0.05)
        angle = ref["head_angle_deg"] + rng.uniform(-2.5, 2.5)
        events.append({
            "timestamp": start + GAP_MS * (i + 1),
            "subject_id": subject,
            "emotion_probs": [p / total for p in probs],
            "sound_norm": round(min(1.0, max(0.0, sound)), 4),
            "head_angle_deg": round(max(0.0, angle), 3),
            "truth_emotion": ref["truth_emotion"],
        })
    return events


def write_trace(path: Path, events: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"schema_version": 1, "subjects": list(SUBJECTS)}) + "\n")
        for fields in events:
            handle.write(json.dumps(fields) + "\n")


def _wide_condition(rng: random.Random, atoms: list, ops: list) -> str:
    """A random AND/OR tree over ``atoms``, taking its operators from ``ops``."""
    if len(atoms) == 1:
        variable, term = atoms[0]
        return f"{variable} IS {term}"
    left = rng.randint(1, len(atoms) - 1)
    op = ops.pop()
    text = f"{_wide_condition(rng, atoms[:left], ops)} {op} " \
           f"{_wide_condition(rng, atoms[left:], ops)}"
    return f"({text})" if rng.random() < 0.6 else text


def wide_rules_text(rng: random.Random, count: int) -> str:
    """A valid rule file of ``count`` nested AND/OR rules, 30% weighted.

    Every rule has five atoms, and atoms, operators (60% AND), weights and
    consequents come from decks, so a seed changes which rules there are
    but hardly how much work they are.
    """
    terms = [(name, term) for name, names in VOCABULARY.items() for term in names]
    atoms = deck(rng, terms, count * WIDE_ATOMS)
    ops = deck(rng, ("AND", "AND", "AND", "OR", "OR"), count * (WIDE_ATOMS - 1))
    weighted = deck(rng, (True,) * 3 + (False,) * 7, count)
    consequents = deck(rng, WIDE_CONSEQUENTS, count)
    lines = [f"VAR {name}: {', '.join(names)}" for name, names in VOCABULARY.items()]
    lines.append("")
    for i in range(count):
        weight = f" WEIGHT {rng.uniform(0.2, 1.0):.3f}" if weighted[i] else ""
        condition = _wide_condition(rng, atoms[i * WIDE_ATOMS:(i + 1) * WIDE_ATOMS], ops)
        lines.append(f"RULE {i + 1}{weight}: IF {condition} THEN {', '.join(consequents[i])}")
    return "\n".join(lines) + "\n"


def build_audit_log(path: Path, rng: random.Random, rules_text: str,
                    records: int, distinct: int) -> float:
    """Write a stock decision log of ``records`` records; return its last timestamp.

    The engine decides ``distinct`` events once and the log cycles through
    them under fresh timestamps and subjects, so every record is a true
    decision for its event at a fraction of the cost of deciding each.
    """
    engine = Engine.default(rulebase=parse_rulebase(rules_text))
    events = [PerceptionEvent(**fields) for fields in generate_events(rng, distinct)]
    decisions = [engine.decide(event) for event in events]
    with EventLog(path) as log:
        for i in range(records):
            timestamp = GAP_MS * (i + 1)
            subject = rng.choice(SUBJECTS)
            event, decision = events[i % distinct], decisions[i % distinct]
            log.append(replace(event, timestamp=timestamp, subject_id=subject),
                       replace(decision, timestamp=timestamp, subject_id=subject))
    return GAP_MS * records


def make_inputs(workload: Workload, seed: int, workdir: Path) -> Inputs:
    """Generate every file ``workload`` needs for ``seed`` under ``workdir``."""
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload.name}:{seed}")
    rules = workdir / "rules.fkb"
    if workload.wide_rules:
        rules_text = wide_rules_text(rng, workload.wide_rules)
    else:
        rules_text = serialize_rulebase(default_rulebase())
    rules.write_text(rules_text, encoding="utf-8")

    pristine = None
    start = 0.0
    if workload.audit_records:
        pristine = workdir / "audit_pristine.jsonl"
        pristine.unlink(missing_ok=True)
        start = build_audit_log(pristine, rng, rules_text, workload.audit_records,
                                workload.audit_distinct)

    events = generate_events(rng, workload.events, start=start)
    trace = workdir / "trace.jsonl"
    write_trace(trace, events)
    return Inputs(trace=trace, rules=rules, log=workdir / "decisions.jsonl",
                  pristine_log=pristine, prebuilt_records=workload.audit_records,
                  events=events)
