"""Confusion-matrix accumulation and accuracy reporting.

Counts accumulate with rows as ground truth and columns as prediction.
Reports carry row-normalized percentages, per-class accuracy (the diagonal),
their unweighted mean as the headline figure, and per-sample micro accuracy
labeled separately. Reference tables whose raw counts are unavailable load
from percentage fixtures; any overall figure claimed by the fixture's source
is rendered next to the recomputed mean so discrepancies stay visible.
"""

import csv
import math
from dataclasses import dataclass, field

from .errors import EvaluationError, ValidationError
from .fuzzy import EMOTION_LABELS

ROW_SUM_TOL = 0.2

DISPLAY_NAMES = {
    "anger": "Ang.",
    "happiness": "Hap.",
    "sadness": "Sad",
    "surprise": "Surp.",
    "disgust": "Disg.",
    "fear": "Fear",
}


def _display(label: str) -> str:
    return DISPLAY_NAMES.get(label, label)


@dataclass
class ConfusionMatrix:
    labels: tuple[str, ...]
    counts: list[list[int]] = field(default_factory=list)

    def __post_init__(self):
        self.labels = tuple(self.labels)
        if not self.labels:
            raise ValidationError("label set must be non-empty")
        if len(set(self.labels)) != len(self.labels):
            raise ValidationError("labels must be unique")
        if not self.counts:
            self.counts = [[0] * len(self.labels) for _ in self.labels]
        if len(self.counts) != len(self.labels) or any(
                len(row) != len(self.labels) for row in self.counts):
            raise ValidationError("counts must be square and match the labels")
        for row in self.counts:
            for cell in row:
                if not isinstance(cell, int) or cell < 0:
                    raise ValidationError(f"counts must be non-negative integers, got {cell!r}")

    @classmethod
    def empty(cls, labels=EMOTION_LABELS) -> "ConfusionMatrix":
        return cls(labels=tuple(labels))

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise EvaluationError(f"unknown label {label!r}, expected one of {self.labels}") from None

    def merge(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        """Cell-wise sum; the safe way to combine concurrent accumulators."""
        if other.labels != self.labels:
            raise EvaluationError("cannot merge matrices with different label sets")
        summed = [[a + b for a, b in zip(row_a, row_b)]
                  for row_a, row_b in zip(self.counts, other.counts)]
        return ConfusionMatrix(labels=self.labels, counts=summed)

    @property
    def total(self) -> int:
        return sum(sum(row) for row in self.counts)


def accumulate(cm: ConfusionMatrix, truth: str, pred: str) -> ConfusionMatrix:
    cm.counts[cm.index(truth)][cm.index(pred)] += 1
    return cm


@dataclass(frozen=True)
class AccuracyReport:
    labels: tuple[str, ...]
    percentages: tuple[tuple[float, ...], ...]
    per_class: tuple[float, ...]
    overall: float
    micro_accuracy: float | None = None
    sample_count: int | None = None
    claimed_overall: float | None = None
    row_sum_warnings: tuple[str, ...] = ()


def report(cm: ConfusionMatrix) -> AccuracyReport:
    """Row-normalize to percentages and summarize accuracy."""
    for label, row in zip(cm.labels, cm.counts):
        if sum(row) == 0:
            raise EvaluationError(f"no samples with truth label {label!r}")
    percentages = tuple(
        tuple(100.0 * cell / sum(row) for cell in row) for row in cm.counts
    )
    per_class = tuple(row[i] for i, row in enumerate(percentages))
    overall = sum(per_class) / len(per_class)
    correct = sum(cm.counts[i][i] for i in range(len(cm.labels)))
    return AccuracyReport(
        labels=cm.labels,
        percentages=percentages,
        per_class=per_class,
        overall=overall,
        micro_accuracy=100.0 * correct / cm.total,
        sample_count=cm.total,
    )


def report_from_percentages(labels, rows,
                            claimed_overall: float | None = None) -> AccuracyReport:
    """Build a report from already-normalized rows (raw counts unavailable).

    Rows are taken as given; a row whose sum strays from 100 beyond rounding
    tolerance is flagged rather than rejected, so published tables with
    arithmetic slips still load and render.
    """
    labels = tuple(labels)
    rows = tuple(tuple(float(cell) for cell in row) for row in rows)
    if len(rows) != len(labels) or any(len(row) != len(labels) for row in rows):
        raise EvaluationError("percentage rows must form a square matrix over the labels")
    for row in rows:
        for cell in row:
            if not math.isfinite(cell) or cell < 0:
                raise EvaluationError(f"percentages must be finite and >= 0, got {cell!r}")
    warnings = tuple(label for label, row in zip(labels, rows)
                     if abs(sum(row) - 100.0) > ROW_SUM_TOL)
    per_class = tuple(row[i] for i, row in enumerate(rows))
    return AccuracyReport(
        labels=labels,
        percentages=rows,
        per_class=per_class,
        overall=sum(per_class) / len(per_class),
        claimed_overall=claimed_overall,
        row_sum_warnings=warnings,
    )


def load_fixture(path) -> AccuracyReport:
    """Load a tab-separated percentage table.

    Lines starting with ``#`` are comments; ``# claimed_overall: X`` records
    the overall figure the table's source asserts. The first data row is a
    header: ``label`` followed by the class names in column order.
    """
    claimed = None
    data_rows = []
    with open(path, "r", encoding="utf-8") as handle:
        for raw in handle:
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            if line.lstrip().startswith("#"):
                text = line.lstrip().lstrip("#").strip()
                if text.startswith("claimed_overall:"):
                    claimed = float(text.split(":", 1)[1].strip())
                continue
            data_rows.append(line)
    reader = csv.reader(data_rows, delimiter="\t")
    table = [row for row in reader]
    if not table or table[0][:1] != ["label"]:
        raise EvaluationError(f"{path}: expected a header row starting with 'label'")
    labels = tuple(table[0][1:])
    rows = []
    row_labels = []
    for row in table[1:]:
        if len(row) != len(labels) + 1:
            raise EvaluationError(f"{path}: row for {row[0]!r} has {len(row) - 1} cells, "
                                  f"expected {len(labels)}")
        row_labels.append(row[0])
        try:
            rows.append([float(cell) for cell in row[1:]])
        except ValueError as err:
            raise EvaluationError(f"{path}: {err}") from None
    if tuple(row_labels) != labels:
        raise EvaluationError(f"{path}: row labels {row_labels} do not match columns {list(labels)}")
    return report_from_percentages(labels, rows, claimed_overall=claimed)


def predict_dominant(emotion_probs) -> str:
    """Highest-probability class; ties break toward the earlier label."""
    best = max(range(len(EMOTION_LABELS)), key=lambda i: (emotion_probs[i], -i))
    return EMOTION_LABELS[best]


def matrix_from_events(events) -> ConfusionMatrix:
    """Accumulate truth/prediction pairs from events carrying truth_emotion."""
    cm = ConfusionMatrix.empty()
    seen = 0
    for event in events:
        if event.truth_emotion is None:
            continue
        accumulate(cm, event.truth_emotion, predict_dominant(event.emotion_probs))
        seen += 1
    if seen == 0:
        raise EvaluationError("no events carry truth_emotion; nothing to score")
    return cm


def render_table(rep: AccuracyReport) -> str:
    """Fixed-width text table plus the accuracy summary lines."""
    names = [_display(label) for label in rep.labels]
    width = max(6, max(len(n) for n in names) + 1)
    first = max(7, width)
    lines = []
    header = "Truth".ljust(first) + "".join(n.rjust(width) for n in names)
    lines.append(header)
    for name, row in zip(names, rep.percentages):
        lines.append(name.ljust(first) + "".join(f"{cell:.1f}".rjust(width) for cell in row))
    lines.append("")
    per_class = ", ".join(f"{_display(label)} {value:.1f}"
                          for label, value in zip(rep.labels, rep.per_class))
    lines.append(f"Per-class accuracy: {per_class}")
    lines.append(f"Overall accuracy (mean of per-class): {rep.overall:.1f}%")
    if rep.micro_accuracy is not None:
        lines.append(f"Micro accuracy (per sample, n={rep.sample_count}): "
                     f"{rep.micro_accuracy:.1f}%")
    if rep.claimed_overall is not None and abs(rep.claimed_overall - rep.overall) > 0.05:
        lines.append(
            f"Caveat: the source of this table claims {rep.claimed_overall:.1f}% overall, "
            f"but the mean of its own diagonal is {rep.overall:.1f}%; "
            "the recomputed value is shown above."
        )
    for label in rep.row_sum_warnings:
        total = sum(rep.percentages[rep.labels.index(label)])
        lines.append(f"Note: row {_display(label)} sums to {total:.1f}%, not 100%.")
    return "\n".join(lines)
