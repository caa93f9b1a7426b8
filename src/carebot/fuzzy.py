"""Membership functions, linguistic variables, and fuzzification.

Crisp perception values (a valence score, a normalized sound level, a head
angle in degrees) are mapped to degree-of-membership vectors over the terms
of a linguistic variable. All membership functions are piecewise linear:
triangles in the interior of a universe and saturating shoulder trapezoids
at its bounds.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

TRIANGULAR = "triangular"
TRAPEZOIDAL = "trapezoidal"

# Probability vector order used everywhere a 6-vector appears.
EMOTION_LABELS = ("anger", "happiness", "sadness", "surprise", "disgust", "fear")

PROB_SUM_TOL = 1e-6


@dataclass(frozen=True)
class MembershipFunction:
    """A triangular or trapezoidal membership function.

    params are the ordered breakpoints on the owning variable's universe:
    (a, b, c) for a triangle peaking at b, (a, b, c, d) for a trapezoid with
    plateau [b, c]. Degenerate edges (a == b or c == d) give saturating
    shoulders: the plateau extends to the breakpoint itself.
    """

    shape: str
    params: tuple[float, ...]

    def __post_init__(self):
        expected = 3 if self.shape == TRIANGULAR else 4
        if self.shape not in (TRIANGULAR, TRAPEZOIDAL):
            raise ValidationError(f"unknown membership shape {self.shape!r}")
        if len(self.params) != expected:
            raise ValidationError(
                f"{self.shape} membership needs {expected} breakpoints, "
                f"got {len(self.params)}"
            )
        if any(not math.isfinite(p) for p in self.params):
            raise ValidationError(f"non-finite breakpoint in {self.params}")
        if any(p2 < p1 for p1, p2 in zip(self.params, self.params[1:])):
            raise ValidationError(f"breakpoints must be non-decreasing, got {self.params}")

    @property
    def support(self) -> tuple[float, float]:
        return self.params[0], self.params[-1]


def triangle(a: float, b: float, c: float) -> MembershipFunction:
    return MembershipFunction(TRIANGULAR, (float(a), float(b), float(c)))


def trapezoid(a: float, b: float, c: float, d: float) -> MembershipFunction:
    return MembershipFunction(TRAPEZOIDAL, (float(a), float(b), float(c), float(d)))


def membership_degree(mf: MembershipFunction, x: float) -> float:
    """Evaluate ``mf`` at ``x``. Always in [0, 1]; 0 outside the support."""
    if not math.isfinite(x):
        raise ValidationError(f"membership input must be finite, got {x!r}")
    if mf.shape == TRIANGULAR:
        a, b, c = mf.params
        lo, hi = b, b
    else:
        a, lo, hi, c = mf.params
    if x < a or x > c:
        return 0.0
    if lo <= x <= hi:
        return 1.0
    if x < lo:
        # a < x < lo here, so the rising edge is non-degenerate
        return (x - a) / (lo - a)
    return (c - x) / (c - hi)


def membership_grid(mf: MembershipFunction, xs: np.ndarray) -> np.ndarray:
    """Vectorized :func:`membership_degree` over a sample grid."""
    if mf.shape == TRIANGULAR:
        a, b, c = mf.params
        lo, hi = b, b
    else:
        a, lo, hi, c = mf.params
    up = np.clip((xs - a) / (lo - a), 0.0, 1.0) if lo > a else (xs >= a).astype(float)
    down = np.clip((c - xs) / (c - hi), 0.0, 1.0) if c > hi else (xs <= c).astype(float)
    return np.minimum(up, down)


@dataclass(frozen=True)
class LinguisticVariable:
    """A named quantity partitioned into named fuzzy terms.

    The universe is a closed real interval; every term's support must lie
    within it and together the terms must cover it (no x with all degrees 0).
    """

    name: str
    universe: tuple[float, float]
    terms: tuple[tuple[str, MembershipFunction], ...]

    def __post_init__(self):
        if isinstance(self.terms, dict):
            object.__setattr__(self, "terms", tuple(self.terms.items()))
        else:
            object.__setattr__(self, "terms", tuple(self.terms))
        lo, hi = self.universe
        if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
            raise ValidationError(f"{self.name}: bad universe {self.universe}")
        names = [t for t, _ in self.terms]
        if len(names) != len(set(names)):
            raise ValidationError(f"{self.name}: duplicate term names in {names}")
        if not self.terms:
            raise ValidationError(f"{self.name}: variable needs at least one term")
        for term, mf in self.terms:
            s_lo, s_hi = mf.support
            if s_lo < lo or s_hi > hi:
                raise ValidationError(
                    f"{self.name}.{term}: support [{s_lo}, {s_hi}] outside "
                    f"universe [{lo}, {hi}]"
                )
        # Exact, not sampled: between two neighbouring breakpoints every term
        # is one linear piece, positive on all of that open interval or on none
        # of it, so the breakpoints and one midpoint per pair decide coverage.
        # Each end is halved before adding, so the midpoint cannot overflow.
        points = sorted({lo, hi, *(p for _, mf in self.terms for p in mf.params)})
        for x in sorted(points + [u / 2 + v / 2 for u, v in zip(points, points[1:])]):
            if not any(membership_degree(mf, x) for _, mf in self.terms):
                raise ValidationError(f"{self.name}: no term covers x={x:g}")

    @property
    def term_names(self) -> tuple[str, ...]:
        return tuple(t for t, _ in self.terms)

    def term(self, name: str) -> MembershipFunction:
        for term, mf in self.terms:
            if term == name:
                return mf
        raise ValidationError(f"{self.name}: unknown term {name!r}")

    @property
    def midpoint(self) -> float:
        lo, hi = self.universe
        return (lo + hi) / 2.0


@dataclass(frozen=True)
class FuzzifiedValue:
    """Per-term membership degrees of one crisp input.

    ``crisp_input`` keeps the original value; when it fell outside the
    universe the degrees were computed at the nearest bound and ``clamped``
    is set so the event log can record it.
    """

    variable: str
    degrees: dict[str, float]
    crisp_input: float
    clamped: bool = False


def fuzzify(var: LinguisticVariable, x: float) -> FuzzifiedValue:
    """Map a crisp value to degrees over every term of ``var``.

    Out-of-universe inputs are clamped to the nearest bound rather than
    rejected — a live robot must not halt on sensor noise.
    """
    if not math.isfinite(x):
        raise ValidationError(f"{var.name}: crisp input must be finite, got {x!r}")
    lo, hi = var.universe
    clamped_x = min(max(x, lo), hi)
    degrees = {term: membership_degree(mf, clamped_x) for term, mf in var.terms}
    return FuzzifiedValue(
        variable=var.name,
        degrees=degrees,
        crisp_input=x,
        clamped=clamped_x != x,
    )


def valence_score(emotion_probs) -> float:
    """Collapse a 6-class emotion distribution to one polarity score in [-1, 1].

    The score is P(happiness) minus the summed probability of the five
    negative classes (anger, sadness, surprise, disgust, fear); it is the
    crisp input of the emotion-state variable. A sum that is off by up to
    ``PROB_SUM_TOL`` can push the difference just past +/-1; it is clamped.
    """
    probs = tuple(float(p) for p in emotion_probs)
    if len(probs) != len(EMOTION_LABELS):
        raise ValidationError(
            f"emotion probabilities need {len(EMOTION_LABELS)} entries, got {len(probs)}"
        )
    if not all(p >= 0.0 for p in probs):
        raise ValidationError(f"emotion probabilities must be >= 0 and not NaN, got {probs}")
    total = sum(probs)
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise ValidationError(
            f"emotion probabilities must sum to 1 +/- {PROB_SUM_TOL:g}, got {total!r}"
        )
    happiness = probs[EMOTION_LABELS.index("happiness")]
    return min(1.0, max(-1.0, happiness - (total - happiness)))


def three_term_variable(
    name: str,
    universe: tuple[float, float],
    anchors: tuple[float, float, float],
    term_names: tuple[str, str, str],
) -> LinguisticVariable:
    """Build a variable from three single-point anchors.

    First term: left shoulder saturated from the universe minimum through the
    first anchor, falling to 0 at the second. Middle term: triangle over the
    anchors. Last term: right shoulder rising from the second anchor,
    saturated from the third to the universe maximum.
    """
    lo, hi = universe
    a1, a2, a3 = anchors
    if not lo <= a1 < a2 < a3 <= hi:
        raise ValidationError(f"{name}: anchors {anchors} must be increasing within {universe}")
    first, middle, last = term_names
    return LinguisticVariable(
        name=name,
        universe=universe,
        terms=(
            (first, trapezoid(lo, lo, a1, a2)),
            (middle, triangle(a1, a2, a3)),
            (last, trapezoid(a2, a3, hi, hi)),
        ),
    )


def default_emotion_variable() -> LinguisticVariable:
    """Valence in [-1, 1]: negative / neutral / positive."""
    return LinguisticVariable(
        name="emotion",
        universe=(-1.0, 1.0),
        terms=(
            ("negative", trapezoid(-1.0, -1.0, -1.0, 0.0)),
            ("neutral", triangle(-0.5, 0.0, 0.5)),
            ("positive", trapezoid(0.0, 1.0, 1.0, 1.0)),
        ),
    )


def default_sound_variable() -> LinguisticVariable:
    """Normalized sound amplitude in [0, 1]: low / normal / high."""
    return three_term_variable(
        "sound", (0.0, 1.0), (0.1, 0.5, 0.9), ("low", "normal", "high")
    )


def default_head_angle_variable() -> LinguisticVariable:
    """Vertical head rotation in degrees [0, 90]: normal / low / high.

    The class anchors are normal at 0, low at 25, high at 45 degrees — the
    term ordering is deliberate, not a typo.
    """
    lo, hi = 0.0, 90.0
    return LinguisticVariable(
        name="head_angle",
        universe=(lo, hi),
        terms=(
            ("normal", trapezoid(lo, lo, 0.0, 25.0)),
            ("low", triangle(0.0, 25.0, 45.0)),
            ("high", trapezoid(25.0, 45.0, hi, hi)),
        ),
    )


def default_input_variables() -> dict[str, LinguisticVariable]:
    """The three perception-side variables keyed by name."""
    variables = (
        default_emotion_variable(),
        default_sound_variable(),
        default_head_angle_variable(),
    )
    return {v.name: v for v in variables}
