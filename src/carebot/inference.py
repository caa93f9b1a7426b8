"""Rule evaluation and weighted center-of-gravity defuzzification.

Classic max-min composition: antecedent firing strengths fold atom degrees
with min (AND) and max (OR); each fired rule clips its consequent terms at
the firing strength (scaled by the rule weight); clipped sets are combined
per output variable by max; the combined set is collapsed to a crisp value
by a sampled weighted centroid.

The discrete consequent vocabulary is mapped onto continuous intensity
channels, one output variable per action, each on [0, 1] with low/high
ramp terms. A rule consequent asserts the high term of every channel it
names (expression ``neutral`` asserts the low term of the expression
channel). The behavior module later thresholds these intensities back to
discrete actions.

For that low/high ramp pair the sampled sums have a closed form
(:func:`ramp_wcog`) whose cost does not depend on the number of samples;
any other output variable is sampled on its grid.

:func:`rule_kernel` is what an engine runs per event: the rule base written
once, when the engine is built, as straight-line Python source for the
engine's generated ``decide``. ``fire_rules``, ``aggregate`` and
``defuzzify_wcog`` are the same stages one at a time, for any output
variable; on the stock ones the generated form gives bit-identical results.
"""

import math
from dataclasses import dataclass
from itertools import compress

from .errors import ConfigError, EvaluationError
from .fuzzy import FuzzifiedValue, LinguisticVariable, membership_grid, trapezoid
from .rules import MAX_CONDITION_DEPTH, Atom, Condition, Consequent, Rule, RuleBase

DEFAULT_RESOLUTION = 1001
# Above 2**53, N * l no longer names a grid index exactly (see ramp_wcog).
MAX_RESOLUTION = 2**53

# Appraisal channel -> output variable carrying its rule-driven intensity.
CHANNEL_OUTPUTS = {
    "call_nurses": "call_nurses_intensity",
    "record_data": "record_intensity",
    "smile": "expression_intensity",
}
ACTION_CHANNELS = tuple(CHANNEL_OUTPUTS)


@dataclass(frozen=True)
class FiringRecord:
    """How strongly one rule fired, with per-atom degrees for provenance."""

    rule_id: int
    strength: float
    atom_degrees: tuple[tuple[str, str, float], ...]


@dataclass(frozen=True)
class AggregatedOutput:
    """Combined clipped consequent set for one output variable."""

    variable: str
    degrees: dict[str, float]
    contributing: tuple[int, ...]


@dataclass(frozen=True)
class CrispOutput:
    variable: str
    value: float
    degenerate: bool = False


# The output terms of every stock channel: low = 1 - x and high = x on [0, 1].
RAMP_TERMS = (
    ("low", trapezoid(0.0, 0.0, 0.0, 1.0)),
    ("high", trapezoid(0.0, 1.0, 1.0, 1.0)),
)


def default_output_variables() -> dict[str, LinguisticVariable]:
    """One intensity variable per action channel, ramp terms low/high on [0, 1]."""
    return {name: LinguisticVariable(name=name, universe=(0.0, 1.0), terms=RAMP_TERMS)
            for name in CHANNEL_OUTPUTS.values()}


def check_resolution(resolution) -> None:
    """Reject a sample count that is not an int in [2, MAX_RESOLUTION]."""
    if isinstance(resolution, bool) or not isinstance(resolution, int) \
            or not 2 <= resolution <= MAX_RESOLUTION:
        raise ConfigError(f"resolution must be an integer in [2, 2**53], got {resolution!r}")


def is_ramp_pair(var: LinguisticVariable) -> bool:
    """Whether ``var`` is the low/high ramp pair on [0, 1] that
    :func:`ramp_wcog` sums in closed form."""
    return tuple(var.universe) == (0.0, 1.0) and var.terms == RAMP_TERMS


def ramp_wcog(l: float, h: float, n: int) -> tuple[float, float]:
    """Sum of mu and of x * mu over ``np.linspace(0, 1, n)``, n >= 2, for
    mu(x) = max(min(l, 1 - x), min(h, x)): the ramp pair clipped at l and h.

    Clips are taken within [0, 1], a NaN clip as 0. With N = n - 1 and
    v = min(l, h, 0.5), the low set wins up to the crossing point x* (v when
    l <= h, else 1 - v) and the high set after it, so mu is the constant l,
    then 1 - x, then x, then the constant h, split at the grid indices a, b
    and c of min(x*, 1 - l), x* and max(x*, h). Each index comes from N * l,
    N * v or N * h, never from 1 - l or 1 - v, which round small clips away.
    mu is continuous, so a grid point on a split belongs to either piece.
    Each piece sums a constant, i or i^2 over an index range; those sums are
    made in integers from the triangular numbers t_k = k (k + 1) / 2 and
    k (k + 1) (2k + 1) / 6 = t_k (2k + 1) / 3. The total is 0 exactly when
    l = h = 0.
    """
    # Conditionals, not min() and max(): this runs per channel per event.
    if l > 1.0:
        l = 1.0
    elif not l > 0.0:
        l = 0.0
    if h > 1.0:
        h = 1.0
    elif not h > 0.0:
        h = 0.0
    last = n - 1
    v = l if l <= h else h
    if v > 0.5:
        v = 0.5
    b = int(last * v) if l <= h else last - math.ceil(last * v)
    a = last - math.ceil(last * l)
    if a > b:
        a = b
    c = int(last * h)
    if c < b:
        c = b
    t_a, t_b, t_c = a * (a + 1) // 2, b * (b + 1) // 2, c * (c + 1) // 2
    # The pieces: i in [0, a] at l, (a, b] at 1 - i/N, (b, c] at i/N, (c, N] at h.
    total = (a + 1) * l + (last - c) * h + ((b - a) * last - 2 * t_b + t_a + t_c) / last
    squares = (t_a * (2 * a + 1) + t_c * (2 * c + 1) - 2 * t_b * (2 * b + 1)) // 3
    moment = ((l * t_a + h * (last * n // 2 - t_c)) / last
              + (last * (t_b - t_a) + squares) / (last * last))
    return total, moment


def consequent_assertions(consequent: Consequent) -> tuple[tuple[str, str], ...]:
    """(output variable, term) pairs asserted by a consequent.

    no_action asserts nothing: it is derived from the alerting decision
    downstream rather than carried on its own channel.
    """
    assertions = []
    for action in consequent.actions:
        if action == "call_nurses":
            assertions.append((CHANNEL_OUTPUTS["call_nurses"], "high"))
        elif action == "record_data":
            assertions.append((CHANNEL_OUTPUTS["record_data"], "high"))
    if consequent.expression == "smile":
        assertions.append((CHANNEL_OUTPUTS["smile"], "high"))
    elif consequent.expression == "neutral":
        assertions.append((CHANNEL_OUTPUTS["smile"], "low"))
    return tuple(sorted(assertions))


def _condition_strength(node: Condition, inputs: dict[str, FuzzifiedValue],
                        rule: Rule, atoms: list) -> float:
    if isinstance(node, Atom):
        fuzzified = inputs.get(node.variable)
        if fuzzified is None:
            raise EvaluationError(
                f"rule {rule.id}: no input for variable {node.variable!r}"
            )
        if node.term not in fuzzified.degrees:
            raise EvaluationError(
                f"rule {rule.id}: input for {node.variable!r} has no term {node.term!r}"
            )
        degree = fuzzified.degrees[node.term]
        atoms.append((node.variable, node.term, degree))
        return degree
    left = _condition_strength(node.left, inputs, rule, atoms)
    right = _condition_strength(node.right, inputs, rule, atoms)
    return min(left, right) if node.op == "AND" else max(left, right)


def fire_rules(rb: RuleBase, inputs: dict[str, FuzzifiedValue]) -> list[FiringRecord]:
    """Evaluate every rule's antecedent; one record per rule, ordered by id."""
    records = []
    for rule in sorted(rb.rules, key=lambda r: r.id):
        atoms: list[tuple[str, str, float]] = []
        strength = _condition_strength(rule.antecedent, inputs, rule, atoms)
        records.append(FiringRecord(rule.id, strength, tuple(atoms)))
    return records


def aggregate(firings: list[FiringRecord], rb: RuleBase,
              output_var: LinguisticVariable) -> AggregatedOutput:
    """Max-combine the clipped consequent sets landing on one output variable.

    A variable no rule asserts comes back with all-zero degrees — that is
    the "no evidence" case, not an error.
    """
    strengths = {f.rule_id: f.strength for f in firings}
    degrees = {term: 0.0 for term in output_var.term_names}
    contributing = []
    for rule in rb.rules:
        if rule.id not in strengths:
            continue
        clipped = min(strengths[rule.id], 1.0) * rule.weight
        for variable, term in consequent_assertions(rule.consequent):
            if variable != output_var.name:
                continue
            if term not in degrees:
                raise ConfigError(
                    f"rule {rule.id} asserts unknown term {term!r} on {variable!r}"
                )
            degrees[term] = max(degrees[term], clipped)
            if clipped > 0.0:
                contributing.append(rule.id)
    return AggregatedOutput(
        variable=output_var.name,
        degrees=degrees,
        contributing=tuple(sorted(set(contributing))),
    )


def defuzzify_wcog(agg: AggregatedOutput, var: LinguisticVariable,
                   resolution: int = DEFAULT_RESOLUTION) -> CrispOutput:
    """Weighted center of gravity over a uniformly sampled universe.

    The combined membership at x is the max over terms of the term's
    membership clipped at its aggregated degree. The low/high ramp pair is
    summed in closed form (:func:`ramp_wcog`), any other variable on its
    grid. All-zero membership has no centroid; the universe midpoint is
    returned with the degenerate flag set so downstream arbitration can treat
    it as "no evidence".
    """
    if resolution < 2:
        raise ConfigError(f"defuzzification resolution must be >= 2, got {resolution}")
    if agg.variable != var.name:
        raise ConfigError(
            f"aggregated output is for {agg.variable!r}, not {var.name!r}"
        )
    lo, hi = var.universe
    if is_ramp_pair(var):
        total, moment = ramp_wcog(agg.degrees.get("low", 0.0), agg.degrees.get("high", 0.0),
                                  resolution)
    else:
        import numpy as np

        xs = np.linspace(lo, hi, resolution)
        mu = np.zeros(resolution)
        for term, mf in var.terms:
            clip = agg.degrees.get(term, 0.0)
            if clip > 0.0:
                mu = np.maximum(mu, np.minimum(clip, membership_grid(mf, xs)))
        total = float(mu.sum())
        moment = float((xs * mu).sum())
    if total == 0.0:
        return CrispOutput(var.name, var.midpoint, degenerate=True)
    return CrispOutput(var.name, min(max(moment / total, lo), hi), degenerate=False)


def rule_kernel(rulebase: RuleBase, slots: dict[tuple[str, str], int],
                resolution: int) -> tuple[list[str], dict]:
    """Python source lines that run ``rulebase`` on term degrees, and the
    globals those lines read.

    The lines read the degree of (input variable, term) from the local
    ``d<slot>`` named by ``slots``. They leave in ``fired`` the fired rules,
    (id, strength) pairs with strength > 0 by id; in ``f<c>`` the crisp value
    of channel ``ACTION_CHANNELS[c]``; and in ``t<c>`` its membership mass.
    A channel with no mass (``t<c> == 0.0``) is degenerate and reads 0.0.

    This is what ``fire_rules``, ``aggregate`` and ``defuzzify_wcog`` do on
    ``default_output_variables()``, with the same float operations. Each
    distinct AND/OR node, its operands taken in either order, is one local
    ``n = a if a <= b else b`` (OR ``>=``), so repeated subtrees are
    computed once; a node over two equal operands is that operand. Each
    (channel, ramp term) is one ``max(0.0, ...)`` of its asserting rules'
    clips, a clip repeated within it listed once, and ``s * w`` equals
    ``min(s, 1) * w`` as s <= 1 (the product is left out where w is 1).
    Every channel calls :func:`ramp_wcog`. All of this is exact: degrees are
    never NaN or -0.0, and on such values min and max do not depend on
    operand order or repetition.

    Only slot indices, ``repr`` of float weights and the channel names of
    ``ACTION_CHANNELS`` enter the text; the rule ids are the global ``IDS``.
    """
    rules = sorted(rulebase.rules, key=lambda r: r.id)
    lines = []
    local_of: dict[tuple[str, str, str], str] = {}

    def ref(node: Condition, depth: int = 0) -> str:
        if depth > MAX_CONDITION_DEPTH:  # a condition built in Python, not parsed
            raise ConfigError(f"a condition is nested deeper than {MAX_CONDITION_DEPTH} levels")
        if isinstance(node, Atom):
            slot = slots.get((node.variable, node.term))
            if slot is None:
                raise ConfigError(
                    f"rule base tests {node.variable!r} IS {node.term!r}, "
                    f"which no input variable defines"
                )
            return f"d{slot}"
        left, right = ref(node.left, depth + 1), ref(node.right, depth + 1)
        if left == right:  # min(a, a) and max(a, a) are a
            return left
        if right < left:
            left, right = right, left
        key = (left, "<=" if node.op == "AND" else ">=", right)
        name = local_of.get(key)
        if name is None:
            local_of[key] = name = f"n{len(local_of)}"
            lines.append(f"    {name} = {left} if {left} {key[1]} {right} else {right}")
        return name

    strengths = [ref(rule.antecedent) for rule in rules]
    lines.append(f"    strengths = ({''.join(f'{s}, ' for s in strengths)})")
    lines.append("    fired = tuple(compress(zip(IDS, strengths), strengths))")
    # terms[(channel, ramp term)]: what each asserting rule clips that term at.
    terms: dict[tuple[str, str], list[str]] = {}
    channel_of = {variable: channel for channel, variable in CHANNEL_OUTPUTS.items()}
    for rule, strength in zip(rules, strengths):
        weight = float(rule.weight)
        if not math.isfinite(weight):
            raise ConfigError(f"rule {rule.id}: weight must be finite, got {rule.weight!r}")
        clip = strength if weight == 1.0 else f"{strength} * {weight!r}"
        for variable, term in consequent_assertions(rule.consequent):
            terms.setdefault((channel_of[variable], term), []).append(clip)
    for c, channel in enumerate(ACTION_CHANNELS):
        low, high = (f"max(0.0, {', '.join(dict.fromkeys(terms[(channel, term)]))})"
                     if (channel, term) in terms else "0.0" for term, _ in RAMP_TERMS)
        lines.append(f"    t{c}, m{c} = ramp_wcog({low}, {high}, RESOLUTION)")
        # min(max(m / t, 0.0), 1.0) as conditionals, which give the same value.
        lines += [f"    if t{c} == 0.0:",
                  f"        f{c} = 0.0",
                  "    else:",
                  f"        f{c} = m{c} / t{c}",
                  f"        if f{c} < 0.0:",
                  f"            f{c} = 0.0",
                  f"        elif f{c} > 1.0:",
                  f"            f{c} = 1.0"]
    namespace = {"IDS": tuple(rule.id for rule in rules), "RESOLUTION": resolution,
                 "compress": compress, "ramp_wcog": ramp_wcog}
    return lines, namespace
