"""Rule DSL: parsing, validation, diagnostics, canonical serialization."""

import random

import pytest

from carebot.errors import Diagnostic, RuleBaseError, RuleSyntaxError, RuleValidationError
from carebot.rules import (MAX_CONDITION_DEPTH, Atom, BinOp, ParseContext, default_rulebase,
                           parse_condition, parse_rule, parse_rulebase,
                           serialize_rule, serialize_rulebase)
from oracles import random_rulebase_text

CONTEXT = ParseContext(variables={
    "emotion": ("negative", "neutral", "positive"),
    "sound": ("low", "normal", "high"),
    "head_angle": ("normal", "low", "high"),
})


def diag_of(err: RuleBaseError):
    assert err.diagnostics, "expected at least one diagnostic"
    return err.diagnostics[0]


class TestParsing:
    def test_default_rulebase_has_nine_rules(self):
        rb = default_rulebase()
        assert len(rb.rules) == 9
        assert sorted(r.id for r in rb.rules) == list(range(1, 10))

    def test_shipped_rule_file_matches_builtin(self, default_rules_path):
        text = default_rules_path.read_text(encoding="utf-8")
        assert parse_rulebase(text) == default_rulebase()

    def test_single_rule_structure(self):
        rule = parse_rule(
            "RULE 4: IF sound IS low AND head_angle IS low "
            "THEN no_action, call_nurses, record_data", CONTEXT)
        assert rule.id == 4
        assert isinstance(rule.antecedent, BinOp)
        assert rule.antecedent.op == "AND"
        assert rule.consequent.actions == frozenset(
            {"no_action", "call_nurses", "record_data"})
        assert rule.consequent.expression is None
        assert rule.weight == 1.0

    def test_and_binds_tighter_than_or(self):
        cond = parse_condition(
            "emotion IS negative OR sound IS high AND head_angle IS low", CONTEXT)
        assert isinstance(cond, BinOp) and cond.op == "OR"
        assert isinstance(cond.left, Atom)
        assert isinstance(cond.right, BinOp) and cond.right.op == "AND"

    def test_and_is_left_associative(self):
        cond = parse_condition(
            "emotion IS negative AND sound IS high AND head_angle IS low", CONTEXT)
        assert isinstance(cond, BinOp) and cond.op == "AND"
        assert isinstance(cond.left, BinOp) and cond.left.op == "AND"
        assert isinstance(cond.right, Atom)

    def test_parens_override_precedence(self):
        cond = parse_condition(
            "(emotion IS negative OR sound IS high) AND head_angle IS low", CONTEXT)
        assert cond.op == "AND"
        assert isinstance(cond.left, BinOp) and cond.left.op == "OR"

    def test_weight_clause(self):
        rule = parse_rule("RULE 7 WEIGHT 0.25: IF sound IS low THEN record_data",
                          CONTEXT)
        assert rule.weight == 0.25

    def test_comments_and_blank_lines_ignored(self):
        text = ("# heading\n\nVAR a: x, y\n\n# middle\n"
                "RULE 1: IF a IS x THEN record_data\n")
        rb = parse_rulebase(text)
        assert len(rb.rules) == 1


class TestValidation:
    def test_unknown_variable(self):
        with pytest.raises(RuleValidationError) as exc:
            parse_rule("RULE 1: IF ghost IS low THEN record_data", CONTEXT)
        assert "ghost" in str(exc.value)

    def test_unknown_term(self):
        with pytest.raises(RuleValidationError) as exc:
            parse_rule("RULE 1: IF sound IS loud THEN record_data", CONTEXT)
        assert "loud" in str(exc.value)

    def test_unknown_action(self):
        with pytest.raises(RuleValidationError):
            parse_rule("RULE 1: IF sound IS low THEN dance", CONTEXT)

    def test_duplicate_action(self):
        with pytest.raises(RuleValidationError):
            parse_rule("RULE 1: IF sound IS low THEN record_data, record_data",
                       CONTEXT)

    def test_two_expressions(self):
        with pytest.raises(RuleValidationError):
            parse_rule("RULE 1: IF sound IS low THEN smile, neutral", CONTEXT)

    def test_weight_must_be_in_unit_interval(self):
        with pytest.raises(RuleValidationError):
            parse_rule("RULE 1 WEIGHT 0: IF sound IS low THEN record_data", CONTEXT)
        with pytest.raises(RuleValidationError):
            parse_rule("RULE 1 WEIGHT 1.5: IF sound IS low THEN record_data", CONTEXT)

    def test_rule_id_must_be_positive_integer(self):
        with pytest.raises(RuleValidationError):
            parse_rule("RULE 0: IF sound IS low THEN record_data", CONTEXT)
        with pytest.raises(RuleValidationError):
            parse_rule("RULE 1.5: IF sound IS low THEN record_data", CONTEXT)


MALFORMED_CORPUS = [
    ("RULE 1: IF sound low THEN record_data\n", "missing IS"),
    ("RULE 1: IF sound IS low record_data\n", "missing THEN"),
    ("RULE 1 IF sound IS low THEN record_data\n", "missing colon"),
    ("RULE one: IF sound IS low THEN record_data\n", "non-numeric id"),
    ("RULE 1: IF sound IS low THEN\n", "empty consequent"),
    ("RULE 1: IF THEN record_data\n", "empty condition"),
    ("RULE 1: IF (sound IS low THEN record_data\n", "unclosed paren"),
    ("RULE 1: IF sound IS low) THEN record_data\n", "stray paren"),
    ("RULE 1: IF sound IS low AND THEN record_data\n", "dangling AND"),
    ("RULE 1: IF sound IS low THEN record_data extra\n", "trailing tokens"),
    ("RULE 1: IF sound IS low THEN record_data,\n", "trailing comma"),
    ("VAR sound low, normal\n", "VAR missing colon"),
    ("VAR : low, normal\n", "VAR missing name"),
    ("VAR sound: \n", "VAR with no terms"),
    ("RULE 1: IF ghost IS low THEN record_data\n", "unknown variable"),
    ("VAR sound: low\nRULE 1: IF sound IS loud THEN record_data\n", "unknown term"),
    ("VAR sound: low\nRULE 1: IF sound IS low THEN dance\n", "unknown action"),
    ("VAR sound: low\nVAR sound: high\nRULE 1: IF sound IS low THEN record_data\n",
     "duplicate VAR"),
    ("VAR sound: low, low\nRULE 1: IF sound IS low THEN record_data\n",
     "duplicate term"),
    ("VAR sound: low\nRULE 1: IF sound IS low THEN record_data\n"
     "RULE 1: IF sound IS low THEN record_data\n", "duplicate rule id"),
    ("VAR sound: low\nRULE 2 WEIGHT -1: IF sound IS low THEN record_data\n",
     "negative weight"),
    ("", "empty file"),
    ("# only comments\n", "comment-only file"),
    ("VAR sound: low\n", "no rules"),
    ("RULE 1: IF sound IS low THEN record_data @\n", "illegal character"),
    ("\x00\x01\x02 garbage", "binary noise"),
    ("THEN IF RULE\n", "keyword soup"),
]


class TestMalformedCorpus:
    @pytest.mark.parametrize("text,label", MALFORMED_CORPUS,
                             ids=[label for _, label in MALFORMED_CORPUS])
    def test_positioned_diagnostic_no_crash(self, text, label):
        with pytest.raises(RuleBaseError) as exc:
            parse_rulebase(text)
        for diag in exc.value.diagnostics:
            assert diag.line >= 1
            assert diag.column >= 1
            assert diag.message

    def test_multiple_problems_all_reported(self):
        text = ("VAR sound: low\n"
                "RULE 1: IF ghost IS low THEN record_data\n"
                "RULE 1: IF sound IS loud THEN record_data\n"
                "RULE 3: IF sound IS low THEN dance\n")
        with pytest.raises(RuleBaseError) as exc:
            parse_rulebase(text)
        assert len(exc.value.diagnostics) >= 3
        lines = {d.line for d in exc.value.diagnostics}
        assert {2, 3, 4} <= lines

    def test_diagnostic_points_at_offending_token(self):
        with pytest.raises(RuleBaseError) as exc:
            parse_rulebase("VAR sound: low\nRULE 1: IF sound IS loud THEN record_data\n")
        diag = diag_of(exc.value)
        assert diag.line == 2
        assert diag.column == 21  # first character of "loud"


def chained(atoms: int) -> str:
    return " AND ".join(["sound IS low"] * atoms)


def nested(parens: int, inner: str = "sound IS low") -> str:
    return "(" * parens + inner + ")" * parens


class TestDeepConditions:
    """A condition may nest at most MAX_CONDITION_DEPTH operators and
    parentheses around any atom; a deeper one is a positioned syntax
    diagnostic, not a RecursionError."""

    HEAD = "VAR sound: low\nRULE 1: IF "

    def diagnostics(self, condition):
        with pytest.raises(RuleBaseError) as exc:
            parse_rulebase(f"{self.HEAD}{condition} THEN record_data\n")
        return exc.value.diagnostics

    def test_the_limit_is_accepted(self):
        for condition in (chained(MAX_CONDITION_DEPTH + 1), nested(MAX_CONDITION_DEPTH),
                          nested(MAX_CONDITION_DEPTH - 1, "sound IS low OR sound IS low")):
            rb = parse_rulebase(f"{self.HEAD}{condition} THEN record_data\n")
            assert parse_rulebase(serialize_rulebase(rb)) == rb

    @pytest.mark.parametrize("atoms", [MAX_CONDITION_DEPTH + 2, 1200])
    def test_a_long_chain_is_rejected_at_the_operator_past_the_limit(self, atoms):
        condition = chained(atoms)
        column = len("RULE 1: IF ") + len(chained(MAX_CONDITION_DEPTH + 1)) + 2
        assert self.diagnostics(condition) == [Diagnostic(
            2, column, "syntax", f"condition nested deeper than {MAX_CONDITION_DEPTH} levels")]

    @pytest.mark.parametrize("parens", [MAX_CONDITION_DEPTH + 1, 1200])
    def test_deep_parentheses_are_rejected_at_the_one_past_the_limit(self, parens):
        assert self.diagnostics(nested(parens)) == [Diagnostic(
            2, len("RULE 1: IF ") + MAX_CONDITION_DEPTH + 1, "syntax",
            f"condition nested deeper than {MAX_CONDITION_DEPTH} levels")]

    def test_operators_and_parentheses_count_together(self):
        diagnostic, = self.diagnostics(nested(MAX_CONDITION_DEPTH, "sound IS low OR sound IS low"))
        assert (diagnostic.line, diagnostic.column) == (2, len("RULE 1: IF ") + 1)

    def test_standalone_conditions_and_rules_are_limited_too(self):
        with pytest.raises(RuleSyntaxError, match="nested deeper"):
            parse_condition(chained(1200), CONTEXT)
        with pytest.raises(RuleSyntaxError, match="nested deeper"):
            parse_rule(f"RULE 1: IF {nested(1200)} THEN record_data", CONTEXT)


def test_only_a_line_feed_ends_a_line():
    text = ("VAR sound: low\n"
            "# a comment\u2028more of it\x85and\x0cmore\n"
            "RULE 1: IF sound IS low THEN record_data\n"
            "RULE 2: IF sound IS loud THEN record_data\n")
    with pytest.raises(RuleBaseError) as exc:
        parse_rulebase(text)
    assert exc.value.diagnostics == [Diagnostic(
        4, 21, "semantic", "unknown term 'loud' for variable 'sound'")]


class TestSerialization:
    def test_default_round_trip(self):
        rb = default_rulebase()
        assert parse_rulebase(serialize_rulebase(rb)) == rb

    def test_canonical_action_order(self):
        rule = parse_rule("RULE 1: IF sound IS low THEN record_data, no_action, "
                          "call_nurses", CONTEXT)
        text = serialize_rule(rule)
        assert "THEN no_action, call_nurses, record_data" in text

    def test_expression_serialized_last(self):
        rule = parse_rule("RULE 1: IF sound IS low THEN smile, record_data", CONTEXT)
        assert serialize_rule(rule).endswith("record_data, smile")

    def test_minimal_parens(self):
        rule = parse_rule(
            "RULE 1: IF (emotion IS negative OR sound IS high) AND head_angle IS low "
            "THEN record_data", CONTEXT)
        text = serialize_rule(rule)
        assert "(emotion IS negative OR sound IS high) AND head_angle IS low" in text
        rule2 = parse_rule(
            "RULE 1: IF (emotion IS negative AND sound IS high) OR head_angle IS low "
            "THEN record_data", CONTEXT)
        # AND under OR needs no parens
        assert ("emotion IS negative AND sound IS high OR head_angle IS low"
                in serialize_rule(rule2))

    def test_weight_round_trip(self):
        rule = parse_rule("RULE 3 WEIGHT 0.4: IF sound IS low THEN record_data",
                          CONTEXT)
        text = serialize_rule(rule)
        assert "WEIGHT 0.4" in text
        assert parse_rule(text, CONTEXT) == rule

    def test_unit_weight_not_serialized(self):
        rule = parse_rule("RULE 3 WEIGHT 1: IF sound IS low THEN record_data",
                          CONTEXT)
        assert "WEIGHT" not in serialize_rule(rule)

    def test_random_round_trips(self):
        rng = random.Random(105)
        for _ in range(60):
            text = random_rulebase_text(rng)
            rb = parse_rulebase(text)
            assert parse_rulebase(serialize_rulebase(rb)) == rb
