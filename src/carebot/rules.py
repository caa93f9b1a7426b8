"""Grammar, parser, validator, and serializer for the behavior-rule language.

The language is line-oriented: ``#`` comments, ``VAR`` declarations, and
``RULE`` statements of the form

    RULE <id>: IF <condition> THEN <consequent>, <consequent>, ...

Conditions combine ``<variable> IS <term>`` atoms with AND/OR (AND binds
tighter, both left-associative) and optional parentheses. Consequents name
robot actions (no_action, call_nurses, record_data) and at most one facial
expression (neutral, smile). An optional ``WEIGHT <w>`` clause before the
colon carries a rule weight in (0, 1]; it is omitted for the default of 1.

Syntax problems and vocabulary problems raise distinct error types, both
positioned; :func:`parse_rulebase` aggregates every problem in a file
instead of stopping at the first.
"""

import re
from dataclasses import dataclass, field

from .errors import Diagnostic, RuleBaseError, RuleSyntaxError, RuleValidationError

ACTIONS = ("no_action", "call_nurses", "record_data")
EXPRESSIONS = ("neutral", "smile")

_KEYWORDS = frozenset({"RULE", "VAR", "IF", "THEN", "IS", "AND", "OR", "WEIGHT"})

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+(?:\.\d+)?)
  | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>[:,()])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Span:
    line: int
    column: int


@dataclass(frozen=True)
class Atom:
    """One ``variable IS term`` test."""

    variable: str
    term: str
    pos: Span | None = field(default=None, compare=False)
    term_pos: Span | None = field(default=None, compare=False)


@dataclass(frozen=True)
class BinOp:
    """AND/OR over two sub-conditions."""

    op: str
    left: "Condition"
    right: "Condition"
    pos: Span | None = field(default=None, compare=False)


Condition = Atom | BinOp


@dataclass(frozen=True)
class Consequent:
    """Actions plus an optional expression; never both empty.

    no_action may co-occur with call_nurses/record_data: it suppresses
    ordinary motion, not alerting or recording.
    """

    actions: frozenset[str]
    expression: str | None = None


@dataclass(frozen=True)
class Rule:
    id: int
    antecedent: Condition
    consequent: Consequent
    weight: float = 1.0
    pos: Span | None = field(default=None, compare=False)


@dataclass(frozen=True)
class RuleBase:
    """Declared variable/term names plus an ordered list of validated rules.

    Variable definitions (universe bounds, membership functions) live in the
    engine configuration; the rule base only knows the vocabulary.
    """

    variables: dict[str, tuple[str, ...]]
    rules: tuple[Rule, ...]


class ParseContext:
    """Vocabulary a statement is validated against."""

    def __init__(self, variables: dict[str, tuple[str, ...]] | None = None):
        self.variables = dict(variables or {})

    def declare(self, name: str, terms: tuple[str, ...]):
        self.variables[name] = terms


class _Token:
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind: str, text: str, line: int, column: int):
        self.kind = kind  # KEYWORD, IDENT, NUMBER, ':', ',', '(', ')', EOL
        self.text = text
        self.line = line
        self.column = column


def _tokenize(text: str, line_no: int) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise RuleSyntaxError(
                Diagnostic(line_no, pos + 1, "syntax", f"unexpected character {text[pos]!r}")
            )
        if m.lastgroup != "ws":
            value = m.group()
            if m.lastgroup == "word":
                kind = "KEYWORD" if value in _KEYWORDS else "IDENT"
            elif m.lastgroup == "number":
                kind = "NUMBER"
            else:
                kind = value
            tokens.append(_Token(kind, value, line_no, pos + 1))
        pos = m.end()
    tokens.append(_Token("EOL", "", line_no, len(text) + 1))
    return tokens


class _Parser:
    """Recursive-descent parser over one statement's token list."""

    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.index = 0

    @property
    def current(self) -> _Token:
        return self.tokens[self.index]

    def _fail(self, message: str, token: _Token | None = None):
        tok = token or self.current
        raise RuleSyntaxError(Diagnostic(tok.line, tok.column, "syntax", message))

    def take(self) -> _Token:
        tok = self.current
        self.index += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        if self.current.kind != kind:
            found = self.current.text or "end of line"
            self._fail(f"expected {what}, found {found!r}")
        return self.take()

    def expect_keyword(self, word: str) -> _Token:
        if self.current.kind != "KEYWORD" or self.current.text != word:
            found = self.current.text or "end of line"
            self._fail(f"expected '{word}', found {found!r}")
        return self.take()

    def at_keyword(self, word: str) -> bool:
        return self.current.kind == "KEYWORD" and self.current.text == word

    # condition grammar: or_expr := and_expr (OR and_expr)*
    #                    and_expr := primary (AND primary)*
    #                    primary := '(' or_expr ')' | IDENT IS IDENT
    def parse_condition(self) -> Condition:
        left = self._parse_and()
        while self.at_keyword("OR"):
            op = self.take()
            right = self._parse_and()
            left = BinOp("OR", left, right, pos=Span(op.line, op.column))
        return left

    def _parse_and(self) -> Condition:
        left = self._parse_primary()
        while self.at_keyword("AND"):
            op = self.take()
            right = self._parse_primary()
            left = BinOp("AND", left, right, pos=Span(op.line, op.column))
        return left

    def _parse_primary(self) -> Condition:
        if self.current.kind == "(":
            self.take()
            cond = self.parse_condition()
            self.expect(")", "')'")
            return cond
        var = self.expect("IDENT", "a variable name")
        self.expect_keyword("IS")
        term = self.expect("IDENT", "a term name")
        return Atom(var.text, term.text, pos=Span(var.line, var.column),
                    term_pos=Span(term.line, term.column))

    def parse_rule_statement(self):
        self.expect_keyword("RULE")
        id_tok = self.expect("NUMBER", "a rule id")
        weight = 1.0
        weight_tok = None
        if self.at_keyword("WEIGHT"):
            self.take()
            weight_tok = self.expect("NUMBER", "a weight")
            weight = float(weight_tok.text)
        self.expect(":", "':'")
        self.expect_keyword("IF")
        antecedent = self.parse_condition()
        self.expect_keyword("THEN")
        consequent, items = self._parse_consequent_list()
        self.expect("EOL", "end of statement")
        if "." in id_tok.text:
            raise RuleValidationError(
                Diagnostic(id_tok.line, id_tok.column, "semantic", "rule id must be an integer")
            )
        rule_id = int(id_tok.text)
        rule = Rule(
            id=rule_id,
            antecedent=antecedent,
            consequent=consequent,
            weight=weight,
            pos=Span(id_tok.line, id_tok.column),
        )
        return rule, items, weight_tok

    def _parse_consequent_list(self):
        items = [self.expect("IDENT", "an action or expression")]
        while self.current.kind == ",":
            self.take()
            items.append(self.expect("IDENT", "an action or expression"))
        actions = []
        expression = None
        for tok in items:
            if tok.text in ACTIONS:
                actions.append(tok.text)
            elif tok.text in EXPRESSIONS:
                if expression is not None:
                    raise RuleValidationError(
                        Diagnostic(tok.line, tok.column, "semantic",
                                   f"second expression {tok.text!r} (already {expression!r})")
                    )
                expression = tok.text
        return Consequent(frozenset(actions), expression), items

    def parse_var_statement(self) -> tuple[_Token, list[_Token]]:
        self.expect_keyword("VAR")
        name = self.expect("IDENT", "a variable name")
        self.expect(":", "':'")
        terms = [self.expect("IDENT", "a term name")]
        while self.current.kind == ",":
            self.take()
            terms.append(self.expect("IDENT", "a term name"))
        self.expect("EOL", "end of statement")
        return name, terms


def _check_condition(node: Condition, context: ParseContext,
                     problems: list[Diagnostic]) -> None:
    if isinstance(node, Atom):
        pos = node.pos or Span(0, 0)
        if node.variable not in context.variables:
            problems.append(Diagnostic(pos.line, pos.column, "semantic",
                                       f"unknown variable {node.variable!r}"))
        elif node.term not in context.variables[node.variable]:
            term_pos = node.term_pos or pos
            problems.append(Diagnostic(
                term_pos.line, term_pos.column, "semantic",
                f"unknown term {node.term!r} for variable {node.variable!r}"))
    else:
        _check_condition(node.left, context, problems)
        _check_condition(node.right, context, problems)


def _validate_rule(rule: Rule, items, weight_tok, context: ParseContext) -> list[Diagnostic]:
    """Vocabulary and value checks, all reported (not just the first)."""
    problems = []

    def check_cond(node):
        _check_condition(node, context, problems)

    pos = rule.pos or Span(0, 0)
    if rule.id <= 0:
        problems.append(Diagnostic(pos.line, pos.column, "semantic",
                                   "rule id must be a positive integer"))
    if weight_tok is not None and not 0.0 < rule.weight <= 1.0:
        problems.append(Diagnostic(weight_tok.line, weight_tok.column, "semantic",
                                   f"weight must be in (0, 1], got {rule.weight}"))
    check_cond(rule.antecedent)

    seen = set()
    known = set(ACTIONS) | set(EXPRESSIONS)
    for tok in items:
        if tok.text not in known:
            problems.append(Diagnostic(tok.line, tok.column, "semantic",
                                       f"unknown action or expression {tok.text!r}"))
        elif tok.text in seen:
            problems.append(Diagnostic(tok.line, tok.column, "semantic",
                                       f"duplicate consequent item {tok.text!r}"))
        seen.add(tok.text)
    return problems


def parse_rule(text: str, context: ParseContext) -> Rule:
    """Parse and validate a single RULE statement.

    Raises :class:`RuleSyntaxError` on grammar problems and
    :class:`RuleValidationError` on the first vocabulary problem.
    """
    rule, items, weight_tok = _Parser(_tokenize(text, 1)).parse_rule_statement()
    problems = _validate_rule(rule, items, weight_tok, context)
    if problems:
        raise RuleValidationError(problems[0])
    return rule


def parse_condition(text: str, context: ParseContext) -> Condition:
    """Parse a standalone condition expression.

    Atoms are checked against the declared vocabulary and the first problem
    raises :class:`RuleValidationError`.
    """
    parser = _Parser(_tokenize(text, 1))
    condition = parser.parse_condition()
    parser.expect("EOL", "end of condition")
    problems: list[Diagnostic] = []
    _check_condition(condition, context, problems)
    if problems:
        raise RuleValidationError(problems[0])
    return condition


def parse_rulebase(text: str) -> RuleBase:
    """Parse a full rule file; raises :class:`RuleBaseError` with every problem found."""
    context = ParseContext()
    rules: list[Rule] = []
    diagnostics: list[Diagnostic] = []
    seen_ids: dict[int, int] = {}

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            tokens = _tokenize(raw, line_no)
        except RuleSyntaxError as err:
            diagnostics.append(err.diagnostic)
            continue
        parser = _Parser(tokens)
        try:
            if parser.at_keyword("VAR"):
                name, terms = parser.parse_var_statement()
                term_names = tuple(t.text for t in terms)
                if name.text in context.variables:
                    diagnostics.append(Diagnostic(
                        line_no, name.column, "semantic",
                        f"variable {name.text!r} declared twice"))
                elif len(set(term_names)) != len(term_names):
                    diagnostics.append(Diagnostic(
                        line_no, name.column, "semantic",
                        f"duplicate term in declaration of {name.text!r}"))
                else:
                    context.declare(name.text, term_names)
            elif parser.at_keyword("RULE"):
                rule, items, weight_tok = parser.parse_rule_statement()
                problems = _validate_rule(rule, items, weight_tok, context)
                if rule.id in seen_ids:
                    problems.append(Diagnostic(
                        line_no, 1, "semantic",
                        f"duplicate rule id {rule.id} (first on line {seen_ids[rule.id]})"))
                else:
                    seen_ids[rule.id] = line_no
                diagnostics.extend(problems)
                if not problems:
                    rules.append(rule)
            else:
                tok = parser.current
                found = tok.text or "end of line"
                diagnostics.append(Diagnostic(
                    line_no, tok.column, "syntax",
                    f"expected 'VAR' or 'RULE', found {found!r}"))
        except (RuleSyntaxError, RuleValidationError) as err:
            diagnostics.append(err.diagnostic)

    if not rules and not diagnostics:
        diagnostics.append(Diagnostic(1, 1, "semantic", "rule base contains no rules"))
    if diagnostics:
        raise RuleBaseError(diagnostics)
    return RuleBase(variables=dict(context.variables), rules=tuple(rules))


def _condition_text(node: Condition, parent_prec: int = 0, right_child: bool = False) -> str:
    if isinstance(node, Atom):
        return f"{node.variable} IS {node.term}"
    prec = 2 if node.op == "AND" else 1
    text = "{} {} {}".format(
        _condition_text(node.left, prec, False),
        node.op,
        _condition_text(node.right, prec, True),
    )
    if prec < parent_prec or (prec == parent_prec and right_child):
        return f"({text})"
    return text


def _consequent_text(consequent: Consequent) -> str:
    items = [a for a in ACTIONS if a in consequent.actions]
    if consequent.expression is not None:
        items.append(consequent.expression)
    return ", ".join(items)


def serialize_rule(rule: Rule) -> str:
    weight = "" if rule.weight == 1.0 else f" WEIGHT {rule.weight:g}"
    return (
        f"RULE {rule.id}{weight}: IF {_condition_text(rule.antecedent)}"
        f" THEN {_consequent_text(rule.consequent)}"
    )


def serialize_rulebase(rb: RuleBase) -> str:
    """Canonical text form; ``parse_rulebase(serialize_rulebase(rb))`` equals ``rb``."""
    lines = [f"VAR {name}: " + ", ".join(terms) for name, terms in rb.variables.items()]
    if lines:
        lines.append("")
    lines.extend(serialize_rule(rule) for rule in rb.rules)
    return "\n".join(lines) + "\n"


# The nine stock rules covering patient emotion polarity, speech loudness,
# and head pose. Rules 1, 4, 6, 7, 9 intentionally share their consequent;
# they are kept separate for auditability rather than factored.
DEFAULT_RULES_TEXT = """\
# Default behavior rules for the care-robot engine.
# Vocabulary: actions no_action / call_nurses / record_data,
# expressions neutral / smile.

VAR emotion: negative, neutral, positive
VAR sound: low, normal, high
VAR head_angle: normal, low, high

RULE 1: IF emotion IS negative THEN no_action, call_nurses, record_data
RULE 2: IF emotion IS neutral THEN record_data
RULE 3: IF emotion IS positive THEN record_data, smile
RULE 4: IF sound IS low AND head_angle IS low THEN no_action, call_nurses, record_data
RULE 5: IF sound IS normal THEN record_data
RULE 6: IF sound IS high AND emotion IS negative THEN no_action, call_nurses, record_data
RULE 7: IF head_angle IS low THEN no_action, call_nurses, record_data
RULE 8: IF head_angle IS normal THEN record_data
RULE 9: IF head_angle IS high AND sound IS low THEN no_action, call_nurses, record_data
"""


def default_rulebase() -> RuleBase:
    return parse_rulebase(DEFAULT_RULES_TEXT)
