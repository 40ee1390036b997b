"""Propositional Horn rules: parsing, stratified forward chaining, proofs.

Rule files contain one rule per line (``#`` starts a comment):

    rule := body "=>" IDENT ["@" IDENT]
    body := lit { "&" lit }
    lit  := ["!"] IDENT

``@id`` names the rule; unnamed rules get ``r<position>`` (1-based). A ``!``
literal is negation as failure, evaluated only against strata strictly below
the rule's head, so every program accepted here has a unique fixpoint.
Programs where a predicate depends transitively on its own negation are
rejected at parse time.

Inference is semi-naive: within a stratum, rules are re-examined only when a
positive body literal was newly derived, which is observably identical to
naive iteration. Each head is derived at most once; firings are recorded in
a replayable proof trace ordered by (stratum, pass, rule position).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from .errors import InputError, RuleSyntaxError, StratificationError
from .signal import read_json, read_text
from .symbolic import IDENTIFIER_RE, SymbolSet

_TOKEN_RE = re.compile(r"(=>|&|!|@|[A-Za-z][A-Za-z0-9_]*|_[A-Za-z0-9_]*)")


@dataclass(frozen=True)
class Literal:
    """A possibly negated predicate occurrence in a rule body."""

    name: str
    negated: bool = False

    def __post_init__(self):
        if not IDENTIFIER_RE.match(self.name):
            raise InputError(f"literal name {self.name!r} must match [a-z_][a-z0-9_]*")

    def __str__(self) -> str:
        return ("!" if self.negated else "") + self.name


@dataclass(frozen=True)
class HornRule:
    """body_1 & ... & body_k => head, with a stable identifier."""

    body: tuple[Literal, ...]
    head: str
    id: str

    def __post_init__(self):
        if not self.body:
            raise InputError("rule body must be non-empty")
        if len(set(self.body)) != len(self.body):
            raise InputError(f"rule {self.id!r} has duplicate body literals")
        if not IDENTIFIER_RE.match(self.head):
            raise InputError(f"head {self.head!r} must match [a-z_][a-z0-9_]*")
        if not IDENTIFIER_RE.match(self.id):
            raise InputError(f"rule id {self.id!r} must match [a-z_][a-z0-9_]*")

    @property
    def positive_names(self) -> frozenset[str]:
        return frozenset(l.name for l in self.body if not l.negated)

    @property
    def negative_names(self) -> frozenset[str]:
        return frozenset(l.name for l in self.body if l.negated)

    def __str__(self) -> str:
        return " & ".join(str(l) for l in self.body) + f" => {self.head} @{self.id}"


def _stratify(rules: tuple[HornRule, ...]) -> dict[str, int]:
    """Assign strata so heads sit at or above positive dependencies and
    strictly above negated ones; raise on a cycle through negation."""
    preds = set()
    for rule in rules:
        preds.add(rule.head)
        preds.update(l.name for l in rule.body)
    stratum = {p: 0 for p in preds}
    # Relax until stable. A stratified program never needs a stratum beyond
    # len(preds)-1 (an increasing path visits distinct predicates), so any
    # demand at or above len(preds) proves a cycle through negation.
    while True:
        changed = False
        for rule in rules:
            for lit in rule.body:
                need = stratum[lit.name] + (1 if lit.negated else 0)
                if stratum[rule.head] < need:
                    if need >= len(preds):
                        raise StratificationError(_find_negative_cycle(rules))
                    stratum[rule.head] = need
                    changed = True
        if not changed:
            return stratum


def _find_negative_cycle(rules: tuple[HornRule, ...]) -> tuple[str, ...]:
    """Locate a dependency cycle containing a negated edge, for reporting."""
    edges: dict[str, set[str]] = {}
    neg_edges = set()
    for rule in rules:
        for lit in rule.body:
            edges.setdefault(lit.name, set()).add(rule.head)
            if lit.negated:
                neg_edges.add((lit.name, rule.head))
    for src, dst in sorted(neg_edges):
        # path dst -> src closes the cycle through this negative edge
        path = _find_path(edges, dst, src)
        if path is not None:
            return (src,) + tuple(path)
    return tuple(sorted({p for e in neg_edges for p in e}))


def _find_path(edges: dict[str, set[str]], start: str, goal: str) -> list[str] | None:
    stack = [(start, [start])]
    seen = {start}
    while stack:
        node, path = stack.pop()
        if node == goal:
            return path
        for nxt in sorted(edges.get(node, ()), reverse=True):
            if nxt not in seen:
                seen.add(nxt)
                stack.append((nxt, path + [nxt]))
    return None


@dataclass(frozen=True)
class RuleSet:
    """Rules in file order plus the computed stratification of predicates."""

    rules: tuple[HornRule, ...]
    strata: dict[str, int] = field(default_factory=dict, compare=False)

    def __post_init__(self):
        rules = tuple(self.rules)
        object.__setattr__(self, "rules", rules)
        ids = [r.id for r in rules]
        if len(set(ids)) != len(ids):
            dup = sorted({i for i in ids if ids.count(i) > 1})
            raise InputError(f"duplicate rule ids: {', '.join(dup)}")
        object.__setattr__(self, "strata", _stratify(rules))

    def __len__(self) -> int:
        return len(self.rules)

    def predicates(self) -> frozenset[str]:
        return frozenset(self.strata)


@dataclass(frozen=True)
class TraceStep:
    """One rule firing: the facts present and the absences checked."""

    rule_id: str
    head: str
    body_pos: tuple[str, ...]
    body_neg_checked: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "rule_id": self.rule_id,
            "head": self.head,
            "body_pos": list(self.body_pos),
            "body_neg_checked": list(self.body_neg_checked),
        }


@dataclass(frozen=True)
class ProofTrace:
    """Firings in derivation order; replaying them re-derives the fixpoint."""

    steps: tuple[TraceStep, ...]

    def __len__(self) -> int:
        return len(self.steps)

    def to_json(self) -> list[dict]:
        return [s.to_dict() for s in self.steps]

    @classmethod
    def from_json(cls, records: list[dict]) -> "ProofTrace":
        try:
            steps = tuple(
                TraceStep(
                    r["rule_id"],
                    r["head"],
                    tuple(r["body_pos"]),
                    tuple(r["body_neg_checked"]),
                )
                for r in records
            )
        except (KeyError, TypeError) as exc:
            raise InputError(f"bad trace record: {exc}") from None
        return cls(steps)


def _tokenize(line: str, lineno: int) -> list[tuple[str, int]]:
    tokens = []
    pos = 0
    while pos < len(line):
        ch = line[pos]
        if ch == "#":
            break
        if ch.isspace():
            pos += 1
            continue
        match = _TOKEN_RE.match(line, pos)
        if not match:
            raise RuleSyntaxError(f"unexpected character {ch!r}", lineno, pos + 1)
        tokens.append((match.group(0), pos + 1))
        pos = match.end()
    return tokens


def parse_rules(text: str) -> RuleSet:
    """Parse rule text into a stratified :class:`RuleSet`.

    Raises :class:`~speclogic.errors.RuleSyntaxError` with line/column on
    malformed input and :class:`~speclogic.errors.StratificationError` when
    a predicate depends on its own negation.
    """
    rules: list[HornRule] = []
    position = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(line, lineno)
        if not tokens:
            continue
        position += 1
        rules.append(_parse_rule(tokens, lineno, position))
    return RuleSet(tuple(rules))


def _expect_ident(tokens: list[tuple[str, int]], i: int, lineno: int, what: str) -> str:
    if i >= len(tokens):
        col = tokens[-1][1] + len(tokens[-1][0]) if tokens else 1
        raise RuleSyntaxError(f"expected {what} at end of line", lineno, col)
    tok, col = tokens[i]
    if tok in ("=>", "&", "!", "@"):
        raise RuleSyntaxError(f"expected {what}, found {tok!r}", lineno, col)
    if not IDENTIFIER_RE.match(tok):
        raise RuleSyntaxError(
            f"{what} {tok!r} must match [a-z_][a-z0-9_]*", lineno, col
        )
    return tok


def _parse_rule(tokens: list[tuple[str, int]], lineno: int, position: int) -> HornRule:
    body: list[Literal] = []
    i = 0
    while True:
        negated = False
        if i < len(tokens) and tokens[i][0] == "!":
            negated = True
            i += 1
        name = _expect_ident(tokens, i, lineno, "literal")
        lit = Literal(name, negated)
        if lit in body:
            raise RuleSyntaxError(f"duplicate body literal {lit}", lineno, tokens[i][1])
        body.append(lit)
        i += 1
        if i >= len(tokens):
            raise RuleSyntaxError("expected '&' or '=>' after literal", lineno, tokens[i - 1][1])
        tok, col = tokens[i]
        if tok == "&":
            i += 1
            continue
        if tok == "=>":
            i += 1
            break
        raise RuleSyntaxError(f"expected '&' or '=>', found {tok!r}", lineno, col)

    head = _expect_ident(tokens, i, lineno, "head")
    i += 1
    rule_id = f"r{position}"
    if i < len(tokens):
        tok, col = tokens[i]
        if tok != "@":
            raise RuleSyntaxError(f"expected '@' or end of line, found {tok!r}", lineno, col)
        rule_id = _expect_ident(tokens, i + 1, lineno, "rule id")
        i += 2
    if i < len(tokens):
        tok, col = tokens[i]
        raise RuleSyntaxError(f"unexpected trailing token {tok!r}", lineno, col)
    return HornRule(tuple(body), head, rule_id)


def load_rules(path: str | Path) -> RuleSet:
    """Parse a UTF-8 rule file."""
    return parse_rules(read_text(path))


def format_rules(rs: RuleSet) -> str:
    """Print a rule set in the concrete syntax; parses back to an equal set."""
    return "\n".join(str(rule) for rule in rs.rules) + ("\n" if rs.rules else "")


def infer(rs: RuleSet, facts: SymbolSet) -> tuple[SymbolSet, ProofTrace]:
    """Forward-chain to fixpoint, stratum by stratum.

    Negated literals are tested against the fact set completed through the
    lower strata, which stratification makes final by construction. Returns
    the union of the input facts and all fired heads together with the proof
    trace. Deterministic: rules fire in position order within each pass.
    """
    known: set[str] = set(facts.names)
    steps: list[TraceStep] = []
    if rs.rules:
        top = max(rs.strata[r.head] for r in rs.rules)
        for level in range(top + 1):
            group = [r for r in rs.rules if rs.strata[r.head] == level]
            if not group:
                continue
            delta: set[str] | None = None  # None on the first pass
            while True:
                fired: list[tuple[HornRule, TraceStep]] = []
                pending: set[str] = set()
                for rule in group:
                    if rule.head in known or rule.head in pending:
                        continue
                    pos = rule.positive_names
                    if delta is not None and delta.isdisjoint(pos):
                        continue
                    if pos <= known and known.isdisjoint(rule.negative_names):
                        pending.add(rule.head)
                        fired.append(
                            (
                                rule,
                                TraceStep(
                                    rule.id,
                                    rule.head,
                                    tuple(sorted(pos)),
                                    tuple(sorted(rule.negative_names)),
                                ),
                            )
                        )
                if not fired:
                    break
                for _, step in fired:
                    steps.append(step)
                    known.add(step.head)
                delta = {step.head for _, step in fired}
    derived = facts.union_names(known - set(facts.names))
    return derived, ProofTrace(tuple(steps))


def replay(trace: ProofTrace, facts: SymbolSet, rs: RuleSet) -> bool:
    """Check that every firing is justified at its point in the replay and
    that the replayed fact set matches what :func:`infer` derives."""
    by_id = {rule.id: rule for rule in rs.rules}
    known: set[str] = set(facts.names)
    for step in trace.steps:
        rule = by_id.get(step.rule_id)
        if rule is None or rule.head != step.head:
            return False
        if frozenset(step.body_pos) != rule.positive_names:
            return False
        if frozenset(step.body_neg_checked) != rule.negative_names:
            return False
        if step.head in known:
            return False
        if not rule.positive_names <= known:
            return False
        if not known.isdisjoint(rule.negative_names):
            return False
        known.add(step.head)
    derived, _ = infer(rs, facts)
    return known == set(derived.names)


def save_trace_json(trace: ProofTrace, path: str | Path) -> None:
    Path(path).write_text(json.dumps(trace.to_json()))


def load_trace_json(path: str | Path) -> ProofTrace:
    return ProofTrace.from_json(read_json(path))
