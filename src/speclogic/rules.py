"""Propositional Horn rules: parsing, stratified forward chaining, proofs.

Rule text holds one rule per line (``#`` starts a comment):

    rule := body "=>" IDENT ["@" IDENT]
    body := lit { "&" lit }
    lit  := ["!"] IDENT

``@id`` names the rule; unnamed rules get ``r<position>`` (1-based). A ``!``
literal is negation as failure, evaluated only against strata strictly below
the rule's head, so every program accepted here has a unique fixpoint.
Programs where a predicate depends transitively on its own negation are
rejected at parse time.

Inference runs plain passes within each stratum: a pass fires, in rule
order, every rule whose head is not yet known and whose body holds against
the facts known when the pass began, and the stratum ends when a pass fires
nothing. Each head is derived at most once: in the first pass where a rule
for it holds, by the first such rule in position. Firings are recorded in a
replayable proof trace ordered by (stratum, pass, rule position).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import InputError, RuleSyntaxError, StratificationError
from .symbolic import IDENTIFIER_RE, SymbolSet, _check_identifier

_TOKEN_RE = re.compile(r"(=>|&|!|@|[A-Za-z][A-Za-z0-9_]*|_[A-Za-z0-9_]*)")


@dataclass(frozen=True)
class HornRule:
    """pos_1 & ... & !neg_1 & ... => head, with a stable identifier. The
    bodies ``pos`` and ``neg``, not both empty, are sorted distinct names."""

    pos: tuple[str, ...]
    neg: tuple[str, ...]
    head: str
    id: str

    def __post_init__(self):
        _check_identifier(self.id, "rule id")
        _check_identifier(self.head, "head")
        for body in (self.pos, self.neg):
            for name in body:
                _check_identifier(name, "literal name")
            if body != tuple(sorted(set(body))):
                raise InputError(f"rule {self.id!r}: each body must be sorted distinct names")
        if not (self.pos or self.neg):
            raise InputError(f"rule {self.id!r}: the body must be non-empty")

    def __str__(self) -> str:
        body = [*self.pos, *("!" + name for name in self.neg)]
        return " & ".join(body) + f" => {self.head} @{self.id}"


def _stratify(rules: tuple[HornRule, ...]) -> dict[str, int]:
    """Assign strata so heads sit at or above positive dependencies and
    strictly above negated ones; raise on a cycle through negation."""
    preds = set()
    for rule in rules:
        preds.add(rule.head)
        preds.update(rule.pos, rule.neg)
    stratum = {p: 0 for p in preds}
    raised_by: dict[str, str] = {}  # head -> the body name that last raised it
    # Relax until stable. A stratified program never needs a stratum beyond
    # len(preds)-1 (an increasing path visits distinct predicates), so any
    # demand at or above len(preds) proves a cycle through negation. The
    # raised_by links from its head then run into a cycle of positive weight,
    # i.e. with a negated step (Cormen et al., Introduction to Algorithms,
    # 24.1), which is reported closed, in body -> head order.
    while True:
        changed = False
        for rule in rules:
            for body, step in ((rule.pos, 0), (rule.neg, 1)):
                for name in body:
                    need = stratum[name] + step
                    if stratum[rule.head] < need:
                        raised_by[rule.head] = name
                        if need >= len(preds):
                            walk = [rule.head]
                            while walk[-1] not in walk[:-1]:
                                walk.append(raised_by[walk[-1]])
                            cycle = walk[walk.index(walk[-1]) :]
                            raise StratificationError(tuple(reversed(cycle)))
                        stratum[rule.head] = need
                        changed = True
        if not changed:
            return stratum


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
class ProofTrace:
    """The rules that fired, in derivation order; replaying them re-derives
    the fixpoint."""

    steps: tuple[HornRule, ...]

    def __len__(self) -> int:
        return len(self.steps)

    def to_json(self) -> list[dict]:
        return [
            {"rule_id": r.id, "head": r.head, "body_pos": list(r.pos),
             "body_neg_checked": list(r.neg)}
            for r in self.steps
        ]

    @classmethod
    def from_json(cls, records) -> "ProofTrace":
        """The trace :meth:`to_json` wrote: a list of objects with exactly a
        step's four keys, an identifier rule id and head and two sorted lists
        of distinct identifiers, not both empty. Anything else is an
        :class:`InputError`."""
        if not isinstance(records, list):
            raise InputError("a trace must be a JSON list of records")
        keys = ("rule_id", "head", "body_pos", "body_neg_checked")
        steps = []
        for i, r in enumerate(records):
            if not (isinstance(r, dict) and r.keys() == set(keys)):
                raise InputError(f"trace record {i} must be an object with the keys {keys}")
            rule_id, head, pos, neg = (r[k] for k in keys)
            if not (isinstance(pos, list) and isinstance(neg, list)):
                raise InputError(f"trace record {i}: the bodies must be lists of names")
            try:
                steps.append(HornRule(tuple(pos), tuple(neg), head, rule_id))
            except InputError as exc:
                raise InputError(f"trace record {i}: {exc}") from None
        return cls(tuple(steps))


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
    pos: set[str] = set()
    neg: set[str] = set()
    i = 0
    while True:
        negated = i < len(tokens) and tokens[i][0] == "!"
        i += negated
        body = neg if negated else pos
        name = _expect_ident(tokens, i, lineno, "literal")
        if name in body:
            lit = "!" * negated + name
            raise RuleSyntaxError(f"duplicate body literal {lit}", lineno, tokens[i][1])
        body.add(name)
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
    return HornRule(tuple(sorted(pos)), tuple(sorted(neg)), head, rule_id)


def format_rules(rs: RuleSet) -> str:
    """Print a rule set in the concrete syntax, each body as its positive
    names, then its ``!`` names; parses back to an equal set."""
    return "\n".join(str(rule) for rule in rs.rules) + ("\n" if rs.rules else "")


def infer(rs: RuleSet, facts: SymbolSet) -> tuple[SymbolSet, ProofTrace]:
    """Forward-chain to fixpoint, stratum by stratum, in plain passes.

    Negated literals are tested against the fact set completed through the
    lower strata, which stratification makes final by construction. Returns
    the union of the input facts and all fired heads together with the proof
    trace. Deterministic: rules fire in position order within each pass.
    """
    known: set[str] = set(facts.names)
    steps: list[HornRule] = []
    for level in sorted({rs.strata[r.head] for r in rs.rules}):
        group = [r for r in rs.rules if rs.strata[r.head] == level]
        while True:
            fired: dict[str, HornRule] = {}  # head -> rule, in rule order
            for rule in group:
                if rule.head in known or rule.head in fired:
                    continue
                if known.issuperset(rule.pos) and known.isdisjoint(rule.neg):
                    fired[rule.head] = rule
            if not fired:
                break
            steps.extend(fired.values())
            known.update(fired)
    return SymbolSet(frozenset(known)), ProofTrace(tuple(steps))


def replay(trace: ProofTrace, facts: SymbolSet, rs: RuleSet) -> bool:
    """Check that every firing is justified at its point in the replay and
    that the replayed fact set matches what :func:`infer` derives."""
    by_id = {rule.id: rule for rule in rs.rules}
    known: set[str] = set(facts.names)
    for step in trace.steps:
        if by_id.get(step.id) != step or step.head in known:
            return False
        if not (known.issuperset(step.pos) and known.isdisjoint(step.neg)):
            return False
        known.add(step.head)
    derived, _ = infer(rs, facts)
    return known == set(derived.names)
