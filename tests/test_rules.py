import json

import numpy as np
import pytest

from speclogic import (
    HornRule,
    InputError,
    RuleSyntaxError,
    StratificationError,
    SymbolSet,
    format_rules,
    infer,
    parse_rules,
    replay,
)
from speclogic.rules import ProofTrace
from speclogic.signal import read_json, read_text


def names(symbolset):
    return set(symbolset.names)


def test_parse_single_rule():
    rs = parse_rules("resonance_high & amplitude_strong => signal_class_a")
    assert len(rs) == 1
    rule = rs.rules[0]
    assert rule.head == "signal_class_a"
    assert (rule.pos, rule.neg) == (("amplitude_strong", "resonance_high"), ())
    assert rule.id == "r1"


def test_parse_negated_literal():
    rs = parse_rules("pump_shift & !valve_normal => anomaly")
    rule = rs.rules[0]
    assert (rule.pos, rule.neg) == (("pump_shift",), ("valve_normal",))


def test_parse_named_rules_and_comments():
    text = """
    # leak detection
    pump_shift & !valve_normal => anomaly @leak   # trailing comment

    flow_low => warning
    """
    rs = parse_rules(text)
    assert [r.id for r in rs.rules] == ["leak", "r2"]


def test_unstratified_negation_rejected():
    with pytest.raises(StratificationError) as err:
        parse_rules("a & !b => b")
    assert "b" in err.value.cycle


def _check_cycle(cycle, rules):
    """``cycle`` is closed, each step is a body -> head edge of some rule in
    ``rules`` (pairs of body literals and head), and one step is negated."""
    negated = {}  # (body name, head) -> whether some rule negates the literal
    for body, head in rules:
        for lit in body:
            key = (lit.lstrip("!"), head)
            negated[key] = negated.get(key, False) or lit.startswith("!")
    steps = list(zip(cycle, cycle[1:]))
    assert steps and cycle[0] == cycle[-1]
    assert all(step in negated for step in steps)
    assert any(negated[step] for step in steps)


def test_unstratified_cycle_through_chain():
    text = "a & !c => b\nb => c\n"
    with pytest.raises(StratificationError) as err:
        parse_rules(text)
    assert {"b", "c"} <= set(err.value.cycle)
    _check_cycle(err.value.cycle, [(["a", "!c"], "b"), (["b"], "c")])
    # seeded random programs: strata put each head at or above its positive
    # body names and above its negated ones, and each rejection names a
    # closed cycle through negation
    rng = np.random.default_rng(31)
    pool = [f"p{i}" for i in range(7)]
    rejected = 0
    for _ in range(2000):
        rules = []
        for _ in range(rng.integers(1, 8)):
            body = [("!" if rng.random() < 0.3 else "") + str(name)
                    for name in rng.choice(pool, rng.integers(1, 4), replace=False)]
            rules.append((body, str(rng.choice(pool))))
        try:
            rs = parse_rules("".join(" & ".join(body) + f" => {head}\n" for body, head in rules))
        except StratificationError as exc:
            _check_cycle(exc.cycle, rules)
            rejected += 1
            continue
        for body, head in rules:
            for lit in body:
                assert rs.strata[head] >= rs.strata[lit.lstrip("!")] + lit.startswith("!")
    assert 0 < rejected < 2000


def test_negation_through_positive_cycle_is_fine():
    # positive cycles are allowed; only negative ones are rejected
    rs = parse_rules("a => b\nb => a\n!a => c\n")
    assert rs.strata["c"] == 1


def test_syntax_errors_carry_position():
    with pytest.raises(RuleSyntaxError) as err:
        parse_rules("a & => b")
    assert err.value.line == 1 and err.value.column == 5
    with pytest.raises(RuleSyntaxError):
        parse_rules("a =>")
    with pytest.raises(RuleSyntaxError):
        parse_rules("=> b")
    with pytest.raises(RuleSyntaxError):
        parse_rules("a => b c")
    with pytest.raises(RuleSyntaxError):
        parse_rules("a => !b")
    with pytest.raises(RuleSyntaxError, match="Bad"):
        parse_rules("Bad => b")


def test_duplicate_body_literal_rejected():
    with pytest.raises(RuleSyntaxError):
        parse_rules("a & a => b")
    with pytest.raises(RuleSyntaxError) as err:
        parse_rules("a & b & !c & !c => d")
    assert (err.value.line, err.value.column) == (1, 15)
    # a and !a are distinct literals (the rule can just never fire)
    rs = parse_rules("a & !a => b")
    assert len(rs) == 1
    # a rule's bodies are sorted tuples of distinct names
    for pos, neg in [(("a", "a"), ()), ((), ("c", "a")), (("b", "a"), ())]:
        with pytest.raises(InputError):
            HornRule(pos, neg, "d", "r1")


def test_duplicate_rule_ids_rejected():
    with pytest.raises(InputError, match="duplicate"):
        parse_rules("a => b @x\nc => d @x\n")


def test_infer_fires_conjunction():
    rs = parse_rules("resonance_high & amplitude_strong => signal_class_a")
    facts = SymbolSet.from_names(["resonance_high", "amplitude_strong"])
    derived, trace = infer(rs, facts)
    assert "signal_class_a" in names(derived)
    assert len(trace) == 1
    assert trace.steps[0].id == "r1"


def test_infer_negation_as_failure():
    rs = parse_rules("pump_shift & !valve_normal => anomaly")
    derived, _ = infer(rs, SymbolSet.from_names(["pump_shift"]))
    assert "anomaly" in names(derived)
    derived2, trace2 = infer(rs, SymbolSet.from_names(["pump_shift", "valve_normal"]))
    assert "anomaly" not in names(derived2)
    assert len(trace2) == 0


def test_infer_empty_ruleset():
    rs = parse_rules("")
    facts = SymbolSet.from_names(["a", "b"])
    derived, trace = infer(rs, facts)
    assert names(derived) == {"a", "b"}
    assert len(trace) == 0


def test_infer_chains_through_strata():
    text = """
    a => b
    b & !c => d
    d => e
    """
    rs = parse_rules(text)
    derived, trace = infer(rs, SymbolSet.from_names(["a"]))
    assert names(derived) == {"a", "b", "d", "e"}
    assert [s.head for s in trace.steps] == ["b", "d", "e"]
    assert replay(trace, SymbolSet.from_names(["a"]), rs)


def test_negation_sees_completed_lower_stratum():
    # c is derivable at stratum 0, so !c must fail even though c is not
    # among the input facts
    text = "a => c\n!c => d\n"
    rs = parse_rules(text)
    derived, _ = infer(rs, SymbolSet.from_names(["a"]))
    assert "d" not in names(derived)
    derived2, _ = infer(rs, SymbolSet.from_names([]))
    assert "d" in names(derived2)


def test_all_negative_body():
    rs = parse_rules("!alarm => all_clear")
    derived, trace = infer(rs, SymbolSet.from_names([]))
    assert "all_clear" in names(derived)
    assert trace.steps[0].neg == ("alarm",)


def test_head_fires_at_most_once():
    text = "a => x\nb => x\n"
    rs = parse_rules(text)
    derived, trace = infer(rs, SymbolSet.from_names(["a", "b"]))
    assert "x" in names(derived)
    assert len(trace) == 1
    assert trace.steps[0].id == "r1"  # position order wins


def test_golden_trace_of_passes_strata_and_shared_heads():
    # stratum 0 lists its chain backwards, so it takes three firing passes;
    # both "done" rules hold in stratum 1's first pass and the first by
    # position fires; "never" fails on b3 from the completed stratum 0, so
    # "quiet" in stratum 2 fires on its absence
    text = """\
b2 => b3 @third
b1 => b2 @second
a => b1 @first
b3 & !blocked => done @via_chain
a & !blocked => done @via_fact
a & !b3 => never @shadowed
!never => quiet @calm
"""
    rs = parse_rules(text)
    assert [rs.strata[h] for h in ("b3", "done", "never", "quiet")] == [0, 1, 1, 2]
    facts = SymbolSet.from_names(["a"])
    derived, trace = infer(rs, facts)
    assert derived.to_json() == ["a", "b1", "b2", "b3", "done", "quiet"]
    assert json.dumps(trace.to_json()) == json.dumps([
        {"rule_id": "first", "head": "b1", "body_pos": ["a"], "body_neg_checked": []},
        {"rule_id": "second", "head": "b2", "body_pos": ["b1"], "body_neg_checked": []},
        {"rule_id": "third", "head": "b3", "body_pos": ["b2"], "body_neg_checked": []},
        {"rule_id": "via_chain", "head": "done", "body_pos": ["b3"],
         "body_neg_checked": ["blocked"]},
        {"rule_id": "calm", "head": "quiet", "body_pos": [], "body_neg_checked": ["never"]},
    ])
    assert replay(trace, facts, rs)


def test_infer_deterministic_trace():
    text = "a => p\na => q\np & q => r\n"
    rs = parse_rules(text)
    facts = SymbolSet.from_names(["a"])
    t1 = infer(rs, facts)[1].to_json()
    t2 = infer(rs, facts)[1].to_json()
    assert json.dumps(t1) == json.dumps(t2)


def test_replay_accepts_real_traces():
    text = "a & !z => b\nb => c\nc & a => d\n"
    rs = parse_rules(text)
    facts = SymbolSet.from_names(["a"])
    derived, trace = infer(rs, facts)
    assert replay(trace, facts, rs)


def test_replay_rejects_deleted_step():
    text = "a => b\nb => c\n"
    rs = parse_rules(text)
    facts = SymbolSet.from_names(["a"])
    _, trace = infer(rs, facts)
    broken = ProofTrace(trace.steps[1:])  # drop the b-derivation feeding c
    assert not replay(broken, facts, rs)


def test_replay_rejects_tampered_step():
    rs = parse_rules("a => b")
    facts = SymbolSet.from_names(["a"])
    _, trace = infer(rs, facts)
    assert replay(trace, facts, rs)
    forged = ProofTrace((HornRule(("zzz",), (), "b", "r1"),))
    assert not replay(forged, facts, rs)
    forged2 = ProofTrace((HornRule(("a",), (), "b", "nope"),))
    assert not replay(forged2, facts, rs)


def test_replay_empty_trace_empty_rules():
    rs = parse_rules("")
    assert replay(ProofTrace(()), SymbolSet.from_names([]), rs)


def test_replay_catches_incomplete_fixpoint():
    rs = parse_rules("a => b")
    facts = SymbolSet.from_names(["a"])
    # empty trace replays cleanly but misses the fixpoint
    assert not replay(ProofTrace(()), facts, rs)


def test_print_parse_roundtrip():
    text = "a & !b => c @alpha\nc & d => e\n!e => f\n"
    rs = parse_rules(text)
    assert parse_rules(format_rules(rs)) == rs
    assert parse_rules(format_rules(parse_rules(""))) == parse_rules("")


def test_monotonicity_without_negation():
    rng = np.random.default_rng(21)
    pool = [f"p{i}" for i in range(8)]
    for _ in range(60):
        lines = []
        for _ in range(rng.integers(1, 7)):
            body = rng.choice(pool, rng.integers(1, 4), replace=False)
            head = str(rng.choice(pool))
            lines.append(" & ".join(body) + " => " + head)
        rs = parse_rules("\n".join(lines))
        base_facts = list(rng.choice(pool, rng.integers(0, 4), replace=False))
        extra = str(rng.choice(pool))
        small, _ = infer(rs, SymbolSet.from_names(base_facts))
        large, _ = infer(rs, SymbolSet.from_names(base_facts + [extra]))
        assert names(small) <= names(large)


def test_termination_bound():
    text = "a => b\nb => c\nc => d\nd => e\n"
    rs = parse_rules(text)
    derived, trace = infer(rs, SymbolSet.from_names(["a"]))
    assert len(trace) <= len(rs.rules) * len(rs.predicates())


def test_trace_json_roundtrip(tmp_path):
    rs = parse_rules("a & !z => b @main")
    facts = SymbolSet.from_names(["a"])
    _, trace = infer(rs, facts)
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(trace.to_json()))
    back = ProofTrace.from_json(read_json(path))
    assert back == trace
    assert replay(back, facts, rs)


GOOD_STEP = {"rule_id": "main", "head": "c", "body_pos": ["a", "b"], "body_neg_checked": []}


@pytest.mark.parametrize(
    "records",
    [
        # "ab" would read as the body ("a", "b"): a forged proof of a & b => c
        [{**GOOD_STEP, "body_pos": "ab", "body_neg_checked": ""}],
        [{**GOOD_STEP, "rule_id": 7}],
        [{**GOOD_STEP, "head": ["x"]}],
        [{**GOOD_STEP, "body_pos": ["a", 1]}],
        [{**GOOD_STEP, "body_neg_checked": ["Bad-Name"]}],
        [{k: v for k, v in GOOD_STEP.items() if k != "head"}],
        [{**GOOD_STEP, "extra": None}],
        [GOOD_STEP, list(GOOD_STEP.values())],
        GOOD_STEP,
        [GOOD_STEP, {**GOOD_STEP, "body_pos": ["b", "a"]}],
        [{**GOOD_STEP, "body_pos": ["a", "a", "b"]}],
        [{**GOOD_STEP, "body_pos": [], "body_neg_checked": []}],
    ],
    ids=["body_a_string", "rule_id_a_number", "head_a_list", "body_with_a_number",
         "name_outside_the_grammar", "missing_key", "extra_key", "record_a_list",
         "trace_an_object", "unsorted_body", "repeated_name", "both_bodies_empty"],
)
def test_trace_json_rejects_records_reason_does_not_write(tmp_path, records):
    rs = parse_rules("a & b => c @main")
    path = tmp_path / "trace.json"
    path.write_text(json.dumps([GOOD_STEP]))
    assert replay(ProofTrace.from_json(read_json(path)), SymbolSet.from_names(["a", "b"]), rs)
    path.write_text(json.dumps(records))
    with pytest.raises(InputError):
        ProofTrace.from_json(read_json(path))


def test_rule_file_loading(tmp_path):
    path = tmp_path / "rules.txt"
    path.write_text("a => b @one\n# comment only\n")
    rs = parse_rules(read_text(path))
    assert len(rs) == 1
    assert rs.rules[0].id == "one"
