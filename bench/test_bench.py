"""Self-test of the benchmark: span arithmetic, binding restore, output checks.

Run with ``PYTHONPATH=src python -m pytest -q bench``.
"""

from dataclasses import replace

import pytest

import spans
import workloads
from speclogic.rules import ProofTrace
from speclogic.sparse import LorentzianAtom, SparseSpectrum


def _set_up(name, count=1, seed=7):
    wl = workloads.WORKLOADS[name]
    cfg = wl.make_config(seed)
    return wl, cfg, cfg.load_ruleset(), wl.make_inputs(seed, count)


def test_self_time_subtracts_the_union_of_child_intervals():
    s = spans.Span
    nested = [
        s("root", 0, None, 0.0, 10.0),
        s("a", 0, 0, 1.0, 4.0),
        s("a.inner", 0, 1, 2.0, 3.0),
        s("b", 0, 0, 5.0, 9.0),
        s("c", 0, 0, 8.0, 11.0),  # overlaps b and ends after its parent
        s("other_root", 1, None, 20.0, 21.5),
    ]
    # root is covered on [1, 4] and [5, 10]: 3 + 5 of its 10 units
    assert spans.self_times(nested) == pytest.approx([2.0, 2.0, 1.0, 4.0, 3.0, 1.5])


def test_traced_pass_restores_every_binding_and_nests_windows():
    wl, cfg, ruleset, inputs = _set_up("detect")
    before = spans.bindings()
    tracer = spans.Tracer()
    with tracer.installed():
        during = spans.bindings()
        tracer.item = 0
        wl.call(cfg, ruleset, inputs[0])
        tracer.item = None
    after = spans.bindings()
    assert all(a is not b for a, b in zip(before, during))
    assert all(a is b for a, b in zip(before, after))

    roots = [i for i, sp in enumerate(tracer.spans) if sp.parent is None]
    assert [tracer.spans[i].name for i in roots] == ["pipeline.detect_anomalies"]
    windows = [sp for sp in tracer.spans if sp.name == "pipeline.run"]
    assert len(windows) == workloads.WINDOWS_PER_STREAM
    assert all(sp.parent == roots[0] for sp in windows)
    assert len(tracer.results) == workloads.WINDOWS_PER_STREAM


def test_classify_check_rejects_a_swapped_class_and_a_broken_trace():
    wl, cfg, ruleset, inputs = _set_up("sweep", count=2)
    (series, truth), (_, other_truth) = inputs
    out = wl.call(cfg, ruleset, (series, truth))
    good = wl.check(cfg, ruleset, (series, truth), out)
    assert good.passed and good.traces_valid == 1
    assert not wl.check(cfg, ruleset, (series, other_truth), out).passed

    result, _ = out
    unproved = replace(result, trace=ProofTrace(()))
    replayed = workloads.rules.replay(unproved.trace, unproved.predicates, ruleset)
    assert wl.check(cfg, ruleset, (series, truth), (unproved, replayed)).traces_valid == 0


def test_detect_check_rejects_a_late_flag_and_a_false_alarm():
    wl, cfg, ruleset, inputs = _set_up("detect", count=2)
    shifted, stationary = inputs
    assert shifted[1] is not None and stationary[1] is None
    flagged = wl.call(cfg, ruleset, shifted)
    assert wl.check(cfg, ruleset, shifted, flagged).passed
    assert wl.check(cfg, ruleset, stationary, []).passed

    late = [(shifted[1] + 1, flagged[0][1])]
    assert not wl.check(cfg, ruleset, shifted, late).passed
    assert not wl.check(cfg, ruleset, shifted, []).passed
    assert not wl.check(cfg, ruleset, stationary, flagged[:1]).passed


def test_operator_check_rejects_a_shifted_atom():
    wl, cfg, ruleset, inputs = _set_up("operator")
    result = wl.call(cfg, ruleset, inputs[0])
    assert wl.check(cfg, ruleset, inputs[0], result).passed

    step = cfg.lanczos.eta / 5
    moved = SparseSpectrum.from_atoms(
        [LorentzianAtom(a.omega + step, a.gamma, a.amp) for a in result.atoms.atoms]
    )
    assert not wl.check(cfg, ruleset, inputs[0], replace(result, atoms=moved)).passed


def test_inputs_repeat_for_a_seed():
    for name in ("sweep", "detect"):
        wl = workloads.WORKLOADS[name]
        first, again = wl.make_inputs(3, 4), wl.make_inputs(3, 4)
        assert all((a[0].samples == b[0].samples).all() for a, b in zip(first, again))
        assert [a[1] for a in first] == [b[1] for b in again]


def test_tail_index_leaves_ten_samples_beyond():
    assert workloads.tail_index(100) == (90.0, 89)
    assert workloads.tail_index(11) == pytest.approx((100 / 11, 0))
    assert workloads.tail_index(5) == (50.0, 2)
