import json

import numpy as np
import pytest

from speclogic import (
    BinAxis,
    BinningConfig,
    InputError,
    LorentzianAtom,
    PipelineConfig,
    Predicate,
    SparseSpectrum,
    SymbolSet,
    project,
)

CFG = BinningConfig(
    omega_bins=BinAxis((0.0, 1.0), ("low", "high")),
    gamma_bins=BinAxis((0.0, 0.5), ("narrow", "wide")),
    amp_bins=BinAxis((1.0,), ("strong",)),
    negligible_eps=0.1,
)


def spectrum(*atoms):
    return SparseSpectrum.from_atoms(list(atoms))


def test_project_threshold_lookup():
    out = project(spectrum(LorentzianAtom(5.0, 0.1, 2.0)), CFG)
    assert out.names == {"resonance_high", "width_narrow", "amplitude_strong"}


def test_negligible_suppresses_axis_predicates():
    out = project(spectrum(LorentzianAtom(5.0, 0.1, 0.05)), CFG)
    assert out.names == {"negligible"}


def test_boundary_value_goes_to_upper_interval():
    # omega exactly on the 1.0 edge belongs to the interval starting there
    out = project(spectrum(LorentzianAtom(1.0, 0.1, 2.0)), CFG)
    assert "resonance_high" in out.names
    # gamma exactly on the 0.5 edge likewise
    out = project(spectrum(LorentzianAtom(0.5, 0.5, 2.0)), CFG)
    assert "width_wide" in out.names


def test_underflow_is_named_not_dropped():
    out = project(spectrum(LorentzianAtom(-2.0, 0.1, 0.5)), CFG)
    assert "resonance_underflow" in out.names
    assert "amplitude_underflow" in out.names


def test_every_atom_contributes():
    sp = spectrum(
        LorentzianAtom(0.5, 0.1, 2.0),
        LorentzianAtom(5.0, 0.7, 0.01),
        LorentzianAtom(9.0, 0.9, 3.0),
    )
    out = project(sp, CFG)
    sources = {p.source_atom for p in out.predicates}
    assert sources == {0, 1, 2}


def test_projection_deterministic():
    sp = spectrum(LorentzianAtom(0.5, 0.1, 2.0), LorentzianAtom(5.0, 0.7, 3.0))
    assert project(sp, CFG).to_json() == project(sp, CFG).to_json()


def test_monotone_binning_in_omega():
    axis = CFG.omega_bins
    rng = np.random.default_rng(4)
    values = np.sort(rng.uniform(-1.0, 5.0, 40))
    indices = []
    for v in values:
        label = axis.label_for(v)
        indices.append(-1 if label is None else axis.labels.index(label))
    assert indices == sorted(indices)


def test_bin_axis_validation():
    with pytest.raises(InputError):
        BinAxis((1.0, 0.5), ("a", "b"))
    with pytest.raises(InputError):
        BinAxis((0.0, 1.0), ("a",))
    with pytest.raises(InputError):
        BinAxis((0.0, 1.0), ("a", "a"))
    with pytest.raises(InputError):
        BinAxis((0.0,), ("Bad-Label",))
    with pytest.raises(InputError):
        BinningConfig(CFG.omega_bins, CFG.gamma_bins, CFG.amp_bins, 0.0)


def test_predicate_name_grammar():
    with pytest.raises(InputError):
        Predicate("Resonance")
    with pytest.raises(InputError):
        Predicate("9lives")
    Predicate("_ok_2")


def test_binning_serialization_roundtrip():
    cfg = PipelineConfig(binning=CFG, rules_text="a => b\n")
    back = PipelineConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert back.binning == CFG


def test_symbolset_json_sorted_names():
    s = SymbolSet(frozenset({Predicate("b", 1), Predicate("a", 0), Predicate("b", 2)}))
    assert s.to_json() == ["a", "b"]
