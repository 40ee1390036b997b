import numpy as np
import pytest

from speclogic import InputError, run, run_benchmark, synth_oscillator
from speclogic.benchmark import (
    MAX_POINTS,
    REGIME_NAMES,
    REGIMES,
    predicted_classes,
    reference_config,
)


def test_regime_roster():
    assert len(REGIMES) == 8
    assert len(set(r.class_head for r in REGIMES)) == 8


def test_synth_deterministic():
    a, la = synth_oscillator("underdamped_low", seed=123)
    b, lb = synth_oscillator("underdamped_low", seed=123)
    assert np.array_equal(a.samples, b.samples)
    assert la == lb
    c, _ = synth_oscillator("underdamped_low", seed=124)
    assert not np.array_equal(a.samples, c.samples)


def test_synth_noise_changes_signal_but_keeps_label():
    clean, label = synth_oscillator("overdamped", seed=5)
    noisy, label2 = synth_oscillator("overdamped", noise_sigma=0.1, seed=5)
    assert label == label2 == "class_overdamped"
    assert not np.array_equal(clean.samples, noisy.samples)


def test_synth_validation():
    with pytest.raises(InputError):
        synth_oscillator("harmonic")
    with pytest.raises(InputError):
        synth_oscillator("overdamped", n=32)
    with pytest.raises(InputError):
        synth_oscillator("overdamped", seed=-1)


@pytest.mark.parametrize("noise", [-1.0, -1e-12, float("nan"), float("inf")])
def test_synth_and_benchmark_reject_bad_noise(noise):
    # a negative or NaN sigma once gave the clean signal without a word
    with pytest.raises(InputError, match="noise_sigma"):
        synth_oscillator("overdamped", noise_sigma=noise, seed=3)
    with pytest.raises(InputError, match="noise_sigma"):
        run_benchmark(8, noise, seed=2)


@pytest.mark.parametrize("n", [MAX_POINTS + 1, 100_000_000_000])
def test_synth_and_benchmark_reject_n_past_the_maximum(n):
    # the bound is checked before any array of n samples exists; 1e11 samples
    # once ended in numpy's memory error
    with pytest.raises(InputError, match="samples"):
        synth_oscillator("overdamped", n=n, seed=3)
    with pytest.raises(InputError, match="samples"):
        run_benchmark(8, seed=2, n=n)


def test_synth_noise_past_float64_is_an_input_error():
    # finite sigma, but sigma * N(0, 1) overflows: an InputError, no RuntimeWarning
    with pytest.raises(InputError, match="non-finite"):
        synth_oscillator("overdamped", noise_sigma=1e308, seed=3)


def test_each_regime_classifies_to_its_ground_truth():
    cfg = reference_config()
    for i, name in enumerate(REGIME_NAMES):
        series, truth = synth_oscillator(name, seed=1000 + i)
        result = run(series, cfg)
        assert predicted_classes(result) == [truth], name


def test_two_mode_regimes_yield_two_atoms():
    cfg = reference_config()
    for name in ("two_mode_close", "two_mode_far"):
        series, _ = synth_oscillator(name, seed=77)
        result = run(series, cfg)
        assert len(result.atoms.atoms) == 2, name


def test_benchmark_small_sweep():
    report = run_benchmark(24, 0.0, seed=11)
    assert report.samples == 24
    assert report.accuracy == 1.0
    assert report.traces_valid == 1.0
    assert not report.failures
    payload = report.to_dict()
    assert set(payload) >= {"accuracy", "confusion", "traces_valid", "samples"}


def test_benchmark_confusion_diagonal():
    report = run_benchmark(16, 0.0, seed=2)
    for truth, row in report.confusion.items():
        for predicted, count in row.items():
            assert predicted == truth, (truth, predicted)
            assert count == 2
