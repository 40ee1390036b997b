import numpy as np
import pytest

from speclogic import InputError, TimeSeries, autocorrelation, preprocess
from speclogic.signal import (
    PreprocessConfig,
    load_timeseries_csv,
    load_timeseries_json,
    save_timeseries_csv,
)
from speclogic.sparse import fit_matrix_pencil


def test_timeseries_validation():
    with pytest.raises(InputError):
        TimeSeries([1.0], 0.1)
    with pytest.raises(InputError):
        TimeSeries([1.0, np.nan], 0.1)
    with pytest.raises(InputError):
        TimeSeries([1.0, 2.0], 0.0)
    with pytest.raises(InputError):
        TimeSeries([1.0, 2.0], -1.0)


def test_detrend_annihilates_constants():
    x = TimeSeries([5.0, 5.0, 5.0, 5.0], 1.0)
    out = preprocess(x, PreprocessConfig(detrend=True))
    assert np.allclose(out.samples, 0.0)


def test_all_none_is_identity_and_idempotent():
    x = TimeSeries([1.0, -2.0, 3.0], 0.5, label="sig")
    cfg = PreprocessConfig()
    once = preprocess(x, cfg)
    twice = preprocess(once, cfg)
    assert np.array_equal(once.samples, x.samples)
    assert np.array_equal(twice.samples, x.samples)
    assert once.dt == x.dt and once.label == "sig"


def test_autocorrelation_zero_signal():
    out = autocorrelation(TimeSeries(np.zeros(16), 1.0), 5)
    assert np.array_equal(out.samples, np.zeros(6))


def test_autocorrelation_alternating():
    out = autocorrelation(TimeSeries([1.0, -1.0, 1.0, -1.0], 0.25), 1)
    assert out.samples[0] == pytest.approx(1.0)
    assert out.samples[1] == pytest.approx(-1.0)
    assert out.dt == 0.25


def test_autocorrelation_lag_bounds():
    x = TimeSeries([1.0, 2.0, 3.0], 1.0)
    with pytest.raises(InputError):
        autocorrelation(x, 0)
    with pytest.raises(InputError):
        autocorrelation(x, 3)


def test_autocorrelation_keeps_dominant_frequency():
    # fitting the signal and its autocorrelation should find the same mode
    dt = 0.02
    t = np.arange(400) * dt
    x = TimeSeries(np.exp(-0.1 * t) * np.cos(2.5 * t), dt)
    corr = autocorrelation(x, 130)
    dom_x = max(fit_matrix_pencil(x, 2).atoms, key=lambda a: a.amp)
    dom_c = max(fit_matrix_pencil(corr, 4).atoms, key=lambda a: a.amp)
    assert dom_c.omega == pytest.approx(dom_x.omega, rel=1e-2)


def test_autocorrelation_peak_at_zero_lag():
    # Cauchy-Schwarz: C(0) dominates every other lag for mean-removed input
    rng = np.random.default_rng(42)
    for _ in range(25):
        s = rng.standard_normal(rng.integers(16, 80))
        s -= s.mean()
        out = autocorrelation(TimeSeries(s, 1.0), len(s) // 2)
        assert out.samples[0] >= np.max(np.abs(out.samples[1:])) - 1e-12


def test_csv_roundtrip(tmp_path):
    x = TimeSeries([0.5, -1.5, 2.25, 0.125], 0.1)
    path = tmp_path / "sig.csv"
    save_timeseries_csv(x, path)
    back = load_timeseries_csv(path)
    assert back.dt == pytest.approx(0.1, rel=1e-12)
    assert np.allclose(back.samples, x.samples)


def test_csv_rejects_nonuniform(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,value\n0.0,1.0\n0.1,2.0\n0.32,3.0\n")
    with pytest.raises(InputError, match="non-uniform"):
        load_timeseries_csv(path)


def test_csv_rejects_bad_header_and_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,val\n0,1\n1,2\n")
    with pytest.raises(InputError, match="header"):
        load_timeseries_csv(path)
    path.write_text("t,value\n0,1\nx,2\n")
    with pytest.raises(InputError, match="non-numeric"):
        load_timeseries_csv(path)


def test_json_roundtrip(tmp_path):
    path = tmp_path / "sig.json"
    path.write_text('{"dt": 0.25, "samples": [1.0, 2.0, 3.0], "label": "probe"}')
    back = load_timeseries_json(path)
    assert back.dt == 0.25
    assert back.label == "probe"
    assert np.array_equal(back.samples, [1.0, 2.0, 3.0])
    path.write_text("{not json")
    with pytest.raises(InputError):
        load_timeseries_json(path)
