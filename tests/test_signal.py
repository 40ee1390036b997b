import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

from speclogic import InputError, NumericError, PoleSet, TimeSeries, preprocess
from speclogic.signal import (
    PreprocessConfig,
    load_timeseries_csv,
    load_timeseries_json,
    norm2,
    save_timeseries_csv,
    unit_scale,
    write_csv,
)
from speclogic.sparse import atoms_from_poles, fit_matrix_pencil


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


def test_autocorrelation_keeps_dominant_frequency():
    # a correlation sequence is itself a signal: fitting the signal and its
    # unbiased autocorrelation should find the same mode
    dt = 0.02
    t = np.arange(400) * dt
    x = TimeSeries(np.exp(-0.1 * t) * np.cos(2.5 * t), dt)
    s = x.samples
    corr = TimeSeries([s[: 400 - lag] @ s[lag:] / (400 - lag) for lag in range(131)], dt)
    dom_x = max(fit_matrix_pencil(x, 2).atoms, key=lambda a: a.amp)
    dom_c = max(fit_matrix_pencil(corr, 4).atoms, key=lambda a: a.amp)
    assert dom_c.omega == pytest.approx(dom_x.omega, rel=1e-2)


def test_csv_roundtrip(tmp_path):
    x = TimeSeries([0.5, -1.5, 2.25, 0.125], 0.1)
    path = tmp_path / "sig.csv"
    save_timeseries_csv(x, path)
    back = load_timeseries_csv(path)
    assert back.dt == pytest.approx(0.1, rel=1e-12)
    assert np.allclose(back.samples, x.samples)


AWKWARD = [1e-300, -0.0, 1 / 3, 1.5e308, -5e-324, 0.1 + 0.2]


def test_csv_writer_bytes_equal_rows_joined_whole(tmp_path):
    # the rows, each value its float's repr, as they were once joined into one
    # string; the long columns cross a block boundary of the writer
    def joined(header, *columns):
        rows = [header] + [",".join(repr(float(v)) for v in row) for row in zip(*columns)]
        return ("\n".join(rows) + "\n").encode()

    for n in (len(AWKWARD), 2**16 + 3):
        samples = np.resize(AWKWARD, n)
        x = TimeSeries(samples, 1 / 3)
        save_timeseries_csv(x, tmp_path / "sig.csv")
        assert (tmp_path / "sig.csv").read_bytes() == joined("t,value", x.times, samples)
        omega = np.linspace(-1 / 3, 1e-300, n)
        write_csv(tmp_path / "spec.csv", "omega,S", omega, samples[::-1])
        assert (tmp_path / "spec.csv").read_bytes() == joined("omega,S", omega, samples[::-1])


def test_csv_writer_holds_one_block_of_rows(tmp_path):
    # the text of 2**18 rows exceeds the bound, so a writer that joined them
    # all before writing would fail it
    x = TimeSeries(np.random.default_rng(3).standard_normal(2**18), 1 / 3)
    bound = 8 * 2**20
    tracemalloc.start()
    try:
        save_timeseries_csv(x, tmp_path / "long.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "long.csv").stat().st_size > bound
    assert peak < bound


def test_csv_reader_holds_one_row_of_text(tmp_path):
    # a reader that held the file's text, its lines or Python float lists of
    # 2**18 rows would exceed the bound (the whole-text reader peaked at 41 MiB)
    x = TimeSeries(np.random.default_rng(4).standard_normal(2**18), 1 / 3)
    save_timeseries_csv(x, tmp_path / "long.csv")
    bound = 16 * 2**20
    tracemalloc.start()
    try:
        back = load_timeseries_csv(tmp_path / "long.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.samples, x.samples)
    assert peak < bound


def test_csv_rejects_nonuniform(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,value\n0.0,1.0\n0.1,2.0\n0.32,3.0\n")
    with pytest.raises(InputError, match="non-uniform"):
        load_timeseries_csv(path)


def test_csv_rejects_bad_header_and_rows(tmp_path):
    # each message names the line, for every line ending the reader accepts
    path = tmp_path / "bad.csv"
    for text, message in [
        ("time,val\n0,1\n1,2\n", "header"),
        ("t,value\n0,1\nx,2\n", "non-numeric"),
        ("", "empty file"),
        ("time,val\r\n0,1\r\n", "expected header 't,value', got 'time,val'$"),
        ("t,value\n0,1\n\n2\n", ":4: expected two comma-separated fields$"),
        ("t,value\r\n0,1\r\n1,x", ":3: non-numeric row '1,x'$"),
        ("t,value\r1,2\r2,y\r", ":3: non-numeric row '2,y'$"),
    ]:
        path.write_text(text, newline="")
        with pytest.raises(InputError, match=message):
            load_timeseries_csv(path)


def test_csv_names_the_line_of_a_byte_that_is_not_utf8(tmp_path):
    # the text layer decodes 8 KiB blocks ahead of the row being read, so line
    # 909 of 4000 lies deep inside a block that is decoded before its rows are
    path = tmp_path / "bad.csv"
    save_timeseries_csv(TimeSeries(np.cos(0.1 * np.arange(4000)), 0.5), path)
    rows = path.read_bytes().split(b"\n")
    rows[908] = rows[908][:5] + b"\xff" + rows[908][5:]
    for content, line, position in [
        (b"\n".join(rows), 909, 5),
        (b"t,va\xc3lue\r\n0,1\r\n1,2\r\n", 1, 4),
        (b"t,value\r0,1\r1,2\xe2\x82\r", 3, "3-4"),
    ]:
        path.write_bytes(content)
        with pytest.raises(InputError, match=f":{line}: not UTF-8 text .* in position {position}:"):
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


def test_norm2_neither_overflows_nor_underflows_nor_warns():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert norm2(np.array([1e308, 1e308])) == pytest.approx(math.sqrt(2) * 1e308, rel=1e-15)
        tiny = norm2(np.array([1e-310, 1e-310]))  # subnormal: every square underflows to 0
        assert tiny == pytest.approx(math.sqrt(2) * 1e-310, rel=1e-12)
        assert norm2(np.zeros(7)) == 0.0
        assert norm2(np.array([3e200 + 4e200j, 0.0])) == pytest.approx(5e200, rel=1e-15)
        assert norm2(np.array([3e-200 - 4e-200j])) == pytest.approx(5e-200, rel=1e-15)
        # only a norm past float64's range is inf, and the residual's caller raises on it
        assert norm2(np.array([1.5e308, 1.5e308])) == math.inf
        assert norm2(np.array([1.5e308 + 1.5e308j])) == math.inf
        empty = PoleSet(np.empty(0, complex), np.empty(0, complex))
        with pytest.raises(NumericError, match="overflows"):
            atoms_from_poles(empty, 0.1, np.array([1.5e308, -1.5e308]))


def test_empty_samples_scale_by_one_and_leave_no_residual():
    empty = np.empty(0)
    assert unit_scale(empty) == 1.0
    assert norm2(empty) == 0.0
    assert norm2(np.empty(0, dtype=complex)) == 0.0
    modes = PoleSet(np.array([0.9 + 0.1j, 0.9 - 0.1j]), np.array([1 + 0j, 1 + 0j]))
    sp = atoms_from_poles(modes, 0.1, empty)
    assert sp.residual_norm == 0.0 and len(sp) == 1


def test_norm2_agrees_with_blas_nrm2():
    rng = np.random.default_rng(17)
    for trial in range(400):
        v = rng.standard_normal(int(rng.integers(1, 800))) * 10.0 ** rng.uniform(-300, 300)
        if trial % 2:
            v = v + 1j * rng.standard_normal(v.size) * 10.0 ** rng.uniform(-300, 300)
        reference = scipy.linalg.norm(v, check_finite=False)
        assert norm2(v) == pytest.approx(reference, rel=1e-15, abs=0.0)
