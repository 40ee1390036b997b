import json

import numpy as np
import pytest

from speclogic.benchmark import reference_config
from speclogic.cli import main
from speclogic.signal import TimeSeries, save_timeseries_csv


@pytest.fixture
def workdir(tmp_path):
    series, _ = _synth_to(tmp_path / "sig.csv", seed=5)
    return tmp_path


def _synth_to(path, seed):
    from speclogic.benchmark import synth_oscillator

    series, label = synth_oscillator("underdamped_high", seed=seed)
    save_timeseries_csv(series, path)
    return series, label


def test_synth_then_run(tmp_path, capsys):
    sig = tmp_path / "sig.csv"
    meta = tmp_path / "meta.json"
    assert main(["synth", "--regime", "underdamped_high", "--seed", "5",
                 "--out", str(sig), "--meta-out", str(meta)]) == 0
    assert json.loads(meta.read_text())["class"] == "class_underdamped_high"

    out = tmp_path / "result.json"
    assert main(["run", "--input", str(sig), "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert "class_underdamped_high" in record["derived"]


def test_estimate_project_reason_chain(workdir, capsys):
    sig = workdir / "sig.csv"
    atoms = workdir / "atoms.json"
    preds = workdir / "preds.json"
    rules = workdir / "rules.txt"
    trace = workdir / "trace.json"
    spectrum = workdir / "spec.csv"

    assert main(["estimate", "--input", str(sig), "--atoms-out", str(atoms),
                 "--spectrum-out", str(spectrum)]) == 0
    record = json.loads(atoms.read_text())
    assert len(record["atoms"]) == 1

    assert main(["project", "--atoms", str(atoms), "--out", str(preds)]) == 0
    names = json.loads(preds.read_text())
    assert "resonance_high" in names

    rules.write_text("resonance_high & width_narrow => fast_mode\n")
    out = workdir / "derived.json"
    assert main(["reason", "--facts", str(preds), "--rules", str(rules),
                 "--out", str(out), "--trace-out", str(trace)]) == 0
    assert "fast_mode" in json.loads(out.read_text())
    assert json.loads(trace.read_text())[0]["head"] == "fast_mode"

    header, first, *_ = spectrum.read_text().splitlines()
    assert header == "omega,S"
    assert len(first.split(",")) == 2


def test_run_output_deterministic(workdir):
    sig = workdir / "sig.csv"
    out1 = workdir / "r1.json"
    out2 = workdir / "r2.json"
    assert main(["run", "--input", str(sig), "--out", str(out1)]) == 0
    assert main(["run", "--input", str(sig), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_detect_command(tmp_path):
    dt = 0.05
    t = np.arange(512) * dt
    x = np.where(np.arange(512) < 256,
                 np.exp(-0.1 * t) * np.cos(3.0 * t),
                 np.exp(-0.1 * t) * np.cos(3.6 * t))
    sig = tmp_path / "cp.csv"
    save_timeseries_csv(TimeSeries(x, dt), sig)

    cfg = reference_config()
    cfg_dict = cfg.to_dict()
    cfg_dict["binning"] = {
        "omega_bins": {"edges": [0.0, 3.3], "labels": ["nominal", "shifted"]},
        "gamma_bins": {"edges": [0.0], "labels": ["any"]},
        "amp_bins": {"edges": [0.0], "labels": ["any"]},
        "negligible_eps": 0.05,
    }
    cfg_dict["rules_text"] = "resonance_shifted => anomaly\n"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg_dict))

    out = tmp_path / "flags.json"
    assert main(["detect", "--input", str(sig), "--config", str(cfg_path),
                 "--window", "128", "--stride", "64", "--alert", "anomaly",
                 "--out", str(out)]) == 0
    flags = json.loads(out.read_text())
    assert flags
    assert flags[0]["window_start"] <= 256


def test_bench_command(tmp_path):
    out = tmp_path / "report.json"
    assert main(["bench", "--samples", "8", "--seed", "3", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["accuracy"] == 1.0
    assert report["traces_valid"] == 1.0


def test_backend_and_rules_overrides(workdir):
    sig = workdir / "sig.csv"
    rules = workdir / "alt.txt"
    rules.write_text("resonance_high => spotted\n")
    out = workdir / "res.json"
    assert main(["run", "--input", str(sig), "--backend", "pade_z",
                 "--rules", str(rules), "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert "spotted" in record["derived"]
    assert record["diagnostics"]["estimate"]["backend"] == "pade_z"


def test_lanczos_backend_rejected_by_parser(workdir, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--input", str(workdir / "sig.csv"), "--backend", "lanczos"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize(
    "change",
    [
        {"colour": "blue"},
        {"sparse": {"k_max": 3, "kmax": 3}},
        {"pade": 5},
        {"binning": {"omega_bins": "low"}},
        {"seed": "seven"},
        {"seed": True},
        {"sparse": {"k_max": True}},
        {"preprocess": {"window": "hann"}},
        {"preprocess": {"zero_pad_to": 768}},
        {"sparse": {"nls_iters": 60}},
        {"sparse": {"omp_tol": 1e-6}},
        {"lanczos": {"reorthogonalize": True}},
        {"pade": {"residual_tol": 1e-8}},
        {"seed": -2},
        {"sparse": {"sv_tol": float("nan")}},
        {"sparse": {"sv_tol": float("inf")}},
        {"sparse": {"sv_tol": 1.0}},
        {"binning": {"omega_bins": {"edges": [0.0, float("nan"), 4.0, 8.0],
                                    "labels": ["low", "mid", "high", "hyper"]}}},
        {"binning": {"negligible_eps": float("inf")}},
        {"lanczos": {"eta": float("inf")}},
    ],
    ids=["unknown_key", "unknown_nested_key", "section_not_object", "axis_not_object",
         "wrong_scalar_type", "bool_as_int", "nested_bool_as_int", "removed_window",
         "removed_zero_pad_to", "removed_nls_iters", "removed_omp_tol",
         "removed_reorthogonalize", "removed_residual_tol", "negative_seed", "sv_tol_nan",
         "sv_tol_infinity", "sv_tol_one", "nan_bin_edge", "negligible_eps_infinity",
         "eta_infinity"],
)
def test_malformed_config_exits_2(workdir, capsys, change):
    record = reference_config().to_dict()
    for key, value in change.items():
        if isinstance(value, dict) and isinstance(record.get(key), dict):
            record[key] = {**record[key], **value}
        else:
            record[key] = value
    cfg_path = workdir / "cfg.json"
    cfg_path.write_text(json.dumps(record))  # NaN and Infinity as json writes and reads them
    assert main(["run", "--input", str(workdir / "sig.csv"), "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "command",
    [
        ["run", "--input", "{dir}/sig.csv", "--seed", "-1"],
        ["detect", "--input", "{dir}/sig.csv", "--window", "128", "--stride", "64",
         "--alert", "class_underdamped_high", "--seed", "-3"],
        ["bench", "--samples", "2", "--seed", "-1"],
        ["synth", "--regime", "overdamped", "--out", "{dir}/s.csv", "--seed", "-1"],
    ],
    ids=["run", "detect", "bench", "synth"],
)
def test_negative_seed_exits_2(workdir, capsys, command):
    assert main([arg.format(dir=workdir) for arg in command]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "command",
    [
        ["synth", "--regime", "overdamped", "--seed", "3", "--out", "{dir}/s.csv", "--noise", "-1"],
        ["synth", "--regime", "overdamped", "--seed", "3", "--out", "{dir}/s.csv", "--noise", "nan"],
        ["bench", "--samples", "8", "--noise", "-0.5", "--seed", "2"],
    ],
    ids=["synth_negative", "synth_nan", "bench_negative"],
)
def test_bad_noise_exits_2(workdir, capsys, command):
    assert main([arg.format(dir=workdir) for arg in command]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "noise_sigma" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "command",
    [
        ["synth", "--regime", "overdamped", "--seed", "3", "--n", "100000000000",
         "--out", "{dir}/x.csv"],
        ["estimate", "--input", "{dir}/sig.csv", "--spectrum-out", "{dir}/f.csv",
         "--grid-points", "100000000000"],
    ],
    ids=["synth_n", "grid_points"],
)
def test_size_past_the_maximum_exits_2(workdir, capsys, command):
    assert main([arg.format(dir=workdir) for arg in command]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and str(2**24) in err and "Traceback" not in err


def test_zero_noise_writes_the_clean_signal(tmp_path):
    from speclogic.benchmark import synth_oscillator

    base = ["synth", "--regime", "overdamped", "--seed", "3", "--out"]
    assert main(base + [str(tmp_path / "default.csv")]) == 0
    assert main(base + [str(tmp_path / "zero.csv"), "--noise", "0"]) == 0
    save_timeseries_csv(synth_oscillator("overdamped", seed=3)[0], tmp_path / "clean.csv")
    clean = (tmp_path / "clean.csv").read_bytes()
    assert (tmp_path / "zero.csv").read_bytes() == (tmp_path / "default.csv").read_bytes() == clean


def test_estimate_ignores_rules(workdir):
    # a config with binning but no rules: the atoms never depend on the rules
    record = reference_config().to_dict()
    record["rules_text"] = None
    cfg_path = workdir / "cfg.json"
    cfg_path.write_text(json.dumps(record))
    atoms = workdir / "atoms.json"
    assert main(["estimate", "--input", str(workdir / "sig.csv"), "--config", str(cfg_path),
                 "--atoms-out", str(atoms)]) == 0
    out = workdir / "result.json"
    assert main(["run", "--input", str(workdir / "sig.csv"), "--out", str(out)]) == 0
    assert json.loads(atoms.read_text()) == json.loads(out.read_text())["atoms"]


@pytest.mark.parametrize(
    "name, content, command",
    [
        ("probe.json", b'{"dt": 0.1, "samples": [1, 2, 3\xff]}', ["run", "--input"]),
        ("probe.csv", b"t,value\n0,1\n1,2\xff\n", ["run", "--input"]),
        ("probe.json", b'{"seed": 1\xff}', ["run", "--input", "{dir}/sig.csv", "--config"]),
        ("probe.json", b'{"atoms": []\xff}', ["project", "--atoms"]),
        ("probe.txt", b"a => b\xff\n", ["reason", "--facts", "{dir}/facts.json", "--rules"]),
        ("probe.json", b'["a"\xff]', ["reason", "--rules", "{dir}/rules.txt", "--facts"]),
        ("probe.json", b"[" * 200_000 + b"]" * 200_000, ["run", "--input"]),
        ("probe.json", b'{"dt": 0.1, "samples": [{"a": 1}, 2, 3]}', ["run", "--input"]),
        ("probe.json", b'{"dt": 0.1, "samples": "abc"}', ["run", "--input"]),
        ("probe.csv", b"t,value\n0,1\n1,2\ninf,3\n", ["run", "--input"]),
        ("probe.csv", b"t,value\n0,1\n1e308,2\n-1e308,3\n", ["run", "--input"]),
    ],
    ids=["signal_json_not_utf8", "signal_csv_not_utf8", "config_not_utf8", "atoms_not_utf8",
         "rules_not_utf8", "facts_not_utf8", "deeply_nested_json", "sample_not_number",
         "samples_a_string", "infinite_time", "time_step_overflows"],
)
def test_malformed_input_file_exits_2(workdir, capsys, name, content, command):
    (workdir / "facts.json").write_text('["a"]')
    (workdir / "rules.txt").write_text("a => b\n")
    path = workdir / name
    path.write_bytes(content)
    argv = [arg.format(dir=workdir) for arg in command] + [str(path)]
    # a RuntimeWarning is an error under the test configuration, and any
    # exception main() does not turn into an exit code propagates here
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def test_near_max_dipole_run_exits_0_with_strict_json(tmp_path, capsys):
    # whether a mode of this valid near-float-max input overflows at input
    # scale depends on the sketch's random draw; either way the run succeeds
    samples = 1.2e308 * (np.eye(1, 384, 100)[0] - np.eye(1, 384, 101)[0])
    save_timeseries_csv(TimeSeries(samples, 0.05), tmp_path / "dipole.csv")
    assert main(["run", "--input", str(tmp_path / "dipole.csv")]) == 0
    json.loads(capsys.readouterr().out, parse_constant=_reject_constant)


def test_overflowing_mode_run_reports_a_failed_fit(tmp_path, capsys):
    # ||x|| is about 1.3e308, but the mode's amplitude A/(2 gamma) = 5e308 is
    # not finite under any correct fit, so the fit failed: no atom, and
    # nothing explained
    t = np.arange(384) * 0.05
    samples = 1e307 * np.exp(-0.01 * t) * np.cos(3 * t)
    save_timeseries_csv(TimeSeries(samples, 0.05), tmp_path / "mode.csv")
    for seed in ["0", "5"]:
        assert main(["run", "--input", str(tmp_path / "mode.csv"), "--seed", seed]) == 0
        out = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        assert out["atoms"]["atoms"] == []
        norm = 1e307 * np.linalg.norm(samples / 1e307)
        assert out["atoms"]["residual_norm"] == pytest.approx(norm, rel=1e-12)
        assert out["diagnostics"]["estimate"]["dropped"] == 1


def test_missing_input_exits_2(tmp_path, capsys):
    assert main(["run", "--input", str(tmp_path / "absent.csv")]) == 2
    assert "error" in capsys.readouterr().err


def test_bad_rules_exit_2(workdir, capsys):
    bad = workdir / "bad.txt"
    bad.write_text("a & !b => b\n")
    preds = workdir / "facts.json"
    preds.write_text('["a"]')
    assert main(["reason", "--facts", str(preds), "--rules", str(bad)]) == 2


@pytest.mark.parametrize("facts", ["5", '{"a": 1}', '["a", 1]'])
def test_reason_rejects_facts_not_a_list_of_names(workdir, capsys, facts):
    rules = workdir / "rules.txt"
    rules.write_text("a => b\n")
    path = workdir / "facts.json"
    path.write_text(facts)
    assert main(["reason", "--facts", str(path), "--rules", str(rules)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("points", ["1", "-1"])
def test_estimate_rejects_grid_points_below_2(workdir, capsys, points):
    assert main(["estimate", "--input", str(workdir / "sig.csv"),
                 "--spectrum-out", str(workdir / "spec.csv"), "--grid-points", points]) == 2
    assert "error:" in capsys.readouterr().err


def test_detect_rejects_unknown_alert_head(workdir, capsys):
    assert main(["detect", "--input", str(workdir / "sig.csv"), "--window", "128",
                 "--stride", "64", "--alert", "Bad-Name"]) == 2
    assert "error:" in capsys.readouterr().err


def test_numeric_failure_exits_3(tmp_path, capsys):
    # an unsatisfiable moment system in the pade_z backend is a numeric error
    sig = tmp_path / "sig.csv"
    save_timeseries_csv(TimeSeries([0.0, 1.0, 1.0, 1.0, 2.0, 3.0], 0.1), sig)
    cfg = reference_config().to_dict()
    cfg["backend"] = "pade_z"
    cfg["pade"] = {"m": 0, "n": 2, "auto": False}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--input", str(sig), "--config", str(cfg_path)]) == 3
    assert "numeric" in capsys.readouterr().err
