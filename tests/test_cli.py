import json
import os
import stat

import numpy as np
import pytest

from speclogic import pipeline, signal
from speclogic.benchmark import reference_config
from speclogic.cli import main
from speclogic.rules import ProofTrace, infer, parse_rules, replay
from speclogic.signal import TimeSeries, read_json, read_text, save_timeseries_csv
from speclogic.sparse import MAX_PENCIL_SAMPLES
from speclogic.symbolic import SymbolSet

#: An integer JSON reads exactly but float64 cannot hold.
HUGE_INT = "9" * 400


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


def test_run_prints_the_bytes_it_writes(workdir, capsys):
    out = workdir / "result.json"
    assert main(["run", "--input", str(workdir / "sig.csv")]) == 0
    printed = capsys.readouterr().out
    assert main(["run", "--input", str(workdir / "sig.csv"), "--out", str(out)]) == 0
    assert out.read_bytes() == printed.encode()


def test_estimate_prints_the_bytes_it_writes(workdir, capsys):
    atoms = workdir / "atoms.json"
    assert main(["estimate", "--input", str(workdir / "sig.csv")]) == 0
    printed = capsys.readouterr().out
    assert main(["estimate", "--input", str(workdir / "sig.csv"), "--atoms-out", str(atoms)]) == 0
    assert atoms.read_bytes() == printed.encode()


def test_reason_trace_file_is_the_printed_form_and_replays(workdir):
    rules = workdir / "rules.txt"
    rules.write_text("a & !z => b @main\nb => c\n")
    (workdir / "facts.json").write_text('["a"]')
    path = workdir / "trace.json"
    assert main(["reason", "--facts", str(workdir / "facts.json"), "--rules", str(rules),
                 "--trace-out", str(path)]) == 0
    rs, facts = parse_rules(read_text(rules)), SymbolSet.from_names(["a"])
    _, trace = infer(rs, facts)
    assert path.read_text() == json.dumps(trace.to_json(), indent=2, sort_keys=True) + "\n"
    back = ProofTrace.from_json(read_json(path))
    assert back == trace and replay(back, facts, rs)


@pytest.mark.parametrize("dt", [1e-307, 1e-300, 1e-200, 1e200, 1e300])
def test_estimate_spectrum_scales_with_dt(tmp_path, dt):
    # at sample spacing dt, a clean damped cosine has the spectrum it has at
    # spacing 1, with omega divided by dt and S multiplied by dt; a
    # RuntimeWarning is an error under the test configuration
    n = np.arange(384)
    samples = (np.exp(-0.002 * n) * np.cos(0.15 * n)).tolist()
    spectra = []
    for step in (1.0, dt):
        (tmp_path / "sig.json").write_text(json.dumps({"dt": step, "samples": samples}))
        assert main(["estimate", "--input", str(tmp_path / "sig.json"),
                     "--atoms-out", str(tmp_path / "atoms.json"),
                     "--spectrum-out", str(tmp_path / "spec.csv")]) == 0
        spectra.append(np.loadtxt(tmp_path / "spec.csv", delimiter=",", skiprows=1))
    ref, got = spectra
    assert np.all(np.isfinite(got))
    np.testing.assert_allclose(got[:, 0] * dt, ref[:, 0], rtol=1e-12)
    np.testing.assert_allclose(got[:, 1] / dt, ref[:, 1], rtol=0, atol=1e-12 * ref[:, 1].max())


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
    # --rules reads the file into rules_text: a config holding its text derives the same bytes
    cfg_path = workdir / "cfg.json"
    cfg_path.write_text(json.dumps({**reference_config().to_dict(), "backend": "pade_z",
                                    "rules_text": rules.read_text()}))
    from_config = workdir / "res_config.json"
    assert main(["run", "--input", str(sig), "--config", str(cfg_path),
                 "--out", str(from_config)]) == 0
    assert from_config.read_bytes() == out.read_bytes()


def test_estimate_offers_no_rules_flag(workdir, capsys):
    # the atoms never depend on the rules
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--input", str(workdir / "sig.csv"), "--rules", "x"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --rules x" in capsys.readouterr().err


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
        {"sparse": {"sv_tol": 0.1}},
        {"rules_path": "rules.txt"},
        {"seed": -2},
        {"binning": {"omega_bins": {"edges": [0.0, float("nan"), 4.0, 8.0],
                                    "labels": ["low", "mid", "high", "hyper"]}}},
        {"binning": {"negligible_eps": float("inf")}},
        {"lanczos": {"eta": float("inf")}},
        {"binning": {"omega_bins": {"edges": [0.0, 2.0, 4.0, int(HUGE_INT)],
                                    "labels": ["low", "mid", "high", "hyper"]}}},
    ],
    ids=["unknown_key", "unknown_nested_key", "section_not_object", "axis_not_object",
         "wrong_scalar_type", "bool_as_int", "nested_bool_as_int", "removed_window",
         "removed_zero_pad_to", "removed_nls_iters", "removed_omp_tol",
         "removed_reorthogonalize", "removed_residual_tol", "removed_sv_tol", "removed_rules_path",
         "negative_seed", "nan_bin_edge", "negligible_eps_infinity", "eta_infinity",
         "bin_edge_past_float64"],
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


def test_estimate_neither_projects_nor_infers(workdir, capsys, monkeypatch):
    calls = {"project": 0, "infer": 0}
    for name, real in [("project", pipeline.project), ("infer", pipeline.infer)]:
        def counted(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(pipeline, name, counted)
    assert main(["estimate", "--input", str(workdir / "sig.csv")]) == 0
    assert calls == {"project": 0, "infer": 0}
    # the counters see the calls a run makes
    assert main(["run", "--input", str(workdir / "sig.csv")]) == 0
    assert calls == {"project": 1, "infer": 1}


#: A decaying signal long enough for the default pencil.
DECAY = [0.9**i for i in range(32)]


def _signal_json(samples, dt=0.05, **extra) -> bytes:
    return json.dumps({"dt": dt, "samples": samples, **extra}).encode()


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
        ("probe.json", f'{{"atoms": [{{"omega": {HUGE_INT}, "gamma": 1, "amp": 1}}]}}'.encode(),
         ["project", "--atoms"]),
        ("probe.json", f'{{"atoms": [], "residual_norm": {HUGE_INT}}}'.encode(),
         ["project", "--atoms"]),
        # the mode z = -0.5 at dt = 2e-308 has omega = pi/dt and gamma = ln 2/dt, so the
        # spectrum's range omega + 10 gamma lies past float64
        ("probe.json", json.dumps({"dt": 2e-308, "samples": [(-0.5) ** i + 0.3 * 0.9 ** i
                                                            for i in range(64)]}).encode(),
         ["estimate", "--spectrum-out", "{dir}/spec.csv", "--input"]),
        # JSON numbers only: numpy would read each of these as floats
        ("probe.json", _signal_json([str(v) for v in DECAY], dt="0.05"), ["run", "--input"]),
        ("probe.json", _signal_json([i % 2 == 0 for i in range(32)]), ["run", "--input"]),
        ("probe.json", _signal_json([True] + DECAY[1:]), ["run", "--input"]),
        ("probe.json", _signal_json(DECAY, dt="0.05"), ["run", "--input"]),
        ("probe.json", _signal_json(DECAY, label=7), ["run", "--input"]),
        ("probe.json", b'{"atoms": [{"omega": "1.0", "gamma": 0.5, "amp": 1.0}]}',
         ["project", "--atoms"]),
        ("probe.json", b'{"atoms": [{"omega": 1.0, "gamma": true, "amp": 1.0}]}',
         ["project", "--atoms"]),
        ("probe.json", b'{"atoms": [{"omega": 1.0, "gamma": 0.5, "amp": "1"}]}',
         ["project", "--atoms"]),
        ("probe.json", b'{"atoms": [], "residual_norm": "0.5"}', ["project", "--atoms"]),
        ("probe.json", b'{"atoms": [], "residual_norm": false}', ["project", "--atoms"]),
    ],
    ids=["signal_json_not_utf8", "signal_csv_not_utf8", "config_not_utf8", "atoms_not_utf8",
         "rules_not_utf8", "facts_not_utf8", "deeply_nested_json", "sample_not_number",
         "samples_a_string", "infinite_time", "time_step_overflows", "omega_past_float64",
         "residual_norm_past_float64", "spectrum_range_past_float64",
         "string_samples_and_dt", "boolean_samples", "boolean_among_float_samples",
         "dt_a_string", "label_a_number", "omega_a_string", "gamma_a_boolean", "amp_a_string",
         "residual_norm_a_string", "residual_norm_a_boolean"],
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


@pytest.mark.parametrize("atoms_out", [True, False], ids=["atoms_file", "stdout"])
def test_estimate_spectrum_range_error_writes_no_atoms(tmp_path, capsys, atoms_out):
    # the mode z = -0.5 at dt = 2e-308 puts the spectrum's range past float64,
    # which the command finds only after the fit
    signal = tmp_path / "alternating.json"
    signal.write_text(json.dumps({"dt": 2e-308, "samples": [(-0.5) ** i for i in range(64)]}))
    atoms, spectrum = tmp_path / "a.json", tmp_path / "s.csv"
    argv = ["estimate", "--input", str(signal), "--spectrum-out", str(spectrum)]
    assert main(argv + ["--atoms-out", str(atoms)] * atoms_out) == 2
    out, err = capsys.readouterr()
    assert "frequency range overflows float64" in err
    assert out == "" and not atoms.exists() and not spectrum.exists()


@pytest.mark.parametrize("bad", ["spectrum", "atoms", "atoms_directory"])
def test_estimate_unwritable_output_leaves_neither_file(workdir, capsys, bad):
    # each output path in turn lies in a directory that does not exist, or
    # the atoms path is a directory
    paths = {"spectrum": workdir / "s.csv", "atoms": workdir / "a.json"}
    if bad == "atoms_directory":
        paths["atoms"].mkdir()
    else:
        paths[bad] = workdir / "nodir" / paths[bad].name
    before = sorted(p.name for p in workdir.iterdir())
    assert main(["estimate", "--input", str(workdir / "sig.csv"),
                 "--spectrum-out", str(paths["spectrum"]), "--atoms-out", str(paths["atoms"])]) == 2
    out, err = capsys.readouterr()
    assert "error:" in err and "Traceback" not in err
    # the message names the path given
    assert str(paths["atoms" if bad == "atoms_directory" else bad]) in err
    # no output file is left
    assert out == "" and sorted(p.name for p in workdir.iterdir()) == before


def test_estimate_writes_through_a_symlink_and_a_device(workdir, capsys):
    target, link = workdir / "target.json", workdir / "link.json"
    target.write_text("old\n")
    target.chmod(0o640)
    link.symlink_to(target.name)
    assert main(["estimate", "--input", str(workdir / "sig.csv"),
                 "--spectrum-out", os.devnull, "--atoms-out", str(link)]) == 0
    # the link stays a link, and the file it names holds the atoms with its mode kept
    assert link.is_symlink() and os.readlink(link) == target.name
    assert json.loads(target.read_text())["atoms"]
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
    assert capsys.readouterr().out == ""


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


def test_run_past_the_pencil_maximum_exits_2(tmp_path, capsys):
    # the pencil's Hankel copy of this signal would take 2 GiB
    t = np.arange(MAX_PENCIL_SAMPLES + 1) * 0.05
    sig = tmp_path / "long.json"
    sig.write_text(json.dumps({"dt": 0.05, "samples": np.cos(3 * t).tolist()}))
    assert main(["run", "--input", str(sig)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [stage: estimate]") and str(MAX_PENCIL_SAMPLES) in err
    assert "Traceback" not in err


# both signal back-ends take their poles from numpy's eigvals gufunc through
# signal.eigenvalues, not from np.linalg.eigvals
@pytest.mark.parametrize("backend", ["matrix_pencil", "pade_z"])
def test_a_lapack_failure_exits_3(workdir, capsys, monkeypatch, failing_gufunc, backend):
    monkeypatch.setattr(signal, "eigvals", failing_gufunc)
    assert main(["run", "--input", str(workdir / "sig.csv"), "--backend", backend]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric error: [stage: estimate]") and "did not converge" in err
    assert "Traceback" not in err


def test_missing_input_exits_2(tmp_path, capsys):
    assert main(["run", "--input", str(tmp_path / "absent.csv")]) == 2
    assert "error" in capsys.readouterr().err


def test_bad_rules_exit_2(workdir, capsys):
    bad = workdir / "bad.txt"
    bad.write_text("a & !b => b\n")
    preds = workdir / "facts.json"
    preds.write_text('["a"]')
    assert main(["reason", "--facts", str(preds), "--rules", str(bad)]) == 2


@pytest.mark.parametrize("facts", ["5", '{"a": 1}', '["a", 1]', '["Bad-Name"]'])
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
