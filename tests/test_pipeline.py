import dataclasses
import json

import numpy as np
import pytest

from speclogic import (
    BinAxis,
    BinningConfig,
    ConfigError,
    HermitianOp,
    IllConditionedError,
    InputError,
    PipelineConfig,
    TimeSeries,
    auto_order_sweep,
    detect_anomalies,
    replay,
    run,
    run_hermitian,
)
from speclogic.benchmark import REGIME_NAMES, reference_config, synth_oscillator
from speclogic import pipeline
from speclogic.pade import PoleSet
from speclogic.pipeline import LanczosSettings, PadeSettings, SparseSettings


def damped_cosine(omega, gamma, n=256, dt=0.05, amp=1.0):
    t = np.arange(n) * dt
    return TimeSeries(amp * np.exp(-gamma * t) * np.cos(omega * t), dt)


def wide_open_bins():
    return BinningConfig(
        omega_bins=BinAxis((0.0, 1.0), ("low", "high")),
        gamma_bins=BinAxis((0.0, 0.5), ("narrow", "wide")),
        amp_bins=BinAxis((0.0,), ("any",)),
        negligible_eps=1e-6,
    )


def pencil_config(rules, **sparse_kw):
    return PipelineConfig(
        binning=wide_open_bins(),
        backend="matrix_pencil",
        sparse=SparseSettings(**sparse_kw) if sparse_kw else SparseSettings(),
        rules_text=rules,
    )


def test_run_derives_configured_class():
    cfg = pencil_config("resonance_high & width_narrow => unstable_resonance\n")
    result = run(damped_cosine(3.0, 0.2), cfg)
    assert "unstable_resonance" in result.derived.names
    atom = result.atoms.atoms[0]
    assert atom.omega == pytest.approx(3.0, rel=1e-6)
    assert atom.gamma == pytest.approx(0.2, rel=1e-6)


def test_run_zero_signal():
    cfg = pencil_config("resonance_high => alert\n")
    result = run(TimeSeries(np.zeros(128), 0.05), cfg)
    assert len(result.atoms.atoms) == 0
    assert result.predicates.to_json() == []
    assert result.derived.to_json() == []
    assert len(result.trace) == 0


def test_backends_agree_on_clean_mode():
    rules = "resonance_high => alert\n"
    base = dict(binning=wide_open_bins(), rules_text=rules)
    cfg_pencil = PipelineConfig(backend="matrix_pencil", **base)
    cfg_pade = PipelineConfig(backend="pade_z", pade=PadeSettings(m=1, n=2), **base)
    x = damped_cosine(2.6, 0.15)
    res_pencil = run(x, cfg_pencil)
    res_pade = run(x, cfg_pade)
    assert res_pencil.predicates.to_json() == res_pade.predicates.to_json()
    a, b = res_pencil.atoms.atoms[0], res_pade.atoms.atoms[0]
    assert a.omega == pytest.approx(b.omega, rel=1e-3)
    assert a.gamma == pytest.approx(b.gamma, rel=1e-3)


def test_pade_auto_order():
    cfg = PipelineConfig(
        binning=wide_open_bins(),
        backend="pade_z",
        pade=PadeSettings(auto=True, n_max=6, residual_tol=1e-8),
        rules_text="resonance_high => alert\n",
    )
    result = run(damped_cosine(2.6, 0.15), cfg)
    assert result.diagnostics["estimate"]["orders"] == [1, 2]
    assert result.atoms.atoms[0].omega == pytest.approx(2.6, rel=1e-6)


def test_lanczos_backend_rejects_time_series():
    cfg = PipelineConfig(
        binning=wide_open_bins(), backend="lanczos", rules_text="a => b\n"
    )
    with pytest.raises(ConfigError):
        run(damped_cosine(2.0, 0.1), cfg)


def test_run_hermitian_two_level():
    cfg = PipelineConfig(
        binning=wide_open_bins(),
        backend="lanczos",
        lanczos=LanczosSettings(eta=0.05),
        sparse=SparseSettings(k_max=4, omp_tol=1e-8),
        rules_text="resonance_low & resonance_high => both_bands\n",
    )
    op = HermitianOp.from_dense(np.diag([0.5, 5.0]))
    result = run_hermitian(op, np.array([1.0, 1.0]) / np.sqrt(2), cfg)
    atoms = result.atoms.atoms
    assert len(atoms) == 2
    assert atoms[0].omega == pytest.approx(0.5, abs=1e-9)
    assert atoms[1].omega == pytest.approx(5.0, abs=1e-9)
    # each atom carries its Ritz weight as amplitude
    assert atoms[0].amp == pytest.approx(0.5, abs=1e-6)
    assert atoms[1].amp == pytest.approx(0.5, abs=1e-6)
    assert "both_bands" in result.derived.names


def test_run_hermitian_eigenvector_start():
    cfg = PipelineConfig(
        binning=wide_open_bins(),
        backend="lanczos",
        rules_text="resonance_high => excited\n",
    )
    op = HermitianOp.from_dense(np.diag([0.5, 5.0]))
    result = run_hermitian(op, np.array([0.0, 1.0]), cfg)
    assert len(result.atoms.atoms) == 1
    assert result.atoms.atoms[0].omega == pytest.approx(5.0, abs=1e-9)
    assert result.atoms.atoms[0].amp == pytest.approx(1.0, abs=1e-8)


def test_run_hermitian_full_k_matches_dense_eigenvalues():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((50, 50))
    h = (a + a.T) / 2
    eta = 0.05
    cfg = PipelineConfig(
        binning=wide_open_bins(),
        backend="lanczos",
        lanczos=LanczosSettings(eta=eta),
        sparse=SparseSettings(k_max=60, omp_tol=1e-7),
        rules_text="resonance_high => excited\n",
    )
    result = run_hermitian(HermitianOp.from_dense(h), rng.standard_normal(50), cfg)
    centers = np.array([atom.omega for atom in result.atoms.atoms])
    true = np.linalg.eigvalsh(h)
    dist = np.abs(centers[:, None] - true[None, :]).min(axis=1)
    assert np.max(dist) <= eta / 10


def test_run_hermitian_requires_lanczos_backend():
    cfg = pencil_config("a => b\n")
    with pytest.raises(ConfigError):
        run_hermitian(HermitianOp.from_dense(np.eye(2)), np.ones(2), cfg)


def test_trace_always_replays():
    cfg = pencil_config("resonance_high & width_narrow => unstable\n!resonance_high => quiet\n")
    for omega in (0.5, 2.0, 4.0):
        result = run(damped_cosine(omega, 0.2), cfg)
        assert replay(result.trace, result.predicates, cfg.load_ruleset())


def test_run_result_serialization_deterministic():
    cfg = pencil_config("resonance_high => alert\n")
    x = damped_cosine(2.0, 0.3)
    blob1 = run(x, cfg).to_json()
    blob2 = run(x, cfg).to_json()
    assert blob1 == blob2
    record = json.loads(blob1)
    assert set(record) == {"atoms", "predicates", "derived", "trace", "diagnostics"}


def test_same_seed_same_output():
    x, _ = synth_oscillator("two_mode_close", noise_sigma=0.05, seed=11)
    assert run(x, reference_config(seed=7)).to_json() == run(x, reference_config(seed=7)).to_json()
    stream = changepoint_series(288)
    cfg = dataclasses.replace(shift_config(), seed=7)
    first, second = (
        [(start, res.to_json()) for start, res in detect_anomalies(stream, cfg, 128, 16, "anomaly")]
        for _ in range(2)
    )
    assert first and first == second


@pytest.mark.parametrize("regime", REGIME_NAMES)
def test_class_does_not_depend_on_seed(regime):
    # mode directions dominate the Hankel range, so every sketch finds them;
    # in the noise-only regime the atoms vary with the seed but stay negligible
    x, label = synth_oscillator(regime, noise_sigma=0.05, seed=0)
    classes = set()
    for seed in range(10):
        derived = run(x, reference_config(seed=seed)).derived.names
        classes.add(frozenset(n for n in derived if n.startswith("class_")))
    assert classes == {frozenset({label})}


def test_stage_annotation_on_errors():
    cfg = pencil_config("a => b\n")
    with pytest.raises(InputError) as err:
        run(TimeSeries(np.ones(8), 0.05), cfg)  # too short for the pencil
    assert err.value.stage == "estimate"
    cfg_bad_rules = pencil_config("a & => b\n")
    with pytest.raises(InputError) as err2:
        run(damped_cosine(2.0, 0.2), cfg_bad_rules)
    assert err2.value.stage == "rules"


def changepoint_series(j, omega1=3.0, omega2=3.6, n=512, dt=0.05, gamma=0.1):
    t = np.arange(n) * dt
    x = np.where(
        np.arange(n) < j,
        np.exp(-gamma * t) * np.cos(omega1 * t),
        np.exp(-gamma * t) * np.cos(omega2 * t),
    )
    return TimeSeries(x, dt)


def shift_config():
    binning = BinningConfig(
        omega_bins=BinAxis((0.0, 3.3), ("nominal", "shifted")),
        gamma_bins=BinAxis((0.0,), ("any",)),
        amp_bins=BinAxis((0.0,), ("any",)),
        negligible_eps=0.05,
    )
    return PipelineConfig(
        binning=binning,
        backend="matrix_pencil",
        sparse=SparseSettings(k_max=3),
        rules_text="resonance_shifted => anomaly\n",
    )


def test_detect_flags_contain_changepoint():
    cfg = shift_config()
    x = changepoint_series(288)
    flagged = detect_anomalies(x, cfg, 128, 16, "anomaly")
    assert flagged
    first = flagged[0][0]
    assert first <= 288 < first + 128


def test_detect_clean_signal_never_flags():
    cfg = shift_config()
    x = changepoint_series(10**9)  # shift never happens
    assert detect_anomalies(x, cfg, 128, 16, "anomaly") == []


def test_detect_nonoverlapping_stride():
    cfg = shift_config()
    x = changepoint_series(256)
    flagged = detect_anomalies(x, cfg, 128, 128, "anomaly")
    assert all(start % 128 == 0 for start, _ in flagged)


def test_detect_validates_window_and_stride():
    cfg = shift_config()
    x = changepoint_series(100, n=256)
    with pytest.raises(InputError):
        detect_anomalies(x, cfg, 512, 16, "anomaly")
    with pytest.raises(InputError):
        detect_anomalies(x, cfg, 128, 0, "anomaly")


@pytest.mark.parametrize("head", ["Bad-Name", "unmentioned"])
def test_detect_rejects_alert_head_no_rule_mentions(head):
    with pytest.raises(InputError):
        detect_anomalies(changepoint_series(100), shift_config(), 128, 16, head)


def test_auto_order_sweep_one_pole():
    series = 0.8 ** np.arange(30)
    sweep = auto_order_sweep(series, 6, 1e-8)
    assert (sweep.m, sweep.n) == (0, 1)
    assert sweep.converged


def test_auto_order_sweep_infinite_tolerance():
    rng = np.random.default_rng(2)
    sweep = auto_order_sweep(rng.standard_normal(40), 5, np.inf)
    assert sweep.n == 1 and sweep.converged


def test_auto_order_sweep_noise_falls_back():
    rng = np.random.default_rng(0)
    sweep = auto_order_sweep(rng.standard_normal(40), 4, 1e-8)
    assert not sweep.converged
    assert 1 <= sweep.n <= 4


@pytest.mark.parametrize("scale", [1.0, 1e300, 1e-300])
def test_auto_order_sweep_is_scale_invariant(scale):
    # called directly, without the power-of-two scaling of run; any
    # RuntimeWarning (an overflowing norm) fails the test
    t = 0.1 * np.arange(64)
    sweep = auto_order_sweep(scale * np.exp(-0.2 * t) * np.cos(3.0 * t), 8, 1e-8)
    assert (sweep.m, sweep.n) == (1, 2)
    assert sweep.converged
    assert sweep.residual <= 1e-8


def test_auto_order_sweep_nan_residual_is_never_best(monkeypatch):
    # an order whose re-expansion overflows to NaN must lose to any finite one
    original = pipeline.taylor_coefficients

    def nan_at_order_one(r, count):
        d = original(r, count)
        return np.full(count, np.nan) if r.n == 1 else d

    monkeypatch.setattr(pipeline, "taylor_coefficients", nan_at_order_one)
    rng = np.random.default_rng(0)
    sweep = auto_order_sweep(rng.standard_normal(40), 4, 1e-8)
    assert sweep.n != 1
    assert np.isfinite(sweep.residual)


def test_auto_order_sweep_returns_the_winning_fit():
    series = 0.8 ** np.arange(30)
    sweep = auto_order_sweep(series, 6, 1e-8)
    direct = pipeline.fit_pade(series, sweep.m, sweep.n)
    assert (sweep.rational.m, sweep.rational.n) == (sweep.m, sweep.n)
    assert np.array_equal(sweep.rational.a, direct.a)
    assert np.array_equal(sweep.rational.b, direct.b)


def test_pade_auto_fits_each_order_once(monkeypatch):
    calls = []
    original = pipeline.fit_pade

    def counted(c, m, n):
        calls.append((m, n))
        return original(c, m, n)

    monkeypatch.setattr(pipeline, "fit_pade", counted)
    cfg = PipelineConfig(
        binning=wide_open_bins(),
        backend="pade_z",
        pade=PadeSettings(auto=True, n_max=6, residual_tol=1e-8),
        rules_text="resonance_high => alert\n",
    )
    result = run(damped_cosine(2.6, 0.15), cfg)
    assert result.diagnostics["estimate"]["orders"] == [1, 2]
    assert calls == [(0, 1), (1, 2)]


def test_pade_auto_ill_conditioned_best_raises():
    # the sweep's best order [0/1] meets c_0 = 0 with c_1 != 0: its moment
    # system has no solution, so the run must fail with that typed error
    series = [0.0, -1.0, -1.0, -1.0, -1.0, 1.0, 0.0]
    sweep = auto_order_sweep(series, 8, 1e-8)
    assert (sweep.m, sweep.n, sweep.rational) == (0, 1, None)
    cfg = PipelineConfig(
        binning=wide_open_bins(),
        backend="pade_z",
        pade=PadeSettings(auto=True, n_max=8, residual_tol=1e-8),
        rules_text="resonance_high => alert\n",
    )
    with pytest.raises(IllConditionedError) as err:
        run(TimeSeries(np.array(series), 0.05), cfg)
    assert err.value.stage == "estimate"


@pytest.mark.parametrize("multiple", [False, True])
def test_pade_diagnostics_carry_multiple_poles(monkeypatch, multiple):
    original = pipeline.extract_poles

    def flagged(r):
        ps = original(r)
        return PoleSet(ps.poles, ps.residues, multiple)

    monkeypatch.setattr(pipeline, "extract_poles", flagged)
    cfg = PipelineConfig(
        binning=wide_open_bins(),
        backend="pade_z",
        pade=PadeSettings(m=1, n=2),
        rules_text="resonance_high => alert\n",
    )
    result = run(damped_cosine(2.6, 0.15), cfg)
    assert result.diagnostics["estimate"]["multiple_poles"] is multiple


def test_config_json_roundtrip(tmp_path):
    cfg = pencil_config("a => b\n")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    back = PipelineConfig.from_json_file(path)
    assert back.to_dict() == cfg.to_dict()


def test_config_validation():
    with pytest.raises(ConfigError):
        PipelineConfig(binning=wide_open_bins(), backend="fourier", rules_text="a=>b\n")
    with pytest.raises(ConfigError):
        PadeSettings(m=100)
    with pytest.raises(ConfigError):
        LanczosSettings(eta=0.0)
    with pytest.raises(ConfigError):
        SparseSettings(k_max=0)
    cfg = PipelineConfig(binning=wide_open_bins())
    with pytest.raises(ConfigError):
        cfg.load_ruleset()  # neither rules_path nor rules_text


def test_config_is_frozen():
    cfg = pencil_config("a => b\n")
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.backend = "pade_z"


def test_replace_parses_the_new_rules():
    cfg = pencil_config("resonance_high => old_alert\n")
    x = damped_cosine(2.0, 0.2)
    assert "old_alert" in run(x, cfg).derived.names
    swapped = dataclasses.replace(cfg, rules_text="resonance_high => new_alert\n")
    derived = run(x, swapped).derived.names
    assert "new_alert" in derived and "old_alert" not in derived


def test_run_parses_rules_once(monkeypatch):
    calls = []
    original = PipelineConfig.load_ruleset

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(PipelineConfig, "load_ruleset", counting)
    run(damped_cosine(2.0, 0.2), pencil_config("resonance_high => alert\n"))
    assert len(calls) == 1
