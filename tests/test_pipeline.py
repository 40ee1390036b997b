import dataclasses
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from speclogic import (
    BinAxis,
    BinningConfig,
    ConfigError,
    ConvergenceError,
    HermitianOp,
    IllConditionedError,
    InputError,
    NumericError,
    PipelineConfig,
    SpecLogicError,
    TimeSeries,
    auto_order_sweep,
    detect_anomalies,
    replay,
    run,
    run_hermitian,
)
from speclogic.benchmark import REGIME_NAMES, reference_config, synth_oscillator
from speclogic import pade, pipeline, signal, sparse
from speclogic.pade import PoleSet, extract_poles, fit_pade
from speclogic.pipeline import LanczosSettings, PadeSettings, SparseSettings
from speclogic.signal import PreprocessConfig, preprocess, read_json
from speclogic.sparse import SparseSpectrum, fit_matrix_pencil


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
        pade=PadeSettings(auto=True, n_max=6),
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
        sparse=SparseSettings(k_max=4),
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


@pytest.mark.parametrize("scale", [1.0, 1e300, 1e-300])
def test_run_hermitian_keeps_every_ritz_pair_at_any_scale(scale):
    # at 1e-300 the three eigenvalues lie a few 1e-300 apart, with equal half-widths
    cfg = PipelineConfig(
        binning=wide_open_bins(),
        backend="lanczos",
        rules_text="resonance_high => excited\n",
    )
    result = run_hermitian(HermitianOp.from_dense(scale * np.diag([0.5, 5.0, -1.0])), np.ones(3), cfg)
    atoms = result.atoms.atoms
    assert [atom.omega / scale for atom in atoms] == pytest.approx([-1.0, 0.5, 5.0], rel=1e-12)
    assert [atom.amp for atom in atoms] == pytest.approx([1 / 3] * 3, rel=1e-12)


def test_run_hermitian_full_k_matches_dense_eigenvalues():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((50, 50))
    h = (a + a.T) / 2
    eta = 0.05
    cfg = PipelineConfig(
        binning=wide_open_bins(),
        backend="lanczos",
        lanczos=LanczosSettings(eta=eta),
        sparse=SparseSettings(k_max=60),
        rules_text="resonance_high => excited\n",
    )
    result = run_hermitian(HermitianOp.from_dense(h), rng.standard_normal(50), cfg)
    centers = np.array([atom.omega for atom in result.atoms.atoms])
    true = np.linalg.eigvalsh(h)
    dist = np.abs(centers[:, None] - true[None, :]).min(axis=1)
    assert np.max(dist) <= eta / 10


def heavy_pair_config(**lanczos_kw):
    return PipelineConfig(
        binning=BinningConfig(
            omega_bins=BinAxis((-10.0, 0.0), ("neg", "pos")),
            gamma_bins=BinAxis((0.0,), ("any",)),
            amp_bins=BinAxis((0.0,), ("any",)),
            negligible_eps=0.1,
        ),
        backend="lanczos",
        lanczos=LanczosSettings(eta=0.05, **lanczos_kw),
        rules_text="resonance_neg & resonance_pos => split\n",
    )


def test_run_hermitian_stops_once_heavy_atoms_converge(heavy_pair_operator):
    rng = np.random.default_rng(53)
    cfg = heavy_pair_config()
    eta, eps = cfg.lanczos.eta, cfg.binning.negligible_eps
    for _ in range(8):
        h, q1 = heavy_pair_operator(rng, 160)
        result = run_hermitian(HermitianOp.from_dense(h), q1, cfg)
        est = result.diagnostics["estimate"]
        assert est["steps"] < 160 and not est["breakdown"]
        assert 0 < est["ritz_bound"] <= eta / 10
        true = np.linalg.eigvalsh(h)
        heavy = [at.omega for at in result.atoms.atoms if at.amp >= eps]
        assert len(heavy) >= 2
        assert all(np.min(np.abs(true - omega)) <= eta / 10 for omega in heavy)
        kept = sum(at.amp for at in result.atoms.atoms)
        assert est["residual_norm"] == pytest.approx(1.0 - kept, abs=1e-12)


def test_run_hermitian_explicit_k_runs_exactly_k_steps(heavy_pair_operator):
    h, q1 = heavy_pair_operator(np.random.default_rng(59), 160)
    result = run_hermitian(HermitianOp.from_dense(h), q1, heavy_pair_config(k=37))
    assert result.diagnostics["estimate"]["steps"] == 37


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


@pytest.mark.parametrize(
    "backend, module, routine",
    [
        # both signal back-ends call numpy's LAPACK gufuncs, not np.linalg.svd,
        # np.linalg.pinv, np.linalg.lstsq or np.linalg.eigvals; both take
        # their poles through signal.eigenvalues
        pytest.param("matrix_pencil", sparse, "svd_s", id="matrix_pencil-svd"),
        pytest.param("matrix_pencil", signal, "eigvals", id="matrix_pencil-eigvals"),
        pytest.param("pade_z", pade, "lstsq", id="pade_z-lstsq"),
        pytest.param("pade_z", signal, "eigvals", id="pade_z-eigvals"),
    ],
)
def test_a_lapack_failure_is_a_convergence_error_of_the_estimate_stage(
    monkeypatch, failing_gufunc, backend, module, routine
):
    cfg = dataclasses.replace(reference_config(), backend=backend)
    monkeypatch.setattr(module, routine, failing_gufunc)
    with pytest.raises(ConvergenceError) as err:
        run(damped_cosine(2.0, 0.2), cfg)
    assert err.value.stage == "estimate"
    assert str(err.value) == "[stage: estimate] a LAPACK routine did not converge"
    assert err.value.__cause__ is None


def _pencil(c):
    return fit_matrix_pencil(TimeSeries(c, 0.05), 4)


def _poles(c):
    return extract_poles(fit_pade(c, 1, 2))


@pytest.mark.parametrize(
    "fit, module, routine",
    [
        pytest.param(_pencil, sparse, "svd_s", id="fit_matrix_pencil-svd"),
        pytest.param(_pencil, signal, "eigvals", id="fit_matrix_pencil-eigvals"),
        pytest.param(lambda c: fit_pade(c, 1, 2), pade, "lstsq", id="fit_pade"),
        pytest.param(_poles, signal, "eigvals", id="extract_poles"),
        pytest.param(lambda c: auto_order_sweep(c, 8, 1e-8), pade, "lstsq", id="auto_order_sweep"),
    ],
)
def test_each_fit_raises_a_lapack_failure_as_a_convergence_error(
    monkeypatch, failing_gufunc, fit, module, routine
):
    c = damped_cosine(2.0, 0.2).samples
    monkeypatch.setattr(module, routine, failing_gufunc)
    with pytest.raises(ConvergenceError, match="^a LAPACK routine did not converge$"):
        fit(c)


def test_a_lapack_failure_in_the_pencil_solves_is_a_convergence_error(monkeypatch):
    # only the solves pass svd_s a signature; the range finder's SVD runs as it is
    svd_s = sparse.svd_s

    def failing_in_the_solves(*args, **kwargs):
        if "signature" in kwargs:
            np.sqrt(np.float64(-1.0))
        return svd_s(*args, **kwargs)

    monkeypatch.setattr(sparse, "svd_s", failing_in_the_solves)
    with pytest.raises(ConvergenceError, match="did not converge"):
        _pencil(damped_cosine(2.0, 0.2).samples)


def test_subnormal_samples_beside_a_unit_peak_are_a_convergence_error_without_a_warning():
    # the shift solve's largest singular value is subnormal, so its reciprocal
    # overflows; the pencil says so, and no RuntimeWarning leaks
    x = TimeSeries([1e-310] * 127 + [1.0], 0.05)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="shift matrix overflows") as err:
            run(x, reference_config())
    assert err.value.stage == "estimate"


def test_stage_tags_library_errors_and_passes_others_through():
    with pipeline._stage("estimate"):  # no error: the block runs, nothing is raised
        ran = True
    assert ran
    with pytest.raises(InputError) as err:
        with pipeline._stage("estimate"):
            raise InputError("bad window")
    assert err.value.stage == "estimate"
    assert str(err.value) == "[stage: estimate] bad window"
    # the innermost stage tags the error; an outer one keeps that tag
    with pytest.raises(NumericError) as err:
        with pipeline._stage("estimate"):
            with pipeline._stage("preprocess"):
                raise NumericError("overflow")
    assert err.value.stage == "preprocess"
    # any other exception passes through as it is, never swallowed
    for exc in (ValueError("not ours"), KeyboardInterrupt()):
        with pytest.raises(type(exc)) as err:
            with pipeline._stage("estimate"):
                raise exc
        assert err.value is exc
        assert not hasattr(exc, "stage")


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


def detect_streams(seed, n=512, dt=0.05):
    """Four changepoint streams (even ones shift frequency by 20-30 %), then
    hostile ones: an all-zero stretch, a constant stretch, a lone spike, the
    first stream scaled by 1e300 and by 1e-300, a burst 1e9 times louder
    than the rest of the stream (so windows of one batch differ in scale),
    and a lone spike at sample 127. The first 128-sample window ends on that
    spike, so its leading right singular vector is the last Hankel column:
    the shift solve meets an all-zero w0, whose minimum-norm shift is 0."""
    rng = np.random.default_rng(seed)
    t = np.arange(n) * dt
    streams = []
    for i in range(4):
        omega1, gamma = rng.uniform(2.6, 3.0), rng.uniform(0.08, 0.15)
        omega2 = omega1 * rng.uniform(1.2, 1.3) if i % 2 == 0 else omega1
        change = 16 * int(rng.integers(10, 23))
        streams.append(
            np.exp(-gamma * t) * np.where(np.arange(n) < change, np.cos(omega1 * t), np.cos(omega2 * t))
        )
    zeros, const, spike = streams[0].copy(), streams[0].copy(), np.zeros(n)
    zeros[150:350] = 0.0
    const[150:350] = 0.7
    spike[200] = 1.0
    burst = streams[1].copy()
    burst[:100] *= 1e9
    edge = np.zeros(n)
    edge[127] = 1.0
    streams += [zeros, const, spike, 1e300 * streams[0], 1e-300 * streams[0], burst, edge]
    return [TimeSeries(x, dt) for x in streams]


def windows_of(x, window, stride):
    starts = range(0, len(x) - window + 1, stride)
    return starts, [TimeSeries(x.samples[s : s + window], x.dt, x.label) for s in starts]


def reference_detect(x, cfg, window, stride, head):
    """detect_anomalies as a plain loop of run over the windows."""
    starts, segments = windows_of(x, window, stride)
    results = [(start, run(segment, cfg)) for start, segment in zip(starts, segments)]
    return [(start, res.to_json()) for start, res in results if head in res.derived.names]


def detect_json(x, cfg, window, stride, head="anomaly"):
    return [(start, res.to_json()) for start, res in detect_anomalies(x, cfg, window, stride, head)]


def spectrum_record(sp):
    return sp.atoms, sp.residual_norm, sp.dropped, sp.converged


@pytest.mark.parametrize("seed", range(5))
def test_batched_pencil_equals_each_window_alone(seed):
    cfg = dataclasses.replace(shift_config(), seed=seed)
    for x in detect_streams(seed):
        _, segments = windows_of(x, 128, 16)
        estimates = pipeline.estimate_spectra(segments, cfg)
        assert len(estimates) == len(segments)
        for segment, fit in zip(segments, estimates):
            alone = fit_matrix_pencil(segment, 2 * cfg.sparse.k_max, cfg.seed)
            assert spectrum_record(fit) == spectrum_record(alone)
            assert run(segment, cfg, fit).to_json() == run(segment, cfg).to_json()


@pytest.mark.parametrize("pade", [PadeSettings(), PadeSettings(auto=True)], ids=["fixed", "auto"])
def test_batched_pade_z_equals_each_window_alone(pade):
    cfg = dataclasses.replace(shift_config(), backend="pade_z", pade=pade)
    for seed in range(2):
        for x in detect_streams(seed):
            _, segments = windows_of(x, 128, 16)
            estimates = pipeline.estimate_spectra(segments, cfg)
            assert len(estimates) == len(segments)
            for segment, estimate in zip(segments, estimates):
                assert run(segment, cfg, estimate).to_json() == run(segment, cfg).to_json()


def test_one_batch_of_orders_0_2_and_6_equals_each_window_alone():
    cfg = shift_config()
    max_modes = 2 * cfg.sparse.k_max
    rng = np.random.default_rng(4)
    t = np.arange(128) * 0.05
    cosine = np.exp(-0.1 * t) * np.cos(2.8 * t)
    three = cosine + 0.8 * np.exp(-0.05 * t) * np.cos(1.2 * t)
    three += 0.6 * np.exp(-0.15 * t) * np.cos(4.1 * t)
    other = np.exp(-0.3 * t) * np.cos(0.9 * t) + np.cos(2.2 * t)
    other += 0.5 * np.exp(-0.1 * t) * np.cos(3.7 * t)
    # white noise fits to order 0, like the zero windows
    samples = [three, np.zeros(128), cosine, rng.standard_normal(128),
               other, 3.0 * np.exp(-0.2 * t) * np.cos(1.5 * t)]
    orders = []
    for x in samples:  # the premise, from the exact Hankel singular values
        sv = np.linalg.svd(x[np.add.outer(np.arange(64), np.arange(65))], compute_uv=False)
        orders.append(min(int(sparse._noise_floor_order(x[None], sv[None], 64)[0]), max_modes))
    assert orders == [6, 0, 2, 0, 6, 2]
    segments = [TimeSeries(x, 0.05) for x in samples]
    batch = fit_matrix_pencil(segments, max_modes, cfg.seed)
    for segment, fit in zip(segments, batch):
        alone = fit_matrix_pencil(segment, max_modes, cfg.seed)
        assert spectrum_record(fit) == spectrum_record(alone)


@pytest.mark.parametrize(
    "cfg",
    [shift_config(), dataclasses.replace(shift_config(), backend="pade_z", pade=PadeSettings(auto=True))],
    ids=["matrix_pencil", "pade_z"],
)
def test_detect_equals_a_loop_of_runs(cfg):
    def outcome(fn, *args):
        try:
            return fn(*args)
        except SpecLogicError as exc:  # pade_z raises on some hostile windows
            return type(exc), str(exc)

    flagged = 0
    for seed in range(2):
        for x in detect_streams(seed):
            expected = outcome(reference_detect, x, cfg, 128, 16, "anomaly")
            assert outcome(detect_json, x, cfg, 128, 16) == expected
            flagged += isinstance(expected, list) and len(expected)
    assert flagged > 0


@pytest.mark.parametrize("stride", [16, 23])
def test_chunking_does_not_change_detect(monkeypatch, stride):
    cfg = shift_config()
    x = detect_streams(3)[0]
    per_window = (128 - 64) * (64 + 1)
    sizes = []

    def recording(windows, *args):
        sizes.append(len(windows))
        return fit_matrix_pencil(windows, *args)

    monkeypatch.setattr(pipeline, "fit_matrix_pencil", recording)
    outputs = [detect_json(x, cfg, 128, stride)]
    count = sizes[0]  # 25 windows at stride 16, 17 at stride 23: one default chunk
    for per_chunk in (1, 7):
        sizes.clear()
        monkeypatch.setattr(pipeline, "DETECT_CHUNK_ELEMENTS", per_chunk * per_window)
        outputs.append(detect_json(x, cfg, 128, stride))
        assert sizes == [len(range(count)[i : i + per_chunk]) for i in range(0, count, per_chunk)]
    assert outputs[0] and outputs[0] == outputs[1] == outputs[2]
    assert outputs[0] == reference_detect(x, cfg, 128, stride, "anomaly")


@pytest.mark.parametrize("backend", ["matrix_pencil", "pade_z"])
def test_detect_preprocesses_each_window_once(monkeypatch, backend):
    # with detrending, a window preprocessed twice or not at all gives other samples
    cfg = dataclasses.replace(
        shift_config(), backend=backend, preprocess=PreprocessConfig(detrend=True)
    )
    x = detect_streams(1)[0]
    expected = reference_detect(x, cfg, 128, 16, "anomaly")
    calls = []

    def counted(series, settings):
        calls.append(len(series))
        return preprocess(series, settings)

    monkeypatch.setattr(pipeline, "preprocess", counted)
    assert detect_json(x, cfg, 128, 16) == expected
    assert calls == [128] * len(range(0, len(x) - 128 + 1, 16))
    assert backend == "pade_z" or expected


@pytest.mark.parametrize("backend", ["matrix_pencil", "pade_z"])
def test_detect_overflowing_window_is_a_preprocess_error(backend):
    cfg = dataclasses.replace(shift_config(), backend=backend)
    x = detect_streams(0)[0].samples.copy()
    x[300:302] = 1.5e308  # finite samples, but a window holding both has no finite 2-norm
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError) as err:
            detect_anomalies(TimeSeries(x, 0.05), cfg, 128, 16, "anomaly")
    assert err.value.stage == "preprocess"


def test_detect_errors_stay_typed():
    cfg = shift_config()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        short = 2 * (2 * cfg.sparse.k_max) + 1  # one sample short of 2 * k_max pencil modes
        with pytest.raises(InputError) as err:
            detect_anomalies(detect_streams(0)[0], cfg, short, 16, "anomaly")
        assert err.value.stage == "estimate"


def test_auto_order_sweep_one_pole():
    series = 0.8 ** np.arange(30)
    sweep = auto_order_sweep(series, 6, 1e-8)
    assert (sweep.rational.m, sweep.rational.n) == (0, 1)
    assert sweep.converged


def test_auto_order_sweep_rejects_a_nan_past_every_fit():
    # n_max 1 fits only [0/1], which reads c_0..c_1; the sweep checks the
    # whole series once, before its first fit
    series = 0.8 ** np.arange(30)
    series[-1] = np.nan
    with pytest.raises(InputError, match="finite"):
        auto_order_sweep(series, 1, 1e-8)


def test_auto_order_sweep_infinite_tolerance():
    rng = np.random.default_rng(2)
    sweep = auto_order_sweep(rng.standard_normal(40), 5, np.inf)
    assert sweep.rational.n == 1 and sweep.converged


def test_auto_order_sweep_noise_falls_back():
    rng = np.random.default_rng(0)
    sweep = auto_order_sweep(rng.standard_normal(40), 4, 1e-8)
    assert not sweep.converged
    assert 1 <= sweep.rational.n <= 4


@pytest.mark.parametrize("scale", [1.0, 1e300, 1e-300])
def test_auto_order_sweep_is_scale_invariant(scale):
    # called directly, without the power-of-two scaling of run; any
    # RuntimeWarning (an overflowing norm) fails the test
    t = 0.1 * np.arange(64)
    sweep = auto_order_sweep(scale * np.exp(-0.2 * t) * np.cos(3.0 * t), 8, 1e-8)
    assert (sweep.rational.m, sweep.rational.n) == (1, 2)
    assert sweep.converged
    assert sweep.residual <= 1e-8


def test_auto_order_sweep_needs_two_coefficients():
    # no order fits one coefficient, so there is no sweep result to return
    with pytest.raises(InputError):
        auto_order_sweep([1.0], 8, 1e-8)


def test_auto_order_sweep_nan_residual_is_never_best(monkeypatch):
    # an order whose re-expansion overflows to NaN must lose to any finite one
    original = pipeline.taylor_coefficients

    def nan_at_order_one(r, count):
        d = original(r, count)
        return np.full(count, np.nan) if r.n == 1 else d

    monkeypatch.setattr(pipeline, "taylor_coefficients", nan_at_order_one)
    rng = np.random.default_rng(0)
    sweep = auto_order_sweep(rng.standard_normal(40), 4, 1e-8)
    assert sweep.rational.n != 1
    assert np.isfinite(sweep.residual)


def test_auto_order_sweep_returns_the_winning_fit():
    series = 0.8 ** np.arange(30)
    sweep = auto_order_sweep(series, 6, 1e-8)
    direct = pipeline.fit_pade(series, sweep.rational.m, sweep.rational.n)
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
        pade=PadeSettings(auto=True, n_max=6),
        rules_text="resonance_high => alert\n",
    )
    result = run(damped_cosine(2.6, 0.15), cfg)
    assert result.diagnostics["estimate"]["orders"] == [1, 2]
    assert calls == [(0, 1), (1, 2)]


def test_pade_auto_ill_conditioned_best_raises():
    # [0/1] meets c_0 = 0 with c_1 != 0: its moment system has no solution,
    # so the sweep passes over it to the best order it can fit
    series = [0.0, -1.0, -1.0, -1.0, -1.0, 1.0, 0.0]
    sweep = auto_order_sweep(series, 8, 1e-8)
    assert (sweep.rational.m, sweep.rational.n) == (1, 2)
    cfg = PipelineConfig(
        binning=wide_open_bins(),
        backend="pade_z",
        pade=PadeSettings(auto=True, n_max=8),
        rules_text="resonance_high => alert\n",
    )
    assert run(TimeSeries(np.array(series), 0.05), cfg).diagnostics["estimate"]["orders"] == [1, 2]
    # when [0/1] is the only order, the run fails with its typed error
    with pytest.raises(IllConditionedError) as err:
        run(TimeSeries(np.array([0.0, 1.0]), 0.05), cfg)
    assert err.value.stage == "estimate"


def test_pade_auto_fits_a_window_that_starts_with_zeros():
    # the window at 336 of a stream zeroed on [150, 350) starts with 14
    # zeros: every order up to [6/7] fits zero, and [7/8] is singular
    cfg = dataclasses.replace(shift_config(), backend="pade_z", pade=PadeSettings(auto=True))
    x = detect_streams(0)[4]
    window = TimeSeries(x.samples[336:464], x.dt)
    estimate = run(window, cfg).diagnostics["estimate"]
    assert estimate["orders"] == [0, 1]
    assert estimate["residual_norm"] == pytest.approx(np.linalg.norm(window.samples), rel=1e-12)
    assert isinstance(detect_anomalies(x, cfg, 128, 16, "anomaly"), list)


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


#: The exact type of each diagnostics["estimate"] key, so a new field of the
#: fit-health record cannot reach the JSON unnoticed.
ESTIMATE_TYPES = {
    "backend": str,
    "residual_norm": float,
    "dropped": int,
    "auto": bool,
    "orders": list,
    "multiple_poles": bool,
    "residual": float,
    "converged": bool,
    "steps": int,
    "breakdown": bool,
    "ritz_bound": float,
}
SIGNAL_KEYS = {"backend", "residual_norm", "dropped"}
PADE_KEYS = SIGNAL_KEYS | {"auto", "orders", "multiple_poles"}


@pytest.mark.parametrize(
    "backend, pade, keys",
    [
        ("matrix_pencil", PadeSettings(), SIGNAL_KEYS),
        ("pade_z", PadeSettings(), PADE_KEYS),
        ("pade_z", PadeSettings(auto=True), PADE_KEYS | {"residual", "converged"}),
        ("lanczos", None, {"backend", "residual_norm", "steps", "breakdown", "ritz_bound"}),
    ],
    ids=["pencil", "pade_fixed", "pade_auto", "lanczos"],
)
def test_estimate_diagnostics_are_the_fit_health_record(heavy_pair_operator, backend, pade, keys):
    if backend == "lanczos":
        h, q1 = heavy_pair_operator(np.random.default_rng(61), 80)
        result = run_hermitian(HermitianOp.from_dense(h), q1, heavy_pair_config())
    else:
        cfg = pencil_config("resonance_high => alert\n")
        cfg = dataclasses.replace(cfg, backend=backend, pade=pade)
        result = run(damped_cosine(2.6, 0.15), cfg)
    record = result.diagnostics["estimate"]
    assert set(record) == keys
    assert {key: type(value) for key, value in record.items()} == {
        key: ESTIMATE_TYPES[key] for key in keys
    }
    assert record == result.atoms.health.to_dict()
    assert record["backend"] == backend == result.atoms.health.backend
    assert record["residual_norm"] == result.atoms.residual_norm
    assert result.atoms.to_dict()["residual_norm"] == record["residual_norm"]
    # the spectrum holds its scalars only in the record
    with pytest.raises(TypeError):
        dataclasses.replace(result.atoms, residual_norm=0.0)
    if "orders" in keys:
        assert [type(v) for v in record["orders"]] == [int, int]
    # only a series has a sample count
    assert set(result.diagnostics) == {"estimate", "project", "infer"} | (
        set() if backend == "lanczos" else {"preprocess"}
    )
    back = SparseSpectrum.from_dict(result.atoms.to_dict())
    assert back.health.backend is None
    assert back.health.to_dict() == {"residual_norm": record["residual_norm"]}


def test_run_refuses_an_estimate_no_fit_produced():
    cfg = pencil_config("resonance_high => alert\n")
    x = damped_cosine(2.6, 0.15)
    fitted = run(x, cfg).atoms
    z = np.exp((-0.15 + 2.6j) * x.dt)
    mapped = pipeline.atoms_from_poles(PoleSet([z, z.conjugate()], [0.5, 0.5]), x.dt)
    for estimate in (
        SparseSpectrum.from_dict(fitted.to_dict()),
        SparseSpectrum.from_atoms(fitted.atoms),
        mapped,
    ):
        assert estimate.health.backend is None
        with pytest.raises(InputError, match="no fit") as err:
            run(x, cfg, estimate)
        assert err.value.stage == "estimate"
    # the fitted spectrum itself gives the run's result
    assert run(x, cfg, fitted).to_json() == run(x, cfg).to_json()


def test_run_refuses_an_estimate_another_backend_fitted():
    x, _ = synth_oscillator("overdamped", 384, 0.05, 1)
    pencil = reference_config()
    fitted = run(x, pencil).atoms
    assert fitted.health.backend == "matrix_pencil"
    with pytest.raises(InputError, match="fitted by matrix_pencil") as err:
        run(x, dataclasses.replace(pencil, backend="pade_z"), fitted)
    assert err.value.stage == "estimate"
    assert run(x, pencil, fitted).to_json() == run(x, pencil).to_json()


def test_config_json_roundtrip(tmp_path):
    cfg = pencil_config("a => b\n")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    back = PipelineConfig.from_dict(read_json(path))
    assert back.to_dict() == cfg.to_dict()
    x = damped_cosine(2.0, 0.2)
    assert run(x, back).to_json() == run(x, cfg).to_json()


def test_readme_config_example_loads():
    # the documented example names no key the configuration lacks
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Configuration", 1)[1]
    block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    record = json.loads(block)
    assert json.loads(json.dumps(PipelineConfig.from_dict(record).to_dict())) == record


def test_config_validation():
    with pytest.raises(ConfigError):
        PipelineConfig(binning=wide_open_bins(), backend="fourier", rules_text="a=>b\n")
    with pytest.raises(ConfigError):
        PadeSettings(m=100)
    with pytest.raises(ConfigError):
        LanczosSettings(eta=0.0)
    with pytest.raises(ConfigError):
        SparseSettings(k_max=0)
    with pytest.raises(ConfigError):
        PipelineConfig(binning=wide_open_bins(), seed=-1)
    cfg = PipelineConfig(binning=wide_open_bins())
    with pytest.raises(ConfigError):
        cfg.load_ruleset()  # no rules_text


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
