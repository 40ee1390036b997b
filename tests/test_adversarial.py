"""Hostile inputs against every signal back-end configuration.

Each input gives a RunResult or a typed SpecLogicError, never a leaked
RuntimeWarning, and a RunResult serializes to strict JSON (no NaN or
Infinity). Both signal back-ends report ``residual_norm`` with one meaning:
the part of the signal that the kept atoms leave unexplained.
"""

import dataclasses
import json
import warnings

import numpy as np
import pytest
import scipy.linalg

from speclogic import InputError, RunResult, SpecLogicError, TimeSeries, run
from speclogic.benchmark import reference_config
from speclogic.pipeline import PadeSettings

DT = 0.05
N = 384


def _configs():
    base = reference_config()
    return {
        "matrix_pencil": base,
        "pade_z_1_2": dataclasses.replace(base, backend="pade_z", pade=PadeSettings(m=1, n=2)),
        "pade_z_auto": dataclasses.replace(
            base, backend="pade_z", pade=PadeSettings(auto=True, n_max=8)
        ),
    }


def _damped_cosine(n=N):
    t = np.arange(n) * DT
    return np.exp(-0.2 * t) * np.cos(3.0 * t)


def _inputs():
    n = np.arange(N)
    t = n * DT
    return {
        "constant": np.ones(N),
        "spike": np.eye(1, N, 100)[0],
        "nyquist": (-1.0) ** n,
        "growth": np.exp(0.05 * n),
        "ramp": n.astype(float),
        "step": (n >= N // 2).astype(float),
        "chirp": np.cos(0.5 * t + 0.05 * t**2),
        "white_noise": np.random.default_rng(11).standard_normal(N),
        "scaled_1e300": 1e300 * _damped_cosine(),
        "scaled_1e-300": 1e-300 * _damped_cosine(),
        "near_max_constant": np.full(N, 1.7e308),
        "near_max_nyquist": 1e308 * (-1.0) ** n,
        "near_max_dipole": 1.2e308 * (np.eye(1, N, 100)[0] - np.eye(1, N, 101)[0]),
        "short_2": np.array([1.0, 0.5]),
        "short_5": _damped_cosine(5),
    }


#: inputs whose 2-norm overflows float64
NEAR_MAX = ("near_max_constant", "near_max_nyquist")

#: inputs whose modes sit on the unit circle: no decay, so no atom
UNDAMPED = ("constant", "nyquist", "ramp")


def _norm(samples):
    # BLAS nrm2 scales as it sums, so a near-float-max input has a finite norm
    return scipy.linalg.norm(samples, check_finite=False)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _run_strict(samples, cfg):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return run(TimeSeries(samples, DT), cfg)


@pytest.mark.parametrize("config", list(_configs()))
@pytest.mark.parametrize("signal", list(_inputs()))
def test_hostile_input_gives_result_or_typed_error(signal, config):
    samples = _inputs()[signal]
    try:
        result = _run_strict(samples, _configs()[config])
    except SpecLogicError as exc:
        # near_max_dipole is valid and has a finite answer, so it gives a result
        assert signal != "near_max_dipole"
        if signal in NEAR_MAX:
            assert isinstance(exc, InputError) and exc.stage == "preprocess"
        return
    assert signal not in NEAR_MAX
    assert isinstance(result, RunResult)
    json.loads(result.to_json(), parse_constant=_reject_constant)
    estimate = result.diagnostics["estimate"]
    assert estimate["residual_norm"] == result.atoms.residual_norm
    assert estimate["dropped"] == result.atoms.dropped
    if not result.atoms.atoms:
        # nothing kept, so nothing is explained
        assert result.atoms.residual_norm == pytest.approx(_norm(samples), rel=1e-9)


@pytest.mark.parametrize("config", list(_configs()))
@pytest.mark.parametrize("signal", UNDAMPED)
def test_undamped_input_keeps_no_atom(signal, config):
    samples = _inputs()[signal]
    result = _run_strict(samples, _configs()[config])
    assert result.atoms.atoms == ()
    assert result.atoms.residual_norm == pytest.approx(_norm(samples), rel=1e-9)


@pytest.mark.parametrize("config", list(_configs()))
def test_clean_mode_leaves_no_residual(config):
    samples = _damped_cosine()
    result = _run_strict(samples, _configs()[config])
    assert len(result.atoms.atoms) == 1
    assert result.atoms.residual_norm <= 1e-8 * np.linalg.norm(samples)


@pytest.mark.parametrize("config", ["pade_z_1_2", "pade_z_auto"])
def test_pade_growth_keeps_nothing_and_explains_nothing(config):
    samples = _inputs()["growth"]
    result = _run_strict(samples, _configs()[config])
    assert result.atoms.atoms == ()
    assert result.atoms.dropped >= 1
    assert result.atoms.residual_norm == pytest.approx(np.linalg.norm(samples), rel=1e-9)
