"""Golden results of the matrix pencil, of ``pade_z`` at fixed and at
automatic orders and of ``run_hermitian``.

``tests/data/golden.json`` holds what the pipeline makes of fixed inputs,
which this module and ``criterion10.py`` build from ``src/`` and numpy only:

- 64 runs of ``reference_config()`` (the matrix pencil), 64 of its
  ``pade_z`` form at the default [1/2] orders and 64 with ``auto`` orders,
  over the 8 benchmark regimes x seeds 0-3 x noise sigma 0 and 0.05;
- ``detect_anomalies`` on 8 streams of acceptance criterion 10
  (``criterion10.py``): 6 with a frequency shift at a changepoint and 2
  stationary ones, with the matrix pencil and with ``pade_z`` at [1/2];
- ``run_hermitian`` on 8 seeded dense operators (:func:`_operators`).

Predicates, derived classes, traces, atom counts, drop counts, flagged
windows, Lanczos steps and breakdowns must match exactly; atom parameters
and residuals of the signal back-ends to a relative 1e-9. Across OpenBLAS
kernels, against SkylakeX, the atoms drifted by at most 4.7e-12 (pencil)
and 2.7e-11 ([1/2]) relative, and in detect windows 8.2e-12 (pencil) and
5.0e-13 (``pade_z``); a residual near rounding level has no relative
precision, so it may also differ by 1e-9 times the norm of its samples. The
``pade_z`` auto records are compared to AUTO_RTOL, and the operators'
atoms, residuals and Ritz bounds to OPERATOR_RTOL.
A change meant to move results regenerates the fixture with

    PYTHONPATH=src python tests/test_golden.py --write

and says why its diff moves.
"""

import dataclasses
import json
import math
import sys
from pathlib import Path

import conftest
import criterion10
import numpy as np

from speclogic import HermitianOp, PipelineConfig, detect_anomalies, run, run_hermitian
from speclogic.benchmark import REGIME_NAMES, reference_config, synth_oscillator
from speclogic.pipeline import LanczosSettings, PadeSettings, SparseSettings
from speclogic.signal import norm2
from speclogic.symbolic import BinAxis, BinningConfig

FIXTURE = Path(__file__).parent / "data" / "golden.json"
RTOL = 1e-9

#: Relative bound on the ``pade_z`` auto records' atoms and residuals. Their
#: denominators moved by at most 7.8e-15 relative across OpenBLAS kernels,
#: but the roots of a denominator with two close pole pairs amplify that:
#: under Haswell, Sandybridge and Nehalem, against SkylakeX, the atoms moved
#: by at most 1.0e-9 relative, the width of clean two_mode_close at seed 1.
AUTO_RTOL = 1e-8

#: Relative bound on the operators' atoms, residuals and Ritz bounds. Under
#: the OpenBLAS kernels Haswell, Sandybridge and Nehalem, against SkylakeX,
#: the atoms moved by at most 2.6e-13, the residuals 2.5e-14 and the Ritz
#: bounds 1.8e-13 relative; the operators' own entries, built by BLAS and
#: LAPACK, moved with them.
OPERATOR_RTOL = 1e-12

OPERATOR_DIM = 200

#: The Ritz stop at eta 0.05, the 4 heaviest pairs as atoms, binned by sign.
OPERATOR_CONFIG = PipelineConfig(
    binning=BinningConfig(
        omega_bins=BinAxis((-10.0, 0.0), ("neg", "pos")),
        gamma_bins=BinAxis((0.0,), ("any",)),
        amp_bins=BinAxis((0.0,), ("any",)),
        negligible_eps=0.1,
    ),
    backend="lanczos",
    sparse=SparseSettings(k_max=4),
    rules_text=(
        "resonance_neg & resonance_pos => class_split\n"
        "resonance_neg & !resonance_pos => class_negative\n"
        "resonance_pos & !resonance_neg => class_positive\n"
    ),
)


def _record(result) -> dict:
    """The compared fields of one run."""
    return {
        "predicates": result.predicates.to_json(),
        "derived": result.derived.to_json(),
        "trace": [
            [s["rule_id"], s["head"], s["body_pos"], s["body_neg_checked"]]
            for s in result.trace.to_json()
        ],
        "atoms": [[a.omega, a.gamma, a.amp] for a in result.atoms.atoms],
        "dropped": result.atoms.dropped,
        "residual": result.atoms.residual_norm,
    }


def _runs():
    """(key, series, config) of the 192 single runs."""
    pade_z = dataclasses.replace(reference_config(), backend="pade_z")
    configs = {
        "matrix_pencil": reference_config(),
        "pade_z": pade_z,
        "pade_z_auto": dataclasses.replace(pade_z, pade=PadeSettings(auto=True)),
    }
    for backend, cfg in configs.items():
        for regime in REGIME_NAMES:
            for seed in range(4):
                for sigma in (0.0, 0.05):
                    x, _ = synth_oscillator(regime, noise_sigma=sigma, seed=seed)
                    yield f"{backend} {regime} seed={seed} sigma={sigma}", x, cfg


def _streams():
    """(key, series) of the 8 detect streams: criterion 10's first 6 shifted
    streams, then 2 stationary ones."""
    rng = np.random.default_rng(1010)
    for i in range(8):
        x = criterion10.shifted_stream(rng)[0] if i < 6 else criterion10.stationary_stream(rng)
        yield f"stream={i}", x


def _operators():
    """(key, operator, start vector, config) of 8 seeded dense symmetric
    operators of dimension OPERATOR_DIM. Seeds 0-5 and 7 have two heavy
    eigenvalues in a bulk (``conftest._heavy_pair_operator``), and seed 7
    runs a fixed 24 steps. Seed 6 has 5 distinct eigenvalues and equal
    weights on every eigenvector, so its recurrence breaks down at step 5."""
    for seed in range(8):
        rng = np.random.default_rng(2800 + seed)
        if seed == 6:
            q, _ = np.linalg.qr(rng.standard_normal((OPERATOR_DIM, OPERATOR_DIM)))
            h = (q * rng.choice([-0.9, -0.4, 0.2, 0.5, 0.7], OPERATOR_DIM)) @ q.T
            h, q1 = (h + h.T) / 2, q.sum(axis=1)
        else:
            h, q1 = conftest._heavy_pair_operator(rng, OPERATOR_DIM)
        cfg = OPERATOR_CONFIG
        if seed == 7:
            cfg = dataclasses.replace(cfg, lanczos=LanczosSettings(k=24))
        yield f"lanczos seed={seed}", HermitianOp.from_dense(h), q1, cfg


def golden_outputs() -> tuple[dict, dict]:
    """The records of every input by key, and the samples' norm of each."""
    records, norms = {}, {}
    for key, x, cfg in _runs():
        records[key], norms[key] = _record(run(x, cfg)), norm2(x.samples)
    window = criterion10.WINDOW
    for backend in ("matrix_pencil", "pade_z"):
        cfg = dataclasses.replace(criterion10.config(), backend=backend)
        for stream, x in _streams():
            key = f"{backend} detect {stream}"
            flagged = detect_anomalies(x, cfg, window, criterion10.STRIDE, criterion10.HEAD)
            records[key] = [[start, _record(result)] for start, result in flagged]
            for start, _ in flagged:
                norms[f"{key} start={start}"] = norm2(x.samples[start : start + window])
    for key, op, q1, cfg in _operators():
        result = run_hermitian(op, q1, cfg)
        estimate = result.diagnostics["estimate"]
        records[key] = _record(result) | {k: estimate[k] for k in ("steps", "breakdown", "ritz_bound")}
    return records, norms


def _assert_record_matches(got: dict, want: dict, norm: float, where: str, rtol: float = RTOL):
    for field in ("predicates", "derived", "trace", "dropped"):
        assert got[field] == want[field], (where, field)
    assert len(got["atoms"]) == len(want["atoms"]), (where, "atom count")
    for k, (g, w) in enumerate(zip(got["atoms"], want["atoms"])):
        assert all(math.isclose(a, b, rel_tol=rtol) for a, b in zip(g, w)), (where, k, g, w)
    assert math.isclose(got["residual"], want["residual"], rel_tol=rtol, abs_tol=rtol * norm), (
        where,
        got["residual"],
        want["residual"],
    )


def _assert_operator_matches(got: dict, want: dict, where: str):
    for field in ("predicates", "derived", "trace", "dropped", "steps", "breakdown"):
        assert got[field] == want[field], (where, field)
    assert len(got["atoms"]) == len(want["atoms"]), (where, "atom count")
    for k, (g, w) in enumerate(zip(got["atoms"], want["atoms"])):
        assert all(math.isclose(a, b, rel_tol=OPERATOR_RTOL) for a, b in zip(g, w)), (where, k, g, w)
    for field in ("residual", "ritz_bound"):
        assert math.isclose(got[field], want[field], rel_tol=OPERATOR_RTOL), (where, field)


def test_outputs_match_the_golden_fixture():
    want = json.loads(FIXTURE.read_text())
    got, norms = golden_outputs()
    assert sorted(got) == sorted(want)
    for key, record in got.items():
        if " detect " in key:
            assert [s for s, _ in record] == [s for s, _ in want[key]], (key, "flagged windows")
            for (start, g), (_, w) in zip(record, want[key]):
                _assert_record_matches(g, w, norms[f"{key} start={start}"], f"{key} start={start}")
        elif key.startswith("lanczos"):
            _assert_operator_matches(record, want[key], key)
        else:
            rtol = AUTO_RTOL if key.startswith("pade_z_auto ") else RTOL
            _assert_record_matches(record, want[key], norms[key], key, rtol)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    records, _ = golden_outputs()
    FIXTURE.parent.mkdir(exist_ok=True)
    lines = [f"{json.dumps(key)}: {json.dumps(records[key])}" for key in records]
    FIXTURE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(records)} records to {FIXTURE}")
