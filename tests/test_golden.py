"""Golden results of the matrix pencil and of the keep rule ``pade_z`` shares.

``tests/data/golden_pencil.json`` holds what the pipeline makes of fixed
inputs, which this module and ``criterion10.py`` build from ``src/`` only:

- 64 runs of ``reference_config()`` (the matrix pencil) and 64 of its
  ``pade_z`` form at the default [1/2] orders, over the 8 benchmark regimes
  x seeds 0-3 x noise sigma 0 and 0.05;
- ``detect_anomalies`` on 8 streams of acceptance criterion 10
  (``criterion10.py``): 6 with a frequency shift at a changepoint and 2
  stationary ones.

Predicates, derived classes, traces, atom counts, drop counts and flagged
windows must match exactly; atom parameters and residuals to a relative
1e-9. Across OpenBLAS kernels the atoms drifted by at most 2.5e-12 (pencil)
and 2.6e-11 ([1/2]) relative; a residual near rounding level has no
relative precision, so it may also differ by 1e-9 times the norm of its
samples. A change meant to move results regenerates the fixture with

    PYTHONPATH=src python tests/test_golden.py --write

and says why its diff moves.
"""

import dataclasses
import json
import math
import sys
from pathlib import Path

import criterion10
import numpy as np

from speclogic import detect_anomalies, run
from speclogic.benchmark import REGIME_NAMES, reference_config, synth_oscillator
from speclogic.signal import norm2

FIXTURE = Path(__file__).parent / "data" / "golden_pencil.json"
RTOL = 1e-9


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
    """(key, series, config) of the 128 single runs."""
    for backend in ("matrix_pencil", "pade_z"):
        cfg = dataclasses.replace(reference_config(), backend=backend)
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
        yield f"detect stream={i}", x


def golden_outputs() -> tuple[dict, dict]:
    """The records of every input by key, and the samples' norm of each."""
    records, norms = {}, {}
    for key, x, cfg in _runs():
        records[key], norms[key] = _record(run(x, cfg)), norm2(x.samples)
    cfg, window = criterion10.config(), criterion10.WINDOW
    for key, x in _streams():
        flagged = detect_anomalies(x, cfg, window, criterion10.STRIDE, criterion10.HEAD)
        records[key] = [[start, _record(result)] for start, result in flagged]
        for start, _ in flagged:
            norms[f"{key} start={start}"] = norm2(x.samples[start : start + window])
    return records, norms


def _assert_record_matches(got: dict, want: dict, norm: float, where: str):
    for field in ("predicates", "derived", "trace", "dropped"):
        assert got[field] == want[field], (where, field)
    assert len(got["atoms"]) == len(want["atoms"]), (where, "atom count")
    for k, (g, w) in enumerate(zip(got["atoms"], want["atoms"])):
        assert all(math.isclose(a, b, rel_tol=RTOL) for a, b in zip(g, w)), (where, k, g, w)
    assert math.isclose(got["residual"], want["residual"], rel_tol=RTOL, abs_tol=RTOL * norm), (
        where,
        got["residual"],
        want["residual"],
    )


def test_outputs_match_the_golden_fixture():
    want = json.loads(FIXTURE.read_text())
    got, norms = golden_outputs()
    assert sorted(got) == sorted(want)
    for key, record in got.items():
        if key.startswith("detect"):
            assert [s for s, _ in record] == [s for s, _ in want[key]], (key, "flagged windows")
            for (start, g), (_, w) in zip(record, want[key]):
                _assert_record_matches(g, w, norms[f"{key} start={start}"], f"{key} start={start}")
        else:
            _assert_record_matches(record, want[key], norms[key], key)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    records, _ = golden_outputs()
    FIXTURE.parent.mkdir(exist_ok=True)
    lines = [f"{json.dumps(key)}: {json.dumps(records[key])}" for key in records]
    FIXTURE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(records)} records to {FIXTURE}")
