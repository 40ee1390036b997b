"""The anomaly harness of acceptance criterion 10: its pipeline config and
its streams, shared by ``test_acceptance.py`` and ``test_golden.py``.

A stream is a damped cosine of ``SAMPLES`` samples at step ``DT``; a shifted
stream's frequency rises by 20-30 % at a changepoint on the ``STRIDE`` grid.
The pipeline flags a ``WINDOW``-sample window whose frequency bins as
``shifted``.
"""

import numpy as np

from speclogic import PipelineConfig, TimeSeries
from speclogic.pipeline import SparseSettings
from speclogic.symbolic import BinAxis, BinningConfig

WINDOW, STRIDE, SAMPLES, DT = 128, 16, 512, 0.05
HEAD = "anomaly"


def config() -> PipelineConfig:
    """The matrix pencil at k_max 3, with ``resonance_shifted => anomaly``."""
    binning = BinningConfig(
        omega_bins=BinAxis((0.0, 3.06), ("nominal", "shifted")),
        gamma_bins=BinAxis((0.0,), ("any",)),
        amp_bins=BinAxis((0.0,), ("any",)),
        negligible_eps=0.05,
    )
    return PipelineConfig(
        binning=binning,
        backend="matrix_pencil",
        sparse=SparseSettings(k_max=3),
        rules_text=f"resonance_shifted => {HEAD}\n",
    )


def shifted_stream(rng: np.random.Generator) -> tuple[TimeSeries, int]:
    """A stream whose frequency shifts at a changepoint, and that changepoint."""
    t = np.arange(SAMPLES) * DT
    omega1 = rng.uniform(2.6, 3.0)
    omega2 = omega1 * rng.uniform(1.2, 1.3)
    gamma = rng.uniform(0.08, 0.15)
    j = STRIDE * int(rng.integers(10, 23))
    x = np.where(
        np.arange(SAMPLES) < j,
        np.exp(-gamma * t) * np.cos(omega1 * t),
        np.exp(-gamma * t) * np.cos(omega2 * t),
    )
    return TimeSeries(x, DT), j


def stationary_stream(rng: np.random.Generator) -> TimeSeries:
    """A stream at one frequency throughout."""
    t = np.arange(SAMPLES) * DT
    omega1 = rng.uniform(2.6, 3.0)
    gamma = rng.uniform(0.08, 0.15)
    return TimeSeries(np.exp(-gamma * t) * np.cos(omega1 * t), DT)
