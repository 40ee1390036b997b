"""Synthetic oscillator benchmark: eight regimes with symbolic ground truth.

Each regime is a box of oscillator parameters (center frequency, damping,
drive amplitude, one or two modes) chosen so that, under the reference
binning and rules shipped here, noiseless samples of different regimes
derive different class facts. Signals are sums of damped cosines

    x(t) = sum_i a_i * exp(-gamma_i t) * cos(omega_i t)   (+ white noise)

so a mode with amplitude a and width gamma corresponds to a Lorentzian atom
peaking at a/(2*gamma) (a/gamma for the zero-frequency pure decay).

All randomness flows from a single integer seed through a counter-based
Philox generator, so every sample is replayable.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import InputError
from .pipeline import PipelineConfig, RunResult, SparseSettings, run
from .rules import replay
from .signal import TimeSeries
from .symbolic import BinAxis, BinningConfig

DEFAULT_DT = 0.05
DEFAULT_SAMPLES = 384

#: Largest ``n`` of :func:`synth_oscillator` and largest ``estimate
#: --grid-points``: 2**24 float64 values take 128 MiB, so a larger size is an
#: InputError raised before anything is allocated, not a numpy memory error.
MAX_POINTS = 2**24

#: Class facts are heads starting with this prefix.
CLASS_PREFIX = "class_"


@dataclass(frozen=True)
class Regime:
    """Parameter box for one dynamical regime.

    Ranges are inclusive (lo, hi) pairs sampled uniformly; ``omega`` of None
    marks a pure decay. ``delta`` is the spacing box for the second mode of
    two-mode regimes.
    """

    name: str
    class_head: str
    omega: tuple[float, float] | None
    gamma: tuple[float, float]
    amp: tuple[float, float]
    modes: int = 1
    omega2: tuple[float, float] | None = None
    delta: tuple[float, float] | None = None


REGIMES: tuple[Regime, ...] = (
    Regime("underdamped_low", "class_underdamped_low", (0.8, 1.2), (0.02, 0.035), (0.9, 1.1)),
    Regime("underdamped_high", "class_underdamped_high", (4.5, 6.0), (0.02, 0.035), (0.9, 1.1)),
    Regime("overdamped", "class_overdamped", None, (1.0, 1.7), (5.5, 7.0)),
    Regime("near_critical", "class_near_critical", (0.8, 1.2), (0.25, 0.40), (2.5, 3.0)),
    Regime(
        "two_mode_close",
        "class_two_mode_close",
        (2.0, 2.3),
        (0.02, 0.035),
        (0.9, 1.1),
        modes=2,
        delta=(0.5, 0.7),
    ),
    Regime(
        "two_mode_far",
        "class_two_mode_far",
        (0.8, 1.2),
        (0.02, 0.035),
        (0.9, 1.1),
        modes=2,
        omega2=(4.5, 6.0),
    ),
    Regime(
        "high_q_resonance", "class_high_q_resonance", (4.5, 6.0), (0.004, 0.008), (0.9, 1.1)
    ),
    Regime(
        "noisy_negligible", "class_noisy_negligible", (1.0, 3.0), (0.02, 0.04), (0.002, 0.006)
    ),
)

REGIME_NAMES = tuple(r.name for r in REGIMES)
_REGIME_MAP = {r.name: r for r in REGIMES}

REFERENCE_BINNING = BinningConfig(
    omega_bins=BinAxis((0.0, 1.5, 4.0, 8.0), ("low", "mid", "high", "hyper")),
    gamma_bins=BinAxis(
        (0.0, 0.012, 0.15, 0.8, 3.0), ("ultra_narrow", "narrow", "medium", "broad", "diffuse")
    ),
    amp_bins=BinAxis((0.0, 2.5, 10.0), ("weak", "moderate", "strong")),
    negligible_eps=0.25,
)

REFERENCE_RULES = """\
# regime classification over binned resonance features
resonance_low & width_narrow & amplitude_strong & !resonance_mid & !resonance_high => class_underdamped_low @underdamped_low
resonance_high & width_narrow & amplitude_strong & !resonance_low & !resonance_mid & !width_ultra_narrow => class_underdamped_high @underdamped_high
width_broad & amplitude_moderate & !amplitude_strong => class_overdamped @overdamped
width_medium & amplitude_moderate & !amplitude_strong & !width_broad => class_near_critical @near_critical
resonance_mid & width_narrow & amplitude_strong & !resonance_low & !resonance_high => class_two_mode_close @two_mode_close
resonance_low & resonance_high & width_narrow & amplitude_strong => class_two_mode_far @two_mode_far
resonance_high & width_ultra_narrow & amplitude_strong & !width_narrow => class_high_q_resonance @high_q
!amplitude_strong & !amplitude_moderate & !width_broad => class_noisy_negligible @noisy_negligible
"""


def reference_config(seed: int = 0) -> PipelineConfig:
    """Pipeline configuration used by the shipped benchmark."""
    return PipelineConfig(
        binning=REFERENCE_BINNING,
        backend="matrix_pencil",
        sparse=SparseSettings(k_max=3),
        rules_text=REFERENCE_RULES,
        seed=seed,
    )


def _draw(rng: np.random.Generator, box: tuple[float, float]) -> float:
    lo, hi = box
    return float(rng.uniform(lo, hi))


def synth_oscillator(
    regime: str,
    n: int = DEFAULT_SAMPLES,
    noise_sigma: float = 0.0,
    seed: int = 0,
    dt: float = DEFAULT_DT,
) -> tuple[TimeSeries, str]:
    """Generate one signal from a regime's parameter box.

    Returns the series and its ground-truth class fact. ``noise_sigma``, the
    standard deviation of the added white noise, must be non-negative and
    finite, and ``n`` must lie in [64, MAX_POINTS]. Deterministic for a fixed
    (regime, n, noise_sigma, seed, dt).
    """
    if regime not in _REGIME_MAP:
        raise InputError(f"unknown regime {regime!r}; expected one of {REGIME_NAMES}")
    if not 64 <= n <= MAX_POINTS:
        raise InputError(f"need between 64 and {MAX_POINTS} samples, got {n}")
    if seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}")
    if not 0 <= noise_sigma < math.inf:
        raise InputError(f"noise_sigma must be non-negative and finite, got {noise_sigma}")
    spec = _REGIME_MAP[regime]

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    t = np.arange(n) * dt

    modes: list[tuple[float, float, float]] = []
    omega1 = _draw(rng, spec.omega) if spec.omega is not None else 0.0
    gamma1 = _draw(rng, spec.gamma)
    amp1 = _draw(rng, spec.amp)
    modes.append((omega1, gamma1, amp1))
    if spec.modes == 2:
        if spec.delta is not None:
            omega2 = omega1 + _draw(rng, spec.delta)
        else:
            omega2 = _draw(rng, spec.omega2)
        modes.append((omega2, _draw(rng, spec.gamma), _draw(rng, spec.amp)))

    x = np.zeros(n)
    for omega, gamma, amp in modes:
        x += amp * np.exp(-gamma * t) * np.cos(omega * t)
    if noise_sigma > 0:
        # noise past float64's range gives inf samples, which TimeSeries rejects
        with np.errstate(over="ignore", invalid="ignore"):
            x = x + noise_sigma * rng.standard_normal(n)
    return TimeSeries(x, dt, label=regime), spec.class_head


def predicted_classes(result: RunResult) -> list[str]:
    """Class facts present in a run's derived set, sorted."""
    return sorted(n for n in result.derived.names if n.startswith(CLASS_PREFIX))


@dataclass(frozen=True)
class BenchmarkReport:
    """Aggregate outcome of a benchmark sweep."""

    samples: int
    noise_sigma: float
    seed: int
    accuracy: float
    traces_valid: float
    elapsed_seconds: float
    confusion: dict[str, dict[str, int]]
    failures: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def run_benchmark(
    n_samples: int,
    noise_sigma: float = 0.0,
    seed: int = 0,
    cfg: PipelineConfig | None = None,
    n: int = DEFAULT_SAMPLES,
) -> BenchmarkReport:
    """Generate ``n_samples`` signals round-robin over the regimes, classify
    each, and report exact-match accuracy plus proof-trace validity.

    A sample counts as correct only when its derived class facts are exactly
    the ground-truth singleton.
    """
    if n_samples < 1:
        raise InputError(f"n_samples must be positive, got {n_samples}")
    if cfg is None:
        cfg = reference_config(seed)
    ruleset = cfg.load_ruleset()

    start = time.perf_counter()
    correct = 0
    valid_traces = 0
    confusion: dict[str, dict[str, int]] = {r.class_head: {} for r in REGIMES}
    failures: list[dict] = []
    for i in range(n_samples):
        regime = REGIMES[i % len(REGIMES)]
        sample_seed = seed * 131071 + i
        series, truth = synth_oscillator(
            regime.name, n=n, noise_sigma=noise_sigma, seed=sample_seed
        )
        result = run(series, cfg)
        predicted = predicted_classes(result)
        key = ",".join(predicted) if predicted else "(none)"
        confusion[truth][key] = confusion[truth].get(key, 0) + 1
        if predicted == [truth]:
            correct += 1
        else:
            failures.append(
                {"index": i, "regime": regime.name, "seed": sample_seed, "predicted": predicted}
            )
        if replay(result.trace, result.predicates, ruleset):
            valid_traces += 1
    elapsed = time.perf_counter() - start
    return BenchmarkReport(
        samples=n_samples,
        noise_sigma=noise_sigma,
        seed=seed,
        accuracy=correct / n_samples,
        traces_valid=valid_traces / n_samples,
        elapsed_seconds=elapsed,
        confusion=confusion,
        failures=failures,
    )
