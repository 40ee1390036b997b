"""The four benchmark workloads: inputs from a seed, the timed call, checks.

Every input is generated from the workload seed before timing starts; the
timed call hands speclogic only those inputs. Each workload stresses a
different layer (see README.md in this directory for why each was chosen).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable

import numpy as np

import speclogic.pipeline as pipeline
import speclogic.rules as rules
from speclogic import REGIME_NAMES, HermitianOp, RunResult, TimeSeries, synth_oscillator
from speclogic.benchmark import predicted_classes, reference_config
from speclogic.pipeline import LanczosSettings, PadeSettings, PipelineConfig, SparseSettings
from speclogic.rules import RuleSet
from speclogic.symbolic import BinAxis, BinningConfig

SIGNAL_SAMPLES = 384

STREAM_SAMPLES = 512
WINDOW = 128
STRIDE = 16
STREAM_DT = 0.05
WINDOWS_PER_STREAM = (STREAM_SAMPLES - WINDOW) // STRIDE + 1

OPERATOR_DIM = 400
LANCZOS_ETA = 0.05
HEAVY_WEIGHT = 0.9  # share of the start vector's weight on the two heavy eigenvalues


@dataclass(frozen=True)
class Outcome:
    """Output check of one call: did it pass, which RunResults did it
    produce, and how many of them carry a trace that replays."""

    passed: bool
    results: tuple[RunResult, ...]
    traces_valid: int


@dataclass(frozen=True)
class Workload:
    name: str
    make_config: Callable[[int], PipelineConfig]
    make_inputs: Callable[[int, int], list]  # (seed, count) -> inputs
    call: Callable[[PipelineConfig, RuleSet, Any], Any]  # (config, parsed rules, input)
    check: Callable[[PipelineConfig, RuleSet, Any, Any], Outcome]  # ... and the call's output
    items_per_call: int
    pool: int  # inputs generated per run; the timed loop cycles through them
    min_accuracy: float  # a run below this share of passing items is not correct


def _rng(seed: int, salt: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, salt, index])))


# ---- sweep and pade: classify oscillator signals, then replay the proof ----


def _signal_inputs(noise: Callable[[int], float], salt: int):
    def make(seed: int, count: int) -> list:
        out = []
        for i in range(count):
            regime = REGIME_NAMES[i % len(REGIME_NAMES)]
            sample_seed = int(_rng(seed, salt, i).integers(2**62))
            out.append(synth_oscillator(regime, SIGNAL_SAMPLES, noise(i), sample_seed))
        return out

    return make


def call_classify(cfg: PipelineConfig, ruleset: RuleSet, item) -> tuple[RunResult, bool]:
    series, _ = item
    result = pipeline.run(series, cfg)
    return result, rules.replay(result.trace, result.predicates, ruleset)


def check_classify(cfg: PipelineConfig, ruleset: RuleSet, item, out) -> Outcome:
    """The derived classes must be exactly the ground-truth singleton."""
    _, truth = item
    result, replayed = out
    return Outcome(predicted_classes(result) == [truth], (result,), int(replayed))


def pade_config(seed: int) -> PipelineConfig:
    return replace(reference_config(seed), backend="pade_z", pade=PadeSettings(auto=True, n_max=8))


def _replays(ruleset: RuleSet, result: RunResult) -> bool:
    return rules.replay(result.trace, result.predicates, ruleset)


# ---- detect: sliding-window changepoint streams --------------------------

DETECT_BINNING = BinningConfig(
    omega_bins=BinAxis((0.0, 3.06), ("nominal", "shifted")),
    gamma_bins=BinAxis((0.0,), ("any",)),
    amp_bins=BinAxis((0.0,), ("any",)),
    negligible_eps=0.05,
)


def detect_config(seed: int) -> PipelineConfig:
    return PipelineConfig(
        binning=DETECT_BINNING,
        backend="matrix_pencil",
        sparse=SparseSettings(k_max=3),
        rules_text="resonance_shifted => anomaly\n",
        seed=seed,
    )


def stream_inputs(seed: int, count: int) -> list:
    """Even streams shift frequency by 20-30 % at a changepoint on the
    stride grid; odd streams are stationary (changepoint None)."""
    t = np.arange(STREAM_SAMPLES) * STREAM_DT
    out = []
    for i in range(count):
        rng = _rng(seed, 2, i)
        omega1 = rng.uniform(2.6, 3.0)
        gamma = rng.uniform(0.08, 0.15)
        if i % 2 == 0:
            omega2 = omega1 * rng.uniform(1.2, 1.3)
            change = STRIDE * int(rng.integers(10, 23))
            x = np.where(
                np.arange(STREAM_SAMPLES) < change,
                np.exp(-gamma * t) * np.cos(omega1 * t),
                np.exp(-gamma * t) * np.cos(omega2 * t),
            )
        else:
            change = None
            x = np.exp(-gamma * t) * np.cos(omega1 * t)
        out.append((TimeSeries(x, STREAM_DT), change))
    return out


def call_detect(cfg: PipelineConfig, ruleset: RuleSet, item) -> list[tuple[int, RunResult]]:
    series, _ = item
    return pipeline.detect_anomalies(series, cfg, WINDOW, STRIDE, "anomaly")


def check_detect(cfg: PipelineConfig, ruleset: RuleSet, item, flagged) -> Outcome:
    """A shifted stream's first flag lies within one window of the
    changepoint; a stationary stream raises no flag."""
    _, change = item
    if change is None:
        passed = flagged == []
    else:
        passed = bool(flagged) and flagged[0][0] <= change < flagged[0][0] + WINDOW
    results = tuple(result for _, result in flagged)
    return Outcome(passed, results, sum(_replays(ruleset, result) for result in results))


# ---- operator: Lanczos on dense symmetric operators -----------------------

OPERATOR_BINNING = BinningConfig(
    omega_bins=BinAxis((-10.0, 0.0), ("neg", "pos")),
    gamma_bins=BinAxis((0.0,), ("any",)),
    amp_bins=BinAxis((0.0,), ("any",)),
    negligible_eps=0.1,
)

OPERATOR_RULES = """\
resonance_neg & resonance_pos => class_split @split
resonance_neg & !resonance_pos => class_negative @negative
resonance_pos & !resonance_neg => class_positive @positive
"""


def operator_config(seed: int) -> PipelineConfig:
    return PipelineConfig(
        binning=OPERATOR_BINNING,
        backend="lanczos",
        lanczos=LanczosSettings(k=None, eta=LANCZOS_ETA),
        sparse=SparseSettings(k_max=4),
        rules_text=OPERATOR_RULES,
        seed=seed,
    )


def operator_inputs(seed: int, count: int) -> list:
    """Dense operators Q diag(lambda) Q^T with two heavy eigenvalues, one
    negative and one positive, that carry HEAVY_WEIGHT of the start vector;
    the rest of the spectrum is a bulk in [-1, 1]. The heavy eigenvalues are
    recomputed with eigvalsh so the check compares against the operator."""
    dim = OPERATOR_DIM
    out = []
    for i in range(count):
        rng = _rng(seed, 3, i)
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        heavy = np.array([rng.uniform(-0.8, -0.3), rng.uniform(0.3, 0.8)])
        lam = np.concatenate([heavy, rng.uniform(-1.0, 1.0, dim - 2)])
        split = rng.uniform(0.4, 0.6)
        bulk = rng.uniform(0.5, 1.5, dim - 2)
        weights = np.concatenate(
            [HEAVY_WEIGHT * np.array([split, 1 - split]), (1 - HEAVY_WEIGHT) * bulk / bulk.sum()]
        )
        h = (q * lam) @ q.T
        h = (h + h.T) / 2
        truth = np.linalg.eigvalsh(h)
        heavy_true = np.array([truth[np.argmin(np.abs(truth - v))] for v in heavy])
        out.append((HermitianOp.from_dense(h), q @ np.sqrt(weights), heavy_true))
    return out


def call_operator(cfg: PipelineConfig, ruleset: RuleSet, item) -> RunResult:
    op, q1, _ = item
    return pipeline.run_hermitian(op, q1, cfg)


def check_operator(cfg: PipelineConfig, ruleset: RuleSet, item, result) -> Outcome:
    """Each planted heavy eigenvalue has an atom within eta/10."""
    _, _, heavy = item
    centers = np.array([atom.omega for atom in result.atoms.atoms])
    tol = cfg.lanczos.eta / 10
    passed = centers.size > 0 and all(
        float(np.min(np.abs(centers - v))) <= tol for v in heavy
    )
    return Outcome(passed, (result,), int(_replays(ruleset, result)))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep",
            reference_config,
            _signal_inputs(lambda i: 0.05, salt=0),
            call_classify,
            check_classify,
            items_per_call=1,
            pool=64,
            min_accuracy=0.90,
        ),
        Workload(
            "detect",
            detect_config,
            stream_inputs,
            call_detect,
            check_detect,
            items_per_call=WINDOWS_PER_STREAM,
            pool=32,
            min_accuracy=1.0,
        ),
        Workload(
            "pade",
            pade_config,
            # round-robin over regimes; one round in four is clean, the rest
            # noisy, so the median call lies inside one latency mode
            _signal_inputs(lambda i: 0.0 if (i // len(REGIME_NAMES)) % 4 == 0 else 0.01, salt=1),
            call_classify,
            check_classify,
            items_per_call=1,
            pool=64,
            min_accuracy=0.0,
        ),
        Workload(
            "operator",
            operator_config,
            operator_inputs,
            call_operator,
            check_operator,
            items_per_call=1,
            pool=16,
            min_accuracy=1.0,
        ),
    )
}


def hankel_svd_flops(n: int) -> int:
    """Computed flops of the thin SVD (U1, sigma, V) of the pencil's
    (n - n//2) x (n//2 + 1) Hankel matrix: 14 m k^2 + 8 k^3 for m >= k
    (Golub-Reinsch count, Golub & Van Loan, Matrix Computations)."""
    rows, cols = n - n // 2, n // 2 + 1
    m, k = max(rows, cols), min(rows, cols)
    return 14 * m * k * k + 8 * k**3


@dataclass
class Counters:
    """Health counters folded from RunResults seen during a traced pass."""

    pade_n_max: int
    runs: int = 0
    atoms: int = 0
    dropped: int = 0
    svd_flops: int = 0
    pade_auto: int = 0
    pade_converged: int = 0
    orders_tried: int = 0
    lanczos_runs: int = 0
    lanczos_steps: int = 0
    breakdowns: int = 0
    nls_runs: int = 0
    nls_converged: int = 0
    firings: int = 0

    def add(self, result: RunResult) -> None:
        diag = result.diagnostics
        est = diag["estimate"]
        self.runs += 1
        self.atoms += len(result.atoms)
        self.dropped += result.atoms.dropped
        self.firings += diag["infer"]["firings"]
        if est["backend"] == "matrix_pencil":
            self.svd_flops += hankel_svd_flops(diag["preprocess"]["samples"])
        elif est["backend"] == "pade_z" and est["auto"]:
            self.pade_auto += 1
            self.pade_converged += int(est["converged"])
            # the sweep stops at the first order n that fits, else tries them all
            n_max = min(self.pade_n_max, diag["preprocess"]["samples"] // 2)
            self.orders_tried += est["orders"][1] if est["converged"] else n_max
        elif est["backend"] == "lanczos":
            self.lanczos_runs += 1
            self.lanczos_steps += est["steps"]
            self.breakdowns += int(est["breakdown"])
            if result.atoms.atoms:  # refine_nls runs only when pursuit found atoms
                self.nls_runs += 1
                self.nls_converged += int(result.atoms.converged)


def ratio(num: float, den: float) -> float:
    """num/den, or 0.0 when the base is empty."""
    return num / den if den else 0.0


def tail_index(count: int) -> tuple[float, int]:
    """Highest percentile with at least ten samples beyond it, and the
    index of that sample in the sorted latencies (nearest rank)."""
    if count <= 10:
        return 50.0, (count - 1) // 2
    idx = count - 11
    return 100.0 * (idx + 1) / count, idx
