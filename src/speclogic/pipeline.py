"""End-to-end composition: signal -> spectrum -> atoms -> predicates -> facts.

A run preprocesses the input, estimates a sparse Lorentzian decomposition
with the configured spectral back-end, projects the atoms into predicates,
and forward-chains the configured rules, capturing every intermediate in a
:class:`RunResult`. Back-ends:

``pade_z``
    Treats the samples as power-series coefficients of F(z) = sum x[n] z^n,
    fits an [m/n] rational approximant (with ``auto``, the [r-1/r] one whose
    denominator is the rank-r linear prediction of every sample), and maps
    its pole/residue pairs to signal modes. Poles of F sit at the
    reciprocals of the per-sample mode bases z_k, so the approximant's poles
    p are inverted (z = 1/p, mode coefficient c = -r/p, exact partial
    fractions) before the stable-pole mapping of
    :func:`speclogic.sparse.atoms_from_poles`.

``matrix_pencil``
    Hankel matrix pencil directly on the samples.

``lanczos``
    Operates on symmetric operators, not time series; use
    :func:`run_hermitian`. The Ritz values and weights are the nodes and
    weights of the Gauss quadrature of the start vector's spectral measure,
    so the heaviest Ritz pairs become the atoms directly: center the Ritz
    value, amplitude its weight, half-width eta/10. With ``k`` unset, the
    recurrence stops once every Ritz pair heavy enough to be a non-negligible
    atom has Paige bound at or below eta/10.

Both signal back-ends estimate through one batch step,
:func:`estimate_spectra`, of which :func:`run` is a batch of one; only the
matrix pencil stacks a batch into one fit. Each window of
:func:`detect_anomalies` gives :func:`run`'s result on that window alone,
byte for byte. Results are ordered by window start.
"""

from __future__ import annotations

import json
import math
import types
import typing
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace

import numpy as np
from numpy.linalg._umath_linalg import svd_s

from .errors import (
    ConfigError,
    InputError,
    SpecLogicError,
)
from .lanczos import HermitianOp, RitzSpectrum, TridiagResult, lanczos_tridiag, tridiag_eigen
from .pade import PoleSet, RationalApprox, extract_poles, fit_pade
from .rules import ProofTrace, RuleSet, infer, parse_rules
from .signal import PreprocessConfig, TimeSeries, lapack_errstate, norm2, preprocess, unit_scale
from .sparse import (
    FitHealth,
    LorentzianAtom,
    SparseSpectrum,
    _noise_floor_order,
    atoms_from_poles,
    fit_matrix_pencil,
)
from .symbolic import BinningConfig, SymbolSet, project

# Placeholders for removed functions: bench/spans.py still wraps these names
# on this module (they read 0 calls) until ROADMAP item 13 clears them.
fit_omp = refine_nls = spectral_density = auto_order_sweep = taylor_coefficients = None

#: Back-ends that estimate time series; ``lanczos`` takes operators instead.
SIGNAL_BACKENDS = ("matrix_pencil", "pade_z")
BACKENDS = (*SIGNAL_BACKENDS, "lanczos")

MAX_PADE_ORDER = 64

#: Hankel-stack entries (float64) one batched pencil fit of
#: :func:`detect_anomalies` may hold, 8 MiB; a chunk holds at least one
#: window, so a long stream at stride 1 needs no more memory than a short one.
DETECT_CHUNK_ELEMENTS = 2**20


@dataclass(frozen=True)
class PadeSettings:
    """Orders for the rational back-end: [m/n], or with ``auto`` [r-1/r],
    where r <= n_max is the numerical rank of the series' linear prediction
    over n_max lags (see :func:`_linear_prediction_pade`)."""

    m: int = 1
    n: int = 2
    auto: bool = False
    n_max: int = 8

    def __post_init__(self):
        if not (0 <= self.m <= MAX_PADE_ORDER and 0 <= self.n <= MAX_PADE_ORDER):
            raise ConfigError(f"orders must lie in [0, {MAX_PADE_ORDER}]")
        if not 1 <= self.n_max <= MAX_PADE_ORDER:
            raise ConfigError(f"n_max must lie in [1, {MAX_PADE_ORDER}]")


@dataclass(frozen=True)
class LanczosSettings:
    """Krylov depth and resolution.

    ``k=None`` runs until the non-negligible Ritz pairs converge (Paige
    bound at or below eta/10), capped at dim; an explicit ``k`` runs exactly
    k steps unless the recurrence breaks down. ``eta`` is the resolution:
    atoms report half-width eta/10, the convergence tolerance.
    """

    k: int | None = None
    eta: float = 0.05

    def __post_init__(self):
        if self.k is not None and self.k < 1:
            raise ConfigError(f"k must be positive, got {self.k}")
        if not 0 < self.eta < math.inf:
            raise ConfigError(f"eta must be positive and finite, got {self.eta}")


@dataclass(frozen=True)
class SparseSettings:
    """Decomposition limits: ``k_max`` atoms."""

    k_max: int = 4

    def __post_init__(self):
        if self.k_max < 1:
            raise ConfigError(f"k_max must be positive, got {self.k_max}")


def _matches(value, hint) -> bool:
    """Whether a JSON value fits a field's type hint (ints count as floats, bools as neither)."""
    if isinstance(hint, types.UnionType):
        return any(_matches(value, h) for h in typing.get_args(hint))
    if typing.get_origin(hint) is tuple:
        item = typing.get_args(hint)[0]
        return isinstance(value, (list, tuple)) and all(_matches(v, item) for v in value)
    if hint in (int, float):
        return isinstance(value, (int, hint)) and not isinstance(value, bool)
    if hint is type(None):
        return value is None
    return isinstance(value, hint)


def _from_record(cls, record, where: str):
    """Build the dataclass ``cls`` from a JSON object, recursing into fields
    that are themselves dataclasses; omitted fields take their defaults."""
    if not isinstance(record, dict):
        raise ConfigError(f"{where}: expected an object, got {type(record).__name__}")
    hints = typing.get_type_hints(cls)
    unknown = sorted(set(record) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")
    values = {}
    for key, value in record.items():
        hint = hints[key]
        if is_dataclass(hint):
            value = _from_record(hint, value, f"{where}.{key}")
        elif not _matches(value, hint):
            raise ConfigError(f"{where}.{key}: {value!r} is not of type {hint}")
        values[key] = value
    try:
        return cls(**values)
    except (TypeError, OverflowError) as exc:  # OverflowError: an int past float64
        raise ConfigError(f"{where}: {exc}") from None


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a run needs; serializable to a single JSON object.

    The rules are the text ``rules_text``, which must be set before running.
    Derive variants with :func:`dataclasses.replace`; each instance parses
    its rules at most once.
    """

    binning: BinningConfig
    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)
    backend: str = "matrix_pencil"
    pade: PadeSettings = field(default_factory=PadeSettings)
    lanczos: LanczosSettings = field(default_factory=LanczosSettings)
    sparse: SparseSettings = field(default_factory=SparseSettings)
    rules_text: str | None = None
    seed: int = 0

    def __post_init__(self):
        if self.backend not in BACKENDS:
            raise ConfigError(f"unknown backend {self.backend!r}; expected one of {BACKENDS}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        # parsed-rules cache: not a field, so replace() and asdict() skip it
        object.__setattr__(self, "_ruleset", None)

    def load_ruleset(self) -> RuleSet:
        """Parse (and cache) the configured rules; validates stratification."""
        if self._ruleset is None:
            if self.rules_text is None:
                raise ConfigError("rules_text must be set")
            object.__setattr__(self, "_ruleset", parse_rules(self.rules_text))
        return self._ruleset

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, record: dict) -> "PipelineConfig":
        """Inverse of :meth:`to_dict`; rejects unknown keys and wrong types
        at every level with :class:`ConfigError`."""
        return _from_record(cls, record, "pipeline config")


@dataclass(frozen=True, eq=False)
class RunResult:
    """All intermediates of one pipeline run.

    ``diagnostics`` holds per-stage counters and residuals and is part of
    the serialized form; its ``estimate`` entry is the fields of the
    spectrum's :class:`~speclogic.sparse.FitHealth` (see its ``to_dict``).
    """

    atoms: SparseSpectrum
    predicates: SymbolSet
    derived: SymbolSet
    trace: ProofTrace
    diagnostics: dict

    def to_dict(self) -> dict:
        return {
            "atoms": self.atoms.to_dict(),
            "predicates": self.predicates.to_json(),
            "derived": self.derived.to_json(),
            "trace": self.trace.to_json(),
            "diagnostics": self.diagnostics,
        }

    def to_json(self) -> str:
        """Canonical serialization: sorted keys, compact separators."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


def _toeplitz(c: np.ndarray, cols: int) -> np.ndarray:
    """The (len(c) - cols + 1, cols) Toeplitz matrix t[i, j] = c[cols - 1 + i - j]
    of the contiguous series ``c``: row i predicts c[cols - 1 + i] from the
    cols - 1 samples before it. One copy of a strided view of c."""
    return np.ndarray((c.size - cols + 1, cols), float, c, 8 * (cols - 1), (8, -8)).copy()


def _linear_prediction_pade(c: np.ndarray, n_max: int) -> tuple[RationalApprox, bool]:
    """The [n-1/n] approximant of the unit-scale series ``c`` whose
    denominator is its rank-r linear prediction over every sample, and
    whether r lies below the cap L (Gonnet, Guttel & Trefethen, SIAM Rev.
    2013; Kumaresan & Tufts, IEEE Trans. ASSP 1982).

    The Toeplitz matrix of L = min(n_max, (len(c) - 1) // 2) lags, never
    wide, is the pencil's Hankel matrix of pencil L with its columns
    reversed, so the pencil's rule :func:`~speclogic.sparse._noise_floor_order`
    reads its rank r from its singular values, capped at L. The last right
    singular vector q of the (len(c) - r, r + 1) Toeplitz matrix then solves
    sum_j q_j c_{k-j} ~ 0 for every k >= r in the least-squares sense.
    Leading entries of q at or below 1e-14, Gonnet, Guttel and Trefethen's
    tolerance, are a common factor z of numerator and denominator and are
    cancelled; the rest, divided by its first entry, is the denominator of
    degree n <= r, and the numerator is its convolution with c_0..c_{n-1},
    as in :func:`~speclogic.pade.fit_pade`. Rank 0 gives the [0/0]
    approximant c_0, which has no poles.
    """
    lags = min(n_max, (c.size - 1) // 2)
    with lapack_errstate():
        _, sv, _ = svd_s(_toeplitz(c, lags + 1))
    rank = min(int(_noise_floor_order(c[None], sv[None], lags)[0]), lags)
    denominator = np.ones(1)
    if rank:
        with lapack_errstate():
            _, _, vt = svd_s(_toeplitz(c, rank + 1))
        # q has unit norm, so some entry clears 1e-14
        q = vt[-1, np.argmax(np.abs(vt[-1]) > 1e-14) :]
        denominator = q / q[0]
    n = denominator.size - 1
    m = max(n - 1, 0)
    numerator = np.convolve(denominator, c[: m + 1])[: m + 1]
    return RationalApprox(numerator, denominator[1:], m, n), rank < lags


def _pade_z(x: TimeSeries, pade: PadeSettings) -> SparseSpectrum:
    """The ``pade_z`` fit of one series, with its health record.

    F(z) ~ r/(z - p) contributes (-r/p) * (1/p)^n to sample n, so each
    approximant pole p gives the mode base z = 1/p with coefficient c = -r/p.
    A pole within 1e-12 of the origin (|z| > 1e12), a multiple pole (residue
    not finite) and an overflowing coefficient all fall to the keep rule of
    :func:`atoms_from_poles`.
    """
    scale = unit_scale(x.samples)
    c = x.samples / scale
    if pade.auto:
        rational, converged = _linear_prediction_pade(c, pade.n_max)
    else:
        rational, converged = fit_pade(c, pade.m, pade.n), None
    poles = extract_poles(rational)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        modes = PoleSet(1.0 / poles.poles, -poles.residues / poles.poles)
    sp = atoms_from_poles(modes, x.dt, c, scale)
    fit = pade.auto, (rational.m, rational.n), poles.multiple_poles, converged
    return replace(sp, health=FitHealth("pade_z", sp.residual_norm, sp.dropped, *fit))


def estimate_spectra(series: list[TimeSeries], cfg: PipelineConfig) -> list[SparseSpectrum]:
    """Preprocess every series, then fit each with the configured back-end:
    one spectrum per series, with the :class:`~speclogic.sparse.FitHealth`
    its fit filled.

    No series is fitted before all are preprocessed, so a preprocess error
    of a later series raises before an estimate error of an earlier one. The
    matrix pencil fits equal-length series as one stacked batch, and
    ``pade_z`` fits them one at a time; either way a series' spectrum does
    not depend on the batch it came in.
    """
    segments = []
    with _stage("preprocess"):
        for x in series:
            segments.append(preprocess(x, cfg.preprocess))
            # residuals are reported at input scale, and an infinite one is not JSON
            if not math.isfinite(norm2(segments[-1].samples)):
                raise InputError("the signal's 2-norm overflows float64; rescale it")
    with _stage("estimate"):
        if cfg.backend not in SIGNAL_BACKENDS:
            raise ConfigError(
                "the lanczos backend estimates spectra of operators, not time series; "
                "use run_hermitian"
            )
        if cfg.backend == "matrix_pencil":
            return fit_matrix_pencil(segments, 2 * cfg.sparse.k_max, cfg.seed)
        return [_pade_z(x, cfg.pade) for x in segments]


def _atoms_from_ritz(
    tri: TridiagResult, ritz: RitzSpectrum, eta: float, k_max: int, eps: float
) -> SparseSpectrum:
    """The ``k_max`` heaviest Ritz pairs of positive weight as atoms, with the
    health record of the recurrence ``tri`` that :func:`run_hermitian` reports.

    Ritz values and weights are the nodes and weights of the Gauss
    quadrature of the start vector's spectral measure, so each pair is a
    resonance: center the Ritz value, amplitude its weight, half-width
    eta/10 (the convergence tolerance). Near pairs are not merged: the
    recurrence always runs full reorthogonalization, so it leaves no ghost
    copies, and a weighted merge of two eigenvalues closer than eta could
    sit farther than eta/10 from both.
    ``residual_norm`` is the weight the kept atoms leave out.
    """
    order = np.argsort(-ritz.weights, kind="stable")[:k_max]
    kept = order[ritz.weights[order] > 0]
    atoms = [LorentzianAtom(ritz.lambdas[i], eta / 10.0, ritz.weights[i]) for i in kept]
    residual = max(0.0, 1.0 - float(ritz.weights[kept].sum()))
    bound = float(np.max(ritz.bounds[kept[ritz.weights[kept] >= eps]], initial=0.0))
    health = FitHealth("lanczos", residual, steps=tri.k, breakdown=tri.breakdown, ritz_bound=bound)
    return SparseSpectrum.from_atoms(atoms, health)


class _stage:
    """Tag a library error escaping the block with the stage that raised it.

    A class, not a generator context manager: ``detect_anomalies`` enters a
    stage about four times per window.
    """

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind, exc, traceback) -> bool:
        if isinstance(exc, SpecLogicError) and exc.stage is None:
            exc.stage = self.name
        return False  # the exception, if any, propagates unchanged


def _finish(
    atoms: SparseSpectrum, cfg: PipelineConfig, ruleset: RuleSet, diagnostics: dict
) -> RunResult:
    with _stage("project"):
        predicates = project(atoms, cfg.binning)
    with _stage("infer"):
        derived, trace = infer(ruleset, predicates)
    diagnostics["project"] = {"predicates": len(predicates.names)}
    diagnostics["infer"] = {"firings": len(trace), "derived": len(derived.names)}
    return RunResult(atoms, predicates, derived, trace, diagnostics)


def run(x: TimeSeries, cfg: PipelineConfig, estimate: SparseSpectrum | None = None) -> RunResult:
    """Execute the full pipeline on a time series.

    With ``estimate``, the spectrum, health record and all, that
    :func:`estimate_spectra` gave for ``x`` (see :func:`detect_anomalies`),
    the run neither preprocesses nor estimates ``x`` and gives the result a
    run without it would. A spectrum whose record names no back-end, such as one
    read from JSON, came from no fit, and one that another back-end than
    ``cfg.backend`` fitted is not this run's estimate; either raises
    :class:`InputError`.
    """
    with _stage("rules"):
        ruleset = cfg.load_ruleset()
    with _stage("estimate"):
        if estimate is None:
            (estimate,) = estimate_spectra([x], cfg)
        elif estimate.health.backend is None:
            raise InputError("the estimate carries no fit's health record; pass a fitted spectrum")
        elif estimate.health.backend != cfg.backend:
            raise InputError(
                f"the estimate was fitted by {estimate.health.backend}, "
                f"but the config's backend is {cfg.backend}"
            )
    diagnostics = {"preprocess": {"samples": len(x)}, "estimate": estimate.health.to_dict()}
    return _finish(estimate, cfg, ruleset, diagnostics)


def run_hermitian(op: HermitianOp, q1, cfg: PipelineConfig) -> RunResult:
    """Execute the pipeline on a symmetric operator (lanczos back-end only).

    Preprocessing does not apply; the Krylov start vector plays the role of
    the signal. ``diagnostics["estimate"]`` reports the Lanczos ``steps``,
    ``breakdown``, ``residual_norm`` (the spectral weight of q1 the kept
    atoms leave out, 0 when they hold all of it) and ``ritz_bound`` (the
    largest Paige bound over kept atoms of amplitude at least
    ``binning.negligible_eps``; 0 when there are none).
    """
    if cfg.backend != "lanczos":
        raise ConfigError(
            f"run_hermitian requires the lanczos backend, config says {cfg.backend!r}"
        )
    with _stage("rules"):
        ruleset = cfg.load_ruleset()
    k, eta, eps = cfg.lanczos.k, cfg.lanczos.eta, cfg.binning.negligible_eps
    # k unset: stop once the non-negligible Ritz pairs converge, capped at dim
    steps, ritz_tol = (op.dim, eta / 10.0) if k is None else (k, None)
    with _stage("estimate"):
        tri = lanczos_tridiag(op, q1, steps, ritz_tol=ritz_tol, min_weight=eps)
    with _stage("estimate_eigen"):
        ritz = tridiag_eigen(tri)
    with _stage("decompose"):
        atoms = _atoms_from_ritz(tri, ritz, eta, cfg.sparse.k_max, eps)
    return _finish(atoms, cfg, ruleset, {"estimate": atoms.health.to_dict()})


def detect_anomalies(
    x: TimeSeries,
    cfg: PipelineConfig,
    window: int,
    stride: int,
    alert_head: str,
) -> list[tuple[int, RunResult]]:
    """Run the pipeline over sliding windows; keep those deriving the alert.

    Window starts are 0, stride, 2*stride, ... up to len(x)-window; every
    index reachable by the stride is examined. Returns (start, result)
    pairs, ordered by start, for windows whose derived facts contain
    ``alert_head``. The head must be a predicate that some configured rule
    mentions (so never a malformed name), else :class:`InputError`: a
    misspelt head would otherwise read as "no anomaly".

    With either back-end, windows go in chunks whose pencil Hankel stack
    holds at most ``DETECT_CHUNK_ELEMENTS`` entries (at least one window).
    A chunk's windows are all preprocessed, then estimated in one batch
    step, so a preprocess error of a later window raises before an estimate
    error of an earlier one. Each window's result equals :func:`run` on it.
    """
    n = len(x)
    if not 2 <= window <= n:
        raise InputError(f"window must be in [2, {n}], got {window}")
    if stride < 1:
        raise InputError(f"stride must be positive, got {stride}")
    with _stage("rules"):
        ruleset = cfg.load_ruleset()
    if alert_head not in ruleset.predicates():
        raise InputError(f"no configured rule mentions the alert head {alert_head!r}")
    starts = range(0, n - window + 1, stride)
    # a window's Hankel matrix in the pencil is (window - L) x (L + 1), L = window // 2
    per_chunk = max(1, DETECT_CHUNK_ELEMENTS // ((window - window // 2) * (window // 2 + 1)))
    flagged = []
    for first in range(0, len(starts), per_chunk):
        chunk = starts[first : first + per_chunk]
        segments = [TimeSeries(x.samples[s : s + window], x.dt, x.label) for s in chunk]
        for start, segment, estimate in zip(chunk, segments, estimate_spectra(segments, cfg)):
            result = run(segment, cfg, estimate)
            if alert_head in result.derived.names:
                flagged.append((start, result))
    return flagged
