"""speclogic: sparse spectral estimation feeding rule-based reasoning.

Signals become sums of Lorentzian resonances (via rational approximation,
Krylov tridiagonalization, or a matrix pencil), resonances become discrete
predicates, and predicates feed a stratified forward-chaining rule engine
that emits auditable proof traces.
"""

from .errors import (
    ConfigError,
    ConvergenceError,
    IllConditionedError,
    InputError,
    NumericError,
    RuleSyntaxError,
    SpecLogicError,
    StratificationError,
)
from .lanczos import (
    HermitianOp,
    RitzSpectrum,
    TridiagResult,
    lanczos_tridiag,
    tridiag_eigen,
)
from .pade import PoleSet, RationalApprox, extract_poles, fit_pade
from .pipeline import (
    PipelineConfig,
    RunResult,
    auto_order_sweep,
    detect_anomalies,
    run,
    run_hermitian,
)
from .benchmark import REGIME_NAMES, run_benchmark, synth_oscillator
from .rules import HornRule, ProofTrace, RuleSet, format_rules, infer, parse_rules, replay
from .signal import PreprocessConfig, TimeSeries, preprocess
from .sparse import (
    LorentzianAtom,
    SparseSpectrum,
    atoms_from_poles,
    eval_spectrum,
    fit_matrix_pencil,
)
from .symbolic import BinAxis, BinningConfig, SymbolSet, project

__version__ = "0.1.0"

__all__ = [
    "BinAxis",
    "BinningConfig",
    "ConfigError",
    "ConvergenceError",
    "HermitianOp",
    "HornRule",
    "IllConditionedError",
    "InputError",
    "LorentzianAtom",
    "NumericError",
    "PipelineConfig",
    "PoleSet",
    "PreprocessConfig",
    "ProofTrace",
    "RationalApprox",
    "REGIME_NAMES",
    "RitzSpectrum",
    "RuleSet",
    "RuleSyntaxError",
    "RunResult",
    "SparseSpectrum",
    "SpecLogicError",
    "StratificationError",
    "SymbolSet",
    "TimeSeries",
    "TridiagResult",
    "atoms_from_poles",
    "auto_order_sweep",
    "detect_anomalies",
    "eval_spectrum",
    "extract_poles",
    "fit_matrix_pencil",
    "fit_pade",
    "format_rules",
    "infer",
    "lanczos_tridiag",
    "parse_rules",
    "preprocess",
    "project",
    "replay",
    "run",
    "run_benchmark",
    "run_hermitian",
    "synth_oscillator",
    "tridiag_eigen",
]
