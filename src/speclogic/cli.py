"""Command-line interface.

Subcommands mirror the pipeline stages: ``estimate`` (signal to atoms),
``project`` (atoms to predicates), ``reason`` (facts + rules to derived
facts), ``run`` (end to end), ``detect`` (sliding-window alerts), ``synth``
(benchmark signal generation), and ``bench`` (regime classification sweep).

All outputs are deterministic JSON or CSV. Exit codes: 0 on success, 2 on
input/configuration errors, 3 on numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .benchmark import (
    MAX_POINTS,
    REGIME_NAMES,
    reference_config,
    run_benchmark,
    synth_oscillator,
)
from .errors import InputError, NumericError
from .pipeline import SIGNAL_BACKENDS, PipelineConfig, detect_anomalies, run
from .rules import infer, load_rules, save_trace_json
from .signal import (
    TimeSeries,
    load_timeseries_csv,
    load_timeseries_json,
    read_json,
    save_timeseries_csv,
)
from .sparse import eval_spectrum, load_spectrum_json, save_spectrum_json
from .symbolic import SymbolSet, project


def _load_signal(path: str) -> TimeSeries:
    if path.endswith(".json"):
        return load_timeseries_json(path)
    return load_timeseries_csv(path)


def _load_config(args) -> PipelineConfig:
    """The ``--config`` file (or the built-in one) with the ``--backend``,
    ``--rules`` and ``--seed`` overrides of the subcommands that take them."""
    cfg = PipelineConfig.from_json_file(args.config) if args.config else reference_config()
    overrides = {}
    if getattr(args, "backend", None):
        overrides["backend"] = args.backend
    if getattr(args, "rules", None):
        overrides.update(rules_path=args.rules, rules_text=None)
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    return replace(cfg, **overrides)


def _emit(payload, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _cmd_estimate(args) -> int:
    if not 2 <= args.grid_points <= MAX_POINTS:
        raise InputError(f"--grid-points must lie in [2, {MAX_POINTS}], got {args.grid_points}")
    # the atoms never depend on the rules, so a config need not name any
    cfg = replace(_load_config(args), rules_path=None, rules_text="")
    x = _load_signal(args.input)
    result = run(x, cfg)
    if args.atoms_out:
        save_spectrum_json(result.atoms, args.atoms_out)
    else:
        _emit(result.atoms.to_dict(), None)
    if args.spectrum_out:
        atoms = result.atoms
        if atoms.atoms:
            centers = [a.omega for a in atoms.atoms]
            widths = [a.gamma for a in atoms.atoms]
            lo = min(centers) - 10 * max(widths)
            hi = max(centers) + 10 * max(widths)
        else:
            lo, hi = 0.0, 1.0
        grid = np.linspace(lo, hi, args.grid_points)
        values = eval_spectrum(atoms, grid)
        rows = ["omega,S"] + [f"{float(w)!r},{float(s)!r}" for w, s in zip(grid, values)]
        Path(args.spectrum_out).write_text("\n".join(rows) + "\n")
    return 0


def _cmd_project(args) -> int:
    cfg = _load_config(args)
    atoms = load_spectrum_json(args.atoms)
    predicates = project(atoms, cfg.binning)
    _emit(predicates.to_json(), args.out)
    return 0


def _cmd_reason(args) -> int:
    rules = load_rules(args.rules)
    names = read_json(args.facts)
    if not (isinstance(names, list) and all(isinstance(n, str) for n in names)):
        raise InputError(f"{args.facts}: expected a JSON list of predicate names")
    facts = SymbolSet.from_names(names)
    derived, trace = infer(rules, facts)
    _emit(derived.to_json(), args.out)
    if args.trace_out:
        save_trace_json(trace, args.trace_out)
    return 0


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    x = _load_signal(args.input)
    result = run(x, cfg)
    payload = result.to_dict()
    if args.out:
        Path(args.out).write_text(result.to_json() + "\n")
    else:
        _emit(payload, None)
    return 0


def _cmd_detect(args) -> int:
    cfg = _load_config(args)
    x = _load_signal(args.input)
    flagged = detect_anomalies(x, cfg, args.window, args.stride, args.alert)
    payload = [
        {"window_start": start, "derived": res.derived.to_json()} for start, res in flagged
    ]
    _emit(payload, args.out)
    return 0


def _cmd_synth(args) -> int:
    series, label = synth_oscillator(
        args.regime, n=args.n, noise_sigma=args.noise, seed=args.seed
    )
    save_timeseries_csv(series, args.out)
    if args.meta_out:
        meta = {
            "regime": args.regime,
            "class": label,
            "n": args.n,
            "noise_sigma": args.noise,
            "seed": args.seed,
            "dt": series.dt,
        }
        Path(args.meta_out).write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return 0


def _cmd_bench(args) -> int:
    cfg = PipelineConfig.from_json_file(args.config) if args.config else None
    report = run_benchmark(args.samples, args.noise, seed=args.seed, cfg=cfg)
    _emit(report.to_dict(), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="speclogic",
        description="Spectral estimation, Lorentzian decomposition, and rule-based reasoning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="pipeline config JSON (defaults to the built-in)")
        p.add_argument("--backend", choices=SIGNAL_BACKENDS)
        p.add_argument("--rules", help="override: rule file path")
        p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("estimate", help="signal -> Lorentzian atoms (JSON) + spectrum CSV")
    p.add_argument("--input", required=True, help="signal CSV (t,value) or JSON {dt,samples}")
    p.add_argument("--atoms-out", help="atoms JSON path (stdout when omitted)")
    p.add_argument("--spectrum-out", help="evaluated spectrum CSV path")
    p.add_argument("--grid-points", type=int, default=512)
    add_common(p)
    p.set_defaults(fn=_cmd_estimate)

    p = sub.add_parser("project", help="atoms JSON -> predicate names")
    p.add_argument("--atoms", required=True)
    p.add_argument("--out")
    p.add_argument("--config", help="pipeline config JSON supplying the binning")
    p.set_defaults(fn=_cmd_project)

    p = sub.add_parser("reason", help="facts JSON + rules -> derived facts (+trace)")
    p.add_argument("--facts", required=True, help="JSON array of predicate names")
    p.add_argument("--rules", required=True, help="rule file")
    p.add_argument("--out")
    p.add_argument("--trace-out")
    p.set_defaults(fn=_cmd_reason)

    p = sub.add_parser("run", help="end-to-end pipeline run")
    p.add_argument("--input", required=True)
    p.add_argument("--out", help="canonical result JSON path (stdout when omitted)")
    add_common(p)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("detect", help="sliding-window anomaly detection")
    p.add_argument("--input", required=True)
    p.add_argument("--window", type=int, required=True)
    p.add_argument("--stride", type=int, required=True)
    p.add_argument("--alert", required=True, help="alerting head predicate")
    p.add_argument("--out")
    add_common(p)
    p.set_defaults(fn=_cmd_detect)

    p = sub.add_parser("synth", help="generate a benchmark oscillator signal")
    p.add_argument("--regime", required=True, choices=REGIME_NAMES)
    p.add_argument("--n", type=int, default=384)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="signal CSV path")
    p.add_argument("--meta-out", help="ground-truth metadata JSON path")
    p.set_defaults(fn=_cmd_synth)

    p = sub.add_parser("bench", help="regime classification benchmark")
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
