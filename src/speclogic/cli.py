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
import contextlib
import json
import os
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
from .pipeline import SIGNAL_BACKENDS, PipelineConfig, detect_anomalies, estimate_spectra, run
from .rules import infer, parse_rules
from .signal import (
    TimeSeries,
    load_timeseries_csv,
    load_timeseries_json,
    read_json,
    read_text,
    save_timeseries_csv,
    unit_scale,
    write_csv,
)
from .sparse import SparseSpectrum, eval_spectrum
from .symbolic import SymbolSet, project


def _load_signal(path: str) -> TimeSeries:
    if path.endswith(".json"):
        return load_timeseries_json(path)
    return load_timeseries_csv(path)


def _load_config(args) -> PipelineConfig:
    """The ``--config`` file (or the built-in one) with the ``--backend``,
    ``--rules`` and ``--seed`` overrides of the subcommands that take them."""
    cfg = PipelineConfig.from_dict(read_json(args.config)) if args.config else reference_config()
    overrides = {}
    if getattr(args, "backend", None):
        overrides["backend"] = args.backend
    if getattr(args, "rules", None):
        overrides["rules_text"] = read_text(args.rules)
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    return replace(cfg, **overrides)


def _write(text: str, out: str | None) -> None:
    """``text`` and a newline to the file ``out``, or to stdout when it is None."""
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _emit(payload, out: str | None) -> None:
    """``payload`` as JSON, keys sorted and indented: every JSON the CLI writes but ``run``'s."""
    _write(json.dumps(payload, indent=2, sort_keys=True), out)


@contextlib.contextmanager
def _claimed(*paths: str | None):
    """Open each output path (a None, for stdout, is skipped) for appending,
    which changes no existing file, before the block writes any, and remove
    the files this made when the block fails: a path that cannot be written
    leaves no new output file behind. The block writes through the paths
    themselves, so a symlink, a device or an existing file's mode is kept."""
    made = []
    try:
        for path in paths:
            if path:
                existed = os.path.lexists(path)
                open(path, "a").close()
                if not existed:
                    made.append(path)
        yield
    except BaseException:
        for path in made:
            Path(path).unlink(missing_ok=True)
        raise


def _cmd_estimate(args) -> int:
    if not 2 <= args.grid_points <= MAX_POINTS:
        raise InputError(f"--grid-points must lie in [2, {MAX_POINTS}], got {args.grid_points}")
    (spectrum,) = estimate_spectra([_load_signal(args.input)], _load_config(args))
    spectrum_out, atoms_out = args.spectrum_out, args.atoms_out
    with _claimed(spectrum_out, atoms_out):
        # the spectrum first, so a range past float64 prints no atoms
        if spectrum_out:
            atoms = spectrum.atoms
            lo, hi, scale = 0.0, 1.0, 1.0
            if atoms:
                # the range at unit scale, so no bound overflows at any dt; the division is exact
                scale = unit_scale(np.array([(a.omega, a.gamma) for a in atoms]))
                pad = 10 * max(a.gamma / scale for a in atoms)
                lo = min(a.omega / scale for a in atoms) - pad
                hi = max(a.omega / scale for a in atoms) + pad
            if np.isinf(max(-lo, hi) * scale):
                raise InputError("the spectrum's frequency range overflows float64")
            grid = np.linspace(lo, hi, args.grid_points) * scale
            write_csv(spectrum_out, "omega,S", grid, eval_spectrum(spectrum, grid))
        _emit(spectrum.to_dict(), atoms_out)
    return 0


def _cmd_project(args) -> int:
    cfg = _load_config(args)
    atoms = SparseSpectrum.from_dict(read_json(args.atoms))
    predicates = project(atoms, cfg.binning)
    _emit(predicates.to_json(), args.out)
    return 0


def _cmd_reason(args) -> int:
    rules = parse_rules(read_text(args.rules))
    names = read_json(args.facts)
    if not (isinstance(names, list) and all(isinstance(n, str) for n in names)):
        raise InputError(f"{args.facts}: expected a JSON list of predicate names")
    facts = SymbolSet.from_names(names)
    derived, trace = infer(rules, facts)
    _emit(derived.to_json(), args.out)
    if args.trace_out:
        _emit(trace.to_json(), args.trace_out)
    return 0


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    _write(run(_load_signal(args.input), cfg).to_json(), args.out)
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
    series, label = synth_oscillator(args.regime, n=args.n, noise_sigma=args.noise, seed=args.seed)
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
        _emit(meta, args.meta_out)
    return 0


def _cmd_bench(args) -> int:
    cfg = PipelineConfig.from_dict(read_json(args.config)) if args.config else None
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
    p.add_argument("--rules", help="override: rule file, read as the config's rules_text")
    add_common(p)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("detect", help="sliding-window anomaly detection")
    p.add_argument("--input", required=True)
    p.add_argument("--window", type=int, required=True)
    p.add_argument("--stride", type=int, required=True)
    p.add_argument("--alert", required=True, help="alerting head predicate")
    p.add_argument("--out")
    p.add_argument("--rules", help="override: rule file, read as the config's rules_text")
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
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
