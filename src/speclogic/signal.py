"""Time-domain signal container, mean removal, and file ingestion.

Everything here is a pure function over immutable values; results are safe
to share between threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InputError

#: Relative tolerance used to validate uniform time spacing in CSV input.
UNIFORM_SPACING_RTOL = 1e-6


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Uniformly sampled real-valued signal.

    Parameters
    ----------
    samples : array_like
        At least two finite values.
    dt : float
        Positive sample spacing in seconds.
    label : str, optional
        Identifier carried through transformations.
    """

    samples: np.ndarray
    dt: float
    label: str | None = None

    def __post_init__(self):
        try:
            samples = np.asarray(self.samples, dtype=float)
        except (TypeError, ValueError, OverflowError):
            raise InputError("signal samples must be numbers") from None
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1 or samples.size < 2:
            raise InputError("signal must be one-dimensional with at least 2 samples")
        if not np.all(np.isfinite(samples)):
            raise InputError("signal contains non-finite samples")
        try:
            dt = float(self.dt)
        except (TypeError, ValueError):
            raise InputError(f"dt must be a number, got {self.dt!r}") from None
        if not (math.isfinite(dt) and dt > 0):
            raise InputError(f"dt must be a positive finite number, got {self.dt!r}")
        object.__setattr__(self, "dt", dt)

    def __len__(self) -> int:
        return self.samples.size

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.samples.size) * self.dt


@dataclass(frozen=True)
class PreprocessConfig:
    """Signal conditioning applied before spectral estimation.

    ``detrend`` subtracts the sample mean, so a DC offset does not take a
    mode of its own; the back-ends do their own scaling.
    """

    detrend: bool = False


def preprocess(x: TimeSeries, cfg: PreprocessConfig) -> TimeSeries:
    """Subtract the sample mean when ``cfg.detrend`` is set; otherwise ``x`` itself."""
    if not cfg.detrend:
        return x
    return TimeSeries(x.samples - x.samples.mean(), x.dt, x.label)


def autocorrelation(x: TimeSeries, max_lag: int) -> TimeSeries:
    """Unbiased sample autocorrelation for lags 0..max_lag.

    C(l) = (1/(N-l)) * sum_n x[n]*x[n+l]. The mean is not removed here;
    detrend first if that is wanted. dt is preserved so lag l maps to time
    l*dt.
    """
    n = len(x)
    if not 1 <= max_lag < n:
        raise InputError(f"max_lag must be in [1, {n - 1}], got {max_lag}")
    s = x.samples
    c = np.array([s[: n - lag] @ s[lag:] / (n - lag) for lag in range(max_lag + 1)])
    return TimeSeries(c, x.dt, x.label)


def read_text(path: str | Path) -> str:
    """The UTF-8 text of the file ``path``; other bytes are an :class:`InputError`."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc})") from None


def read_json(path: str | Path):
    """The JSON value in the UTF-8 file ``path``; text that is not JSON, or
    nests deeper than the parser's recursion limit, is an :class:`InputError`."""
    text = read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON ({exc})") from None
    except RecursionError:
        raise InputError(f"{path}: JSON nested too deeply") from None


def load_timeseries_csv(path: str | Path) -> TimeSeries:
    """Read a ``t,value`` CSV with uniform time spacing.

    Spacing is validated to relative tolerance 1e-6; non-uniform input, and
    times or steps that are not finite floats, are rejected with a
    descriptive error.
    """
    lines = read_text(path).splitlines()
    if not lines:
        raise InputError(f"{path}: empty file")
    header = [h.strip().lower() for h in lines[0].split(",")]
    if header[:2] != ["t", "value"]:
        raise InputError(f"{path}: expected header 't,value', got {lines[0]!r}")
    t, v = [], []
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) < 2:
            raise InputError(f"{path}:{i}: expected two comma-separated fields")
        try:
            t.append(float(parts[0]))
            v.append(float(parts[1]))
        except ValueError:
            raise InputError(f"{path}:{i}: non-numeric row {line!r}") from None
    if len(t) < 2:
        raise InputError(f"{path}: need at least 2 rows")
    t = np.asarray(t)
    if not np.all(np.isfinite(t)):
        raise InputError(f"{path}: time column must be finite")
    # a step past float64 reads inf (and its median or deviation inf or nan),
    # which the checks below reject
    with np.errstate(over="ignore", invalid="ignore"):
        steps = np.diff(t)
        dt = float(np.median(steps))
        deviation = np.abs(steps - dt)
    if not (np.all(np.isfinite(steps)) and math.isfinite(dt)):
        raise InputError(f"{path}: time steps overflow float64")
    if dt <= 0:
        raise InputError(f"{path}: time column must be strictly increasing")
    if np.max(deviation) > UNIFORM_SPACING_RTOL * abs(dt):
        worst = int(np.argmax(deviation))
        raise InputError(
            f"{path}: non-uniform time spacing near row {worst + 2} "
            f"(step {steps[worst]:.9g} vs median {dt:.9g})"
        )
    return TimeSeries(np.asarray(v), dt)


def save_timeseries_csv(x: TimeSeries, path: str | Path) -> None:
    """Write ``x`` as a ``t,value`` CSV readable by :func:`load_timeseries_csv`."""
    rows = ["t,value"]
    rows += [f"{float(t)!r},{float(v)!r}" for t, v in zip(x.times, x.samples)]
    Path(path).write_text("\n".join(rows) + "\n")


def load_timeseries_json(path: str | Path) -> TimeSeries:
    """Read a ``{dt, samples, label}`` JSON record."""
    record = read_json(path)
    if not isinstance(record, dict) or "dt" not in record or "samples" not in record:
        raise InputError(f"{path}: expected an object with 'dt' and 'samples'")
    return TimeSeries(record["samples"], record["dt"], record.get("label"))

