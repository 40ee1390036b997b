"""Time-domain signal container, mean removal, scale-safe sample norms, the
binder of scipy's BLAS and LAPACK routines, the one failure path of numpy's
LAPACK gufuncs, file ingestion and CSV output.

Everything here is a pure function over immutable values; results are safe
to share between threads.
"""

from __future__ import annotations

import functools
import json
import math
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.linalg._umath_linalg import eigvals

from .errors import ConvergenceError, InputError

#: Relative tolerance used to validate uniform time spacing in CSV input.
UNIFORM_SPACING_RTOL = 1e-6

#: Machine epsilon of float64, the unit of the least-squares cutoffs.
EPS = float(np.finfo(float).eps)


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


def unit_scale(samples: np.ndarray) -> float:
    """The power of two at or below max|samples|, or 1.0 when all are zero or there are none.

    Both signal back-ends fit ``samples / unit_scale(samples)``: no power of
    a 1e300 signal overflows, a 1e-300 one is not read as zero, and since the
    division is exact every rounding is the unscaled fit's at ordinary scale.
    """
    peak = float(np.max(np.abs(samples), initial=0.0))
    return 2.0 ** (math.frexp(peak)[1] - 1) if peak > 0 else 1.0


def norm2(v: np.ndarray) -> float:
    """2-norm of a real or complex vector as a Python float, inf only when
    the norm itself overflows float64, and never a floating-point warning.

    The sum of squares comes from one BLAS dot product, which overflows to
    inf silently. When that sum lies outside (1e-290, inf), squares may
    have overflowed or lost precision to underflow, so the norm is taken
    again of ``v / unit_scale(v)``, whose real and imaginary parts lie below
    2 in modulus, and multiplied back. Dividing by a power of two rounds
    only entries too small to change the norm.
    """
    sq = float(np.vdot(v, v).real)
    if 1e-290 < sq < math.inf:
        return math.sqrt(sq)
    if np.iscomplexobj(v):
        v = np.concatenate((v.real, v.imag))
    scale = unit_scale(v)
    unit = v / scale
    return math.sqrt(float(np.vdot(unit, unit))) * scale


@functools.cache
def scipy_routine(library: str, name: str):
    """The float64 routine ``name`` of scipy's ``library``, "blas" or
    "lapack", bound on its first use, so importing speclogic loads no scipy.

    BLAS routines bind as ``scipy.linalg.norm`` binds the nrm2 it calls on a
    1-d float array (``ilp64="preferred"``), so a norm taken here has its bits.
    """
    import scipy.linalg

    if library == "blas":
        return scipy.linalg.get_blas_funcs(name, dtype=np.float64, ilp64="preferred")
    return scipy.linalg.get_lapack_funcs(name, dtype=np.float64)


def nrm2(v: np.ndarray) -> float:
    """2-norm by BLAS nrm2, which scales as it sums: no overflow or underflow.
    It rounds differently from :func:`norm2`."""
    return float(scipy_routine("blas", "nrm2")(v))


def _lapack_failed(err: str, flag: int):
    """``np.errstate`` call handler: numpy's LAPACK gufuncs flag a routine
    that failed as an invalid operation, and this raises it."""
    raise ConvergenceError("a LAPACK routine did not converge")


def lapack_errstate() -> np.errstate:
    """A new ``np.errstate`` under which a failed numpy LAPACK gufunc raises
    :class:`~speclogic.errors.ConvergenceError` at its call and no other
    floating-point event is reported; no value changes. An instance can be
    entered only once, but one that decorates a function serves every call."""
    return np.errstate(
        call=_lapack_failed, invalid="call", over="ignore", divide="ignore", under="ignore"
    )


@lapack_errstate()
def eigenvalues(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of each real square matrix of ``a`` by the ``eigvals``
    gufunc (LAPACK ``dgeev``) that ``np.linalg.eigvals`` calls: complex, or
    real when every eigenvalue of the whole stack has imaginary part 0, as
    the wrapper returns them."""
    w = eigvals(a, signature="d->D")
    return w if w.imag.any() else w.real


def read_text(path: str | Path) -> str:
    """The UTF-8 text of the file ``path``; other bytes are an :class:`InputError`."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc})") from None


def _check_utf8(path: str | Path, i: int, line: str) -> None:
    """Reject line ``i`` of ``path``, read with ``surrogateescape``, if it holds
    a byte that is not UTF-8, naming the byte's position in the line."""
    try:
        line.encode("utf-8", "surrogateescape").decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}:{i}: not UTF-8 text ({exc})") from None


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


def json_numbers(values) -> bool:
    """Whether every item of ``values`` is a number as JSON has them: an int
    or a float, not a bool or a string. It checks each distinct type once."""
    return all(
        issubclass(kind, (int, float)) and not issubclass(kind, bool)
        for kind in {type(v) for v in values}
    )


def load_timeseries_csv(path: str | Path) -> TimeSeries:
    """Read a ``t,value`` CSV with uniform time spacing.

    Spacing is validated to relative tolerance 1e-6; non-uniform input, and
    times or steps that are not finite floats, are rejected with a
    descriptive error. Rows are read one line of the open file at a time
    into two float64 columns, so no more text is held than one row's. The
    text layer decodes ahead of the row being read, so bytes that are not
    UTF-8 decode to surrogates and are rejected when their line is reached.
    """
    t, v = array("d"), array("d")
    with open(path, encoding="utf-8", errors="surrogateescape") as lines:
        header = next(lines, None)
        if header is None:
            raise InputError(f"{path}: empty file")
        _check_utf8(path, 1, header)
        header = header.rstrip("\n")
        if [h.strip().lower() for h in header.split(",")][:2] != ["t", "value"]:
            raise InputError(f"{path}: expected header 't,value', got {header!r}")
        for i, line in enumerate(lines, start=2):
            if not line.isascii():
                _check_utf8(path, i, line)
            if not line.strip():
                continue
            parts = line.split(",")
            if len(parts) < 2:
                raise InputError(f"{path}:{i}: expected two comma-separated fields")
            try:
                t.append(float(parts[0]))
                v.append(float(parts[1]))
            except ValueError:
                line = line.rstrip("\n")
                raise InputError(f"{path}:{i}: non-numeric row {line!r}") from None
    if len(t) < 2:
        raise InputError(f"{path}: need at least 2 rows")
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
    return TimeSeries(v, dt)


def write_csv(path: str | Path, header: str, *columns: np.ndarray) -> None:
    """Write ``header``, then row i of the equal-length float ``columns`` as the
    ``repr`` of each value, in blocks of rows: no more text is held than one block's."""
    row = ",".join(["%r"] * len(columns)) + "\n"
    step = 2**16  # rows per block
    with open(path, "w") as f:
        f.write(header + "\n")
        for lo in range(0, len(columns[0]), step):
            f.writelines(row % v for v in zip(*[c[lo : lo + step].tolist() for c in columns]))


def save_timeseries_csv(x: TimeSeries, path: str | Path) -> None:
    """Write ``x`` as a ``t,value`` CSV readable by :func:`load_timeseries_csv`."""
    write_csv(path, "t,value", x.times, x.samples)


def load_timeseries_json(path: str | Path) -> TimeSeries:
    """Read a ``{dt, samples, label}`` JSON record: ``dt`` a number,
    ``samples`` a list of numbers and ``label``, if given, a string or null."""
    record = read_json(path)
    if not isinstance(record, dict) or "dt" not in record or "samples" not in record:
        raise InputError(f"{path}: expected an object with 'dt' and 'samples'")
    samples, dt, label = record["samples"], record["dt"], record.get("label")
    if not (isinstance(samples, list) and json_numbers(samples)):
        raise InputError(f"{path}: 'samples' must be a list of numbers")
    if not json_numbers([dt]):
        raise InputError(f"{path}: 'dt' must be a number, got {dt!r}")
    if not (label is None or isinstance(label, str)):
        raise InputError(f"{path}: 'label' must be a string or null, got {label!r}")
    return TimeSeries(samples, dt, label)

