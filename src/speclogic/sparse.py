"""Sparse Lorentzian decomposition of spectra.

The working model is a sum of amplitude-normalized Lorentzian atoms

    S(w) = sum_k amp_k * gamma_k^2 / ((w - omega_k)^2 + gamma_k^2)

so each atom peaks at exactly ``amp`` at its center and reaches half
maximum at omega +- gamma. Atom parameters are estimated two ways:
directly from discrete-time poles (:func:`atoms_from_poles`), or from raw
time samples via a Hankel matrix pencil (:func:`fit_matrix_pencil`), which
maps its modes by the same keep rule.

Pole mapping convention: a discrete-time mode c * z^n with z = exp((-gamma
+ i*omega)*dt) maps to omega = arg(z)/dt, gamma = -ln|z|/dt and amp =
|c|/gamma, which makes the atom's peak equal the mode's contribution to the
amplitude spectrum. Residues fed to :func:`atoms_from_poles` are therefore
the per-mode coefficients c, not transfer-function residues.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from numpy.linalg._umath_linalg import qr_r_raw, qr_reduced, svd_s

from .errors import ConvergenceError, InputError, NumericError
from .pade import PoleSet
from .signal import EPS, TimeSeries, eigenvalues, json_numbers, lapack_errstate, norm2, unit_scale

#: Longest series the pencil fits. Its Hankel copy holds n**2/4 floats: a run of 32768
#: samples took 6 s at 2.1 GB peak RSS (reference_config, one BLAS thread, 2-core x86_64).
MAX_PENCIL_SAMPLES = 2**15

#: Sketch columns beyond ``max_modes`` in the pencil's randomized range finder.
#: Halko, Martinsson & Tropp (SIAM Rev. 2011, Cor. 10.10) bound the expected
#: error of a rank-k fit with p extra columns and q power iterations on an
#: m x n matrix by sigma_{k+1} times
#: [1 + sqrt(k/(p-1)) + e*sqrt(k+p)/p * sqrt(min(m, n) - k)]^(1/(2q+1)).
#: At k = 6 and q = 2, p = 10 -> 5 moves that factor from 1.75 to 1.93 on a
#: 384-sample run's 192 x 193 Hankel matrix and from 1.59 to 1.74 on a
#: 128-sample window's 64 x 65. Benchmark accuracy, run_benchmark(160, sigma,
#: seed 7 and 8, n), mean of the two seeds, p = 10 -> 5:
#:
#:     n \ sigma   0.05           0.3            0.5            1.0
#:     128        0.934 -> 0.934 0.641 -> 0.656 0.500 -> 0.531 0.331 -> 0.347
#:     384        1.000 -> 1.000 0.950 -> 0.959 0.897 -> 0.894 0.675 -> 0.703
SKETCH_OVERSAMPLE = 5

#: tau of the pencil's order rule (see :func:`_noise_floor_order`): direction
#: r+1 is kept while sigma_{r+1} > tau * noise * (sqrt(m) + sqrt(k)). That
#: edge is Marchenko-Pastur's for an m x k matrix of white noise, and the
#: threshold idea Gavish & Donoho's (IEEE Trans. Inf. Theory 2014); the noise
#: of a Hankel matrix repeats along its anti-diagonals and its edge lies
#: higher, so tau is calibrated. Benchmark accuracy, run_benchmark(160,
#: sigma, seed 7 and 8, n), mean of the two seeds, and the pass rate of 32
#: shifted and 32 stationary criterion-10 detect streams with white noise:
#:
#:     tau    n=128: sigma 0.3  1.0   n=384: sigma 0.5  1.0   detect: sigma 0.05  0.1
#:     1.0           0.663  0.450            0.909  0.728              0.281  0.109
#:     1.25          0.672  0.481            0.919  0.797              0.828  0.766
#:     1.5           0.669  0.453            0.928  0.784              1.000  0.891
#:     1.75          0.666  0.409            0.925  0.725              1.000  0.891
#:     2.0           0.666  0.372            0.916  0.637              1.000  0.844
#:
#: Below 1.5 noise directions raise false alarms in detect; above it genuine
#: modes fall under the cut at high noise.
ORDER_THRESHOLD = 1.5

#: The Hankel energy outside the leading directions is floored at this many
#: times eps * ||H||_F^2: on a clean input it cancels to rounding, or below 0,
#: and rounding directions would clear that floor. At 16 no direction below
#: about 1.3e-8 ||H||_F is kept on a 384-sample run's 192 x 193 Hankel matrix,
#: 2.3e-8 on a 128-sample window's 64 x 65; multiples from 1 to 64 leave
#: every test's result the same, and 0 keeps rounding directions.
ROUNDING_FLOOR = 16

#: Power iterations of the pencil's randomized range finder.
POWER_ITERATIONS = 2

#: Gaussian test matrices of at most this many floats are drawn once per
#: key and kept (see :func:`_test_matrix`); larger ones, which only long
#: series use, are drawn on each fit.
MAX_CACHED_TEST_ENTRIES = 2**16

#: Poles with modulus at or above this become no atom: they grow, or decay by
#: under 1e-6 per sample, 200x below the weakest benchmark damping (gamma*dt =
#: 2e-4). So a constant, Nyquist alternation or ramp keeps no atom.
UNSTABLE_MODULUS = 1.0 - 1e-6


@dataclass(frozen=True)
class LorentzianAtom:
    """Single resonance: center ``omega`` (rad/s), half-width ``gamma`` (1/s),
    peak amplitude ``amp``."""

    omega: float
    gamma: float
    amp: float

    def __post_init__(self):
        for name in ("omega", "gamma", "amp"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not math.isfinite(self.omega):
            raise InputError(f"omega must be finite, got {self.omega}")
        if not (self.gamma > 0 and math.isfinite(self.gamma)):
            raise InputError(f"gamma must be positive and finite, got {self.gamma}")
        if not (self.amp > 0 and math.isfinite(self.amp)):
            raise InputError(f"amp must be positive and finite, got {self.amp}")


class FitHealth(NamedTuple):
    """A fit's report on itself: each back-end fills the fields that name it;
    the rest are None. ``backend`` None marks a record no fit produced: that
    of a spectrum read from JSON, built by :meth:`SparseSpectrum.from_atoms`
    or mapped by :func:`atoms_from_poles`."""

    backend: str | None
    residual_norm: float
    dropped: int | None = None  # matrix_pencil, pade_z
    auto: bool | None = None  # pade_z
    orders: tuple[int, int] | None = None  # pade_z: (m, n)
    multiple_poles: bool | None = None  # pade_z
    converged: bool | None = None  # pade_z with auto: whether the rank rule found its floor
    steps: int | None = None  # lanczos
    breakdown: bool | None = None  # lanczos
    ritz_bound: float | None = None  # lanczos: see pipeline.run_hermitian

    def to_dict(self) -> dict:
        """The fields that are not None, ``orders`` as a list: ``diagnostics["estimate"]``."""
        items = zip(self._fields, self)
        return {k: list(v) if k == "orders" else v for k, v in items if v is not None}


@dataclass(frozen=True, eq=False)
class SparseSpectrum:
    """Atoms sorted by center frequency plus the producing fit's :class:`FitHealth`.

    ``residual_norm`` and ``dropped`` read that record. ``residual_norm`` is
    what the fit left unexplained: for a signal, the 2-norm of the samples
    minus the kept modes; for a Ritz spectrum, the share of the start
    vector's spectral weight the kept atoms leave out; 0 without a target.
    ``dropped`` counts candidate modes discarded as growing, undamped or
    amplitude-free, 0 where the record holds None. A spectrum read from JSON
    holds ``FitHealth(None, residual_norm)``.
    """

    atoms: tuple[LorentzianAtom, ...]
    health: FitHealth = FitHealth(None, 0.0)
    converged = True  # not a field: no producer iterates, and the benchmark reads it

    def __post_init__(self):
        atoms = tuple(self.atoms)
        object.__setattr__(self, "atoms", atoms)
        if not self.residual_norm >= 0:
            raise InputError("residual_norm must be nonnegative")
        for prev, cur in zip(atoms, atoms[1:]):
            if cur.omega < prev.omega:
                raise InputError("atoms must be sorted by omega")

    def __len__(self) -> int:
        return len(self.atoms)

    @property
    def residual_norm(self) -> float:
        return self.health.residual_norm

    @property
    def dropped(self) -> int:
        return self.health.dropped or 0

    @classmethod
    def from_atoms(
        cls, atoms: Sequence[LorentzianAtom], health: FitHealth = FitHealth(None, 0.0)
    ) -> "SparseSpectrum":
        """Sort atoms by (omega, gamma). Close atoms are all kept: a fixed
        merge tolerance would depend on the input's scale, and each producer
        already collapses what is one resonance (a conjugate partner in
        :func:`atoms_from_poles`)."""
        ordered = sorted(atoms, key=lambda at: (at.omega, at.gamma))
        return cls(tuple(ordered), health)

    def to_dict(self) -> dict:
        return {
            "atoms": [
                {"omega": at.omega, "gamma": at.gamma, "amp": at.amp} for at in self.atoms
            ],
            "residual_norm": self.residual_norm,
        }

    @classmethod
    def from_dict(cls, record: dict) -> "SparseSpectrum":
        """Inverse of :meth:`to_dict`; every value must be a JSON number."""
        try:
            params = [(a["omega"], a["gamma"], a["amp"]) for a in record["atoms"]]
            residual = record.get("residual_norm", 0.0)
            if not json_numbers([residual, *(v for p in params for v in p)]):
                raise TypeError("atom parameters and residual_norm must be numbers")
            atoms = [LorentzianAtom(*p) for p in params]
            return cls.from_atoms(atoms, FitHealth(None, float(residual)))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"bad sparse-spectrum record: {exc}") from None


def eval_spectrum(sp: SparseSpectrum, omega):
    """Evaluate the Lorentzian sum at scalar or array ``omega``, each atom with
    ``w - omega_k`` and ``gamma_k`` divided by :func:`unit_scale` of ``gamma_k``
    and ``amp_k`` by its own: no square overflows or vanishes at any ``dt``, and
    the exact divisions leave every rounding at ordinary scale unchanged."""
    w = np.asarray(omega, dtype=float)
    total = np.zeros_like(w, dtype=float)
    with np.errstate(over="ignore", under="ignore"):  # a far point overflows to a value of 0
        for at in sp.atoms:
            s, t = unit_scale(at.gamma), unit_scale(at.amp)
            u, g = (w - at.omega) / s, at.gamma / s
            total = total + at.amp / t * g**2 / (u**2 + g**2) * t
    if np.isscalar(omega) or getattr(omega, "ndim", 0) == 0:
        return float(total)
    return total


def _pole_atom(
    z: complex, res: complex, dt: float, scale: float
) -> tuple[float, float, float] | None:
    """(omega, gamma, amp) of the atom pole ``z`` with unit-scale residue
    ``res`` maps to, or None when it maps to none: |z| >= UNSTABLE_MODULUS,
    |z| < 1e-12, or an amplitude that is zero or not finite at input scale.
    An amplitude finite at unit scale that overflows only at input scale
    comes back as inf."""
    mod = abs(z)
    if mod >= UNSTABLE_MODULUS or mod < 1e-12:
        return None
    gamma = -math.log(mod) / dt
    amp = float(abs(res)) * scale / gamma  # Python floats: an overflow gives inf, no warning
    scale_overflow = amp == math.inf and math.isfinite(float(abs(res)) / gamma)
    if not scale_overflow and (amp <= 0 or not math.isfinite(amp)):
        return None
    return math.atan2(z.imag, z.real) / dt, gamma, amp


def _keep_rule(
    poles: np.ndarray, residues: np.ndarray, dt: float, scale: float
) -> tuple[list[LorentzianAtom], np.ndarray, int]:
    """The keep rule over the unit-scale modes c_k * z_k^n: the atoms, the
    mask of kept modes, and the drop count.

    :func:`_pole_atom` judges each mode once. A kept mode with Im z >= 0
    becomes an atom; its conjugate partner of a real signal makes no atom of
    its own, but is a kept mode or not by its own judgement. Each mode with
    Im z >= 0 that becomes no atom counts as dropped. A mode whose amplitude
    overflows only at input scale fails the whole fit: the other modes were
    fitted alongside it and do not explain the input without it. Then every
    mode is dropped.
    """
    params = [_pole_atom(z, res, dt, scale) for z, res in zip(poles, residues)]
    if any(p is not None and math.isinf(p[2]) for p in params):
        params = [None] * len(params)
    kept = np.array([p is not None for p in params], dtype=bool)
    partner = poles.imag < 0  # represented by its Im z > 0 twin
    atoms = [LorentzianAtom(*p) for p, twin in zip(params, partner) if p is not None and not twin]
    return atoms, kept, int(np.count_nonzero(~partner & ~kept))


def _residual_norm(diff: np.ndarray, scale: float) -> float:
    """``scale * ||diff||``, the residual at input scale of a unit-scale
    difference, or a :class:`NumericError` when it overflows float64."""
    residual = norm2(diff) * scale  # Python floats: an overflow gives inf
    if not math.isfinite(residual):
        raise NumericError("the fit residual overflows float64 at the input's scale")
    return residual


def atoms_from_poles(
    modes: PoleSet, dt: float, samples: np.ndarray | None = None, scale: float = 1.0
) -> SparseSpectrum:
    """Map discrete-time modes c_k * z_k^n to Lorentzian atoms by the keep
    rule of :func:`_keep_rule`, which :func:`fit_matrix_pencil` shares.

    ``modes`` and ``samples`` are the input divided by ``scale`` (see
    :func:`unit_scale`); amplitudes and the residual come back at input
    scale. Given the ``samples``, ``residual_norm`` is scale * ||samples -
    sum of kept modes (with partners)||: the input's norm when every mode is
    dropped, 0 without samples, and a :class:`NumericError` when it
    overflows float64. The spectrum's :class:`FitHealth` holds the residual
    and the drop count, and no ``backend``: these modes came from no fit of
    this function.
    """
    if not dt > 0:
        raise InputError(f"dt must be positive, got {dt}")
    atoms, kept, dropped = _keep_rule(modes.poles, modes.residues, dt, scale)
    residual = 0.0
    if samples is not None:
        model = np.vander(modes.poles[kept], samples.size, increasing=True).T @ modes.residues[kept]
        residual = _residual_norm(samples - model, scale)
    return SparseSpectrum.from_atoms(atoms, FitHealth(None, residual, dropped))


@functools.lru_cache(maxsize=8)
def _test_matrix(rows: int, width: int, seed: int) -> np.ndarray:
    """The range finder's Gaussian test matrix (rows, width), drawn from
    ``seed``; read-only, since the cache hands one array to every fit with
    its key.

    The cache holds at most 8 matrices, and :func:`_leading_svd` bypasses it
    for one of more than MAX_CACHED_TEST_ENTRIES floats, so it holds at most
    4 MiB at any length. At MAX_PENCIL_SAMPLES a test matrix has 16385 rows:
    it is cached only up to width 3 (384 KiB), and a wider one is drawn on
    each fit, a few ms of a fit that takes seconds.
    """
    test = np.random.default_rng(seed).standard_normal((rows, width))
    test.flags.writeable = False
    return test


def _orthonormal(a: np.ndarray) -> np.ndarray:
    """Q of the thin QR factorization of each matrix of the stack ``a``,
    which LAPACK overwrites with its Householder vectors."""
    return qr_reduced(a, qr_r_raw(a))


def _min_norm_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.linalg.pinv(a, rtol=None) @ b`` by ``pinv``'s own steps, bit for
    bit: ``svd_s`` of ``a.conj()``, then 1/s above eps * max(a.shape[-2:]) *
    max(s), taken with ``initial=0`` for the empty s of an order-0 stack.
    Unlike ``pinv``'s, the cutoff is floored at the smallest normal float, so
    a subnormal max(s) is cut, not inverted to an overflow; a product that
    still overflows gives inf or nan entries, without a warning."""
    with lapack_errstate():
        u, s, vt = svd_s(a.conj(), signature="D->DdD" if a.dtype == complex else "d->ddd")
    with np.errstate(over="ignore", invalid="ignore"):
        cutoff = max(a.shape[-2:]) * EPS * s.max(axis=-1, keepdims=True, initial=0)
        large = s > np.maximum(cutoff, sys.float_info.min)
        np.divide(1, s, where=large, out=s)
        s[~large] = 0
        return np.matmul(vt.mT, s[..., None] * u.mT) @ b


def _leading_svd(hank: np.ndarray, width: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Leading ``width`` singular values and right singular vectors of each
    matrix of the stack ``hank`` (W, m, k) by a randomized range finder with
    power iterations (Halko, Martinsson & Tropp, SIAM Rev. 2011, Alg. 4.4).

    Every matrix of the stack meets the same Gaussian test matrix, drawn
    from ``seed`` (see :func:`_test_matrix`); the pencil sizes it
    ``max_modes + SKETCH_OVERSAMPLE`` columns wide. Every product with a
    matrix or its transpose is re-orthonormalized, so singular values far
    below sigma_1 survive the power iterations. The last SVD is of the tall
    product H^T Q (k x width), the transpose of Q^T H: its left singular
    vectors are the right singular vectors of H within the sketched range,
    and it costs less than the SVD of the wide Q^T H. When ``width`` reaches
    ``min(m, k)`` the sketch spans the whole range and the result is the
    exact thin SVD.

    The QR factorizations and the SVD call ``qr_r_raw``, ``qr_reduced`` and
    ``svd_s``, the LAPACK gufuncs that ``np.linalg.qr`` and
    ``np.linalg.svd(full_matrices=False)`` call, on the inputs those would
    pass them, so the results are the wrappers' bit for bit, without their
    input copy or the R factor ``qr`` builds. ``qr_r_raw`` overwrites its
    input, so it only gets a product just formed here, never ``hank``. Each
    stacked call runs the 2-d routine on each matrix, so each result equals
    that of the matrix alone, bit for bit.
    """
    rows = hank.shape[2]
    draw = _test_matrix if rows * width <= MAX_CACHED_TEST_ENTRIES else _test_matrix.__wrapped__
    test = draw(rows, width, seed)
    hank_t = np.swapaxes(hank, 1, 2)
    with lapack_errstate():
        q = _orthonormal(hank @ test)
        for _ in range(POWER_ITERATIONS):
            q = _orthonormal(hank_t @ q)
            q = _orthonormal(hank @ q)
        u, sv, _ = svd_s(hank_t @ q)
    return sv, np.swapaxes(u, 1, 2)


def _noise_floor_order(s: np.ndarray, svs: np.ndarray, pencil: int) -> np.ndarray:
    """Model order of each window of ``s`` (W, n), whose (n - pencil, pencil +
    1) Hankel matrix H, or H with its columns reversed, has the leading
    singular values ``svs`` (W, width): the number of leading directions r+1
    with

        sigma_{r+1} > ORDER_THRESHOLD * noise(r+1) * (sqrt(m) + sqrt(k)),
        noise(r+1)^2 = (||H||_F^2 - sum_{i <= r+1} sigma_i^2) / ((m-r-1)(k-r-1)),

    before the first that fails; a direction with (m-r-1)(k-r-1) = 0 leaves
    no energy to judge it by and is kept. The noise is read from outside the
    candidate direction too, or at r = 0 the whole signal would count as
    noise. ||H||_F^2 is a weighted sum of squared samples, sample j lying on
    min(j+1, n-j, m, k) entries, so no further SVD is needed.
    The outside energy is floored at ROUNDING_FLOOR * eps * ||H||_F^2.
    """
    n = s.shape[1]
    m, k = n - pencil, pencil + 1
    j = np.arange(n)
    energy = (s * s) @ np.minimum(np.minimum(j + 1, n - j), min(m, k))
    sq = svs * svs
    floor = ROUNDING_FLOOR * EPS * energy[:, None]
    outside = np.maximum(energy[:, None] - np.cumsum(sq, axis=1), floor)
    r1 = np.arange(1, svs.shape[1] + 1)
    dof = (m - r1) * (k - r1)
    edge = ORDER_THRESHOLD * (math.sqrt(m) + math.sqrt(k))
    # sigma > edge * sqrt(outside / dof), squared and times dof, so dof = 0 divides nothing
    keep = (sq * dof > edge * edge * outside) | (dof == 0)
    return np.logical_and.accumulate(keep, axis=1).sum(axis=1)


def fit_matrix_pencil(
    x: TimeSeries | Sequence[TimeSeries],
    max_modes: int,
    seed: int = 0,
) -> SparseSpectrum | list[SparseSpectrum]:
    """Estimate damped modes from time samples by the Hankel matrix pencil.

    ``x`` is one series, or a sequence of equal-length windows fitted as one
    stacked batch; the result is one spectrum, or a list with one per
    window. A window's spectrum does not depend on the batch it came in: a
    single series is a batch of one on the same kernel.

    ``max_modes`` bounds the number of discrete-time poles (an oscillatory
    atom consumes a conjugate pair, i.e. two). The leading singular triplets
    of the Hankel matrix come from a randomized range finder of width
    ``max_modes + SKETCH_OVERSAMPLE`` whose Gaussian test matrix is drawn
    from ``seed``, so equal seeds give identical output (see
    :func:`_leading_svd`). The model order, capped at ``max_modes``, is read
    from each window's own noise floor by :func:`_noise_floor_order`: a
    leading direction is kept while its singular value clears
    ORDER_THRESHOLD times the Marchenko-Pastur edge of the Hankel energy
    left outside it, so clean and noisy inputs need no tuned cutoff.
    Amplitudes come from the least-squares Vandermonde solve, and
    :func:`_keep_rule`, the keep rule of :func:`atoms_from_poles`, maps the
    modes to atoms.

    The windows of a batch are grouped by model order, and each group makes
    one stacked call per step: the shift matrix and the Vandermonde
    coefficients come from :func:`_min_norm_solve` and the poles from
    :func:`~speclogic.signal.eigenvalues`, with the results of
    ``np.linalg.pinv`` and ``np.linalg.eigvals``. The residuals come from
    the group's Vandermonde stack too: one stacked product with the
    coefficients, those of the modes the keep rule drops set to 0, gives
    each window's sum of kept modes. Each stacked call runs the 2-d routine
    on each matrix, so a window's result is the same in any group.

    The samples are divided by :func:`unit_scale` before any product is
    formed, so the fit is scale invariant; amplitudes and the residual norm
    are at the input's scale, as in :func:`atoms_from_poles`, and each
    spectrum's :class:`FitHealth` holds its residual and drop count. A LAPACK
    routine that fails, or a shift matrix that overflows, raises
    :class:`~speclogic.errors.ConvergenceError`.
    """
    single = isinstance(x, TimeSeries)
    windows = [x] if single else list(x)
    if not windows:
        raise InputError("need at least one window")
    n = len(windows[0])
    if any(len(w) != n for w in windows):
        raise InputError("windows of one batch must have equal length")
    if max_modes < 1:
        raise InputError(f"max_modes must be positive, got {max_modes}")
    if seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}")
    if n > MAX_PENCIL_SAMPLES:
        raise InputError(f"the matrix pencil fits at most {MAX_PENCIL_SAMPLES} samples, got {n}")
    if n < 2 * max_modes + 2:
        raise InputError(
            f"need at least {2 * max_modes + 2} samples for {max_modes} modes, got {n}"
        )
    # each window over its unit_scale, bit for bit, in one pass
    s = np.array([w.samples for w in windows])
    peak = np.max(np.abs(s), axis=1)
    scales = np.where(peak > 0, np.ldexp(1.0, np.frexp(peak)[1] - 1), 1.0)
    np.divide(s, scales[:, None], out=s)
    scales = scales.tolist()  # Python floats: an overflow at input scale gives inf, no warning

    pencil = n // 2
    # hank[i, r, c] = s[i, r + c], the (n-L, L+1) Hankel matrix of each window:
    # one copy of a strided view of s. as_strided and sliding_window_view make
    # the same view, but their argument checks take 2.9 us against 0.4 us for
    # np.ndarray (2-core x86_64, numpy 2.4).
    step = s.strides[1]
    hank = np.ndarray(
        (len(windows), n - pencil, pencil + 1), float, s, 0, (s.strides[0], step, step)
    ).copy()
    width = min(max_modes + SKETCH_OVERSAMPLE, n - pencil, pencil + 1)
    svs, vhs = _leading_svd(hank, width, seed)
    orders = np.minimum(_noise_floor_order(s, svs, pencil), min(max_modes, pencil))

    fits = [None] * len(windows)
    for order in sorted(set(orders.tolist())):  # np.unique would load numpy.ma
        group = np.flatnonzero(orders == order)
        v = vhs[group, :order].mT
        shift = _min_norm_solve(v[:, :pencil], v[:, 1:])
        if not np.isfinite(shift).all():
            raise ConvergenceError("the pencil's shift matrix overflows float64")
        z = eigenvalues(shift)

        # Artifact poles with exploding powers stay out of the Vandermonde
        # solve as zero columns and get coefficient 0; the keep rule drops
        # them. The products are np.vander's: 1, z, z*z, (z*z)*z, ...
        solved = np.abs(z) < 1.05
        vand = np.empty((group.size, n, order), dtype=complex)
        vand[:, 0] = solved
        vand[:, 1:] = np.where(solved, z, 0)[:, None]
        np.multiply.accumulate(vand[:, 1:], axis=1, out=vand[:, 1:])
        coeffs = _min_norm_solve(vand, s[group, :, None])
        coeffs = np.where(solved, coeffs[:, :, 0], 0)
        keeps = [
            _keep_rule(zi, ci, windows[i].dt, scales[i]) for i, zi, ci in zip(group, z, coeffs)
        ]
        # one stacked product gives each window's sum of kept modes, with the
        # coefficients of the modes the keep rule drops set to 0
        kept = np.array([mask for _, mask, _ in keeps], dtype=bool)
        models = vand @ np.where(kept, coeffs, 0)[:, :, None]
        for i, (atoms, _, dropped), model in zip(group, keeps, models):
            residual = _residual_norm(s[i] - model[:, 0], scales[i])
            fits[i] = SparseSpectrum.from_atoms(atoms, FitHealth("matrix_pencil", residual, dropped))
    return fits[0] if single else fits


def lorentzian_model_jacobian(
    atoms: Sequence[LorentzianAtom], omega: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Model values and analytic Jacobian w.r.t. (omega_k, gamma_k, amp_k).

    Column order is three per atom: d/d omega, d/d gamma, d/d amp.
    """
    omega = np.asarray(omega, dtype=float)
    model = np.zeros(omega.size)
    jac = np.empty((omega.size, 3 * len(atoms)))
    for k, at in enumerate(atoms):
        diff = omega - at.omega
        den = diff**2 + at.gamma**2
        profile = at.gamma**2 / den
        model += at.amp * profile
        jac[:, 3 * k] = at.amp * at.gamma**2 * 2 * diff / den**2
        jac[:, 3 * k + 1] = 2 * at.amp * at.gamma * diff**2 / den**2
        jac[:, 3 * k + 2] = profile
    return model, jac
