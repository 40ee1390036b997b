"""Sparse Lorentzian decomposition of spectra.

The working model is a sum of amplitude-normalized Lorentzian atoms

    S(w) = sum_k amp_k * gamma_k^2 / ((w - omega_k)^2 + gamma_k^2)

so each atom peaks at exactly ``amp`` at its center and reaches half
maximum at omega +- gamma. Atom parameters are estimated two ways:
directly from discrete-time poles (:func:`atoms_from_poles`), or from raw
time samples via a Hankel matrix pencil (:func:`fit_matrix_pencil`), which
maps its modes through :func:`atoms_from_poles` too.

Pole mapping convention: a discrete-time mode c * z^n with z = exp((-gamma
+ i*omega)*dt) maps to omega = arg(z)/dt, gamma = -ln|z|/dt and amp =
|c|/gamma, which makes the atom's peak equal the mode's contribution to the
amplitude spectrum. Residues fed to :func:`atoms_from_poles` are therefore
the per-mode coefficients c, not transfer-function residues.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import InputError, NumericError
from .pade import PoleSet
from .signal import TimeSeries, norm2, read_json, unit_scale

#: Default relative singular-value cutoff for pencil order selection.
SV_TOL_DEFAULT = 1e-8

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

#: Power iterations of the pencil's randomized range finder.
POWER_ITERATIONS = 2

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


@dataclass(frozen=True, eq=False)
class SparseSpectrum:
    """Atoms sorted by center frequency plus fit diagnostics.

    ``residual_norm`` is what the producing fit left unexplained: for a
    signal, the 2-norm of the samples minus the kept modes; for a Ritz
    spectrum, the share of the start vector's spectral weight the kept atoms
    leave out; 0 without a target. ``dropped`` counts candidate modes
    discarded as growing, undamped or amplitude-free. ``converged`` is
    always True, since no producer is iterative; the benchmark still reads it.
    """

    atoms: tuple[LorentzianAtom, ...]
    residual_norm: float = 0.0
    dropped: int = 0
    converged: bool = True

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

    @classmethod
    def from_atoms(
        cls,
        atoms: Sequence[LorentzianAtom],
        residual_norm: float = 0.0,
        dropped: int = 0,
    ) -> "SparseSpectrum":
        """Sort atoms by (omega, gamma). Close atoms are all kept: a fixed
        merge tolerance would depend on the input's scale, and each producer
        already collapses what is one resonance (a conjugate partner in
        :func:`atoms_from_poles`)."""
        ordered = sorted(atoms, key=lambda at: (at.omega, at.gamma))
        return cls(tuple(ordered), float(residual_norm), dropped)

    def to_dict(self) -> dict:
        return {
            "atoms": [
                {"omega": at.omega, "gamma": at.gamma, "amp": at.amp} for at in self.atoms
            ],
            "residual_norm": self.residual_norm,
        }

    @classmethod
    def from_dict(cls, record: dict) -> "SparseSpectrum":
        try:
            atoms = [
                LorentzianAtom(float(a["omega"]), float(a["gamma"]), float(a["amp"]))
                for a in record["atoms"]
            ]
            return cls.from_atoms(atoms, float(record.get("residual_norm", 0.0)))
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad sparse-spectrum record: {exc}") from None


def load_spectrum_json(path: str | Path) -> SparseSpectrum:
    return SparseSpectrum.from_dict(read_json(path))


def save_spectrum_json(sp: SparseSpectrum, path: str | Path) -> None:
    Path(path).write_text(json.dumps(sp.to_dict()))


def eval_spectrum(sp: SparseSpectrum, omega):
    """Evaluate the Lorentzian sum at scalar or array ``omega``."""
    w = np.asarray(omega, dtype=float)
    total = np.zeros_like(w, dtype=float)
    for at in sp.atoms:
        total = total + at.amp * at.gamma**2 / ((w - at.omega) ** 2 + at.gamma**2)
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


def atoms_from_poles(
    modes: PoleSet, dt: float, samples: np.ndarray | None = None, scale: float = 1.0
) -> SparseSpectrum:
    """Map discrete-time modes c_k * z_k^n to Lorentzian atoms, applying the
    keep rule of :func:`_pole_atom` once per mode.

    ``modes`` and ``samples`` are the input divided by ``scale`` (see
    :func:`unit_scale`); amplitudes and the residual come back at input
    scale. A kept mode with Im z >= 0 becomes an atom; its conjugate partner
    of a real signal collapses onto it. Each mode with Im z >= 0 that becomes
    no atom counts in ``dropped``. Given the ``samples``, ``residual_norm``
    is scale * ||samples - sum of kept modes (with partners)||: the input's
    norm when every mode is dropped, 0 without samples, and a
    :class:`NumericError` when it overflows float64.

    A mode whose amplitude overflows only at input scale fails the whole
    fit: the other modes were fitted alongside it and do not explain the
    input without it. Then every mode is dropped.
    """
    if not dt > 0:
        raise InputError(f"dt must be positive, got {dt}")
    params = [_pole_atom(z, res, dt, scale) for z, res in zip(modes.poles, modes.residues)]
    if any(p is not None and math.isinf(p[2]) for p in params):
        params = [None] * len(params)
    kept = np.array([p is not None for p in params], dtype=bool)
    partner = modes.poles.imag < 0  # represented by its Im z > 0 twin
    atoms = [LorentzianAtom(*p) for p, twin in zip(params, partner) if p is not None and not twin]
    residual = 0.0
    if samples is not None:
        model = np.vander(modes.poles[kept], samples.size, increasing=True).T @ modes.residues[kept]
        residual = norm2(samples - model) * scale  # Python floats: an overflow gives inf
        if not math.isfinite(residual):
            raise NumericError("the fit residual overflows float64 at the input's scale")
    return SparseSpectrum.from_atoms(atoms, residual, int(np.count_nonzero(~partner & ~kept)))


def _leading_svd(hank: np.ndarray, width: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Leading ``width`` singular values and right singular vectors of each
    matrix of the stack ``hank`` (W, m, k) by a randomized range finder with
    power iterations (Halko, Martinsson & Tropp, SIAM Rev. 2011, Alg. 4.4).

    Every matrix of the stack meets the same Gaussian test matrix, drawn
    from ``seed``; the pencil sizes it ``max_modes + SKETCH_OVERSAMPLE``
    columns wide. Every product with a matrix or its transpose is
    re-orthonormalized, so singular values far below sigma_1 survive the
    power iterations. When ``width`` reaches ``min(m, k)`` the sketch spans
    the whole range and the result is the exact thin SVD. The stacked numpy
    calls run the 2-d routine on each matrix, so each result equals that of
    the matrix alone, bit for bit.
    """
    test = np.random.default_rng(seed).standard_normal((hank.shape[2], width))
    hank_t = np.swapaxes(hank, 1, 2)
    q, _ = np.linalg.qr(hank @ test)
    for _ in range(POWER_ITERATIONS):
        q, _ = np.linalg.qr(hank_t @ q)
        q, _ = np.linalg.qr(hank @ q)
    _, sv, vh = np.linalg.svd(np.swapaxes(q, 1, 2) @ hank, full_matrices=False)
    return sv, vh


def fit_matrix_pencil(
    x: TimeSeries | Sequence[TimeSeries],
    max_modes: int,
    sv_tol: float = SV_TOL_DEFAULT,
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
    from ``seed``, so equal seeds give identical output. The model order is
    the number of those singular values with sigma_i/sigma_1 > ``sv_tol``,
    capped at ``max_modes``. Amplitudes come from the least-squares
    Vandermonde solve, and :func:`atoms_from_poles` maps the modes to atoms
    and gives the residual over the kept ones.

    The windows of a batch are grouped by model order, and each group makes
    one stacked call per step: the shift matrix and the Vandermonde
    coefficients are minimum-norm least-squares solves by ``np.linalg.pinv``
    with the cutoff ``lstsq(rcond=None)`` uses, and the poles come from one
    ``np.linalg.eigvals``. Each stacked call runs the 2-d routine on each
    matrix, so a window's result is the same in any group.

    The samples are divided by :func:`unit_scale` before any product is
    formed, so the fit is scale invariant; :func:`atoms_from_poles` reports
    amplitudes and the residual norm at the input's scale.
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
    if n < 2 * max_modes + 2:
        raise InputError(
            f"need at least {2 * max_modes + 2} samples for {max_modes} modes, got {n}"
        )
    scales = [unit_scale(w.samples) for w in windows]
    s = np.array([w.samples / scale for w, scale in zip(windows, scales)])

    pencil = n // 2
    # hank[i, r, c] = s[i, r + c], the (n-L, L+1) Hankel matrix of each window:
    # one copy of a read-only strided view. sliding_window_view makes the same
    # view, but its argument checks add 8 us to a batch of one (2-core x86_64),
    # about 1 % of a 384-sample run.
    step = s.strides[1]
    hank = np.lib.stride_tricks.as_strided(
        s, (len(windows), n - pencil, pencil + 1), (s.strides[0], step, step), writeable=False
    ).copy()
    width = min(max_modes + SKETCH_OVERSAMPLE, n - pencil, pencil + 1)
    svs, vhs = _leading_svd(hank, width, seed)
    orders = np.minimum(np.count_nonzero(svs > sv_tol * svs[:, :1], axis=1), min(max_modes, pencil))

    eps = np.finfo(float).eps
    fits = [None] * len(windows)
    for order in sorted(set(orders.tolist())):  # np.unique would load numpy.ma
        group = np.flatnonzero(orders == order)
        vh = vhs[group, :order]
        w0 = np.swapaxes(vh[:, :, :pencil], 1, 2)
        w1 = np.swapaxes(vh[:, :, 1:], 1, 2)
        # rcond, not rtol: numpy 1.24 has no rtol
        z = np.linalg.eigvals(np.linalg.pinv(w0, rcond=eps * pencil) @ w1)

        # Artifact poles with exploding powers stay out of the Vandermonde
        # solve as zero columns; with coefficient 0 they reach atoms_from_poles,
        # which drops them. The products are np.vander's: 1, z, z*z, (z*z)*z, ...
        solved = np.abs(z) < 1.05
        vand = np.empty((group.size, n, order), dtype=complex)
        vand[:, 0] = solved
        vand[:, 1:] = np.where(solved, z, 0)[:, None]
        np.multiply.accumulate(vand[:, 1:], axis=1, out=vand[:, 1:])
        coeffs = np.linalg.pinv(vand, rcond=eps * n) @ s[group, :, None]
        coeffs = np.where(solved, coeffs[:, :, 0], 0)
        for i, zi, ci in zip(group, z, coeffs):
            fits[i] = atoms_from_poles(PoleSet(zi, ci), windows[i].dt, s[i], scales[i])
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
