"""Sparse Lorentzian decomposition of spectra.

The working model is a sum of amplitude-normalized Lorentzian atoms

    S(w) = sum_k amp_k * gamma_k^2 / ((w - omega_k)^2 + gamma_k^2)

so each atom peaks at exactly ``amp`` at its center and reaches half
maximum at omega +- gamma. Atom parameters are estimated three ways:
directly from discrete-time poles (:func:`atoms_from_poles`), from raw time
samples via a Hankel matrix pencil (:func:`fit_matrix_pencil`), or from a
sampled spectrum via greedy pursuit over a dictionary (:func:`fit_omp`)
optionally polished by damped Gauss-Newton (:func:`refine_nls`).

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
import scipy.linalg
import scipy.optimize

from .errors import InputError, NumericError
from .pade import PoleSet
from .signal import TimeSeries

#: Atoms closer than this in both omega and gamma are merged.
MERGE_TOL = 1e-9

#: Default relative singular-value cutoff for pencil order selection.
SV_TOL_DEFAULT = 1e-8

#: Sketch columns beyond ``max_modes`` in the pencil's randomized range finder.
SKETCH_OVERSAMPLE = 10

#: Power iterations of the pencil's randomized range finder.
POWER_ITERATIONS = 2

#: Poles with modulus at or above this become no atom: they grow, or decay by
#: under 1e-6 per sample, 200x below the weakest benchmark damping (gamma*dt =
#: 2e-4). So a constant, Nyquist alternation or ramp keeps no atom.
UNSTABLE_MODULUS = 1.0 - 1e-6

#: Gradient infinity-norm below which refinement declares convergence.
NLS_GRAD_TOL = 1e-10


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
    discarded as growing, undamped or amplitude-free; ``converged`` is
    cleared by :func:`refine_nls` when it exhausts its iteration budget.
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
            if abs(cur.omega - prev.omega) < MERGE_TOL and abs(cur.gamma - prev.gamma) < MERGE_TOL:
                raise InputError("atoms within merge tolerance must be merged")

    def __len__(self) -> int:
        return len(self.atoms)

    @classmethod
    def from_atoms(
        cls,
        atoms: Sequence[LorentzianAtom],
        residual_norm: float = 0.0,
        dropped: int = 0,
        converged: bool = True,
    ) -> "SparseSpectrum":
        """Sort atoms by omega and merge near-duplicates by summing amplitude."""
        ordered = sorted(atoms, key=lambda at: (at.omega, at.gamma))
        merged: list[LorentzianAtom] = []
        for atom in ordered:
            if (
                merged
                and abs(atom.omega - merged[-1].omega) < MERGE_TOL
                and abs(atom.gamma - merged[-1].gamma) < MERGE_TOL
            ):
                last = merged[-1]
                merged[-1] = LorentzianAtom(last.omega, last.gamma, last.amp + atom.amp)
            else:
                merged.append(atom)
        return cls(tuple(merged), float(residual_norm), dropped, converged)

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
    try:
        record = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON ({exc})") from None
    return SparseSpectrum.from_dict(record)


def save_spectrum_json(sp: SparseSpectrum, path: str | Path) -> None:
    Path(path).write_text(json.dumps(sp.to_dict()))


@dataclass(frozen=True, eq=False)
class SampledSpectrum:
    """A spectrum sampled on an explicit frequency grid."""

    omega: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        omega = np.asarray(self.omega, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "values", values)
        if omega.shape != values.shape or omega.ndim != 1 or omega.size == 0:
            raise InputError("omega and values must be equal-length 1-d arrays")
        if not (np.all(np.isfinite(omega)) and np.all(np.isfinite(values))):
            raise InputError("sampled spectrum must be finite")


def eval_spectrum(sp: SparseSpectrum, omega):
    """Evaluate the Lorentzian sum at scalar or array ``omega``."""
    w = np.asarray(omega, dtype=float)
    total = np.zeros_like(w, dtype=float)
    for at in sp.atoms:
        total = total + at.amp * at.gamma**2 / ((w - at.omega) ** 2 + at.gamma**2)
    if np.isscalar(omega) or getattr(omega, "ndim", 0) == 0:
        return float(total)
    return total


def unit_scale(samples: np.ndarray) -> float:
    """The power of two at or below max|samples|, or 1.0 when all are zero.

    Both signal back-ends fit ``samples / unit_scale(samples)``: no power of
    a 1e300 signal overflows, a 1e-300 one is not read as zero, and since the
    division is exact every rounding is the unscaled fit's at ordinary scale.
    """
    peak = float(np.max(np.abs(samples)))
    return 2.0 ** (math.frexp(peak)[1] - 1) if peak > 0 else 1.0


def _pole_atom(
    z: complex, res: complex, dt: float, scale: float
) -> tuple[float, float, float] | None:
    """(omega, gamma, amp) of the atom pole ``z`` with unit-scale residue
    ``res`` maps to, or None when it maps to none: |z| >= UNSTABLE_MODULUS,
    |z| < 1e-12, or an amplitude that is zero or not finite at input scale."""
    mod = abs(z)
    if mod >= UNSTABLE_MODULUS or mod < 1e-12:
        return None
    gamma = -math.log(mod) / dt
    amp = float(abs(res)) * scale / gamma  # Python floats: an overflow gives inf, no warning
    if amp <= 0 or not math.isfinite(amp):
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
    """
    if not dt > 0:
        raise InputError(f"dt must be positive, got {dt}")
    params = [_pole_atom(z, res, dt, scale) for z, res in zip(modes.poles, modes.residues)]
    kept = np.array([p is not None for p in params], dtype=bool)
    partner = modes.poles.imag < 0  # represented by its Im z > 0 twin
    atoms = [LorentzianAtom(*p) for p, twin in zip(params, partner) if p is not None and not twin]
    residual = 0.0
    if samples is not None:
        model = np.vander(modes.poles[kept], samples.size, increasing=True).T @ modes.residues[kept]
        residual = float(scipy.linalg.norm(samples - model, check_finite=False)) * scale
        if not math.isfinite(residual):
            raise NumericError("the fit residual overflows float64 at the input's scale")
    return SparseSpectrum.from_atoms(atoms, residual, int(np.count_nonzero(~partner & ~kept)))


def _leading_svd(hank: np.ndarray, width: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Leading ``width`` singular values and right singular vectors of
    ``hank`` by a randomized range finder with power iterations (Halko,
    Martinsson & Tropp, SIAM Rev. 2011, Alg. 4.4).

    The Gaussian test matrix is drawn from ``seed``. Every product with
    ``hank`` or its transpose is re-orthonormalized, so singular values far
    below sigma_1 survive the power iterations. When ``width`` reaches
    ``min(hank.shape)`` the sketch spans the whole range and the result is
    the exact thin SVD.
    """
    test = np.random.default_rng(seed).standard_normal((hank.shape[1], width))
    q, _ = np.linalg.qr(hank @ test)
    for _ in range(POWER_ITERATIONS):
        q, _ = np.linalg.qr(hank.T @ q)
        q, _ = np.linalg.qr(hank @ q)
    _, sv, vh = np.linalg.svd(q.T @ hank, full_matrices=False)
    return sv, vh


def fit_matrix_pencil(
    x: TimeSeries,
    max_modes: int,
    sv_tol: float = SV_TOL_DEFAULT,
    seed: int = 0,
) -> SparseSpectrum:
    """Estimate damped modes from time samples by the Hankel matrix pencil.

    ``max_modes`` bounds the number of discrete-time poles (an oscillatory
    atom consumes a conjugate pair, i.e. two). The leading singular triplets
    of the Hankel matrix come from a randomized range finder of width
    ``max_modes + SKETCH_OVERSAMPLE`` whose Gaussian test matrix is drawn
    from ``seed``, so equal seeds give identical output. The model order is
    the number of those singular values with sigma_i/sigma_1 > ``sv_tol``,
    capped at ``max_modes``. Amplitudes come from the least-squares
    Vandermonde solve, and :func:`atoms_from_poles` maps the modes to atoms
    and gives the residual over the kept ones.

    The samples are divided by :func:`unit_scale` before any product is
    formed, so the fit is scale invariant; :func:`atoms_from_poles` reports
    amplitudes and the residual norm at the input's scale.
    """
    n = len(x)
    if max_modes < 1:
        raise InputError(f"max_modes must be positive, got {max_modes}")
    if n < 2 * max_modes + 2:
        raise InputError(
            f"need at least {2 * max_modes + 2} samples for {max_modes} modes, got {n}"
        )
    scale = unit_scale(x.samples)
    s = x.samples / scale

    pencil = n // 2
    hank = scipy.linalg.hankel(s[: n - pencil], s[n - pencil - 1 :])  # (n-L, L+1)
    width = min(max_modes + SKETCH_OVERSAMPLE, min(hank.shape))
    sv, vh = _leading_svd(hank, width, seed)
    order = int(np.count_nonzero(sv > sv_tol * sv[0]))
    order = min(order, max_modes, pencil)

    w0 = vh[:order, :pencil]
    w1 = vh[:order, 1 : pencil + 1]
    shift, *_ = np.linalg.lstsq(w0.T, w1.T, rcond=None)
    z = np.linalg.eigvals(shift)

    # Artifact poles with exploding powers stay out of the Vandermonde solve;
    # with coefficient 0 they reach atoms_from_poles, which drops them.
    solved = np.abs(z) < 1.05
    coeffs = np.zeros(z.size, dtype=complex)
    vand = np.vander(z[solved], n, increasing=True).T
    coeffs[solved], *_ = np.linalg.lstsq(vand, s.astype(complex), rcond=None)
    return atoms_from_poles(PoleSet(z, coeffs), x.dt, s, scale)


@dataclass(frozen=True, eq=False)
class LorentzianDictionary:
    """Candidate (omega, gamma) grid for greedy pursuit.

    Atom index i*len(gammas)+j pairs ``omegas[i]`` with ``gammas[j]``.
    """

    omegas: np.ndarray
    gammas: np.ndarray

    def __post_init__(self):
        omegas = np.asarray(self.omegas, dtype=float)
        gammas = np.asarray(self.gammas, dtype=float)
        object.__setattr__(self, "omegas", omegas)
        object.__setattr__(self, "gammas", gammas)
        if omegas.size == 0 or gammas.size == 0:
            raise InputError("dictionary grids must be non-empty")
        if np.any(gammas <= 0):
            raise InputError("dictionary gammas must be positive")

    def __len__(self) -> int:
        return self.omegas.size * self.gammas.size

    def parameters(self, index: int) -> tuple[float, float]:
        i, j = divmod(index, self.gammas.size)
        return float(self.omegas[i]), float(self.gammas[j])

    def design_matrix(self, grid: np.ndarray) -> np.ndarray:
        """Unit-amplitude atom profiles as columns over ``grid``."""
        cols = np.empty((grid.size, len(self)))
        idx = 0
        for omega in self.omegas:
            d2 = (grid - omega) ** 2
            for gamma in self.gammas:
                cols[:, idx] = gamma**2 / (d2 + gamma**2)
                idx += 1
        return cols

    @classmethod
    def from_ranges(
        cls,
        omega_min: float,
        omega_max: float,
        n_omega: int,
        gamma_min: float,
        gamma_max: float,
        n_gamma: int,
    ) -> "LorentzianDictionary":
        """Linear omega grid crossed with a log-spaced gamma grid."""
        return cls(
            np.linspace(omega_min, omega_max, n_omega),
            np.geomspace(gamma_min, gamma_max, n_gamma),
        )


def fit_omp(
    target: SampledSpectrum,
    dictionary: LorentzianDictionary,
    k_max: int,
    tol: float = 1e-6,
) -> SparseSpectrum:
    """Greedy pursuit: repeatedly select the atom most correlated with the
    residual and re-solve all selected amplitudes by nonnegative least
    squares. Stops after ``k_max`` atoms or when the residual norm falls to
    ``tol``*||target||.
    """
    if k_max < 1:
        raise InputError(f"k_max must be positive, got {k_max}")
    values = target.values
    tnorm = float(np.linalg.norm(values))
    if tnorm == 0:
        return SparseSpectrum.from_atoms([], 0.0)

    design = dictionary.design_matrix(target.omega)
    col_norms = np.linalg.norm(design, axis=0)
    col_norms[col_norms == 0] = np.inf

    selected: list[int] = []
    amps = np.empty(0)
    residual = values.copy()
    for _ in range(k_max):
        corr = np.abs(design.T @ residual) / col_norms
        pick = int(np.argmax(corr))
        if corr[pick] <= 1e-14 * tnorm or pick in selected:
            break
        selected.append(pick)
        amps, _ = scipy.optimize.nnls(design[:, selected], values)
        residual = values - design[:, selected] @ amps
        if np.linalg.norm(residual) <= tol * tnorm:
            break

    atoms = []
    for idx, amp in zip(selected, amps):
        if amp > 0:
            omega, gamma = dictionary.parameters(idx)
            atoms.append(LorentzianAtom(omega, gamma, float(amp)))
    return SparseSpectrum.from_atoms(atoms, float(np.linalg.norm(residual)))


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


def refine_nls(
    sp: SparseSpectrum,
    target: SampledSpectrum,
    max_iter: int,
) -> SparseSpectrum:
    """Jointly refine all atom parameters by damped Gauss-Newton.

    Gamma and amplitude move in log space, so positivity is structural.
    Steps are halved (up to 20 times) until the residual does not increase;
    the returned residual is therefore never worse than the input's. When
    the gradient tolerance 1e-10 is not met within ``max_iter`` iterations
    the best iterate is returned with ``converged=False``.
    """
    if not sp.atoms:
        raise InputError("refine_nls requires a non-empty spectrum")
    if max_iter < 1:
        raise InputError(f"max_iter must be positive, got {max_iter}")

    grid = target.omega
    values = target.values

    def unpack(theta: np.ndarray) -> list[LorentzianAtom]:
        out = []
        for k in range(theta.size // 3):
            omega, lg, la = theta[3 * k : 3 * k + 3]
            # clamp exponents so a wild trial step yields a huge-but-finite
            # cost (rejected by damping) instead of an overflow
            gamma = math.exp(min(max(lg, -700.0), 700.0))
            amp = math.exp(min(max(la, -700.0), 700.0))
            out.append(LorentzianAtom(float(omega), gamma, amp))
        return out

    def cost_of(theta: np.ndarray) -> float:
        model, _ = lorentzian_model_jacobian(unpack(theta), grid)
        return float(np.linalg.norm(model - values))

    theta = np.empty(3 * len(sp.atoms))
    for k, at in enumerate(sp.atoms):
        theta[3 * k : 3 * k + 3] = (at.omega, math.log(at.gamma), math.log(at.amp))

    converged = False
    cost = cost_of(theta)
    for _ in range(max_iter):
        atoms = unpack(theta)
        model, jac_raw = lorentzian_model_jacobian(atoms, grid)
        # chain rule onto (omega, log gamma, log amp)
        jac = jac_raw.copy()
        for k, at in enumerate(atoms):
            jac[:, 3 * k + 1] *= at.gamma
            jac[:, 3 * k + 2] *= at.amp
        res = model - values
        grad = jac.T @ res
        if float(np.max(np.abs(grad))) <= NLS_GRAD_TOL:
            converged = True
            break
        step, *_ = np.linalg.lstsq(jac, -res, rcond=None)
        step = np.clip(step, -50.0, 50.0)
        scale = 1.0
        improved = False
        for _ in range(20):
            trial = theta + scale * step
            trial_cost = cost_of(trial)
            if trial_cost <= cost:
                theta, cost, improved = trial, trial_cost, True
                break
            scale *= 0.5
        if not improved:
            break

    return SparseSpectrum.from_atoms(
        unpack(theta), cost, dropped=sp.dropped, converged=converged
    )
