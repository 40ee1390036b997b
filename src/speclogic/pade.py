"""Rational [m/n] approximants built from power-series coefficients.

Given series coefficients c_0..c_L, the [m/n] approximant is the rational
function P_m(s)/Q_n(s) with Q_n(0) = 1 whose Taylor expansion reproduces
c_0..c_{m+n}. The denominator solves the Toeplitz moment system

    sum_{j=1..n} b_j c_{m+i-j} = -c_{m+i},   i = 1..n   (c_k = 0 for k < 0)

and the numerator follows by convolution. Rank-deficient systems (degenerate
blocks of the approximant table) are resolved by minimum-norm least squares.
A failed LAPACK routine raises :class:`~speclogic.errors.ConvergenceError`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg._umath_linalg import lstsq

from .errors import IllConditionedError, InputError
from .signal import EPS, eigenvalues, lapack_errstate, norm2, scipy_routine

#: Solver residuals above this fraction of ||c|| are reported as failures.
MOMENT_RESIDUAL_RTOL = 1e-6

#: Two denominator roots closer than this, relative to the larger modulus,
#: are flagged as a multiple pole.
MULTIPLE_POLE_RTOL = 1e-6


@dataclass(frozen=True, eq=False)
class RationalApprox:
    """Rational function a(s)/(1 + b_1 s + ... + b_n s^n).

    ``a`` holds the m+1 ascending numerator coefficients; ``b`` holds
    b_1..b_n (the constant denominator term is fixed to 1).
    """

    a: np.ndarray
    b: np.ndarray
    m: int
    n: int

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if a.size != self.m + 1 or b.size != self.n:
            raise InputError(
                f"coefficient lengths ({a.size}, {b.size}) do not match orders "
                f"[{self.m}/{self.n}]"
            )
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise InputError("rational coefficients must be finite")

    @property
    def denominator(self) -> np.ndarray:
        """Full ascending denominator coefficients, starting with 1."""
        return np.concatenate(([1.0], self.b))


@dataclass(frozen=True, eq=False)
class PoleSet:
    """Poles and matching residues, in matching order.

    :func:`extract_poles` sorts its poles by (real, imaginary) part; the
    modes the ``pade_z`` back-end builds from inverted poles keep that order,
    which is not sorted by their own parts. ``multiple_poles`` is set when
    two roots lie within 1e-6 of each other, relative to the larger modulus;
    residues are then computed by the simple-pole formula regardless and
    should be treated with suspicion.
    """

    poles: np.ndarray
    residues: np.ndarray
    multiple_poles: bool = False

    def __post_init__(self):
        poles = np.asarray(self.poles, dtype=complex)
        residues = np.asarray(self.residues, dtype=complex)
        object.__setattr__(self, "poles", poles)
        object.__setattr__(self, "residues", residues)
        if poles.shape != residues.shape:
            raise InputError("poles and residues must have equal length")

    def __len__(self) -> int:
        return self.poles.size


@lapack_errstate()
def _lstsq(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solution of the n x n system a x = rhs.

    Calls LAPACK ``dgelsd`` by the ``lstsq`` gufunc of
    ``numpy.linalg._umath_linalg`` with the signature and the cutoff
    eps * n that ``np.linalg.lstsq(rcond=None)`` passes it, so the solution
    is the wrapper's bit for bit, without its wrapper costs.
    """
    x, _, _, _ = lstsq(a, rhs[:, None], EPS * a.shape[0], signature="ddd->ddid")
    return x[:, 0]


def _polynomial_roots(coeffs_ascending: np.ndarray) -> np.ndarray:
    """Companion-matrix roots of a polynomial whose constant term is nonzero;
    trailing near-zero coefficients are trimmed.

    With both end coefficients nonzero, this is the companion matrix
    ``np.roots`` builds, and :func:`~speclogic.signal.eigenvalues` makes the
    call ``np.roots`` makes through ``np.linalg.eigvals``, so the roots equal
    its roots bit for bit: complex, or real when every root is. The wrapper's
    finiteness check has nothing to catch here: the trimmed leading
    coefficient is at least 1e-14 * max|q|, so every companion entry has
    modulus below 1e14 when the coefficients are finite, as
    :class:`RationalApprox` checks they are.
    """
    mag = np.abs(coeffs_ascending)
    degree = np.nonzero(mag > 1e-14 * mag.max())[0][-1]
    if degree == 0:
        return np.empty(0, dtype=complex)
    p = coeffs_ascending[degree::-1]  # descending
    companion = np.zeros((degree, degree))
    companion.flat[degree :: degree + 1] = 1.0  # ones below the diagonal
    companion[0] = -p[1:] / p[0]
    return eigenvalues(companion)


def _horner(coeffs_ascending: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The polynomial at ``x`` by the Horner loop of ``np.polyval``; the
    coefficients are Python floats, which numpy casts to the values its own
    float64 scalars give."""
    y = np.zeros_like(x)
    for coeff in coeffs_ascending[::-1].tolist():
        y = y * x + coeff
    return y


def fit_pade(c, m: int, n: int) -> RationalApprox:
    """Fit the [m/n] approximant to series coefficients ``c``.

    The n x n moment matrix is a Toeplitz view copied out of c_0..c_{m+n}:
    of those coefficients themselves when m >= n-1, where every index m+i-j
    is nonnegative, or of a copy padded with n leading zeros, which supplies
    c_k = 0 for k < 0, when m < n-1. It is solved by least squares
    (:func:`_lstsq`). The numerator is the convolution of 1, b_1..b_n with
    c_0..c_m, truncated to m+1 terms.

    Requires at least m+n+1 coefficients, and reads and checks for
    finiteness only c_0..c_{m+n}. Raises
    :class:`~speclogic.errors.IllConditionedError` when the moment system
    cannot be solved to residual 1e-6*||c|| even in the least-squares sense.
    """
    c = np.asarray(c, dtype=float)
    if m < 0 or n < 0:
        raise InputError(f"orders must be nonnegative, got [{m}/{n}]")
    if c.ndim != 1 or c.size < m + n + 1:
        raise InputError(
            f"need at least {m + n + 1} series coefficients for [{m}/{n}], got {c.size}"
        )
    used = c[: m + n + 1]
    if not np.isfinite(used).all():
        raise InputError("series coefficients must be finite")
    if n == 0:
        return RationalApprox(used[: m + 1].copy(), np.empty(0), m, n)
    scale = norm2(used)

    # rows[i-1, j-1] = c[m+i-j] for i, j = 1..n. The view needs contiguous
    # memory; in the padded copy, padded[k + n] = c[k], 0 for k < 0. The view
    # is copied: its product with b would skip BLAS gemv and round differently.
    if m >= n - 1:
        base, first = np.ascontiguousarray(used), m
    else:
        base, first = np.concatenate((np.zeros(n), used)), m + n
    rows = np.ndarray((n, n), buffer=base, offset=8 * first, strides=(8, -8)).copy()
    rhs = -c[m + 1 : m + n + 1]
    b = _lstsq(rows, rhs)
    residual = norm2(rows @ b - rhs)
    if residual > MOMENT_RESIDUAL_RTOL * scale:
        raise IllConditionedError(
            f"moment system for [{m}/{n}] is singular beyond least-squares rescue",
            residual,
        )

    denominator = np.empty(n + 1)
    denominator[0] = 1.0
    denominator[1:] = b
    a = np.convolve(denominator, c[: m + 1])[: m + 1]
    return RationalApprox(a, b, m, n)


def taylor_coefficients(r: RationalApprox, count: int) -> np.ndarray:
    """First ``count`` Taylor coefficients of a/b around s = 0.

    The division recurrence d_k = a_k - sum_{j=1..n} b_j d_{k-j} is forward
    substitution with the count x count lower-triangular banded Toeplitz
    matrix whose diagonals are 1, b_1..b_n; LAPACK ``dtbtrs``, bound by
    :func:`~speclogic.signal.scipy_routine`, solves it in O(count*n) without
    pivoting (the unit diagonal needs none). Overflow gives inf/nan entries
    and no floating-point warning.
    """
    # the band's transpose, one denominator per row: the band is then in
    # Fortran order and reaches LAPACK without a copy
    band_t = np.empty((count, r.n + 1))
    band_t[...] = r.denominator
    rhs = np.zeros(count)
    rhs[: r.m + 1] = r.a[:count]
    d, _ = scipy_routine("lapack", "tbtrs")(band_t.T, rhs, uplo="L", diag="U")
    return d


@np.errstate(divide="ignore", invalid="ignore")
def extract_poles(r: RationalApprox) -> PoleSet:
    """Poles of the approximant with residues P(s_k)/Q'(s_k).

    Roots come from the companion matrix of the denominator. An order-0
    denominator yields an empty pole set. Roots closer than 1e-6 relative
    raise the ``multiple_poles`` flag on the result instead of failing; a
    residue divided by a zero derivative is not finite, without a warning.
    """
    q = r.denominator
    roots = _polynomial_roots(q)
    if roots.size == 0:
        return PoleSet(np.empty(0, complex), np.empty(0, complex))

    dq = q[1:] * np.arange(1, q.size)  # derivative, ascending coefficients
    residues = _horner(r.a, roots) / _horner(dq, roots)

    order = np.lexsort((roots.imag, roots.real))
    roots = roots[order]
    residues = residues[order]

    multiple = False
    if roots.size > 1:
        diff = np.abs(roots[:, None] - roots)
        diff.flat[:: roots.size + 1] = np.inf  # the diagonal
        mod = np.abs(roots)
        multiple = bool((diff < MULTIPLE_POLE_RTOL * np.maximum.outer(mod, mod)).any())
    return PoleSet(roots, residues, multiple)
