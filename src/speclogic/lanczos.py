"""Krylov tridiagonalization of symmetric operators, and the Ritz spectrum it yields.

The three-term recurrence projects a symmetric operator H onto the Krylov
subspace span{q1, H q1, ..., H^(k-1) q1}, producing a real tridiagonal
matrix whose eigenvalues approximate those of H. The Ritz values and the
squared first components of the tridiagonal eigenvectors are the nodes and
weights of the k-point Gauss quadrature of q1's spectral measure (Golub &
Welsch 1969), so they are the spectrum seen from q1.

Given a Ritz tolerance, the recurrence stops once every Ritz pair heavy
enough to matter has converged: Paige's bound beta_k * |s_kj| on the pair's
residual ||H y_j - theta_j y_j|| (Paige 1980), with s_kj the last component
of the tridiagonal eigenvector, is at or below the tolerance. A failing
check needs only one heavy pair still above it. So a check remembers the
slowest heavy pair it found unconverged, and the next one first solves
only the Ritz pairs near that one, by bisection and inverse iteration in
O(k) per pair (Parlett, The Symmetric Eigenvalue Problem), and fails at
once when one of them is still heavy and unconverged by a fixed margin.
That shortcut can only say "not yet": every stop rests on a full solve
that passes, and that solve is the spectrum :func:`tridiag_eigen` returns,
so the stop comes at the same step as with a full solve at every check,
with the same Ritz spectrum.

Every step applies full reorthogonalization against the Krylov basis:
floating-point Lanczos otherwise loses orthogonality quickly and returns
ghost copies of converged Ritz values, which would read as extra
resonances. The basis is returned with the tridiagonal. Its buffer holds
one Krylov vector per contiguous row, so the reorthogonalization reads
memory in order, and grows by doubling, so it holds fewer than twice the
vectors run. Breakdown (a vanishing recurrence residual) means an exact
invariant subspace was found and is reported as a success, not an error.
Every norm in the recurrence is BLAS nrm2, which scales as it sums, so
neither a 1e300 nor a 1e-300 operator or start vector overflows or
vanishes. A dense operator is applied by BLAS symv, which reads one
triangle of the matrix and so moves half the memory of a full product.
scipy, which supplies nrm2, symv and the tridiagonal eigensolvers, is
imported on the first call that needs it, not with this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConvergenceError, InputError, NumericError
from .signal import nrm2, scipy_routine, unit_scale

#: beta_j <= BREAKDOWN_RTOL * ||H q1|| terminates the recurrence.
BREAKDOWN_RTOL = 1e-12

#: Dense inputs must satisfy max|H - H^T| <= SYMMETRY_RTOL * max|H|.
SYMMETRY_RTOL = 1e-12

#: Steps between two convergence checks of the Ritz stop. Checks cost
#: solves, and each step past convergence is wasted. On the bench operator
#: inputs (dense, 400-dim; 2-core x86_64, one BLAS thread) a run_hermitian
#: call took 12.2, 8.8, 7.7, 7.4 and 9.0 ms checking every 1, 4, 8, 12 and
#: 16 steps; with a full solve at every check it took 21.1, 15.3, 11.8, 10.7
#: and 10.7 ms. The step count fixes the result, so it stays at 8.
CHECK_EVERY = 8

#: Factor by which a Ritz pair must be heavier than ``min_weight`` and its
#: Paige bound larger than ``ritz_tol`` before the windowed solve alone may
#: fail a stop check. It absorbs the difference between the windowed pair
#: and the full solve's, which read at most 7e-13 relative on the bench
#: operator inputs; a margin of 1.2 left 0.4 to 1.1 more full solves per
#: call there.
SHORTCUT_MARGIN = 1.01

_OVERFLOW = "the Lanczos recurrence overflows float64; rescale the operator"


class HermitianOp:
    """Real symmetric linear operator exposed as a matrix-vector action."""

    __slots__ = ("dim", "_matvec")

    def __init__(self, dim: int, matvec: Callable[[np.ndarray], np.ndarray]):
        if dim < 1:
            raise InputError(f"operator dimension must be positive, got {dim}")
        self.dim = int(dim)
        self._matvec = matvec

    def apply(self, v: np.ndarray) -> np.ndarray:
        w = np.asarray(self._matvec(v), dtype=float)
        if w.shape != (self.dim,):
            raise InputError(f"matvec returned shape {w.shape}, expected ({self.dim},)")
        return w

    @classmethod
    def from_dense(cls, matrix) -> "HermitianOp":
        """Wrap a dense symmetric matrix, verifying symmetry on construction.

        The operator is the symmetric matrix whose lower triangle (on and
        below the diagonal) is that of ``matrix``: BLAS symv reads only that
        triangle, half the memory of a full product, and the other one
        agrees with it to the symmetry tolerance.
        """
        h = np.asarray(matrix, dtype=float)
        if h.ndim != 2 or h.shape[0] != h.shape[1] or h.size == 0:
            raise InputError(f"expected a nonempty square matrix, got shape {h.shape}")
        if not np.all(np.isfinite(h)):
            raise InputError("matrix entries must be finite")
        # the exact division by a power of two keeps h - h.T from overflowing
        unit = h / unit_scale(h)
        scale = float(np.max(np.abs(unit)))
        if scale > 0 and float(np.max(np.abs(unit - unit.T))) > SYMMETRY_RTOL * scale:
            raise InputError("matrix is not symmetric to relative tolerance 1e-12")
        # symv's upper triangle of h.T is h's lower one; f2py would copy an
        # array not in Fortran order on every call, and h.T of a C-ordered h
        # is one without a copy
        a = np.asfortranarray(h.T)
        return cls(h.shape[0], lambda v: scipy_routine("blas", "symv")(1.0, a, v))


@dataclass(frozen=True, eq=False)
class TridiagResult:
    """Outcome of the recurrence: diagonal alpha, off-diagonal beta.

    ``k`` is the number of steps achieved; ``breakdown`` marks early
    termination on an invariant subspace. ``residual`` is the last
    recurrence residual beta_k, the norm of what H q_k leaves outside the
    Krylov basis: 0 at full depth (k = dim) and on breakdown. ``basis``
    holds the orthonormal Krylov basis as columns; it is None only for a
    tridiagonal built by hand.
    """

    alpha: np.ndarray
    beta: np.ndarray
    k: int
    breakdown: bool = False
    basis: np.ndarray | None = None
    residual: float = 0.0
    # Ritz values, weights and bounds the passing Ritz stop check solved on
    # exactly (alpha, beta), for tridiag_eigen
    _ritz: tuple[np.ndarray, np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False
    )

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=float)
        beta = np.asarray(self.beta, dtype=float)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "residual", float(self.residual))
        if alpha.size < 1 or alpha.size != self.k:
            raise InputError("alpha must hold one entry per achieved step")
        if beta.size != self.k - 1:
            raise InputError("beta must hold k-1 entries")
        if not (np.all(np.isfinite(alpha)) and np.all(np.isfinite(beta))):
            raise InputError("tridiagonal entries must be finite")
        if not (self.residual >= 0 and math.isfinite(self.residual)):
            raise InputError("residual must be nonnegative and finite")


@dataclass(frozen=True, eq=False)
class RitzSpectrum:
    """Ascending Ritz values with their spectral weights (summing to one).

    ``bounds`` holds each pair's Paige residual bound beta_k * |s_kj|; it
    defaults to zeros, as for an invariant Krylov space.
    """

    lambdas: np.ndarray
    weights: np.ndarray
    bounds: np.ndarray | None = None

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        bounds = np.zeros_like(lam) if self.bounds is None else np.asarray(self.bounds, dtype=float)
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bounds", bounds)
        if lam.shape != w.shape or lam.shape != bounds.shape or lam.ndim != 1 or lam.size == 0:
            raise InputError("lambdas, weights and bounds must be equal-length 1-d arrays")
        if np.any(np.diff(lam) < -1e-12):
            raise InputError("Ritz values must be ascending")
        if np.any(w < -1e-12):
            raise InputError("weights must be nonnegative")
        if abs(float(w.sum()) - 1.0) > 1e-10:
            raise InputError(f"weights must sum to 1 (got {w.sum()!r})")


def _ritz_pairs(alpha: np.ndarray, beta: np.ndarray, residual: float):
    """Ritz values of the tridiagonal (alpha, beta) whose last recurrence
    residual is ``residual``, with their weights s_1j^2 and Paige bounds
    ``residual`` * |s_kj|, by the full solve."""
    if alpha.size == 1:
        lam, vec = alpha.copy(), np.ones((1, 1))
    else:
        import scipy.linalg  # here, so importing speclogic loads no scipy

        try:
            lam, vec = scipy.linalg.eigh_tridiagonal(alpha, beta)
        except np.linalg.LinAlgError as exc:  # scipy.linalg.LinAlgError is this class
            raise ConvergenceError(f"tridiagonal eigensolver failed to converge: {exc}") from None
    return lam, vec[0, :] ** 2, residual * np.abs(vec[-1, :])


def _window_pairs(alpha, beta, residual: float, lo: float, hi: float):
    """Ritz values in (lo, hi] of the tridiagonal (alpha, beta), their
    weights and Paige bounds (empty arrays when it holds none); None when
    LAPACK reports a failure.

    Bisection (dstebz, tolerance 0: to full accuracy) finds the values and
    inverse iteration (dstein) their eigenvectors, in O(k) per pair instead
    of the full solve's O(k^2).
    """
    m, lam, iblock, isplit, info = scipy_routine("lapack", "stebz")(
        alpha, beta, 1, lo, hi, 0, 0, 0.0, b"B"
    )
    if info != 0:
        return None
    vec, info = scipy_routine("lapack", "stein")(alpha, beta, lam[:m], iblock, isplit)
    if info != 0:
        return None
    return lam[:m], vec[0] ** 2, residual * np.abs(vec[-1])


def _ritz_check(alpha, beta, residual: float, tol: float, min_weight: float, late):
    """One Ritz stop check of the tridiagonal (alpha, beta) whose last
    recurrence residual is ``residual``.

    ``late`` is (Ritz value, Paige bound) of the slowest heavy unconverged
    pair the previous check found, or None. First only the Ritz pairs within
    that bound of that value are solved: one of them of weight at least
    SHORTCUT_MARGIN * ``min_weight`` and bound above SHORTCUT_MARGIN *
    ``tol`` is a heavy, unconverged pair of the full solve too, so the check
    fails without it. Otherwise the full tridiagonal is solved. Returns its
    Ritz values, weights and bounds when every pair of weight at least
    ``min_weight`` has bound at most ``tol`` (else None), and the slowest
    heavy unconverged pair of the pairs solved (else None): the one with the
    largest bound.
    """
    pairs = None
    if late is not None:
        theta, bound = late
        pairs = _window_pairs(alpha, beta, residual, theta - bound, theta + bound)
        if pairs is not None:
            _, weights, bounds = pairs
            margin = (weights >= SHORTCUT_MARGIN * min_weight) & (bounds > SHORTCUT_MARGIN * tol)
            pairs = pairs if margin.any() else None
    if pairs is None:
        pairs = _ritz_pairs(alpha, beta, residual)
    lam, weights, bounds = pairs
    # weights and bounds are nonnegative, so a pair past the margin is late too
    late = np.flatnonzero((weights >= min_weight) & (bounds > tol))
    if late.size == 0:
        return pairs, None
    slowest = late[np.argmax(bounds[late])]
    return None, (lam[slowest], bounds[slowest])


# an overflow in H q or in the recurrence raises NumericError below, not a warning
@np.errstate(over="ignore", invalid="ignore")
def lanczos_tridiag(
    op: HermitianOp,
    q1,
    k: int,
    ritz_tol: float | None = None,
    min_weight: float = 0.0,
) -> TridiagResult:
    """Run k steps of the symmetric Lanczos recurrence started from q1.

    ``q1`` need not be normalized but must be finite and nonzero. Each new
    basis vector gets full reorthogonalization against all earlier ones, and
    the result carries the basis (a view, not a copy). Terminates early with
    ``breakdown=True`` when the recurrence residual drops below
    1e-12*||H q1||, returning the steps achieved so far.

    With ``ritz_tol`` set, ``k`` is a cap: every ``CHECK_EVERY`` steps the
    stop is checked on the leading tridiagonal (see :func:`_ritz_check`),
    and the recurrence stops (not a breakdown) once every Ritz pair of
    weight at least ``min_weight`` has Paige bound beta_k * |s_kj| <=
    ``ritz_tol``. The result then carries the spectrum that check solved.
    """
    q = np.asarray(q1, dtype=float).ravel()
    if q.size != op.dim:
        raise InputError(f"start vector has length {q.size}, operator dim is {op.dim}")
    if not np.all(np.isfinite(q)):
        raise InputError("start vector must be finite")
    peak = float(np.max(np.abs(q)))
    if peak == 0:
        raise InputError("start vector must be nonzero")
    if not 1 <= k <= op.dim:
        raise InputError(f"k must be in [1, {op.dim}], got {k}")

    # dividing by the peak first keeps a subnormal q1's precision
    q = q / peak
    q = q / nrm2(q)
    # one Krylov vector per row, so reorthogonalizing reads contiguous memory
    basis = np.empty((min(k, 2 * CHECK_EVERY), op.dim))
    basis[0] = q

    alphas: list[float] = []
    betas: list[float] = []
    q_prev = np.zeros_like(q)
    beta_prev = 0.0
    tol = None
    breakdown = False
    residual = 0.0
    ritz = None
    late = None  # the slowest heavy unconverged Ritz pair of the last check

    for j in range(k):
        w = op.apply(q)
        if tol is None:
            tol = BREAKDOWN_RTOL * nrm2(w)
        alpha = float(q @ w)
        if not (math.isfinite(alpha) and math.isfinite(tol)):
            raise NumericError(_OVERFLOW)
        alphas.append(alpha)
        if j == op.dim - 1:
            break  # the Krylov space is the whole space: the residual is 0
        # a new array: op.apply's result may be memory the matvec keeps
        w = w - alpha * q - beta_prev * q_prev
        if j > 0:
            rows = basis[: j + 1]
            w -= (rows @ w) @ rows
        beta = nrm2(w)
        if not math.isfinite(beta):
            raise NumericError(_OVERFLOW)
        if beta <= tol:
            # after the last requested step a vanishing residual is no early stop
            breakdown = j < k - 1
            break
        if j < k - 1 and ritz_tol is not None and (j + 1) % CHECK_EVERY == 0:
            ritz, late = _ritz_check(
                np.array(alphas), np.array(betas), beta, ritz_tol, min_weight, late
            )
        if j == k - 1 or ritz is not None:
            residual = beta
            break
        betas.append(beta)
        q_prev = q
        q = w / beta
        beta_prev = beta
        if j + 1 == basis.shape[0]:
            # grow by doubling: the buffer stays under twice the steps run
            grown = np.empty((min(k, 2 * basis.shape[0]), op.dim))
            grown[: j + 1] = basis
            basis = grown
        basis[j + 1] = q

    achieved = len(alphas)
    result = TridiagResult(
        np.array(alphas),
        np.array(betas),
        achieved,
        breakdown,
        basis[:achieved].T,
        residual,
    )
    object.__setattr__(result, "_ritz", ritz)
    return result


def tridiag_eigen(t: TridiagResult) -> RitzSpectrum:
    """Ritz values, first-component weights and Paige bounds of the tridiagonal.

    Delegates to ``scipy.linalg.eigh_tridiagonal``; weights are the squared
    first components of the eigenvectors, and each bound is the last
    recurrence residual times the eigenvector's last component. A result
    whose Ritz stop passed already holds the spectrum its last check solved
    with that same call, so it is not solved again.
    """
    if t._ritz is None:
        return RitzSpectrum(*_ritz_pairs(t.alpha, t.beta, t.residual))
    # copies, so that no caller's edit reaches the next call's spectrum
    return RitzSpectrum(*(a.copy() for a in t._ritz))

