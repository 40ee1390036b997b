"""Krylov tridiagonalization of symmetric operators and broadened densities.

The three-term recurrence projects a symmetric operator H onto the Krylov
subspace span{q1, H q1, ..., H^(k-1) q1}, producing a real tridiagonal
matrix whose eigenvalues approximate those of H. The Ritz values and the
squared first components of the tridiagonal eigenvectors are the nodes and
weights of the k-point Gauss quadrature of q1's spectral measure (Golub &
Welsch 1969), so they are the spectrum seen from q1.

Given a Ritz tolerance, the recurrence stops once every Ritz pair heavy
enough to matter has converged: Paige's bound beta_k * |s_kj| on the pair's
residual ||H y_j - theta_j y_j|| (Paige 1980), with s_kj the last component
of the tridiagonal eigenvector, is at or below the tolerance.

Full reorthogonalization is on by default: floating-point Lanczos loses
orthogonality quickly, and at desk scale correctness beats speed. Breakdown
(a vanishing recurrence residual) means an exact invariant subspace was
found and is reported as a success, not an error. Every norm is BLAS nrm2,
which scales as it sums, so neither a 1e300 nor a 1e-300 operator or start
vector overflows or vanishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from .errors import ConvergenceError, InputError

#: beta_j <= BREAKDOWN_RTOL * ||H q1|| terminates the recurrence.
BREAKDOWN_RTOL = 1e-12

#: Dense inputs must satisfy max|H - H^T| <= SYMMETRY_RTOL * max|H|.
SYMMETRY_RTOL = 1e-12

#: Steps between two convergence checks of the Ritz stop. Each check solves
#: the leading tridiagonal, and each step past convergence is wasted. On
#: dense 400-dim operators (2-core x86_64, one BLAS thread) a run_hermitian
#: call took 26 ms checking every step, 17 ms every 4, and 12-14 ms every 8,
#: 12 or 16 (within noise of each other).
CHECK_EVERY = 8


class HermitianOp:
    """Real symmetric linear operator exposed as a matrix-vector action."""

    __slots__ = ("dim", "_matvec")

    def __init__(self, dim: int, matvec: Callable[[np.ndarray], np.ndarray]):
        if dim < 1:
            raise InputError(f"operator dimension must be positive, got {dim}")
        self.dim = int(dim)
        self._matvec = matvec

    def apply(self, v: np.ndarray) -> np.ndarray:
        return np.asarray(self._matvec(v), dtype=float)

    @classmethod
    def from_dense(cls, matrix) -> "HermitianOp":
        """Wrap a dense symmetric matrix, verifying symmetry on construction."""
        h = np.asarray(matrix, dtype=float)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise InputError(f"expected a square matrix, got shape {h.shape}")
        if not np.all(np.isfinite(h)):
            raise InputError("matrix entries must be finite")
        scale = float(np.max(np.abs(h)))
        if scale > 0 and float(np.max(np.abs(h - h.T))) > SYMMETRY_RTOL * scale:
            raise InputError("matrix is not symmetric to relative tolerance 1e-12")
        return cls(h.shape[0], lambda v: h @ v)


@dataclass(frozen=True, eq=False)
class TridiagResult:
    """Outcome of the recurrence: diagonal alpha, off-diagonal beta.

    ``k`` is the number of steps achieved; ``breakdown`` marks early
    termination on an invariant subspace. ``residual`` is the last
    recurrence residual beta_k, the norm of what H q_k leaves outside the
    Krylov basis: 0 at full depth (k = dim) and on breakdown. ``basis``
    holds the Krylov basis as columns when storage was requested.
    """

    alpha: np.ndarray
    beta: np.ndarray
    k: int
    breakdown: bool = False
    basis: np.ndarray | None = None
    residual: float = 0.0

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


def _nrm2(v: np.ndarray) -> float:
    """2-norm by BLAS nrm2, which scales as it sums: no overflow or underflow."""
    return float(scipy.linalg.norm(v, check_finite=False))


def _ritz_pairs(alpha: np.ndarray, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors (as columns) of the tridiagonal (alpha, beta)."""
    if alpha.size == 1:
        return alpha.copy(), np.ones((1, 1))
    try:
        return scipy.linalg.eigh_tridiagonal(alpha, beta)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise ConvergenceError(f"tridiagonal eigensolver failed to converge: {exc}") from None


def _converged(alphas, betas, beta: float, tol: float, min_weight: float) -> bool:
    """Ritz stop test: every pair of the leading tridiagonal with weight
    s_1j^2 >= ``min_weight`` has Paige bound ``beta`` * |s_kj| <= ``tol``."""
    _, vec = _ritz_pairs(np.array(alphas), np.array(betas))
    heavy = vec[0, :] ** 2 >= min_weight
    return bool(np.all(beta * np.abs(vec[-1, heavy]) <= tol))


def lanczos_tridiag(
    op: HermitianOp,
    q1,
    k: int,
    reorthogonalize: bool = True,
    store_basis: bool = False,
    ritz_tol: float | None = None,
    min_weight: float = 0.0,
) -> TridiagResult:
    """Run k steps of the symmetric Lanczos recurrence started from q1.

    ``q1`` need not be normalized but must be finite and nonzero. Terminates
    early with ``breakdown=True`` when the recurrence residual drops below
    1e-12*||H q1||, returning the steps achieved so far.

    With ``ritz_tol`` set, ``k`` is a cap: every ``CHECK_EVERY`` steps the
    leading tridiagonal is solved, and the recurrence stops (not a
    breakdown) once every Ritz pair of weight at least ``min_weight`` has
    Paige bound beta_k * |s_kj| <= ``ritz_tol``.
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
    q = q / _nrm2(q)
    keep_basis = reorthogonalize or store_basis
    basis = np.empty((op.dim, k)) if keep_basis else None
    if keep_basis:
        basis[:, 0] = q

    alphas: list[float] = []
    betas: list[float] = []
    q_prev = np.zeros_like(q)
    beta_prev = 0.0
    tol = None
    breakdown = False
    residual = 0.0

    for j in range(k):
        w = op.apply(q)
        if tol is None:
            tol = BREAKDOWN_RTOL * _nrm2(w)
        alpha = float(q @ w)
        alphas.append(alpha)
        if j == op.dim - 1:
            break  # the Krylov space is the whole space: the residual is 0
        w = w - alpha * q - beta_prev * q_prev
        if reorthogonalize and j > 0:
            w -= basis[:, : j + 1] @ (basis[:, : j + 1].T @ w)
        beta = _nrm2(w)
        if beta <= tol:
            # after the last requested step a vanishing residual is no early stop
            breakdown = j < k - 1
            break
        check = ritz_tol is not None and (j + 1) % CHECK_EVERY == 0
        if j == k - 1 or (check and _converged(alphas, betas, beta, ritz_tol, min_weight)):
            residual = beta
            break
        betas.append(beta)
        q_prev = q
        q = w / beta
        beta_prev = beta
        if keep_basis:
            basis[:, j + 1] = q

    achieved = len(alphas)
    return TridiagResult(
        np.array(alphas),
        np.array(betas),
        achieved,
        breakdown,
        basis[:, :achieved].copy() if store_basis else None,
        residual,
    )


def tridiag_eigen(t: TridiagResult) -> RitzSpectrum:
    """Ritz values, first-component weights and Paige bounds of the tridiagonal.

    Delegates to LAPACK's implicit-shift tridiagonal solver; weights are the
    squared first components of the eigenvectors, and each bound is the
    last recurrence residual times the eigenvector's last component.
    """
    lam, vec = _ritz_pairs(t.alpha, t.beta)
    return RitzSpectrum(lam, vec[0, :] ** 2, t.residual * np.abs(vec[-1, :]))


def spectral_density(spec: RitzSpectrum, omega_grid, eta: float) -> np.ndarray:
    """Broadened density: each weighted delta becomes a unit-area Lorentzian.

    S(w) = sum_j weight_j * (eta/pi) / ((w - lambda_j)^2 + eta^2)
    """
    if not eta > 0:
        raise InputError(f"eta must be positive, got {eta}")
    grid = np.asarray(omega_grid, dtype=float)
    if grid.size == 0:
        return np.empty(0)
    diff = grid[None, :] - spec.lambdas[:, None]
    kern = (eta / np.pi) / (diff**2 + eta**2)
    return spec.weights @ kern
