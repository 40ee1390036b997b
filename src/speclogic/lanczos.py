"""Krylov tridiagonalization of symmetric operators and broadened densities.

The three-term recurrence projects a symmetric operator H onto the Krylov
subspace span{q1, H q1, ..., H^(k-1) q1}, producing a real tridiagonal
matrix whose eigenvalues approximate those of H. The squared first
components of the tridiagonal eigenvectors weight each eigenvalue's
contribution to the spectral density seen from q1.

Full reorthogonalization is on by default: floating-point Lanczos loses
orthogonality quickly, and at desk scale correctness beats speed. Breakdown
(a vanishing recurrence residual) means an exact invariant subspace was
found and is reported as a success, not an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from .errors import ConvergenceError, InputError

#: beta_j <= BREAKDOWN_RTOL * ||H q1|| terminates the recurrence.
BREAKDOWN_RTOL = 1e-12

#: Dense inputs must satisfy max|H - H^T| <= SYMMETRY_RTOL * max|H|.
SYMMETRY_RTOL = 1e-12


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
    termination on an invariant subspace. ``basis`` holds the Krylov basis
    as columns when storage was requested.
    """

    alpha: np.ndarray
    beta: np.ndarray
    k: int
    breakdown: bool = False
    basis: np.ndarray | None = None

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=float)
        beta = np.asarray(self.beta, dtype=float)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        if alpha.size < 1 or alpha.size != self.k:
            raise InputError("alpha must hold one entry per achieved step")
        if beta.size != self.k - 1:
            raise InputError("beta must hold k-1 entries")
        if not (np.all(np.isfinite(alpha)) and np.all(np.isfinite(beta))):
            raise InputError("tridiagonal entries must be finite")


@dataclass(frozen=True, eq=False)
class RitzSpectrum:
    """Ascending Ritz values with their spectral weights (summing to one)."""

    lambdas: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "weights", w)
        if lam.shape != w.shape or lam.ndim != 1 or lam.size == 0:
            raise InputError("lambdas and weights must be equal-length 1-d arrays")
        if np.any(np.diff(lam) < -1e-12):
            raise InputError("Ritz values must be ascending")
        if np.any(w < -1e-12):
            raise InputError("weights must be nonnegative")
        if abs(float(w.sum()) - 1.0) > 1e-10:
            raise InputError(f"weights must sum to 1 (got {w.sum()!r})")


def lanczos_tridiag(
    op: HermitianOp,
    q1,
    k: int,
    reorthogonalize: bool = True,
    store_basis: bool = False,
) -> TridiagResult:
    """Run k steps of the symmetric Lanczos recurrence started from q1.

    ``q1`` need not be normalized but must be nonzero. Terminates early with
    ``breakdown=True`` when the recurrence residual drops below
    1e-12*||H q1||, returning the steps achieved so far.
    """
    q = np.asarray(q1, dtype=float).ravel()
    if q.size != op.dim:
        raise InputError(f"start vector has length {q.size}, operator dim is {op.dim}")
    qnorm = float(np.linalg.norm(q))
    if qnorm == 0:
        raise InputError("start vector must be nonzero")
    if not 1 <= k <= op.dim:
        raise InputError(f"k must be in [1, {op.dim}], got {k}")

    q = q / qnorm
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

    for j in range(k):
        w = op.apply(q)
        if tol is None:
            tol = BREAKDOWN_RTOL * float(np.linalg.norm(w))
        alpha = float(q @ w)
        alphas.append(alpha)
        if j == k - 1:
            # all k steps done; a vanishing residual here is not early termination
            break
        w = w - alpha * q - beta_prev * q_prev
        if reorthogonalize and j > 0:
            w -= basis[:, : j + 1] @ (basis[:, : j + 1].T @ w)
        beta = float(np.linalg.norm(w))
        if beta <= tol:
            breakdown = True
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
    )


def tridiag_eigen(t: TridiagResult) -> RitzSpectrum:
    """Eigenvalues and first-component weights of the tridiagonal matrix.

    Delegates to LAPACK's implicit-shift tridiagonal solver; weights are the
    squared first components of the eigenvectors.
    """
    if t.k == 1:
        return RitzSpectrum(t.alpha.copy(), np.ones(1))
    try:
        lam, vec = scipy.linalg.eigh_tridiagonal(t.alpha, t.beta)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise ConvergenceError(f"tridiagonal eigensolver failed to converge: {exc}") from None
    return RitzSpectrum(lam, vec[0, :] ** 2)


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
