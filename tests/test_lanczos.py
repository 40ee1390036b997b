import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

from speclogic import (
    HermitianOp,
    InputError,
    NumericError,
    RitzSpectrum,
    TridiagResult,
    lanczos_tridiag,
    tridiag_eigen,
)
from speclogic.lanczos import CHECK_EVERY


def random_symmetric(rng, dim):
    a = rng.standard_normal((dim, dim))
    return (a + a.T) / 2


def ritz_of(matrix, q1, k):
    return tridiag_eigen(lanczos_tridiag(HermitianOp.from_dense(matrix), q1, k))


def test_from_dense_rejects_asymmetric():
    with pytest.raises(InputError, match="symmetric"):
        HermitianOp.from_dense([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(InputError):
        HermitianOp.from_dense([[1.0, 2.0, 3.0]])


def test_diagonal_three_by_three():
    spec = ritz_of(np.diag([1.0, 2.0, 3.0]), np.ones(3) / np.sqrt(3), 3)
    assert np.allclose(spec.lambdas, [1.0, 2.0, 3.0], atol=1e-10)
    assert np.allclose(spec.weights, [1 / 3, 1 / 3, 1 / 3], atol=1e-10)


def test_identity_breaks_down_after_one_step():
    op = HermitianOp.from_dense(np.eye(5))
    t = lanczos_tridiag(op, np.array([0.3, -1.0, 0.2, 0.0, 2.0]), 4)
    assert t.k == 1
    assert t.breakdown
    assert t.alpha[0] == pytest.approx(1.0)


def test_eigenvector_start_breaks_down():
    h = np.diag([1.0, 5.0, 9.0])
    t = lanczos_tridiag(HermitianOp.from_dense(h), np.array([0.0, 1.0, 0.0]), 3)
    assert t.k == 1 and t.breakdown
    assert t.alpha[0] == pytest.approx(5.0)


def test_full_depth_is_not_a_breakdown():
    rng = np.random.default_rng(7)
    h = random_symmetric(rng, 12)
    t = lanczos_tridiag(HermitianOp.from_dense(h), rng.standard_normal(12), 12)
    assert t.k == 12
    assert t.breakdown is False


def test_start_vector_and_k_validation():
    op = HermitianOp.from_dense(np.eye(3))
    with pytest.raises(InputError):
        lanczos_tridiag(op, np.zeros(3), 2)
    with pytest.raises(InputError):
        lanczos_tridiag(op, np.ones(3), 4)
    with pytest.raises(InputError):
        lanczos_tridiag(op, np.ones(3), 0)


def test_basis_storage_orthonormal():
    rng = np.random.default_rng(5)
    h = random_symmetric(rng, 30)
    t = lanczos_tridiag(HermitianOp.from_dense(h), rng.standard_normal(30), 12)
    gram = t.basis.T @ t.basis
    assert np.allclose(gram, np.eye(t.k), atol=1e-10)


def test_two_by_two_hand_eigenproblem():
    spec = tridiag_eigen(TridiagResult(np.array([2.0, 2.0]), np.array([1.0]), 2))
    assert np.allclose(spec.lambdas, [1.0, 3.0], atol=1e-12)
    assert np.allclose(spec.weights, [0.5, 0.5], atol=1e-12)


def test_diagonal_tridiag_weights():
    spec = tridiag_eigen(TridiagResult(np.array([1.0, 2.0, 3.0]), np.zeros(2), 3))
    assert np.allclose(spec.lambdas, [1.0, 2.0, 3.0])
    assert np.allclose(spec.weights, [1.0, 0.0, 0.0], atol=1e-14)


def test_single_entry_tridiag():
    spec = tridiag_eigen(TridiagResult(np.array([0.0]), np.empty(0), 1))
    assert np.allclose(spec.lambdas, [0.0])
    assert np.allclose(spec.weights, [1.0])


def test_weights_sum_to_one_at_every_k():
    rng = np.random.default_rng(17)
    h = random_symmetric(rng, 40)
    t = lanczos_tridiag(HermitianOp.from_dense(h), rng.standard_normal(40), 40)
    for k in range(1, t.k + 1):
        spec = tridiag_eigen(TridiagResult(t.alpha[:k], t.beta[: k - 1], k))
        assert abs(spec.weights.sum() - 1.0) <= 1e-10


def test_full_k_matches_dense_diagonalization():
    rng = np.random.default_rng(29)
    for dim in (6, 24, 60):
        h = random_symmetric(rng, dim)
        spec = ritz_of(h, rng.standard_normal(dim), dim)
        assert len(spec.lambdas) == dim
        assert np.max(np.abs(spec.lambdas - np.linalg.eigvalsh(h))) <= 1e-8


def test_ritz_interlacing():
    rng = np.random.default_rng(31)
    h = random_symmetric(rng, 30)
    t = lanczos_tridiag(HermitianOp.from_dense(h), rng.standard_normal(30), 25)
    prev = tridiag_eigen(TridiagResult(t.alpha[:1], t.beta[:0], 1)).lambdas
    for k in range(2, t.k + 1):
        cur = tridiag_eigen(TridiagResult(t.alpha[:k], t.beta[: k - 1], k)).lambdas
        assert np.all(cur[:-1] <= prev + 1e-10)
        assert np.all(prev <= cur[1:] + 1e-10)
        prev = cur


def test_extremal_convergence():
    rng = np.random.default_rng(37)
    h = random_symmetric(rng, 120)
    true = np.linalg.eigvalsh(h)
    spec = ritz_of(h, rng.standard_normal(120), 45)
    assert abs(spec.lambdas[0] - true[0]) <= 1e-6
    assert abs(spec.lambdas[-1] - true[-1]) <= 1e-6


def test_ritz_spectrum_validation():
    with pytest.raises(InputError):
        RitzSpectrum(np.array([1.0, 0.0]), np.array([0.5, 0.5]))
    with pytest.raises(InputError):
        RitzSpectrum(np.array([0.0, 1.0]), np.array([0.7, 0.7]))


def test_operator_from_matvec_callable():
    # matrix-free operator: diag(1..5) expressed as an action
    scale = np.arange(1.0, 6.0)
    op = HermitianOp(5, lambda v: scale * v)
    spec = tridiag_eigen(lanczos_tridiag(op, np.ones(5), 5))
    assert np.allclose(spec.lambdas, scale, atol=1e-10)


@pytest.mark.parametrize(
    "h_scale, q_scale", [(1.0, 1e-300), (1.0, 1e300), (1e300, 1.0), (1e-300, 1.0)]
)
def test_scaled_inputs_keep_the_ritz_spectrum(h_scale, q_scale):
    # every norm is nrm2, so no scale overflows, underflows or breaks down early
    h = np.diag([0.5, 5.0, -1.0])
    q1 = np.ones(3)
    ref = ritz_of(h, q1, 3)
    t = lanczos_tridiag(HermitianOp.from_dense(h * h_scale), q1 * q_scale, 3)
    spec = tridiag_eigen(t)
    assert t.k == 3 and not t.breakdown
    assert np.allclose(spec.lambdas / h_scale, ref.lambdas, rtol=1e-12, atol=0)
    assert np.allclose(spec.weights, ref.weights, rtol=1e-12, atol=0)


def test_near_max_antisymmetric_matrix_rejected_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="symmetric"):
            HermitianOp.from_dense([[0.0, 1.5e308], [-1.5e308, 0.0]])


def test_overflowing_recurrence_is_a_numeric_error():
    op = HermitianOp.from_dense(np.full((3, 3), 1.5e308))  # H q1 overflows float64
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="overflows"):
            lanczos_tridiag(op, np.ones(3), 3)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_start_vector_rejected(bad):
    op = HermitianOp.from_dense(np.diag([0.5, 5.0, -1.0]))
    with pytest.raises(InputError, match="finite"):
        lanczos_tridiag(op, np.array([1.0, bad, 1.0]), 3)


def test_last_residual_gives_paige_bounds():
    rng = np.random.default_rng(43)
    h = random_symmetric(rng, 40)
    op = HermitianOp.from_dense(h)
    t = lanczos_tridiag(op, rng.standard_normal(40), 10)
    assert t.k == 10 and t.residual > 0
    spec = tridiag_eigen(t)
    # with full reorthogonalization the bound is the Ritz pair's residual
    _, vec = np.linalg.eigh(np.diag(t.alpha) + np.diag(t.beta, 1) + np.diag(t.beta, -1))
    y = t.basis @ vec
    actual = np.linalg.norm(h @ y - y * spec.lambdas, axis=0)
    assert np.allclose(spec.bounds, actual, rtol=1e-8, atol=1e-12)
    # full depth and breakdown leave no residual
    assert lanczos_tridiag(op, rng.standard_normal(40), 40).residual == 0.0
    assert lanczos_tridiag(HermitianOp.from_dense(np.eye(4)), np.ones(4), 3).residual == 0.0


def test_ritz_stop_returns_once_heavy_pairs_converge(heavy_pair_operator):
    rng = np.random.default_rng(47)
    h, q1 = heavy_pair_operator(rng, 200)
    op = HermitianOp.from_dense(h)
    tol, min_weight = 0.005, 0.1
    t = lanczos_tridiag(op, q1, 200, ritz_tol=tol, min_weight=min_weight)
    assert t.k < 200 and t.k % CHECK_EVERY == 0
    assert t.beta.size == t.k - 1 and t.breakdown is False
    spec = tridiag_eigen(t)
    heavy = spec.weights >= min_weight
    assert heavy.sum() >= 2 and np.all(spec.bounds[heavy] <= tol)
    true = np.linalg.eigvalsh(h)
    assert all(np.min(np.abs(true - lam)) <= tol for lam in spec.lambdas[heavy])
    # without a tolerance exactly k steps run
    assert lanczos_tridiag(op, q1, t.k + 3).k == t.k + 3


def _stop_by_definition(op, q1, tol, min_weight):
    """The Ritz stop as defined: run the recurrence to full depth, solve the
    leading tridiagonal at every multiple of CHECK_EVERY and stop at the first
    one whose pairs of weight at least ``min_weight`` all have bound <= ``tol``."""
    full = lanczos_tridiag(op, q1, op.dim)
    for k in range(CHECK_EVERY, full.k, CHECK_EVERY):
        t = TridiagResult(full.alpha[:k], full.beta[: k - 1], k, residual=full.beta[k - 1])
        spec = tridiag_eigen(t)
        if np.all(spec.bounds[spec.weights >= min_weight] <= tol):
            return t
    return full  # no check passed: a breakdown or the whole space


@pytest.mark.parametrize(
    "dim, tol, min_weight",
    [(160, 0.005, 0.1), (400, 0.005, 0.1), (160, 0.002, 0.01), (400, 0.002, 0.01), (160, 0.1, 0.0)],
)
@pytest.mark.parametrize("seed", range(8))
def test_ritz_stop_equals_the_stop_by_definition(heavy_pair_operator, dim, tol, min_weight, seed):
    h, q1 = heavy_pair_operator(np.random.default_rng(1000 + seed), dim)
    op = HermitianOp.from_dense(h)
    ref = _stop_by_definition(op, q1, tol, min_weight)
    t = lanczos_tridiag(op, q1, dim, ritz_tol=tol, min_weight=min_weight)
    assert (t.k, t.breakdown, t.residual) == (ref.k, ref.breakdown, ref.residual)
    assert np.array_equal(t.alpha, ref.alpha) and np.array_equal(t.beta, ref.beta)
    # the spectrum the passing check solved is the one a fresh solve gives
    spec = tridiag_eigen(t)
    fresh = tridiag_eigen(TridiagResult(t.alpha, t.beta, t.k, residual=t.residual))
    for name in ("lambdas", "weights", "bounds"):
        assert np.array_equal(getattr(spec, name), getattr(fresh, name))
    # each call hands out its own arrays
    spec.weights[:] = 0.0
    assert np.array_equal(tridiag_eigen(t).weights, fresh.weights)


def test_ritz_stop_solves_fewer_tridiagonals_than_it_checks(heavy_pair_operator, monkeypatch):
    solves = []
    full_solver = scipy.linalg.eigh_tridiagonal

    def counted(*args, **kwargs):
        solves.append(len(args[0]))
        return full_solver(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", counted)
    h, q1 = heavy_pair_operator(np.random.default_rng(53), 400)
    t = lanczos_tridiag(HermitianOp.from_dense(h), q1, 400, ritz_tol=0.005, min_weight=0.1)
    tridiag_eigen(t)  # as run_hermitian does
    checks = t.k // CHECK_EVERY
    assert checks >= 4
    assert len(solves) < checks


def test_basis_memory_follows_the_steps():
    # matrix-free diagonal operator with two heavy eigenvalues in a bulk
    rng = np.random.default_rng(3)
    dim = 3000
    lam = np.concatenate([[-0.5, 0.6], rng.uniform(-1.0, 1.0, dim - 2)])
    q1 = np.sqrt(np.concatenate([[0.45, 0.45], np.full(dim - 2, 0.1 / (dim - 2))]))
    op = HermitianOp(dim, lambda v: lam * v)
    tracemalloc.start()
    try:
        t = lanczos_tridiag(op, q1, dim, ritz_tol=0.005, min_weight=0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 80 columns run take 1.92 MB; a dim x dim buffer would take 72 MB
    assert t.k == 80
    assert peak < 8e6
    # the returned basis pins at most twice the columns it holds
    assert t.basis.base.nbytes <= 2 * t.basis.nbytes
