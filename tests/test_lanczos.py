import numpy as np
import pytest

from speclogic import (
    HermitianOp,
    InputError,
    RitzSpectrum,
    TridiagResult,
    lanczos_tridiag,
    spectral_density,
    tridiag_eigen,
)
from speclogic.lanczos import CHECK_EVERY


def random_symmetric(rng, dim):
    a = rng.standard_normal((dim, dim))
    return (a + a.T) / 2


def ritz_of(matrix, q1, k, **kw):
    op = HermitianOp.from_dense(matrix)
    return tridiag_eigen(lanczos_tridiag(op, q1, k, **kw))


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
    t = lanczos_tridiag(HermitianOp.from_dense(h), rng.standard_normal(30), 12, store_basis=True)
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


def test_no_reorthogonalization_mode_runs():
    rng = np.random.default_rng(41)
    h = random_symmetric(rng, 50)
    spec = ritz_of(h, rng.standard_normal(50), 30, reorthogonalize=False)
    true = np.linalg.eigvalsh(h)
    # extremes still converge without reorthogonalization, just less sharply
    assert abs(spec.lambdas[-1] - true[-1]) <= 1e-3
    assert abs(spec.lambdas[0] - true[0]) <= 1e-3


def test_density_peak_value():
    spec = RitzSpectrum(np.array([0.0]), np.array([1.0]))
    val = spectral_density(spec, [0.0], 0.1)
    assert val[0] == pytest.approx(1.0 / (0.1 * np.pi), rel=1e-12)


def test_density_empty_grid():
    spec = RitzSpectrum(np.array([0.0]), np.array([1.0]))
    assert spectral_density(spec, [], 0.1).size == 0
    with pytest.raises(InputError):
        spectral_density(spec, [0.0], 0.0)


def test_density_mass():
    spec = RitzSpectrum(np.array([-0.4, 0.7]), np.array([0.25, 0.75]))
    eta = 0.05
    # +-50*eta captures 2/pi*atan(50) of each unit kernel
    grid = np.linspace(-0.4 - 50 * eta, 0.7 + 50 * eta, 120001)
    mass = np.trapezoid(spectral_density(spec, grid, eta), grid)
    assert mass == pytest.approx(2 / np.pi * np.arctan(50), abs=2e-3)
    # a wide grid recovers all the mass
    grid = np.linspace(-0.4 - 700 * eta, 0.7 + 700 * eta, 400001)
    mass = np.trapezoid(spectral_density(spec, grid, eta), grid)
    assert mass == pytest.approx(1.0, abs=1e-3)


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


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_start_vector_rejected(bad):
    op = HermitianOp.from_dense(np.diag([0.5, 5.0, -1.0]))
    with pytest.raises(InputError, match="finite"):
        lanczos_tridiag(op, np.array([1.0, bad, 1.0]), 3)


def test_last_residual_gives_paige_bounds():
    rng = np.random.default_rng(43)
    h = random_symmetric(rng, 40)
    op = HermitianOp.from_dense(h)
    t = lanczos_tridiag(op, rng.standard_normal(40), 10, store_basis=True)
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
