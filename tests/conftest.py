import numpy as np
import pytest


def _heavy_pair_operator(rng, dim):
    """Q diag(lambda) Q^T with two heavy eigenvalues, one in [-0.8, -0.3]
    and one in [0.3, 0.8], inside a bulk in [-1, 1], and a start vector
    putting 0.9 of its weight on the heavy two."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    lam = np.concatenate([[rng.uniform(-0.8, -0.3), rng.uniform(0.3, 0.8)],
                          rng.uniform(-1.0, 1.0, dim - 2)])
    bulk = rng.uniform(0.5, 1.5, dim - 2)
    weights = np.concatenate([[0.45, 0.45], 0.1 * bulk / bulk.sum()])
    h = (q * lam) @ q.T
    return (h + h.T) / 2, q @ np.sqrt(weights)


def _failing_gufunc(*args, **kwargs):
    """A LAPACK gufunc that fails as numpy's report a failure: by an invalid
    floating-point operation, which the caller's ``np.errstate`` handles."""
    np.sqrt(np.float64(-1.0))
    raise AssertionError("the invalid operation was ignored")


@pytest.fixture
def failing_gufunc():
    """Stand-in for one of numpy's LAPACK gufuncs that fails on every call."""
    return _failing_gufunc


@pytest.fixture
def heavy_pair_operator():
    """Builder of dense symmetric operators with two heavy eigenvalues in a
    bulk: ``heavy_pair_operator(rng, dim) -> (matrix, start vector)``."""
    return _heavy_pair_operator
