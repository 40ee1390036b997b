import numpy as np
import pytest

from speclogic import (
    IllConditionedError,
    InputError,
    PoleProximityError,
    RationalApprox,
    eval_rational,
    extract_poles,
    fit_pade,
)
from speclogic.pade import taylor_coefficients


def random_rational(rng, m, n):
    """Random [m/n] pair whose denominator roots lie outside the unit disk,
    so its Taylor series is well conditioned on the disk."""
    b_full = np.array([1.0])
    remaining = n
    while remaining > 0:
        radius = rng.uniform(1.5, 3.0)
        if remaining >= 2 and rng.random() < 0.5:
            angle = rng.uniform(0.3, np.pi - 0.3)
            root = radius * np.exp(1j * angle)
            # (1 - s/root)(1 - s/conj(root)) expanded with real coefficients
            factor = np.array([1.0, -2 * np.cos(angle) / radius, 1.0 / radius**2])
            remaining -= 2
        else:
            sign = -1.0 if rng.random() < 0.5 else 1.0
            factor = np.array([1.0, sign / radius])
            remaining -= 1
        b_full = np.convolve(b_full, factor)
    a = rng.uniform(-2.0, 2.0, m + 1)
    return a, b_full[1:]


def series_of(a, b, count):
    return taylor_coefficients(RationalApprox(a, b, len(a) - 1, len(b)), count)


def test_geometric_series():
    r = fit_pade([1.0, 1.0, 1.0, 1.0], 0, 1)
    assert np.allclose(r.a, [1.0])
    assert np.allclose(r.b, [-1.0])


def test_exp_one_one():
    # solve b1*c1 = -c2 and a1 = c1 + b1*c0 by hand: (1 + s/2)/(1 - s/2)
    r = fit_pade([1.0, 1.0, 0.5, 1.0 / 6.0], 1, 1)
    assert np.allclose(r.a, [1.0, 0.5])
    assert np.allclose(r.b, [-0.5])


def test_degenerate_constant():
    r = fit_pade([3.5, 1.0], 0, 0)
    assert np.allclose(r.a, [3.5])
    assert r.n == 0
    assert eval_rational(r, 17.0) == pytest.approx(3.5)


def test_insufficient_coefficients():
    with pytest.raises(InputError):
        fit_pade([1.0, 2.0], 1, 1)
    with pytest.raises(InputError):
        fit_pade([1.0, 2.0, 3.0], -1, 1)


def test_ill_conditioned_reports_residual():
    # moment rows [[0,0],[1,0]] cannot meet rhs [-1,-1]: c_1 + b_1*c_0 = 0
    # is unsatisfiable with c_0 = 0, c_1 = 1
    with pytest.raises(IllConditionedError) as err:
        fit_pade([0.0, 1.0, 1.0, 1.0, 2.0], 0, 2)
    assert err.value.residual == pytest.approx(1.0)


def test_moment_matching_random_rationals():
    rng = np.random.default_rng(7)
    for _ in range(100):
        m = int(rng.integers(0, 5))
        n = int(rng.integers(0, 5))
        a, b = random_rational(rng, m, n)
        c = series_of(a, b, m + n + 5)
        fit = fit_pade(c, m, n)
        back = taylor_coefficients(fit, m + n + 1)
        scale = np.max(np.abs(c[: m + n + 1]))
        assert np.max(np.abs(back - c[: m + n + 1])) <= 1e-10 * scale


def test_exact_recovery_of_rationals():
    rng = np.random.default_rng(11)
    for _ in range(60):
        m = int(rng.integers(0, 5))
        n = int(rng.integers(1, 5))
        a, b = random_rational(rng, m, n)
        c = series_of(a, b, m + n + 1)
        fit = fit_pade(c, m, n)
        assert np.linalg.norm(fit.a - a) <= 1e-8 * max(1.0, np.linalg.norm(a))
        assert np.linalg.norm(fit.b - b) <= 1e-8 * max(1.0, np.linalg.norm(b))


def test_eval_geometric_at_half():
    r = fit_pade([1.0, 1.0, 1.0, 1.0], 0, 1)
    assert eval_rational(r, 0.5) == pytest.approx(2.0)


def test_eval_preserves_constant_term_at_origin():
    r = fit_pade([1.0, 1.0, 0.5, 1.0 / 6.0], 1, 1)
    assert eval_rational(r, 0.0) == pytest.approx(1.0)


def test_eval_near_pole_rejected():
    r = fit_pade([1.0, 1.0, 1.0, 1.0], 0, 1)
    with pytest.raises(PoleProximityError):
        eval_rational(r, 1.0 + 1e-14)


def test_poles_of_geometric():
    ps = extract_poles(fit_pade([1.0, 1.0, 1.0, 1.0], 0, 1))
    assert ps.poles[0] == pytest.approx(1.0)
    # 1/(1-s) = -1/(s-1)
    assert ps.residues[0] == pytest.approx(-1.0)


def test_poles_of_exp_one_one():
    ps = extract_poles(fit_pade([1.0, 1.0, 0.5, 1.0 / 6.0], 1, 1))
    assert ps.poles[0] == pytest.approx(2.0)


def test_empty_poles_for_polynomial():
    ps = extract_poles(fit_pade([2.0, 3.0], 1, 0))
    assert len(ps) == 0
    assert not ps.multiple_poles


def test_conjugate_closure_for_real_coefficients():
    rng = np.random.default_rng(3)
    for _ in range(30):
        a, b = random_rational(rng, int(rng.integers(0, 4)), int(rng.integers(2, 5)))
        ps = extract_poles(RationalApprox(a, b, len(a) - 1, len(b)))
        conj = np.sort_complex(np.conj(ps.poles))
        assert np.allclose(np.sort_complex(ps.poles), conj, atol=1e-8)


def test_partial_fraction_consistency():
    rng = np.random.default_rng(19)
    for _ in range(25):
        m = int(rng.integers(0, 5))
        n = int(rng.integers(1, 5))
        a, b = random_rational(rng, m, n)
        r = RationalApprox(a, b, m, n)
        ps = extract_poles(r)
        if ps.multiple_poles:
            continue
        # polynomial part of a/b (nonzero once m >= n)
        quot, _ = np.polydiv(a[::-1], r.denominator[::-1])
        for _ in range(5):
            s = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
            if np.min(np.abs(s - ps.poles)) < 0.3:
                continue
            direct = eval_rational(r, s)
            expanded = np.polyval(quot, s) + np.sum(ps.residues / (s - ps.poles))
            assert abs(direct - expanded) <= 1e-8 * max(1.0, abs(direct))


def test_multiple_pole_flag():
    # denominator (1 - s)^2 = 1 - 2s + s^2
    r = RationalApprox(np.array([1.0]), np.array([-2.0, 1.0]), 0, 2)
    ps = extract_poles(r)
    assert ps.multiple_poles
    assert np.allclose(ps.poles, [1.0, 1.0], atol=1e-6)


def test_poles_sorted_by_real_then_imag():
    rng = np.random.default_rng(23)
    a, b = random_rational(rng, 2, 4)
    ps = extract_poles(RationalApprox(a, b, 2, 4))
    keys = [(z.real, z.imag) for z in ps.poles]
    assert keys == sorted(keys)
