import warnings
from dataclasses import replace

import numpy as np
import pytest

from speclogic import (
    BinAxis,
    BinningConfig,
    ConvergenceError,
    IllConditionedError,
    InputError,
    PipelineConfig,
    RationalApprox,
    TimeSeries,
    extract_poles,
    fit_pade,
    run,
)
from speclogic.pade import taylor_coefficients
from speclogic.pipeline import PadeSettings


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


def value_of(r, s):
    """a(s)/b(s) by np.polyval on the ascending coefficient arrays."""
    return np.polyval(r.a[::-1], s) / np.polyval(r.denominator[::-1], s)


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
    assert value_of(r, 17.0) == pytest.approx(3.5)


def test_insufficient_coefficients():
    with pytest.raises(InputError):
        fit_pade([1.0, 2.0], 1, 1)
    with pytest.raises(InputError):
        fit_pade([1.0, 2.0, 3.0], -1, 1)


def test_fit_pade_checks_only_the_coefficients_it_reads():
    # [1/1] reads c_0..c_2: a NaN there is an InputError, and a NaN past
    # them leaves the fit as it is, bit for bit
    c = [1.0, 1.0, 0.5, 1.0 / 6.0]
    with pytest.raises(InputError, match="finite"):
        fit_pade([1.0, np.nan, 0.5, 1.0 / 6.0], 1, 1)
    r, tail_nan = fit_pade(c, 1, 1), fit_pade(c[:3] + [np.nan], 1, 1)
    assert r.a.tobytes() == tail_nan.a.tobytes() and r.b.tobytes() == tail_nan.b.tobytes()


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
    assert value_of(r, 0.5) == pytest.approx(2.0)


def test_eval_preserves_constant_term_at_origin():
    r = fit_pade([1.0, 1.0, 0.5, 1.0 / 6.0], 1, 1)
    assert value_of(r, 0.0) == pytest.approx(1.0)


def test_poles_of_geometric():
    ps = extract_poles(fit_pade([1.0, 1.0, 1.0, 1.0], 0, 1))
    assert ps.poles[0] == pytest.approx(1.0)
    # 1/(1-s) = -1/(s-1)
    assert ps.residues[0] == pytest.approx(-1.0)


def test_poles_of_exp_one_one():
    ps = extract_poles(fit_pade([1.0, 1.0, 0.5, 1.0 / 6.0], 1, 1))
    assert ps.poles[0] == pytest.approx(2.0)
    assert not ps.multiple_poles


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
            direct = value_of(r, s)
            expanded = np.polyval(quot, s) + np.sum(ps.residues / (s - ps.poles))
            assert abs(direct - expanded) <= 1e-8 * max(1.0, abs(direct))


def test_multiple_pole_flag():
    # denominator (1 - s)^2 = 1 - 2s + s^2
    r = RationalApprox(np.array([1.0]), np.array([-2.0, 1.0]), 0, 2)
    ps = extract_poles(r)
    assert ps.multiple_poles
    assert np.allclose(ps.poles, [1.0, 1.0], atol=1e-6)


@pytest.mark.parametrize("m, n", [(1, 2), (2, 3), (3, 4)])
@pytest.mark.parametrize("base", [1.0, 0.5, 0.25, 0.9])
def test_multiple_pole_flag_is_relative(base, m, n):
    # (k+1) b^k is the series of 1/(1 - b s)^2; companion eigenvalues split
    # its double root 1/b by ~1e-7 relative, above any fixed 1e-8 tolerance
    k = np.arange(16)
    ps = extract_poles(fit_pade((k + 1) * base**k, m, n))
    assert ps.multiple_poles
    assert np.sum(np.abs(ps.poles - 1 / base) < 1e-6 / base) == 2


def test_close_distinct_poles_are_not_multiple():
    # roots 2 and 2.0002 (1e-4 relative apart) by (1 - s/2)(1 - s/2.0002)
    r1, r2 = 2.0, 2.0002
    r = RationalApprox(np.array([1.0]), np.array([-(1 / r1 + 1 / r2), 1 / (r1 * r2)]), 0, 2)
    assert not extract_poles(r).multiple_poles


def test_poles_sorted_by_real_then_imag():
    rng = np.random.default_rng(23)
    a, b = random_rational(rng, 2, 4)
    ps = extract_poles(RationalApprox(a, b, 2, 4))
    keys = [(z.real, z.imag) for z in ps.poles]
    assert keys == sorted(keys)


# ---- the rewritten kernels against plain-Python copies of the old loops ----


def taylor_oracle(a, b, count):
    """Division recurrence d_k = a_k - sum_{j=1..n} b_j d_{k-j}, one term at a time."""
    d = [0.0] * count
    for k in range(count):
        acc = float(a[k]) if k < len(a) else 0.0
        for j in range(1, min(k, len(b)) + 1):
            acc -= float(b[j - 1]) * d[k - j]
        d[k] = acc
    return np.array(d)


def moment_oracle(c, m, n):
    """Moment matrix rows[i-1, j-1] = c[m+i-j] (0 for m+i-j < 0), by loops."""
    rows = np.zeros((n, n))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if m + i - j >= 0:
                rows[i - 1, j - 1] = c[m + i - j]
    return rows


@pytest.mark.parametrize(
    "m, n, count",
    [(4, 2, 30), (3, 3, 30), (1, 4, 30), (0, 3, 25), (3, 0, 12), (0, 0, 5), (5, 2, 4), (4, 3, 1), (2, 2, 0)],
    ids=["m>n", "m=n", "m<n", "m=0", "n=0", "n=m=0", "count<=m", "count=1", "count=0"],
)
def test_taylor_coefficients_match_recurrence(m, n, count):
    rng = np.random.default_rng(100 * m + 10 * n + count)
    for _ in range(10):
        a, b = random_rational(rng, m, n)
        got = taylor_coefficients(RationalApprox(a, b, m, n), count)
        want = taylor_oracle(a, b, count)
        assert got.shape == (count,)
        scale = max(1.0, float(np.max(np.abs(want)))) if count else 1.0
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)


@pytest.mark.parametrize("m, n", [(0, 3), (1, 4), (2, 2), (4, 1)])
def test_fit_pade_moment_matrix(m, n):
    # for m < n the moment matrix reaches c_k with k < 0, which must be zero
    rng = np.random.default_rng(10 * m + n)
    for _ in range(10):
        a, b = random_rational(rng, m, n)
        c = series_of(a, b, m + n + 1)
        fit = fit_pade(c, m, n)
        rows = moment_oracle(c, m, n)
        assert np.linalg.norm(rows @ fit.b + c[m + 1 : m + n + 1]) <= 1e-10 * np.linalg.norm(c)
        np.testing.assert_allclose(fit.b, b, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(fit.a, a, rtol=1e-8, atol=1e-10)
        # numerator: a_k = sum_{j=0..min(k,n)} b_j c_{k-j} with b_0 = 1
        b_full = np.concatenate(([1.0], fit.b))
        numerator = [sum(b_full[j] * c[k - j] for j in range(min(k, n) + 1)) for k in range(m + 1)]
        np.testing.assert_allclose(fit.a, numerator, rtol=1e-12, atol=1e-14)


def test_extract_poles_residues_match_pointwise_horner():
    rng = np.random.default_rng(29)
    for _ in range(20):
        m, n = int(rng.integers(0, 5)), int(rng.integers(1, 6))
        a, b = random_rational(rng, m, n)
        ps = extract_poles(RationalApprox(a, b, m, n))
        dq = np.concatenate(([1.0], b))[1:] * np.arange(1, n + 1)
        for z, r in zip(ps.poles, ps.residues):
            num = sum(coef * z**k for k, coef in enumerate(a))
            den = sum(coef * z**k for k, coef in enumerate(dq))
            assert r == pytest.approx(num / den, rel=1e-10)


def pade_auto_config():
    return PipelineConfig(
        binning=BinningConfig(
            omega_bins=BinAxis((0.0, 1.0), ("low", "high")),
            gamma_bins=BinAxis((0.0, 0.5), ("narrow", "wide")),
            amp_bins=BinAxis((0.0,), ("any",)),
            negligible_eps=1e-6,
        ),
        backend="pade_z",
        pade=PadeSettings(auto=True, n_max=8),
        rules_text="resonance_high => alert\n",
    )


def adversarial_series():
    rng = np.random.default_rng(5)
    t = np.arange(256) * 0.05
    mode = np.exp(-0.2 * t) * np.cos(3.0 * t)
    return {
        "noisy": mode + 0.5 * rng.standard_normal(t.size),
        "white_noise": rng.standard_normal(t.size),
        "growing": np.exp(0.05 * np.arange(t.size)),
        "growing_oscillation": np.exp(0.3 * t) * np.cos(2.0 * t),
        "scaled_1e300": 1e300 * mode,
        "noisy_1e300": 1e300 * (mode + 0.5 * rng.standard_normal(t.size)),
        "scaled_1e-300": 1e-300 * mode,
    }


@pytest.mark.parametrize("name", list(adversarial_series()))
def test_pade_auto_emits_no_runtime_warning(name):
    x = TimeSeries(adversarial_series()[name], 0.05)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = run(x, pade_auto_config())
    assert result.diagnostics["estimate"]["auto"]


@pytest.mark.parametrize("scale", [1e300, 1e-300])
def test_pade_z_is_scale_invariant(scale):
    t = np.arange(256) * 0.05
    mode = np.exp(-0.2 * t) * np.cos(3.0 * t)
    plain = run(TimeSeries(mode, 0.05), pade_auto_config())
    scaled = run(TimeSeries(scale * mode, 0.05), pade_auto_config())
    assert scaled.diagnostics["estimate"]["orders"] == plain.diagnostics["estimate"]["orders"]
    assert len(scaled.atoms.atoms) == len(plain.atoms.atoms) == 1
    got, want = scaled.atoms.atoms[0], plain.atoms.atoms[0]
    assert got.omega == pytest.approx(want.omega, rel=1e-8)
    assert got.gamma == pytest.approx(want.gamma, rel=1e-8)
    assert got.amp == pytest.approx(scale * want.amp, rel=1e-8)


# Rounding guards: fit_pade, taylor_coefficients and extract_poles skip numpy's
# wrappers but must keep every LAPACK call and floating-point operation of the
# wrapped forms below, so each comparison is exact, not to a tolerance.


def wrapped_fit(c, m, n):
    """fit_pade's (b, a, moment residual vector) from the fancy-indexed Toeplitz matrix."""
    used = c[: m + n + 1]
    padded = np.concatenate((np.zeros(n), used))
    rows = padded[m + n + np.subtract.outer(np.arange(n), np.arange(n))]
    rhs = -c[m + 1 : m + n + 1]
    b, *_ = np.linalg.lstsq(rows, rhs, rcond=None)
    a = np.convolve(np.concatenate(([1.0], b)), c[: m + 1])[: m + 1]
    return b, a, rows @ b - rhs


@pytest.fixture
def norm2_args(monkeypatch):
    """The arrays fit_pade takes norms of, in call order: the series, then the moment residual."""
    from speclogic import pade, signal

    seen = []

    def recording(v):
        seen.append(v.copy())
        return signal.norm2(v)

    monkeypatch.setattr(pade, "norm2", recording)
    return seen


def wrapped_taylor(r, count):
    """taylor_coefficients by dtbtrs on an np.repeat band."""
    from scipy.linalg.lapack import dtbtrs

    band = np.repeat(r.denominator[:, None], count, axis=1)
    rhs = np.zeros(count)
    rhs[: r.m + 1] = r.a[:count]
    return dtbtrs(band, rhs, uplo="L", diag="U")[0]


def wrapped_poles(r):
    """extract_poles' (sorted poles, residues, multiple) by np.roots and np.polyval."""
    q = r.denominator
    keep = np.nonzero(np.abs(q) > 1e-14 * np.max(np.abs(q)))[0]
    roots = np.roots(q[: keep[-1] + 1][::-1])
    dq = q[1:] * np.arange(1, q.size)
    residues = np.polyval(r.a[::-1], roots) / np.polyval(dq[::-1], roots)
    order = np.lexsort((roots.imag, roots.real))
    roots, residues = roots[order], residues[order]
    diff = np.abs(roots[:, None] - roots[None, :])
    diff[np.diag_indices_from(diff)] = np.inf
    mod = np.abs(roots)
    multiple = bool(np.any(diff < 1e-6 * np.maximum.outer(mod, mod)))
    return roots, residues, multiple


def noisy_mode_series(seed, count=384):
    """Series coefficients of a noisy signal: a damped cosine plus noise at unit scale."""
    rng = np.random.default_rng(seed)
    t = np.arange(count) * 0.05
    x = np.exp(-0.1 * t) * np.cos(2.0 * t) + 0.01 * rng.standard_normal(count)
    return x / 2.0 ** np.frexp(np.max(np.abs(x)))[1]


GUARD_ORDERS = [(n - 1, n) for n in range(1, 9)] + [(0, 3), (1, 5), (3, 0), (0, 0)]


@pytest.mark.parametrize("m, n", GUARD_ORDERS, ids=[f"[{m}/{n}]" for m, n in GUARD_ORDERS])
def test_fit_pade_equals_lstsq_on_the_fancy_indexed_matrix(m, n, norm2_args):
    for seed in range(8):
        c = noisy_mode_series(seed)
        norm2_args.clear()
        fit = fit_pade(c, m, n)
        if n == 0:
            assert np.array_equal(fit.a, c[: m + 1]) and fit.b.size == 0
            continue
        b, a, residual = wrapped_fit(c, m, n)
        assert np.array_equal(fit.b, b) and np.array_equal(fit.a, a)
        # the residual product rounds as BLAS gemv on a contiguous matrix does
        assert np.array_equal(norm2_args[1], residual)


@pytest.mark.parametrize("m, n", [(2, 3), (3, 4), (6, 7)])
def test_fit_pade_equals_lstsq_on_a_rank_deficient_system(m, n, norm2_args):
    # a clean damped cosine has two poles, so from n = 3 its moment matrix is singular
    c = np.exp(-0.005 * np.arange(64)) * np.cos(0.3 * np.arange(64))
    b, a, residual = wrapped_fit(c, m, n)
    assert np.linalg.matrix_rank(moment_oracle(c, m, n)) < n
    fit = fit_pade(c, m, n)
    assert np.array_equal(fit.b, b) and np.array_equal(fit.a, a)
    assert np.array_equal(norm2_args[1], residual)


def test_fit_pade_rejects_the_ill_conditioned_zero_moment_with_the_wrapped_residual():
    # [0/1] with c_0 = 0: the 1x1 moment matrix is 0, so b_1 c_0 = -c_1 has no solution
    c = np.array([0.0, 1.0, 0.5])
    _, _, residual = wrapped_fit(c, 0, 1)
    with pytest.raises(IllConditionedError) as err:
        fit_pade(c, 0, 1)
    assert np.array_equal(residual, [1.0]) and err.value.residual == 1.0


@pytest.mark.parametrize("count", [0, 1, 3, 384])
def test_taylor_coefficients_equal_dtbtrs_on_a_repeat_band(count):
    c = noisy_mode_series(3)
    for n in range(9):
        r = fit_pade(c, 4, n)  # counts 0, 1 and 3 cut the numerator's 5 terms
        got = taylor_coefficients(r, count)
        assert got.shape == (count,)
        assert np.array_equal(got, wrapped_taylor(r, count))


def test_extract_poles_equals_np_roots_and_np_polyval():
    cases = [fit_pade(noisy_mode_series(seed), n - 1, n) for seed in range(4) for n in range(1, 9)]
    # all-real roots, where eigvals returns a real dtype
    cases.append(RationalApprox(np.array([1.0, 0.5]), np.array([-0.5, -0.5, 0.125]), 1, 3))
    # a trimmed leading coefficient: degree 2, not 3
    cases.append(RationalApprox(np.array([1.0, 0.2, 0.1]), np.array([0.3, 0.4, 1e-17]), 2, 3))
    for r in cases:
        ps = extract_poles(r)
        poles, residues, multiple = wrapped_poles(r)
        assert np.array_equal(ps.poles, poles) and np.array_equal(ps.residues, residues)
        assert ps.multiple_poles == multiple
    assert len(extract_poles(cases[-1])) == 2


def test_polynomial_roots_keep_the_dtype_np_roots_returns():
    from speclogic.pade import _polynomial_roots

    for q in ([1.0, -1.5, 0.5], [1.0, 0.0, 1.0], [1.0, 0.3, 0.4, 1e-17]):
        q = np.array(q)
        keep = np.nonzero(np.abs(q) > 1e-14 * np.max(np.abs(q)))[0]
        want = np.roots(q[: keep[-1] + 1][::-1])
        got = _polynomial_roots(q)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_fit_pade_of_a_strided_series_equals_that_of_its_copy():
    # the Toeplitz view of m >= n-1 stands on the series itself, which must be contiguous
    c = noisy_mode_series(0)[::3]
    for m, n in [(2, 3), (5, 6), (1, 4)]:
        got, want = fit_pade(c, m, n), fit_pade(c.copy(), m, n)
        assert np.array_equal(got.a, want.a) and np.array_equal(got.b, want.b)


def test_the_pade_route_calls_no_np_linalg_wrapper(monkeypatch):
    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("an np.linalg wrapper was called")

    monkeypatch.setattr(np.linalg, "lstsq", failing)
    monkeypatch.setattr(np.linalg, "eigvals", failing)
    t = np.arange(256) * 0.05
    x = TimeSeries(np.exp(-0.2 * t) * np.cos(3.0 * t), 0.05)
    for pade in (PadeSettings(auto=True, n_max=8), PadeSettings()):
        result = run(x, replace(pade_auto_config(), pade=pade))
        assert len(result.atoms.atoms) == 1
    assert result.diagnostics["estimate"]["orders"] == [1, 2]


@pytest.mark.parametrize("route", ["lstsq", "eigvals"])
def test_a_nan_matrix_fails_the_gufunc_route_with_numpys_error(route):
    # dgelsd and dgeev flag a NaN matrix as an invalid operation, which the
    # np.errstate handler of signal.lapack_errstate raises as a ConvergenceError
    from speclogic import pade, signal

    nan = np.full((3, 3), np.nan)
    with pytest.raises(ConvergenceError, match="^a LAPACK routine did not converge$"):
        pade._lstsq(nan, np.ones(3)) if route == "lstsq" else signal.eigenvalues(nan)
