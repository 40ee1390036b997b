"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. Tolerances are pinned here and nowhere else.
"""

import time

import criterion10
import numpy as np
import pytest

from speclogic import (
    HermitianOp,
    PipelineConfig,
    RationalApprox,
    SymbolSet,
    TimeSeries,
    detect_anomalies,
    fit_matrix_pencil,
    fit_pade,
    format_rules,
    infer,
    lanczos_tridiag,
    parse_rules,
    replay,
    run,
    run_benchmark,
    tridiag_eigen,
)
from speclogic.lanczos import TridiagResult
from speclogic.pade import taylor_coefficients
from speclogic.pipeline import PadeSettings
from speclogic.sparse import LorentzianAtom, lorentzian_model_jacobian
from speclogic.symbolic import BinAxis, BinningConfig


def report(n, name):
    print(f"\n[acceptance] criterion {n} ({name}): PASS")


def random_rational(rng, m, n):
    """Real [m/n] coefficient pair with denominator roots of modulus 1.5-3."""
    b_full = np.array([1.0])
    remaining = n
    while remaining > 0:
        radius = rng.uniform(1.5, 3.0)
        if remaining >= 2 and rng.random() < 0.5:
            angle = rng.uniform(0.3, np.pi - 0.3)
            factor = np.array([1.0, -2 * np.cos(angle) / radius, 1.0 / radius**2])
            remaining -= 2
        else:
            factor = np.array([1.0, (-1.0 if rng.random() < 0.5 else 1.0) / radius])
            remaining -= 1
        b_full = np.convolve(b_full, factor)
    a = rng.uniform(-2.0, 2.0, m + 1)
    while abs(a[-1]) < 0.1:  # keep the nominal numerator order genuine
        a[-1] = rng.uniform(-2.0, 2.0)
    return a, b_full[1:]


def series_of(a, b, count):
    return taylor_coefficients(RationalApprox(a, b, len(a) - 1, len(b)), count)


def damped_modes(modes, n, dt):
    t = np.arange(n) * dt
    x = np.zeros(n)
    for w, g, a in modes:
        x += a * np.exp(-g * t) * np.cos(w * t)
    return x


def test_criterion_1_pade_moment_matching():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    for _ in range(200):
        m = int(rng.integers(0, 5))
        n = int(rng.integers(0, 5))
        a, b = random_rational(rng, m, n)
        c = series_of(a, b, m + n + 4)
        fit = fit_pade(c, m, n)
        back = taylor_coefficients(fit, m + n + 1)
        scale = np.max(np.abs(c[: m + n + 1]))
        assert np.max(np.abs(back - c[: m + n + 1])) <= 1e-10 * scale
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"moment matching took {elapsed:.2f}s"
    report(1, "pade moment matching, 200 series < 1s")


def test_criterion_2_pade_exact_recovery():
    rng = np.random.default_rng(1002)
    for _ in range(100):
        m = int(rng.integers(0, 5))
        n = int(rng.integers(1, 5))
        a, b = random_rational(rng, m, n)
        c = series_of(a, b, m + n + 1)
        fit = fit_pade(c, m, n)
        assert np.linalg.norm(fit.a - a) <= 1e-8 * np.linalg.norm(a)
        assert np.linalg.norm(fit.b - b) <= 1e-8 * np.linalg.norm(b)
    report(2, "pade exact recovery of degree <= (4,4) rationals")


def test_criterion_3_lanczos_exactness():
    rng = np.random.default_rng(1003)
    for dim in (40, 97, 200):
        a = rng.standard_normal((dim, dim))
        h = (a + a.T) / (2 * np.sqrt(dim))
        op = HermitianOp.from_dense(h)
        tri = lanczos_tridiag(op, rng.standard_normal(dim), dim)
        assert tri.k == dim
        spec = tridiag_eigen(tri)
        truth = np.linalg.eigvalsh(h)
        assert np.max(np.abs(spec.lambdas - truth)) <= 1e-8

        prev = None
        for k in range(1, dim + 1):
            sub = tridiag_eigen(TridiagResult(tri.alpha[:k], tri.beta[: k - 1], k))
            assert abs(sub.weights.sum() - 1.0) <= 1e-10
            if prev is not None:
                assert np.all(sub.lambdas[:-1] <= prev + 1e-10)
                assert np.all(prev <= sub.lambdas[1:] + 1e-10)
            prev = sub.lambdas
    report(3, "lanczos full-k exactness, weight sums, interlacing")


def test_criterion_4_lanczos_extremal_convergence():
    rng = np.random.default_rng(1004)
    for _ in range(20):
        a = rng.standard_normal((150, 150))
        h = (a + a.T) / 2
        truth = np.linalg.eigvalsh(h)
        spec = tridiag_eigen(
            lanczos_tridiag(HermitianOp.from_dense(h), rng.standard_normal(150), 50)
        )
        assert abs(spec.lambdas[0] - truth[0]) <= 1e-6
        assert abs(spec.lambdas[-1] - truth[-1]) <= 1e-6
    report(4, "lanczos extremal ritz convergence at k=50, dim=150")


def test_criterion_5_lorentzian_recovery():
    rng = np.random.default_rng(1005)
    templates = [(1.2, 0.08), (3.5, 0.12), (6.0, 0.1)]
    dt, n = 0.05, 600

    # noiseless: all of (omega, gamma, amp) to relative 1e-4
    for trial in range(30):
        k = trial % 3 + 1
        modes = [
            (w + rng.uniform(-0.1, 0.1), g * rng.uniform(0.8, 1.2), rng.uniform(0.6, 1.4))
            for w, g in templates[:k]
        ]
        fit = fit_matrix_pencil(TimeSeries(damped_modes(modes, n, dt), dt), 2 * k)
        assert len(fit.atoms) == k
        for atom, (w, g, a) in zip(fit.atoms, sorted(modes)):
            assert atom.omega == pytest.approx(w, rel=1e-4)
            assert atom.gamma == pytest.approx(g, rel=1e-4)
            assert atom.amp == pytest.approx(a / (2 * g), rel=1e-4)

    # 30 dB SNR: omega within 1 percent
    for trial in range(50):
        k = trial % 3 + 1
        modes = [
            (w + rng.uniform(-0.1, 0.1), g * rng.uniform(0.8, 1.2), rng.uniform(0.8, 1.2))
            for w, g in templates[:k]
        ]
        clean = damped_modes(modes, n, dt)
        sigma = float(np.sqrt(np.mean(clean**2))) / 10**1.5
        noisy = TimeSeries(clean + sigma * rng.standard_normal(n), dt)
        fit = fit_matrix_pencil(noisy, 2 * k)
        centers = [atom.omega for atom in fit.atoms]
        for w, _, _ in modes:
            assert centers, "no atoms recovered"
            assert min(abs(c - w) / w for c in centers) <= 0.01
    report(5, "matrix-pencil recovery, noiseless 1e-4 and 30dB within 1%")


def test_criterion_6_jacobian_finite_differences():
    atoms = [LorentzianAtom(1.5, 0.4, 2.0), LorentzianAtom(4.0, 0.9, 0.8)]
    grid = np.linspace(-1.0, 7.0, 500)
    _, jac = lorentzian_model_jacobian(atoms, grid)
    params = np.array([p for at in atoms for p in (at.omega, at.gamma, at.amp)])

    def model(p):
        ats = [LorentzianAtom(*p[3 * i : 3 * i + 3]) for i in range(len(p) // 3)]
        return lorentzian_model_jacobian(ats, grid)[0]

    step = 1e-6
    scale = np.max(np.abs(jac))
    worst = 0.0
    for j in range(params.size):
        up, down = params.copy(), params.copy()
        up[j] += step
        down[j] -= step
        fd = (model(up) - model(down)) / (2 * step)
        denom = np.maximum(np.abs(jac[:, j]), 1e-6 * scale)
        worst = max(worst, float(np.max(np.abs(fd - jac[:, j]) / denom)))
    assert worst <= 1e-5, f"max relative jacobian discrepancy {worst:.2e}"
    report(6, "analytic jacobian vs central differences <= 1e-5")


def test_criterion_7_cross_backend_consistency():
    rng = np.random.default_rng(1007)
    binning = BinningConfig(
        omega_bins=BinAxis((0.0,), ("all",)),
        gamma_bins=BinAxis((0.0,), ("all",)),
        amp_bins=BinAxis((0.0,), ("all",)),
        negligible_eps=1e-9,
    )
    base = dict(binning=binning, rules_text="resonance_all => seen\n")
    cfg_pencil = PipelineConfig(backend="matrix_pencil", **base)
    cfg_pade = PipelineConfig(backend="pade_z", pade=PadeSettings(m=1, n=2), **base)
    for _ in range(50):
        omega = rng.uniform(0.5, 6.0)
        gamma = rng.uniform(0.05, 0.5)
        x = TimeSeries(damped_modes([(omega, gamma, 1.0)], 256, 0.05), 0.05)
        a = run(x, cfg_pencil).atoms.atoms[0]
        b = run(x, cfg_pade).atoms.atoms[0]
        assert a.omega == pytest.approx(b.omega, rel=1e-3)
        assert a.gamma == pytest.approx(b.gamma, rel=1e-3)
    report(7, "pade_z and matrix_pencil agree on clean one-mode signals")


def test_criterion_8_oscillator_benchmark():
    start = time.perf_counter()
    clean = run_benchmark(500, 0.0, seed=20260810)
    assert clean.accuracy >= 0.99, f"noiseless accuracy {clean.accuracy}"
    assert clean.traces_valid == 1.0, "every decision must carry a valid trace"
    noisy = run_benchmark(500, 0.05, seed=20260810)
    assert noisy.accuracy >= 0.90, f"noisy accuracy {noisy.accuracy}"
    assert noisy.traces_valid == 1.0
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"benchmark took {elapsed:.1f}s"
    report(
        8,
        f"benchmark: noiseless {clean.accuracy:.3f}, "
        f"noise 0.05 {noisy.accuracy:.3f}, {elapsed:.1f}s",
    )


def random_stratified_program(rng):
    n_preds = int(rng.integers(4, 11))
    preds = [f"p{i}" for i in range(n_preds)]
    level = {p: int(rng.integers(0, 3)) for p in preds}
    lines = []
    for _ in range(int(rng.integers(1, 9))):
        head = str(rng.choice(preds))
        lower = [p for p in preds if level[p] < level[head]]
        same_or_lower = [p for p in preds if level[p] <= level[head] and p != head]
        body = []
        if same_or_lower:
            take = int(rng.integers(1, min(4, len(same_or_lower) + 1)))
            body = [str(p) for p in rng.choice(same_or_lower, take, replace=False)]
        if lower and rng.random() < 0.5:
            neg = str(rng.choice(lower))
            if neg not in body:
                body.append("!" + neg)
        if not body:
            continue
        lines.append(" & ".join(body) + " => " + head)
    return "\n".join(lines), preds


def test_criterion_9_rule_engine():
    rng = np.random.default_rng(1009)
    programs = 0
    while programs < 1000:
        text, preds = random_stratified_program(rng)
        if not text:
            continue
        programs += 1
        rs = parse_rules(text)
        assert parse_rules(format_rules(rs)) == rs  # print/parse round trip
        facts = SymbolSet.from_names(
            rng.choice(preds, rng.integers(0, len(preds)), replace=False)
        )
        derived, trace = infer(rs, facts)
        bound = len(rs.rules) * len(rs.predicates() | facts.names)
        assert len(trace) <= bound
        assert replay(trace, facts, rs)
        assert facts.names <= derived.names

    # negation-free monotonicity: adding a fact never removes a derivation
    pool = [f"q{i}" for i in range(8)]
    for _ in range(200):
        lines = []
        for _ in range(int(rng.integers(1, 7))):
            body = rng.choice(pool, rng.integers(1, 4), replace=False)
            lines.append(" & ".join(body) + " => " + str(rng.choice(pool)))
        rs = parse_rules("\n".join(lines))
        base = list(rng.choice(pool, rng.integers(0, 4), replace=False))
        extra = str(rng.choice(pool))
        small, _ = infer(rs, SymbolSet.from_names(base))
        large, _ = infer(rs, SymbolSet.from_names(base + [extra]))
        assert small.names <= large.names
    report(9, "rule engine: 1000 programs replayed, bound held, monotone")


def test_criterion_10_anomaly_harness():
    rng = np.random.default_rng(1010)
    cfg = criterion10.config()

    def flag(x):
        return detect_anomalies(x, cfg, criterion10.WINDOW, criterion10.STRIDE, criterion10.HEAD)

    for _ in range(50):
        x, j = criterion10.shifted_stream(rng)
        flagged = flag(x)
        assert flagged, "changepoint missed entirely"
        first = flagged[0][0]
        assert first <= j < first + criterion10.WINDOW, f"first flag {first} misses changepoint {j}"

    for _ in range(50):
        assert flag(criterion10.stationary_stream(rng)) == [], "false positive on stationary signal"
    report(10, "anomaly harness: changepoints localized, zero false positives")


def noisy_detect_pass_rate(sigma):
    """Share of 32 shifted and 32 stationary criterion-10 streams that pass
    with white noise of ``sigma`` added: a shifted stream's first flag
    covers its changepoint, and a stationary stream raises none."""
    streams, noise = np.random.default_rng(1010), np.random.default_rng(5)
    cfg = criterion10.config()
    passed = 0
    for i in range(64):
        if i < 32:
            x, j = criterion10.shifted_stream(streams)
        else:
            x, j = criterion10.stationary_stream(streams), None
        noisy = TimeSeries(x.samples + sigma * noise.standard_normal(criterion10.SAMPLES), x.dt)
        flagged = detect_anomalies(
            noisy, cfg, criterion10.WINDOW, criterion10.STRIDE, criterion10.HEAD
        )
        starts = [start for start, _ in flagged]
        if j is None:
            passed += starts == []
        else:
            passed += bool(starts) and starts[0] <= j < starts[0] + criterion10.WINDOW
    return passed / 64


def test_criterion_10_anomaly_harness_with_noise():
    rate = noisy_detect_pass_rate(0.05)
    assert rate >= 0.95, f"pass rate {rate:.3f} at sigma 0.05"
    # recorded, not gated: at sigma 0.1, 5 stationary streams raise a flag
    # from a window fitted just above the 3.06 bin edge (3.062-3.114), and 2
    # shifted streams whose new mode has decayed to about the noise level by
    # the changepoint (amplitude 0.12-0.14) are missed
    loud = noisy_detect_pass_rate(0.1)
    report(10, f"anomaly harness with noise: pass rate {rate:.3f} at sigma 0.05, {loud:.3f} at 0.1")
