import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.integrate

from speclogic import (
    ConvergenceError,
    InputError,
    LorentzianAtom,
    NumericError,
    PoleSet,
    SparseSpectrum,
    TimeSeries,
    atoms_from_poles,
    eval_spectrum,
    fit_matrix_pencil,
)
from speclogic import sparse
from speclogic.sparse import (
    MAX_PENCIL_SAMPLES,
    SKETCH_OVERSAMPLE,
    FitHealth,
    lorentzian_model_jacobian,
    unit_scale,
)


def damped_cosines(modes, n=600, dt=0.05):
    """Sum of a*exp(-g*t)*cos(w*t); the atom for (w, g, a) has amp a/(2g)
    for w > 0 and a/g for the zero-frequency pure decay."""
    t = np.arange(n) * dt
    x = np.zeros(n)
    for w, g, a in modes:
        x += a * np.exp(-g * t) * np.cos(w * t)
    return TimeSeries(x, dt)


def expected_amp(w, g, a):
    return a / g if w == 0 else a / (2 * g)


def test_atom_validation():
    with pytest.raises(InputError):
        LorentzianAtom(1.0, 0.0, 1.0)
    with pytest.raises(InputError):
        LorentzianAtom(1.0, 0.5, 0.0)
    with pytest.raises(InputError):
        LorentzianAtom(np.inf, 0.5, 1.0)


def test_eval_peak_and_half_maximum():
    sp = SparseSpectrum.from_atoms([LorentzianAtom(2.0, 0.5, 1.0)])
    assert eval_spectrum(sp, 2.0) == pytest.approx(1.0)
    assert eval_spectrum(sp, 2.5) == pytest.approx(0.5)
    assert eval_spectrum(sp, 1.5) == pytest.approx(0.5)


def test_eval_empty_spectrum():
    sp = SparseSpectrum.from_atoms([])
    assert eval_spectrum(sp, 3.0) == 0.0
    assert np.array_equal(eval_spectrum(sp, np.linspace(0, 1, 5)), np.zeros(5))


def test_atom_unit_mass():
    # integral of A*g^2/((w-w0)^2+g^2) over w0 +- 1e4*g is A*g*pi (nearly)
    atom = LorentzianAtom(1.3, 0.07, 2.5)
    sp = SparseSpectrum.from_atoms([atom])
    mass, _ = scipy.integrate.quad(
        lambda w: eval_spectrum(sp, w),
        atom.omega - 1e4 * atom.gamma,
        atom.omega + 1e4 * atom.gamma,
        limit=200,
    )
    assert mass == pytest.approx(atom.amp * atom.gamma * np.pi, rel=1e-3)


def test_atoms_from_poles_hand_values():
    ps = PoleSet(np.array([0.9 * np.exp(0.2j)]), np.array([1.0 + 0j]))
    sp = atoms_from_poles(ps, 0.1)
    atom = sp.atoms[0]
    assert atom.omega == pytest.approx(2.0)
    assert atom.gamma == pytest.approx(-np.log(0.9) / 0.1)  # 1.05361
    assert atom.amp == pytest.approx(1.0 / atom.gamma)


def test_atoms_from_poles_pure_decay():
    sp = atoms_from_poles(PoleSet(np.array([0.8 + 0j]), np.array([2.0 + 0j])), 1.0)
    assert sp.atoms[0].omega == 0.0
    assert sp.atoms[0].gamma == pytest.approx(-np.log(0.8))


def test_atoms_from_poles_merges_conjugates():
    z = 0.9 * np.exp(0.3j)
    ps = PoleSet(np.array([z, np.conj(z)]), np.array([0.5 + 0.1j, 0.5 - 0.1j]))
    sp = atoms_from_poles(ps, 0.1)
    assert len(sp.atoms) == 1
    assert sp.dropped == 0


def test_atoms_from_poles_drops_unstable():
    ps = PoleSet(np.array([1.2 + 0j, 0.5 + 0j]), np.array([1.0 + 0j, 1.0 + 0j]))
    sp = atoms_from_poles(ps, 1.0)
    assert len(sp.atoms) == 1
    assert sp.dropped == 1
    with pytest.raises(InputError):
        atoms_from_poles(ps, 0.0)


def test_atoms_from_poles_drops_overflowing_amplitude():
    # |z| = 0.999 gives gamma ~ 1e-3, so amp = |c|/gamma overflows
    ps = PoleSet(np.array([0.999 + 0j]), np.array([1e306 + 0j]))
    sp = atoms_from_poles(ps, 1.0)
    assert sp.atoms == ()
    assert sp.dropped == 1
    # the same overflow when the scale takes a unit-scale residue back
    sp = atoms_from_poles(PoleSet(np.array([0.999 + 0j]), np.array([1.0 + 0j])), 1.0, scale=1e306)
    assert sp.atoms == ()
    assert sp.dropped == 1


def test_atoms_from_poles_scale_overflow_fails_the_whole_fit():
    # the 0.999 mode overflows only at scale 2**1000; the other modes were
    # fitted with it, so without it they explain the input wrongly
    z = np.array([0.5 + 0j, 0.999 + 0j, 0.3 + 0.4j, 0.3 - 0.4j])
    ps = PoleSet(z, np.array([1.0, 1e5, 0.2 + 0.1j, 0.2 - 0.1j]))
    samples = np.real(np.vander(z, 16, increasing=True).T @ ps.residues) + 1e-3
    sp = atoms_from_poles(ps, 1.0, samples, scale=2.0**1000)
    assert sp.atoms == ()
    assert sp.dropped == 3  # every mode, a conjugate pair counting once
    assert sp.residual_norm == pytest.approx(np.linalg.norm(samples) * 2.0**1000, rel=1e-12)
    # at unit scale nothing overflows and every mode is kept
    assert len(atoms_from_poles(ps, 1.0, samples).atoms) == 3


@pytest.mark.parametrize("modulus,kept", [(1.0 - 1e-7, False), (1.0 - 1e-5, True)])
def test_atoms_from_poles_drops_undamped_modes(modulus, kept):
    # 1 - |z| < 1e-6 is no measurable decay per sample
    sp = atoms_from_poles(PoleSet(np.array([modulus + 0j]), np.array([1e-3 + 0j])), 1.0)
    assert len(sp.atoms) == int(kept)
    assert sp.dropped == int(not kept)


def test_atoms_from_poles_returns_input_scale():
    n = np.arange(64)
    z = 0.9 * np.exp(0.3j)
    ps = PoleSet(np.array([z, np.conj(z)]), np.array([0.5 + 0.1j, 0.5 - 0.1j]))
    samples = np.real((0.5 + 0.1j) * z**n + (0.5 - 0.1j) * np.conj(z) ** n)
    unit = atoms_from_poles(ps, 0.1, samples + 1e-3)
    scaled = atoms_from_poles(ps, 0.1, samples + 1e-3, scale=2.0**-900)
    assert scaled.atoms[0].amp == unit.atoms[0].amp * 2.0**-900
    assert scaled.residual_norm == unit.residual_norm * 2.0**-900
    # a unit-scale residual of 8 is above float64's range at scale 2**1023
    with pytest.raises(NumericError, match="overflows"):
        atoms_from_poles(ps, 0.1, samples + 1.0, scale=2.0**1023)


@pytest.mark.parametrize("peak", [0.75, 1.0, 3.0, 1.7e308, 1e-300, 5e-324])
def test_unit_scale_is_the_power_of_two_below_the_peak(peak):
    samples = np.array([0.0, -peak, peak / 3])
    scale = unit_scale(samples)
    assert math.frexp(scale)[0] == 0.5  # a power of two
    assert scale <= peak < 2 * scale
    assert np.array_equal(samples / scale * scale, samples)  # division is exact


def test_unit_scale_of_zero_samples_is_one():
    assert unit_scale(np.zeros(8)) == 1.0


def test_atoms_from_poles_residual_counts_kept_modes_and_partners():
    n = np.arange(64)
    z = 0.9 * np.exp(0.3j)
    kept = PoleSet(np.array([z, np.conj(z)]), np.array([0.5 + 0.1j, 0.5 - 0.1j]))
    samples = np.real((0.5 + 0.1j) * z**n + (0.5 - 0.1j) * np.conj(z) ** n)
    assert atoms_from_poles(kept, 0.1, samples).residual_norm <= 1e-13
    # a growing mode is dropped and leaves the whole signal in the residual
    growing = PoleSet(np.array([1.01 + 0j]), np.array([1.0 + 0j]))
    sp = atoms_from_poles(growing, 0.1, samples)
    assert sp.dropped == 1
    assert sp.residual_norm == pytest.approx(np.linalg.norm(samples), rel=1e-12)


@pytest.mark.parametrize("samples", [64, 384, 1])
def test_atoms_from_poles_residual_equals_the_vander_form(monkeypatch, samples):
    # a rounding guard: the model is the transposed product np.vander(...).T @
    # residues; the same product of a C-ordered copy rounds differently
    rng = np.random.default_rng(samples)
    z = np.exp(rng.uniform(-0.05, 0.0, 6) + 1j * rng.uniform(-3.0, 3.0, 6))
    z[0] = 1.2  # unstable: dropped, so the kept mask is not all ones
    modes = PoleSet(z, rng.standard_normal(6) + 1j * rng.standard_normal(6))
    x = rng.standard_normal(samples)
    diffs = []
    real_residual_norm = sparse._residual_norm
    monkeypatch.setattr(
        sparse, "_residual_norm", lambda d, s: diffs.append(d) or real_residual_norm(d, s)
    )
    sp = atoms_from_poles(modes, 0.05, x, 2.0)
    _, kept, _ = sparse._keep_rule(modes.poles, modes.residues, 0.05, 2.0)
    assert 0 < np.count_nonzero(kept) < 6
    model = np.vander(modes.poles[kept], samples, increasing=True).T @ modes.residues[kept]
    assert np.array_equal(diffs[0], x - model)
    assert sp.residual_norm == real_residual_norm(x - model, 2.0)


def test_spectrum_sorting_and_merge():
    atoms = [LorentzianAtom(3.0, 0.1, 1.0), LorentzianAtom(1.0, 0.1, 2.0)]
    sp = SparseSpectrum.from_atoms(atoms)
    assert [a.omega for a in sp.atoms] == [1.0, 3.0]
    # near-duplicates are kept as they are, sorted by (omega, gamma)
    dup = [
        LorentzianAtom(1.0 + 1e-12, 0.1, 3.0),
        LorentzianAtom(1.0, 0.1 + 1e-12, 4.0),
        LorentzianAtom(1.0, 0.1, 2.0),
    ]
    kept = SparseSpectrum.from_atoms(dup)
    assert [a.amp for a in kept.atoms] == [2.0, 4.0, 3.0]


def test_pencil_single_damped_cosine():
    x = damped_cosines([(2.0, 0.5, 1.0)], n=100)
    sp = fit_matrix_pencil(x, 4)
    assert len(sp.atoms) == 1
    atom = sp.atoms[0]
    assert atom.omega == pytest.approx(2.0, abs=1e-6)
    assert atom.gamma == pytest.approx(0.5, abs=1e-6)
    assert atom.amp == pytest.approx(1.0, rel=1e-6)


def test_pencil_pure_decay():
    x = damped_cosines([(0.0, 0.3, 1.0)], n=100)
    sp = fit_matrix_pencil(x, 4)
    assert len(sp.atoms) == 1
    assert sp.atoms[0].omega == pytest.approx(0.0, abs=1e-9)
    assert sp.atoms[0].gamma == pytest.approx(0.3, rel=1e-8)


def test_pencil_zero_signal():
    sp = fit_matrix_pencil(TimeSeries(np.zeros(64), 0.1), 4)
    assert len(sp.atoms) == 0
    assert sp.residual_norm == 0.0


def test_pencil_too_short():
    with pytest.raises(InputError):
        fit_matrix_pencil(TimeSeries(np.ones(9), 0.1), 4)


def test_pencil_rejects_a_series_past_its_maximum_before_allocating():
    # the Hankel copy of this series would take 2 GiB
    x = TimeSeries(np.ones(MAX_PENCIL_SAMPLES + 1), 0.1)
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match=str(MAX_PENCIL_SAMPLES)):
            fit_matrix_pencil(x, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_pencil_rejects_a_negative_seed():
    with pytest.raises(InputError, match="seed"):
        fit_matrix_pencil(TimeSeries(np.ones(20), 0.1), 4, seed=-1)


def test_pencil_batch_needs_equal_length_windows():
    with pytest.raises(InputError, match="equal length"):
        fit_matrix_pencil([TimeSeries(np.ones(20), 0.1), TimeSeries(np.ones(21), 0.1)], 4)
    with pytest.raises(InputError, match="at least one"):
        fit_matrix_pencil([], 4)


def pencil_no_warnings(samples, max_modes=8, dt=0.05, seed=0):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sp = fit_matrix_pencil(TimeSeries(samples, dt), max_modes, seed=seed)
    assert np.isfinite(sp.residual_norm)
    return sp


@pytest.mark.parametrize("scale", [1e300, 1e-300])
def test_pencil_is_scale_invariant(scale):
    x = damped_cosines([(3.0, 0.1, 1.0)], n=384)
    scaled = pencil_no_warnings(scale * x.samples)
    assert len(scaled.atoms) == 1
    atom = scaled.atoms[0]
    assert atom.omega == pytest.approx(3.0, rel=1e-8)
    assert atom.gamma == pytest.approx(0.1, rel=1e-8)
    assert atom.amp == pytest.approx(scale * expected_amp(3.0, 0.1, 1.0), rel=1e-8)
    assert scaled.residual_norm <= 1e-10 * scale * np.linalg.norm(x.samples)


@pytest.mark.parametrize("dt", [1.0, 1e6, 1e10])
def test_pencil_keeps_two_modes_at_any_sample_spacing(dt):
    # the samples do not depend on dt; at 1e10 both atoms sit within 1e-9
    # of each other in omega and gamma, and must still both be kept
    modes = [(0.3 / dt, 0.01 / dt, 1.0), (0.5 / dt, 0.012 / dt, 1.0)]
    sp = fit_matrix_pencil(damped_cosines(modes, n=200, dt=dt), 4)
    assert len(sp.atoms) == 2
    for atom, (w, g, a) in zip(sp.atoms, modes):
        assert atom.omega == pytest.approx(w, rel=1e-6)
        assert atom.gamma == pytest.approx(g, rel=1e-6)
        assert atom.amp == pytest.approx(expected_amp(w, g, a), rel=1e-6)


@pytest.mark.parametrize("omega", [0.0, np.pi / 0.05], ids=["constant", "nyquist"])
def test_pencil_undamped_edge_modes(omega):
    # |z| = 1 exactly, so rounding decides whether the mode is kept as a
    # near-zero-width atom or dropped as unstable; it is never lost silently,
    # and a dropped mode leaves the whole signal in the residual
    x = np.cos(omega * 0.05 * np.arange(384))
    sp = pencil_no_warnings(x)
    assert len(sp.atoms) + sp.dropped >= 1
    assert all(at.omega == pytest.approx(omega, abs=1e-6) for at in sp.atoms)
    if sp.atoms:
        assert sp.residual_norm <= 1e-8
    else:
        assert sp.residual_norm == pytest.approx(np.linalg.norm(x), rel=1e-9)


def test_pencil_residual_counts_only_kept_modes():
    # a growing mode (|z| = 1.002 < 1.05) enters the Vandermonde solve but
    # becomes no atom, so what it explains stays in the residual
    n = np.arange(384)
    stable = np.exp(-0.01 * n) * np.cos(0.9 * n)
    growing = 1.002**n * np.cos(2.1 * n)
    sp = pencil_no_warnings(stable + growing, max_modes=4, dt=1.0)
    assert len(sp.atoms) == 1
    assert sp.atoms[0].omega == pytest.approx(0.9, rel=1e-8)
    assert sp.dropped == 1
    assert sp.residual_norm == pytest.approx(np.linalg.norm(growing), rel=1e-6)


def test_pencil_counts_a_growing_pair_once():
    # at |z| = 1.06 the pair is kept out of the Vandermonde solve, and it is
    # still one dropped pair, as at |z| = 1.002 above
    n = np.arange(384)
    stable = np.exp(-0.01 * n) * np.cos(0.9 * n)
    growing = 1e-8 * 1.06**n * np.cos(2.1 * n)
    sp = pencil_no_warnings(stable + growing, max_modes=4, dt=1.0)
    assert len(sp.atoms) == 1
    assert sp.atoms[0].omega == pytest.approx(0.9, rel=1e-8)
    assert sp.dropped == 1
    assert sp.residual_norm == pytest.approx(np.linalg.norm(growing), rel=1e-5)


def spectrum_record(sp):
    return sp.atoms, sp.residual_norm, sp.dropped


def test_pencil_group_residuals_match_atoms_from_poles(monkeypatch):
    # orders 2, 4, 4, 2 and 6: three order groups in one batch. The third
    # window's growing pair (|z| = 1.01) is solved but dropped by the keep
    # rule; the fourth, at dt = 100, has an amplitude that overflows only at
    # input scale; the fifth holds three modes at 1e3. Noise keeps every
    # residual far above rounding.
    rng = np.random.default_rng(5)
    k = np.arange(128)
    damped = np.exp(-0.02 * k) * np.cos(0.7 * k)
    samples = [
        damped,
        damped + 0.6 * np.exp(-0.03 * k) * np.cos(1.9 * k),
        damped + 0.5 * 1.01**k * np.cos(2.2 * k),
        1e306 * np.exp(-0.2 * k) * np.cos(0.7 * k),
        1e3 * (damped + np.exp(-0.01 * k) * np.cos(1.3 * k)
               + 0.7 * np.exp(-0.04 * k) * np.cos(2.6 * k)),
    ]
    windows = [
        TimeSeries(x + 1e-3 * unit_scale(x) * rng.standard_normal(128), 100.0 if i == 3 else 0.05)
        for i, x in enumerate(samples)
    ]
    batch = fit_matrix_pencil(windows, 6)

    calls = []
    keep_rule = sparse._keep_rule

    def recording(poles, residues, dt, scale):
        calls.append((poles, residues, dt, scale))
        return keep_rule(poles, residues, dt, scale)

    monkeypatch.setattr(sparse, "_keep_rule", recording)
    orders, moduli = [], []
    for window, fit in zip(windows, batch):
        calls.clear()
        alone = fit_matrix_pencil(window, 6)
        assert spectrum_record(fit) == spectrum_record(alone)
        ((z, c, dt, scale),) = calls
        direct = atoms_from_poles(PoleSet(z, c), dt, window.samples / scale, scale)
        assert direct.atoms == fit.atoms and direct.dropped == fit.dropped
        assert fit.residual_norm == pytest.approx(direct.residual_norm, rel=1e-12, abs=0)
        orders.append(len(z))
        moduli.append(np.abs(z))
    assert orders == [2, 4, 4, 2, 6]
    assert np.any((moduli[2] >= 1 - 1e-6) & (moduli[2] < 1.05)) and batch[2].dropped == 1
    assert batch[3].atoms == () and batch[3].dropped == 1  # the whole fit failed
    norm = 1e306 * np.linalg.norm(windows[3].samples / 1e306)
    assert batch[3].residual_norm == pytest.approx(norm, rel=1e-12)


def test_pencil_test_matrix_cache():
    sparse._test_matrix.cache_clear()
    test = sparse._test_matrix(65, 11, 0)
    with pytest.raises(ValueError):
        test[0, 0] = 1.0
    keys = [(seed, n) for n in (18, 128, 384) for seed in (0, 1, 2**40)]
    x = damped_cosines([(2.0, 0.3, 1.0), (3.1, 0.2, 0.5)], n=384).samples
    interleaved = {
        (seed, n): fit_matrix_pencil(TimeSeries(x[:n], 0.05), 4, seed=seed) for seed, n in keys
    }
    for seed, n in keys:
        sparse._test_matrix.cache_clear()
        fresh = fit_matrix_pencil(TimeSeries(x[:n], 0.05), 4, seed=seed)
        assert spectrum_record(fresh) == spectrum_record(interleaved[seed, n])

    bound = sparse._test_matrix.cache_info().maxsize
    for seed in range(bound + 3):
        sparse._test_matrix(65, 11, seed)
    assert sparse._test_matrix.cache_info().currsize == bound
    # a matrix past MAX_CACHED_TEST_ENTRIES floats is drawn, not cached
    sparse._test_matrix.cache_clear()
    hank = np.ones((1, 2, sparse.MAX_CACHED_TEST_ENTRIES + 1))
    sv, _ = sparse._leading_svd(hank, 1, 0)
    assert sparse._test_matrix.cache_info().currsize == 0
    assert sv[0, 0] == pytest.approx(np.sqrt(2 * hank.shape[2]), rel=1e-12)


@pytest.mark.parametrize(
    "samples",
    [np.eye(1, 384, 100)[0], np.random.default_rng(4).standard_normal(384)],
    ids=["spike", "white_noise"],
)
def test_pencil_flat_singular_spectrum(samples):
    # every singular value is alike, so the sketch may pick another subspace
    # than the exact SVD would: only validity and silence are asserted
    assert len(pencil_no_warnings(samples).atoms) <= 8


def loop_noise_floor_order(x, pencil):
    """The pencil's order rule over the exact SVD of the Hankel matrix, as a
    plain loop with ||H||_F from the matrix itself."""
    n = len(x)
    hank = x[np.add.outer(np.arange(n - pencil), np.arange(pencil + 1))]
    m, k = hank.shape
    energy = np.linalg.norm(hank) ** 2
    sv = np.linalg.svd(hank, compute_uv=False)
    floor = sparse.ROUNDING_FLOOR * np.finfo(float).eps * energy
    edge = sparse.ORDER_THRESHOLD * (math.sqrt(m) + math.sqrt(k))
    order = 0
    for r1, sigma in enumerate(sv, start=1):
        outside = max(energy - np.sum(sv[:r1] ** 2), floor)
        dof = (m - r1) * (k - r1)
        if dof and not sigma > edge * math.sqrt(outside / dof):
            break
        order = r1
    return order


@pytest.mark.parametrize("n", [9, 18, 127, 128])
def test_noise_floor_order_matches_a_loop_over_the_exact_hankel(n):
    # the Hankel energy from weighted squared samples, stacked over windows,
    # against the matrix's own norm: one mode, two, noise alone, zeros
    rng = np.random.default_rng(n)
    t = np.arange(n) * 0.05
    one = np.exp(-0.3 * t) * np.cos(2.0 * t)
    two = one + 0.5 * np.exp(-0.1 * t) * np.cos(3.5 * t)
    noisy = two + 0.01 * rng.standard_normal(n)
    windows = np.array([one, two, noisy, rng.standard_normal(n), np.zeros(n)])
    pencil = n // 2
    hank = windows[:, np.add.outer(np.arange(n - pencil), np.arange(pencil + 1))]
    svs = np.linalg.svd(hank, compute_uv=False)
    expected = [loop_noise_floor_order(x, pencil) for x in windows]
    assert sparse._noise_floor_order(windows, svs, pencil).tolist() == expected
    if n >= 127:
        assert expected == [2, 4, 4, 0, 0]


def test_pencil_minimum_length_sketch_is_exact():
    max_modes = 8
    n = 2 * max_modes + 2
    assert max_modes + SKETCH_OVERSAMPLE >= n // 2  # width covers min(hank.shape)
    x = damped_cosines([(2.0, 0.5, 1.0)], n=n)
    for seed in range(5):
        sp = pencil_no_warnings(x.samples, max_modes, seed=seed)
        assert len(sp.atoms) == 1
        atom = sp.atoms[0]
        assert atom.omega == pytest.approx(2.0, rel=1e-8)
        assert atom.gamma == pytest.approx(0.5, rel=1e-8)
        assert atom.amp == pytest.approx(1.0, rel=1e-8)


def _wrapped_leading_svd(hank, width, seed):
    """The range finder of sparse._leading_svd through np.linalg.qr and
    np.linalg.svd: the reference its direct LAPACK gufunc calls must equal."""
    test = np.random.default_rng(seed).standard_normal((hank.shape[2], width))
    hank_t = np.swapaxes(hank, 1, 2)
    q, _ = np.linalg.qr(hank @ test)
    for _ in range(sparse.POWER_ITERATIONS):
        q, _ = np.linalg.qr(hank_t @ q)
        q, _ = np.linalg.qr(hank @ q)
    u, sv, _ = np.linalg.svd(hank_t @ q, full_matrices=False)
    return sv, np.swapaxes(u, 1, 2)


def _hankel_stack(windows):
    """The pencil's (n - L) x (L + 1) Hankel matrix of each row, L = n // 2."""
    windows = np.asarray(windows, dtype=float)
    pencil = windows.shape[1] // 2
    return np.lib.stride_tricks.sliding_window_view(windows, pencil + 1, axis=1).copy()


def _stream(n):
    return damped_cosines([(2.8, 0.1, 1.0), (3.5, 0.05, 0.3)], n=n).samples


@pytest.mark.parametrize(
    "windows, max_modes",
    [
        ([_stream(512)[16 * i : 16 * i + 128] for i in range(25)], 6),
        ([_stream(384)], 6),
        ([_stream(18)], 8),
        ([np.zeros(128), np.ones(128), (-1.0) ** np.arange(128), _stream(128)], 6),
    ],
    ids=["detect_stack", "run_384", "minimum_length", "zero_constant_nyquist"],
)
def test_range_finder_equals_the_numpy_wrappers_bit_for_bit(windows, max_modes):
    hank = _hankel_stack(windows)
    before = hank.copy()
    width = min(max_modes + SKETCH_OVERSAMPLE, *hank.shape[1:])
    sv, vh = sparse._leading_svd(hank, width, 3)
    assert np.array_equal(hank, before)  # only the products are factored in place
    ref_sv, ref_vh = _wrapped_leading_svd(hank, width, 3)
    assert sv.shape == (len(windows), width) and vh.shape == (len(windows), width, hank.shape[2])
    assert np.array_equal(sv, ref_sv)
    assert np.array_equal(vh, ref_vh)


def test_range_finder_raises_a_lapack_failure_as_lin_alg_error():
    hank = _hankel_stack([np.full(18, np.nan)])
    with pytest.raises(ConvergenceError, match="did not converge"):
        sparse._leading_svd(hank, 9, 0)


def test_pencil_calls_neither_numpy_qr_nor_svd(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the pencil called a numpy.linalg wrapper it bypasses")

    expected = fit_matrix_pencil(damped_cosines([(2.0, 0.5, 1.0)], n=384), 4)
    for wrapper in ("qr", "svd", "pinv", "eigvals"):
        monkeypatch.setattr(np.linalg, wrapper, refuse)
    sp = fit_matrix_pencil(damped_cosines([(2.0, 0.5, 1.0)], n=384), 4)
    assert spectrum_record(sp) == spectrum_record(expected)
    windows = [TimeSeries(w, 0.05) for w in (_stream(128), np.zeros(128))]
    assert len(fit_matrix_pencil(windows, 6)[0].atoms) == 2


def _low_rank_stack(rng, shape, rank, dtype):
    """A stack of matrices of ``shape`` and, but for rounding, rank ``rank``."""
    g, m, k = shape
    left, right = rng.standard_normal((g, m, rank)), rng.standard_normal((g, rank, k))
    if dtype is complex:
        left = left + 1j * rng.standard_normal((g, m, rank))
        right = right + 1j * rng.standard_normal((g, rank, k))
    return left @ right


def _graded_stack(rng, g, dtype):
    """A stack of g 12 x 4 matrices with singular values 1, 1e-3, 2e-15 and
    1e-16: the cutoff eps * 12 = 2.7e-15 zeroes the last two, a cutoff of
    1e-15 would keep the third."""
    def orthonormal(rows, cols):
        z = rng.standard_normal((g, rows, cols))
        return np.linalg.qr(z + 1j * rng.standard_normal(z.shape) if dtype is complex else z)[0]

    return orthonormal(12, 4) * np.array([1.0, 1e-3, 2e-15, 1e-16]) @ orthonormal(4, 4).mT


GRADED_REAL = _graded_stack(np.random.default_rng(3), 2, float)
GRADED_COMPLEX = _graded_stack(np.random.default_rng(4), 2, complex)


def _assert_solve_equals_pinv(a, b):
    got = sparse._min_norm_solve(a, b)
    eps = np.finfo(float).eps
    for rtol in (None, eps * max(a.shape[-2:])):  # the cutoff of lstsq(rcond=None)
        want = np.linalg.pinv(a, rtol=rtol) @ b
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)


_RNG = np.random.default_rng(27)


@pytest.mark.parametrize(
    "a, b",
    [
        pytest.param(
            _RNG.standard_normal((3, 192, 4)), _RNG.standard_normal((3, 192, 4)), id="shift"
        ),
        pytest.param(
            _RNG.standard_normal((3, 384, 4)) + 1j * _RNG.standard_normal((3, 384, 4)),
            _RNG.standard_normal((3, 384, 1)),
            id="vandermonde",
        ),
        pytest.param(_RNG.standard_normal((5, 3)), _RNG.standard_normal((5, 2)), id="one_matrix"),
        pytest.param(np.empty((3, 64, 0)), _RNG.standard_normal((3, 64, 1)), id="empty_real"),
        pytest.param(np.empty((3, 64, 0), complex), np.ones((3, 64, 1)), id="empty_complex"),
        pytest.param(GRADED_REAL, np.ones((2, 12, 3)), id="graded_real"),
        pytest.param(GRADED_COMPLEX, _RNG.standard_normal((2, 12, 3)), id="graded_complex"),
    ],
)
def test_min_norm_solve_equals_pinv_bit_for_bit(a, b):
    _assert_solve_equals_pinv(a, b)


def test_min_norm_solve_equals_pinv_on_random_low_rank_stacks():
    rng = np.random.default_rng(28)
    for dtype in (float, complex):
        for _ in range(100):
            m, k = sorted(rng.integers(1, 40, 2).tolist(), reverse=True)
            g, rank = int(rng.integers(1, 5)), int(rng.integers(1, k + 1))
            b = rng.standard_normal((g, m, int(rng.integers(1, 4))))
            _assert_solve_equals_pinv(_low_rank_stack(rng, (g, m, k), rank, dtype), b)


@pytest.mark.parametrize("a", [GRADED_REAL, GRADED_COMPLEX], ids=["real", "complex"])
def test_graded_stacks_bind_the_solve_cutoff(a):
    # the third singular value lies between 1e-15 and the cutoff, so the
    # equalities above pin the cutoff rule, not only the zeroed reciprocals
    s = np.linalg.svd(a, compute_uv=False)
    cutoff = np.finfo(float).eps * 12 * s[:, :1]
    assert np.all(np.count_nonzero(s > cutoff, axis=1) == 2)
    assert np.all(s[:, 2] > 1e-15 * s[:, 0])


@pytest.mark.parametrize("dtype", [float, complex])
def test_min_norm_solve_raises_a_lapack_failure_as_lin_alg_error(dtype):
    a = np.full((2, 6, 3), np.nan, dtype=dtype)
    with pytest.raises(ConvergenceError, match="did not converge"):
        sparse._min_norm_solve(a, np.ones((2, 6, 1)))


def test_pencil_refuses_a_shift_matrix_that_is_not_finite(monkeypatch):
    # a shift solve whose product overflows: the shift matrix is refused
    # before its eigenvalues are taken
    def overflowing(a, b):
        return np.full((a.shape[0], a.shape[2], b.shape[2]), np.inf)

    monkeypatch.setattr(sparse, "_min_norm_solve", overflowing)
    t = np.arange(128) * 0.05
    x = np.exp(-0.1 * t) * np.cos(2.0 * t)
    with pytest.raises(ConvergenceError, match="shift matrix overflows"):
        fit_matrix_pencil(TimeSeries(x, 0.05), 6)


def test_min_norm_solve_of_a_subnormal_matrix_is_zero():
    # np.linalg.pinv's cutoff eps * 6 * 1e-310 is subnormal and its reciprocal
    # of s = 1e-310 overflows; floored at the smallest normal float, every
    # singular value is cut and the minimum-norm solution is 0
    a = np.zeros((1, 6, 2))
    a[0, 0, 0] = 1e-310
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = sparse._min_norm_solve(a, np.ones((1, 6, 1)))
    assert np.array_equal(x, np.zeros((1, 2, 1)))


_EDGE = sparse.UNSTABLE_MODULUS
_MODULI = [np.nextafter(_EDGE, 0), _EDGE, np.nextafter(_EDGE, 2), 1e-12, np.nextafter(1e-12, 0)]
_ROTATED = np.array([r * np.exp(1j * a) for r in _MODULI for a in (0, 0.7, -0.7, np.pi)])


@pytest.mark.parametrize(
    "poles, residues, scale, want_kept",
    [
        pytest.param(  # kept while 1e-12 <= |z| < UNSTABLE_MODULUS, |z| as a scalar's abs
            _ROTATED,
            np.full(20, 0.3 + 0.2j),
            1.0,
            [1e-12 <= abs(z) < _EDGE for z in _ROTATED],
            id="edge_moduli",
        ),
        pytest.param(
            np.array(_MODULI + [0.5, -0.5]),
            np.ones(7, complex),
            1.0,
            [True, False, False, True, False, True, True],
            id="real_poles",
        ),
        pytest.param(  # the 0.9 mode's amplitude overflows only at input scale
            np.array([0.9, 0.5 + 0.3j, 0.5 - 0.3j]),
            np.ones(3, complex),
            2.0**1023,
            [False, False, False],
            id="scale_overflow",
        ),
        pytest.param(
            np.full(5, 0.5 + 0.5j),
            np.array([np.inf, np.nan, complex(np.nan, np.inf), complex(np.inf, np.nan), 1.0]),
            1.0,
            [False, False, False, False, True],
            id="non_finite_residues",
        ),
        pytest.param(  # |c| overflows to inf though both parts are finite
            np.array([0.5, 0.6j]),
            np.array([1.5e308 + 1.5e308j, 1.0]),
            1.0,
            [False, True],
            id="residue_modulus_overflow",
        ),
        pytest.param(np.empty(0), np.empty(0, complex), 1.0, [], id="no_modes"),
    ],
)
def test_keep_rule_at_its_edges(poles, residues, scale, want_kept):
    atoms, kept, dropped = sparse._keep_rule(poles, residues, 1.0, scale)
    assert np.array_equal(kept, np.asarray(want_kept, dtype=bool))
    partner = poles.imag < 0
    assert len(atoms) == np.count_nonzero(kept & ~partner)
    assert dropped == np.count_nonzero(~kept & ~partner)
    twins = poles[kept & ~partner]
    assert [a.omega for a in atoms] == [math.atan2(z.imag, z.real) for z in twins]
    assert [a.gamma for a in atoms] == [-math.log(abs(z)) for z in twins]


def test_pencil_multimode_recovery():
    rng = np.random.default_rng(13)
    for _ in range(10):
        k = int(rng.integers(1, 4))
        base = [(1.2, 0.08), (3.5, 0.12), (6.0, 0.1)][:k]
        modes = [
            (w + rng.uniform(-0.1, 0.1), g * rng.uniform(0.8, 1.2), rng.uniform(0.6, 1.4))
            for w, g in base
        ]
        sp = fit_matrix_pencil(damped_cosines(modes), 2 * k)
        assert len(sp.atoms) == k
        for atom, (w, g, a) in zip(sp.atoms, sorted(modes)):
            assert atom.omega == pytest.approx(w, rel=1e-4)
            assert atom.gamma == pytest.approx(g, rel=1e-4)
            assert atom.amp == pytest.approx(expected_amp(w, g, a), rel=1e-4)


def test_pencil_agrees_with_rational_pole_path():
    # same damped cosine through the series-coefficient route: poles of
    # sum x[n] z^n are reciprocals of the sample bases
    from speclogic import extract_poles, fit_pade

    x = damped_cosines([(2.4, 0.3, 1.0)], n=200)
    pencil = fit_matrix_pencil(x, 2)
    rational = fit_pade(x.samples, 1, 2)
    ps = extract_poles(rational)
    flipped = PoleSet(1.0 / ps.poles, -ps.residues / ps.poles)
    direct = atoms_from_poles(flipped, x.dt)
    assert len(pencil.atoms) == len(direct.atoms) == 1
    a, b = pencil.atoms[0], direct.atoms[0]
    assert a.omega == pytest.approx(b.omega, rel=1e-3)
    assert a.gamma == pytest.approx(b.gamma, rel=1e-3)
    assert a.amp == pytest.approx(b.amp, rel=1e-3)


def test_jacobian_matches_finite_differences():
    atoms = [LorentzianAtom(1.5, 0.4, 2.0), LorentzianAtom(4.0, 0.9, 0.8)]
    grid = np.linspace(-1.0, 7.0, 400)
    _, jac = lorentzian_model_jacobian(atoms, grid)
    params = np.array([p for a in atoms for p in (a.omega, a.gamma, a.amp)])

    def model(p):
        ats = [LorentzianAtom(*p[3 * i : 3 * i + 3]) for i in range(len(p) // 3)]
        out, _ = lorentzian_model_jacobian(ats, grid)
        return out

    step = 1e-6
    scale = np.max(np.abs(jac))
    for j in range(params.size):
        up, down = params.copy(), params.copy()
        up[j] += step
        down[j] -= step
        fd = (model(up) - model(down)) / (2 * step)
        denom = np.maximum(np.abs(jac[:, j]), 1e-6 * scale)
        assert np.max(np.abs(fd - jac[:, j]) / denom) <= 1e-5


def test_spectrum_serialization_roundtrip():
    sp = SparseSpectrum.from_atoms(
        [LorentzianAtom(1.0, 0.2, 1.5), LorentzianAtom(4.0, 0.6, 0.5)], FitHealth(None, 0.25)
    )
    back = SparseSpectrum.from_dict(sp.to_dict())
    assert back.atoms == sp.atoms
    assert back.residual_norm == 0.25
    assert back.health == sp.health == FitHealth(None, 0.25)
    assert back.dropped == 0
