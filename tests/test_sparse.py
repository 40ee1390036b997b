import math
import warnings

import numpy as np
import pytest
import scipy.integrate

from speclogic import (
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
from speclogic.sparse import SKETCH_OVERSAMPLE, lorentzian_model_jacobian, unit_scale


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


@pytest.mark.parametrize(
    "samples",
    [np.eye(1, 384, 100)[0], np.random.default_rng(4).standard_normal(384)],
    ids=["spike", "white_noise"],
)
def test_pencil_flat_singular_spectrum(samples):
    # every singular value is alike, so the sketch may pick another subspace
    # than the exact SVD would: only validity and silence are asserted
    assert len(pencil_no_warnings(samples).atoms) <= 8


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
        [LorentzianAtom(1.0, 0.2, 1.5), LorentzianAtom(4.0, 0.6, 0.5)], residual_norm=0.25
    )
    back = SparseSpectrum.from_dict(sp.to_dict())
    assert back.atoms == sp.atoms
    assert back.residual_norm == 0.25
