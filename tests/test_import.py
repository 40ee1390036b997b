import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

SCIPY_LOADED = "[m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]"


def _fresh(code: str) -> None:
    """Run ``code`` in a fresh interpreter that imports speclogic from this tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code], env=env, check=True)


@pytest.mark.parametrize("module", ["scipy.signal", "scipy.optimize"])
def test_import_does_not_load_scipy_signal(module):
    # scipy.signal adds about 0.75 s to every start-up, and scipy.optimize (with
    # the scipy.sparse it loads) about 0.2 s and 20 MB; nothing may pull either in
    _fresh(f"import speclogic, sys; assert {module!r} not in sys.modules")


def test_import_and_the_pencil_path_load_no_scipy():
    # scipy.linalg adds about 0.2 s and 20 MB to a start-up; the default
    # back-end needs nothing from it
    _fresh(
        "import sys\n"
        "import speclogic\n"
        f"assert {SCIPY_LOADED} == [], {SCIPY_LOADED}\n"
        "from speclogic.benchmark import reference_config\n"
        "from speclogic.pipeline import detect_anomalies, run\n"
        "x, truth = speclogic.synth_oscillator('two_mode_far', noise_sigma=0.05, seed=3)\n"
        "cfg = reference_config()\n"
        "assert speclogic.benchmark.predicted_classes(run(x, cfg)) == [truth]\n"
        "assert detect_anomalies(x, cfg, 128, 64, truth)\n"
        f"assert {SCIPY_LOADED} == [], {SCIPY_LOADED}\n"
    )


def test_a_fixed_order_pade_fit_loads_no_scipy():
    # only the automatic order sweep (dtbtrs, nrm2) needs scipy.linalg; a
    # fixed-order fit solves its moment system and takes its poles with
    # numpy's lstsq and eigvals gufuncs
    _fresh(
        "import dataclasses, sys\n"
        "import numpy as np\n"
        "import speclogic\n"
        "from speclogic.benchmark import reference_config\n"
        "from speclogic.pipeline import PadeSettings, run\n"
        "x, _ = speclogic.synth_oscillator('underdamped_high', seed=5)\n"
        "cfg = dataclasses.replace(reference_config(), backend='pade_z')\n"
        "assert cfg.pade == PadeSettings()\n"
        "result = run(x, cfg)\n"
        "assert result.diagnostics['estimate']['orders'] == [1, 2]\n"
        "r = speclogic.fit_pade(0.5 ** np.arange(16), 3, 4)\n"
        "assert len(speclogic.extract_poles(r)) >= 1\n"
        f"assert {SCIPY_LOADED} == [], {SCIPY_LOADED}\n"
    )


def test_numpy_has_the_lapack_gufunc_loops_speclogic_calls():
    # the matrix pencil and the Padé route call these gufuncs of numpy's linalg
    # extension with float64 loops, and the pencil's Vandermonde solve svd_s
    # with the complex128 one; numpy 1.x split lstsq and the QR ones by shape
    from numpy.linalg import _umath_linalg

    loops = [
        ("lstsq", "ddd->ddid"),
        ("eigvals", "d->D"),
        ("qr_r_raw", "d->d"),
        ("qr_reduced", "dd->d"),
        ("svd_s", "d->ddd"),
        ("svd_s", "D->DdD"),
    ]
    for name, loop in loops:
        assert hasattr(_umath_linalg, name), name
        assert loop in getattr(_umath_linalg, name).types, (name, loop)


def test_the_pencil_path_loads_no_numpy_ma():
    # numpy.ma (which np.unique imports on numpy 2) adds about 14 ms and 1.2 MB
    # to a start-up
    _fresh(
        "import sys\n"
        "import speclogic\n"
        "from speclogic.benchmark import reference_config\n"
        "from speclogic.pipeline import detect_anomalies, run\n"
        "x, truth = speclogic.synth_oscillator('two_mode_far', noise_sigma=0.05, seed=3)\n"
        "run(x, reference_config())\n"
        "detect_anomalies(x, reference_config(), 128, 64, truth)\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )


def test_the_first_pade_and_lanczos_calls_load_scipy_and_succeed():
    _fresh(
        "import dataclasses, sys\n"
        "import numpy as np\n"
        "import speclogic\n"
        "from speclogic.benchmark import predicted_classes, reference_config\n"
        "from speclogic.pipeline import LanczosSettings, PadeSettings, run, run_hermitian\n"
        "x, truth = speclogic.synth_oscillator('underdamped_high', seed=5)\n"
        "cfg = dataclasses.replace(reference_config(), backend='pade_z', pade=PadeSettings(auto=True))\n"
        "assert predicted_classes(run(x, cfg)) == [truth]\n"
        "assert 'scipy.linalg' in sys.modules\n"
        # two heavy eigenvalues in a bulk, so the Ritz stop also runs its windowed solve
        "cfg = dataclasses.replace(reference_config(), backend='lanczos', lanczos=LanczosSettings())\n"
        "lam = np.concatenate([[-0.5, 0.6], np.linspace(-1.0, 1.0, 198)])\n"
        "q1 = np.sqrt(np.concatenate([[0.45, 0.45], np.full(198, 0.1 / 198)]))\n"
        "result = run_hermitian(speclogic.HermitianOp.from_dense(np.diag(lam)), q1, cfg)\n"
        "omegas = np.array([atom.omega for atom in result.atoms.atoms])\n"
        "assert all(np.min(np.abs(omegas - v)) <= 0.005 for v in (-0.5, 0.6)), omegas\n"
    )


def test_every_exported_name_resolves():
    # an export left behind by a removal would only fail on `from speclogic import *`
    import speclogic

    missing = [name for name in speclogic.__all__ if not hasattr(speclogic, name)]
    assert missing == []
