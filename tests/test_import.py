import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("module", ["scipy.signal", "scipy.optimize"])
def test_import_does_not_load_scipy_signal(module):
    # scipy.signal adds about 0.75 s to every start-up, and scipy.optimize (with
    # the scipy.sparse it loads) about 0.2 s and 20 MB; nothing may pull either in
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = f"import speclogic, sys; assert {module!r} not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_every_exported_name_resolves():
    # an export left behind by a removal would only fail on `from speclogic import *`
    import speclogic

    missing = [name for name in speclogic.__all__ if not hasattr(speclogic, name)]
    assert missing == []
