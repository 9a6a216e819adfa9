"""SciPy's two compiled kernels, loaded without SciPy's Python packages.

``hyena`` loads pocketfft's extension module and the ``expit`` ufunc's from
their files, so ``scipy.fft`` and ``scipy.special`` (and the ~300 modules
they import) never load in a training process. These tests keep that saving,
check that a missing file is reported by name, and pin the loaded ``expit``
to the public one bit for bit; the FFT oracles are in ``test_hyena_ops.py``.
The tests themselves import SciPy publicly.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy import special

from l2t_hyena import hyena

_CHILD = """
import runpy
import sys

import l2t_hyena.cli

sys.argv = ["l2t_hyena", "--help"]
try:
    runpy.run_module("l2t_hyena", run_name="__main__")
except SystemExit as exc:
    assert exc.code in (None, 0), exc.code
print()
print(" ".join(sorted(sys.modules)))
"""


def test_cli_loads_no_scipy_python_package():
    src = os.path.dirname(os.path.dirname(hyena.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _CHILD], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "usage:" in proc.stdout
    modules = proc.stdout.splitlines()[-1].split()
    assert "l2t_hyena.hyena" in modules and "l2t_hyena.dln" in modules
    loaded = [m for m in modules if m.startswith(("scipy.fft", "scipy.special", "scipy._lib"))]
    assert loaded == []


def test_missing_extension_is_named():
    with pytest.raises(ImportError, match=r"special[/\\]no_such_module.* was not found"):
        hyena._scipy_extension("special", "no_such_module")


def test_missing_scipy_is_named(monkeypatch):
    find_spec = importlib.util.find_spec
    monkeypatch.setattr(importlib.util, "find_spec",
                        lambda name, *a: None if name == "scipy" else find_spec(name, *a))
    with pytest.raises(ImportError, match=r"scipy[/\\]special[/\\]_special_ufuncs"):
        hyena._scipy_extension("special", "_special_ufuncs")


def _grid():
    # Every order of magnitude the GRU's gates can see, the saturated tails
    # (|x| = 100 and 1e4 overflow a naive exp(-x) in float32), signed zeros
    # and infinities.
    dense = np.linspace(-40.0, 40.0, 400_001, dtype=np.float32)
    ends = np.array([-1e4, -100.0, -0.0, 0.0, 100.0, 1e4, -np.inf, np.inf], np.float32)
    return np.concatenate([dense, ends, np.geomspace(1e-30, 1e30, 10_001, dtype=np.float32)])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_loaded_expit_matches_public_expit_bit_for_bit(dtype):
    x = _grid().astype(dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out = hyena._expit(x)
        into = np.empty_like(x)
        hyena._expit(x, out=into)
    ref = special.expit(x)
    assert out.dtype == dtype and np.array_equal(out.view(np.uint8), ref.view(np.uint8))
    assert np.array_equal(into.view(np.uint8), ref.view(np.uint8))


def test_loaded_expit_matches_public_expit_on_python_floats():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for x in (-1e4, -100.0, -36.5, -1.5, -0.0, 0.0, 1e-300, 0.3, 17.0, 100.0, 1e4):
            out, ref = hyena._expit(x), special.expit(x)
            assert type(out) is type(ref) and float(out).hex() == float(ref).hex()
