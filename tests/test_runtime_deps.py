import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fracsob

_PROBE = """
import importlib, json, pkgutil, sys
import fracsob
for mod in pkgutil.iter_modules(fracsob.__path__):
    importlib.import_module("fracsob." + mod.name)
print(json.dumps(sorted(sys.modules)))
"""


def test_runtime_imports_no_test_oracle():
    # scipy and mpmath are test-only oracles: importing fracsob and every
    # submodule (cli and validate included) must not pull them in
    src = str(Path(fracsob.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", _PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout
    modules = json.loads(out)
    assert {"fracsob.cli", "fracsob.validate", "fracsob.specfun"} <= set(modules)
    assert [m for m in modules if m.split(".")[0] in ("scipy", "mpmath")] == []


def test_numpy_fft_loaded_on_import():
    # numpy >= 2 imports numpy.fft lazily; a signal handler (such as a
    # sampling profiler's) that calls np.fft while the first solve runs that
    # import raised RecursionError inside numpy's module __getattr__
    src = str(Path(fracsob.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", "import sys, fracsob; print('numpy.fft' in sys.modules)"],
        env=env, check=True, capture_output=True, text=True).stdout
    assert out.strip() == "True"


def test_validate_loads_no_numpy_random():
    # validate samples the Gamma recurrence on a fixed log-spaced grid: it
    # draws no random numbers, so it must not pay numpy.random's import
    src = str(Path(fracsob.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = ("import sys, json, numpy\n"
             "before = 'numpy.random' in sys.modules\n"
             "from fracsob.validate import run_validation\n"
             "failed = [r.name for r in run_validation() if not r.passed]\n"
             "print(json.dumps([before, 'numpy.random' in sys.modules, failed]))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    before, after, failed = json.loads(out)
    assert failed == []
    if before:
        pytest.skip("this numpy imports numpy.random with numpy itself")
    assert not after
