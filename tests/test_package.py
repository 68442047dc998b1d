"""The flat package namespace."""

import os
import subprocess
import sys
import types
from pathlib import Path

import uflab


def test_all_names_resolve():
    for name in uflab.__all__:
        assert hasattr(uflab, name), name
    assert "__version__" in uflab.__all__
    assert len(set(uflab.__all__)) == len(uflab.__all__)


def test_no_submodule_in_all():
    leaked = [n for n in uflab.__all__ if isinstance(getattr(uflab, n), types.ModuleType)]
    assert leaked == []
    for sub in ("gaussian", "hermite", "numerics", "functionals", "verifier",
                "explore", "cli"):
        assert sub not in uflab.__all__


def test_removed_free_functions_absent():
    for name in ("fourier_transform", "eval_mixture", "mixture_l2_norm",
                 "bound_report", "BoundReport"):
        assert name not in uflab.__all__
        assert not hasattr(uflab, name)


def test_import_leaves_optimizer_out():
    # scipy.optimize is imported by minimize_Fq alone; it is about a third
    # of the package's import time.
    src = str(Path(uflab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, uflab; print('scipy.optimize' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
