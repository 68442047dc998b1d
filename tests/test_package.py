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
                 "bound_report", "BoundReport", "TestFunctionSpec",
                 "hermite_ft_coeffs"):
        assert name not in uflab.__all__
        assert not hasattr(uflab, name)


def test_l2_norm_method_absent():
    # an L^2 norm comes from functionals.norms, like every other norm
    for cls in (uflab.GaussianMixture, uflab.HermiteExpansion):
        assert not hasattr(cls, "l2_norm")


_SCIPY_BLOCKED = """
import os, sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
import uflab
from uflab.cli import run_cli
loaded = [m for m, mod in sys.modules.items() if m.startswith("scipy") and mod is not None]
print(loaded)
for argv in (
    ["eval", "--family", "twoscale", "--c", "3", "--q", "3", "--p", "6"],
    ["sweep", "--family", "chirp", "--q", "3", "--grid", "2:10:3log"],
    ["verify", "--suite", "all", "--samples", "5"],
    ["ftcheck", "--family", "gaussian", "--grid-n", "256"],
):
    print(argv[0], run_cli(argv + ["--out", os.devnull]))
"""


def test_import_leaves_optimizer_out():
    # scipy is imported by minimize_Fq alone (scipy.optimize); importing
    # it would more than double the package's import time.  With scipy
    # blocked, the package imports and every other subcommand runs.
    src = str(Path(uflab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_BLOCKED],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == [
        "[]", "eval 0", "sweep 0", "verify 0", "ftcheck 0", ""], proc.stderr
