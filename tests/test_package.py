"""The flat package namespace."""

import os
import re
import subprocess
import sys
import types
from pathlib import Path

import uflab
from uflab import cli, explore, functionals, gaussian, hermite, numerics, verifier

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_imports():
    """The names of every ``from uflab import`` line or block in README."""
    names = set()
    for block, line in re.findall(r"^from uflab import (?:\((.*?)^\)|([^\n]*))$",
                                  README.read_text(), re.MULTILINE | re.DOTALL):
        for text in (block + line).splitlines():
            names.update(n.strip() for n in text.split("#")[0].split(",") if n.strip())
    return names


def test_all_is_the_readme_surface():
    assert readme_imports() == set(uflab.__all__) - {"__version__"}
    assert len(uflab.__all__) == 21


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
                 "hermite_ft_coeffs", "norm_from_samples", "hermite_eval",
                 "estimate_image_interval", "IntervalReport"):
        assert name not in uflab.__all__
        assert not hasattr(uflab, name)
    assert not hasattr(numerics, "norm_from_samples")
    assert not hasattr(hermite, "hermite_eval")
    assert not hasattr(numerics.SampledFunction, "xi_spacing")
    assert not hasattr(explore.SweepResult, "to_csv")
    assert not hasattr(explore.SweepResult, "from_csv")
    assert not hasattr(explore, "estimate_image_interval")
    for name in ("eval_Fq_batch", "eval_Fqp_batch", "_eval_ratios"):
        assert not hasattr(functionals, name)


def test_module_entry_points_resolve():
    # what the benchmark's tracer and workloads reach by module attribute
    for module, name in (
        (numerics, "lq_norm_quad"), (numerics, "integrate_adaptive"),
        (functionals, "eval_Fq"), (functionals, "eval_Fqp"),
        (explore, "sweep"), (explore, "minimize_Fq"), (explore, "GridSpec"),
        (explore, "OptimizerConfig"), (explore, "MinimizeFamilySpec"),
        (cli, "run_cli"), (gaussian, "GaussianMixture"),
        (hermite, "HermiteExpansion"),
    ):
        assert callable(getattr(module, name)), f"{module.__name__}.{name}"
    checks = sorted(a for a in vars(verifier)
                    if a.startswith("verify_") and callable(getattr(verifier, a)))
    assert checks == [
        "verify_closed_forms", "verify_divergence", "verify_fq_lower_bound",
        "verify_hausdorff_young", "verify_interpolation",
        "verify_reduction_q_lt_2_le_p", "verify_vanishing",
    ]


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


def _fresh_python(code):
    """Run ``code`` in a new interpreter that imports this uflab."""
    src = str(Path(uflab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_import_leaves_optimizer_out():
    # scipy is imported by minimize_Fq alone (scipy.optimize); importing
    # it would more than double the package's import time.  With scipy
    # blocked, the package imports and every other subcommand runs.
    proc = _fresh_python(_SCIPY_BLOCKED)
    assert proc.stdout.split("\n") == [
        "[]", "eval 0", "sweep 0", "verify 0", "ftcheck 0", ""], proc.stderr


def test_import_leaves_cli_out():
    # the command line is reached through uflab.cli (the console script
    # and ``python -m uflab``), not through the flat namespace
    proc = _fresh_python("import sys, uflab; print('uflab.cli' in sys.modules)")
    assert proc.stdout == "False\n"
