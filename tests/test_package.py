"""The flat package namespace."""

import types

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
