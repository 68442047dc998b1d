"""Acceptance suite: ten end-to-end criteria with pinned tolerances.

Each test prints one pass/fail line (visible with -s; pytest -v shows
the per-criterion verdict either way) and enforces its runtime budget.
"""

import math
import time

import numpy as np
import pytest

from uflab.cli import run_cli
from uflab.explore import sweep
from uflab.functionals import (
    beckner_constant,
    conjugate_exponent,
    eval_Fq,
    gc_l2_norm_sq,
)
from uflab.gaussian import (
    ChirpParams,
    ComplexGaussianTerm,
    GaussianMixture,
    TwoScaleParams,
    closed_form_Fq_chirp,
)
from uflab.numerics import dft_approx, lq_norm_quad, sample, truncation_radius
from uflab.verifier import (
    verify_divergence,
    verify_fq_lower_bound,
    verify_hausdorff_young,
    verify_interpolation,
    verify_vanishing,
)


class Budget:
    """Context manager asserting the wall-clock limit and printing the
    one-line verdict for the criterion."""

    def __init__(self, label, limit_s):
        self.label = label
        self.limit_s = limit_s

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"acceptance {self.label}: {verdict} in {elapsed:.2f}s "
              f"(limit {self.limit_s:g}s)")
        if exc_type is None:
            assert elapsed < self.limit_s, (
                f"{self.label} exceeded its {self.limit_s:g}s budget "
                f"({elapsed:.2f}s)"
            )
        return False


def test_criterion_01_closed_form_reproduction():
    with Budget("01 closed-form reproduction", 1.0):
        a = math.sqrt(3.0)
        closed = closed_form_Fq_chirp(a, 4.0)
        assert closed == pytest.approx(2.0 ** -0.25, rel=1e-12)
        quad_value = eval_Fq(ChirpParams(a), 4.0, "quadrature", 1e-9).value
        assert abs(closed - quad_value) / closed <= 1e-7


def test_criterion_02_two_scale_l2_identity():
    with Budget("02 two-scale L2 identity", 5.0):
        for c in (0.1, 1.0, 2.0, 10.0, 100.0):
            quad_sq = lq_norm_quad(TwoScaleParams(c).function, (2.0,),
                                   1e-10)[0].value ** 2
            assert quad_sq == pytest.approx(gc_l2_norm_sq(c), rel=1e-8)
        assert gc_l2_norm_sq(1.0) == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)


def test_criterion_03_lower_bound_q_below_2():
    with Budget("03 F_q lower bound at q=1.5", 120.0):
        r = verify_fq_lower_bound(1.5, samples=500, seed=42)
        assert r.passed
        assert r.observed["min_value"] >= 1.0 - 1e-7
        assert r.observed["min_value"] >= 1.0 / beckner_constant(1.5) - 1e-6


def test_criterion_04_divergence_q_above_2():
    with Budget("04 divergence along g_c at q=4", 60.0):
        r = verify_divergence(4.0)
        assert r.passed  # F_4(g_c) >= fq_gc_lower_bound(c, 4) on the grid
        assert r.observed["values"][-1] >= 50.0


def test_criterion_05_vanishing_q3_p6():
    with Budget("05 vanishing slope at (q,p)=(3,6)", 120.0):
        r = verify_vanishing(3.0, 6.0)
        assert r.passed
        assert r.observed["slope"] == pytest.approx(-1.0 / 3.0, abs=0.05)
        assert r.observed["values"][-1] <= 0.1


def test_criterion_06_beckner_sharp_constant():
    with Budget("06 sharp Hausdorff-Young at q=4/3", 60.0):
        q = 4.0 / 3.0
        gaussian = GaussianMixture((ComplexGaussianTerm(1.0, 1.0),))
        ratio = (
            lq_norm_quad(gaussian, (conjugate_exponent(q),), 1e-10)[0].value
            / lq_norm_quad(gaussian, (q,), 1e-10)[0].value
        )
        assert ratio == pytest.approx(beckner_constant(q), abs=1e-6)
        r = verify_hausdorff_young(q, samples=200, seed=42)
        assert r.passed
        assert r.observed["worst_sharp_slack"] >= -1e-9


def test_criterion_07_interpolation_suite():
    with Budget("07 interpolation at (q,p)=(1.2,1.5)", 120.0):
        r = verify_interpolation(1.2, 1.5, samples=200, seed=42)
        assert r.passed
        assert r.worst_slack >= -1e-6


def test_criterion_08_dft_oracle():
    with Budget("08 discrete Fourier oracle", 10.0):
        f = ChirpParams(2.0).function
        fhat = f.ft()
        hat = dft_approx(sample(f, 4096, 0.01))
        err = np.max(np.abs(hat.samples - fhat.eval(hat.x_grid())))
        assert err <= 1e-8
        dx = 2.0 * truncation_radius(f, 1.0, 1e-12) / 2048
        errors = []
        for n in (256, 512, 1024, 2048):
            h = dft_approx(sample(f, n, dx))
            errors.append(np.max(np.abs(h.samples - fhat.eval(h.x_grid()))))
        assert all(b < a for a, b in zip(errors, errors[1:]))


def test_criterion_09_image_interval_reports():
    with Budget("09 image interval estimates", 180.0):
        # F_4 falls below 0.05 on chirps near t = 1 and diverges along g_c
        assert closed_form_Fq_chirp(1.0 + 2e-6, 4.0) < 0.05
        assert verify_divergence(4.0).passed
        # F_1.5 along g_c stays between the proved floor and 1.07926
        low = min(r.value for r in sweep("twoscale", 1.5, grid="0.1:10:9log").rows)
        assert 1.0 / beckner_constant(1.5) - 1e-6 <= low <= 1.07926


def test_criterion_10_cli_determinism(tmp_path, capsys):
    with Budget("10 verify CLI determinism", 300.0):
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        code_a = run_cli(["verify", "--suite", "all", "--seed", "42",
                          "--out", str(out_a)])
        code_b = run_cli(["verify", "--suite", "all", "--seed", "42",
                          "--out", str(out_b)])
        capsys.readouterr()
        assert code_a == 0 and code_b == 0
        assert out_a.read_bytes() == out_b.read_bytes()
