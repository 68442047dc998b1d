"""Uncertainty ratios F_q / F_qp, named constants, and the two-scale
bound family."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uflab.functionals import (
    EXPONENT_MAX,
    EXPONENT_MIN,
    beckner_constant,
    conjugate_exponent,
    eval_Fq,
    eval_Fqp,
    fq_gc_lower_bound,
    gc_l2_norm_sq,
    gc_lq_lower_bound,
    gc_lq_lower_bound_weak,
    gc_lq_upper_bound,
    interpolation_exponent,
)
from uflab.gaussian import (
    ChirpParams,
    ComplexGaussianTerm,
    GaussianMixture,
    TwoScaleParams,
    closed_form_Fq_chirp,
    make_two_scale,
)
from uflab.hermite import HermiteExpansion
from uflab.numerics import lq_norm_quad


class TestExponentHelpers:
    def test_conjugate_values(self):
        assert conjugate_exponent(2.0) == pytest.approx(2.0)
        assert conjugate_exponent(4.0 / 3.0) == pytest.approx(4.0)
        assert conjugate_exponent(1.5) == pytest.approx(3.0)
        with pytest.raises(ValueError):
            conjugate_exponent(1.0)

    @settings(derandomize=True, max_examples=60)
    @given(st.floats(min_value=1.001, max_value=64.0))
    def test_conjugate_involutive(self, q):
        assert conjugate_exponent(conjugate_exponent(q)) == pytest.approx(q, rel=1e-9)

    def test_beckner_constant(self):
        assert beckner_constant(2.0) == pytest.approx(1.0)
        assert beckner_constant(4.0 / 3.0) == pytest.approx(
            0.9366870743752481, rel=1e-14
        )
        assert 1.0 / beckner_constant(1.5) == pytest.approx(
            1.0491150634216482, rel=1e-14
        )
        with pytest.raises(ValueError):
            beckner_constant(2.5)
        with pytest.raises(ValueError):
            beckner_constant(1.0)

    def test_beckner_gaussian_equality(self):
        # ||fhat||_{p'} / ||f||_p at p = 4/3 for the unit Gaussian
        f = GaussianMixture((ComplexGaussianTerm(1.0, 1.0),))
        p = 4.0 / 3.0
        ratio = (
            lq_norm_quad(f, conjugate_exponent(p), 1e-10).value
            / lq_norm_quad(f, p, 1e-10).value
        )
        assert ratio == pytest.approx(beckner_constant(p), rel=1e-9)

    def test_interpolation_exponent(self):
        # theta = (1/p - 1/2)/(1/q - 1/2)
        assert interpolation_exponent(1.2, 1.5) == pytest.approx(
            (1 / 1.5 - 0.5) / (1 / 1.2 - 0.5), rel=1e-14
        )
        with pytest.raises(ValueError):
            interpolation_exponent(1.5, 1.2)
        with pytest.raises(ValueError):
            interpolation_exponent(1.2, 2.0)


class TestGcBounds:
    def test_l2_identity_values(self):
        assert gc_l2_norm_sq(1.0) == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-14)
        assert gc_l2_norm_sq(2.0) == pytest.approx(
            math.sqrt(2.0) + 4.0 / math.sqrt(17.0), rel=1e-14
        )
        # c -> infinity limit sqrt(2); c = 1 is the maximum
        assert gc_l2_norm_sq(1e8) == pytest.approx(math.sqrt(2.0), rel=1e-7)
        grid = np.geomspace(0.1, 10.0, 31)
        assert max(gc_l2_norm_sq(c) for c in grid) == pytest.approx(
            2.0 * math.sqrt(2.0), rel=1e-12
        )

    def test_lower_bound_braced_sum_c1_q4(self):
        # braced sum (2 + 2^{5/2}/sqrt(2))/2 = 3, so the bound is 3^{1/2}
        assert gc_lq_lower_bound(1.0, 4.0) == pytest.approx(
            math.sqrt(3.0), rel=1e-14
        )

    def test_weak_bound_value(self):
        assert gc_lq_lower_bound_weak(100.0, 4.0) == pytest.approx(
            7.0710678118654755, rel=1e-14
        )

    @pytest.mark.parametrize("c,q", [(5.0, 4.0), (50.0, 3.0), (0.2, 6.0)])
    def test_lower_bound_below_quadrature(self, c, q):
        norm_sq = lq_norm_quad(make_two_scale(TwoScaleParams(c)), q, 1e-10).value ** 2
        assert norm_sq >= gc_lq_lower_bound(c, q) - 1e-9

    def test_lower_bound_dominates_weak_form(self):
        for c, q in [(2.0, 3.0), (10.0, 4.0), (100.0, 8.0)]:
            assert gc_lq_lower_bound(c, q) >= gc_lq_lower_bound_weak(c, q) - 1e-12

    def test_lower_bound_rejects_q_le_2(self):
        with pytest.raises(ValueError):
            gc_lq_lower_bound(1.0, 2.0)

    def test_upper_bound_cases(self):
        assert gc_lq_upper_bound(7.0, 2.0) == pytest.approx(4.0)

    @pytest.mark.parametrize("c,q", [(10.0, 4.0), (3.0, 1.5), (7.0, 2.0), (0.3, 6.0)])
    def test_upper_bound_above_quadrature(self, c, q):
        norm_sq = lq_norm_quad(make_two_scale(TwoScaleParams(c)), q, 1e-10).value ** 2
        assert norm_sq <= gc_lq_upper_bound(c, q) + 1e-9

    def test_upper_bound_growth_exponent_q_lt_2(self):
        # log-log slope of the q = 1.5 bound approaches 2/q - 1 = 1/3;
        # the c^{q/2-1} term decays slowly, so fit far out
        cs = np.geomspace(1e6, 1e12, 7)
        vals = np.array([gc_lq_upper_bound(c, 1.5) for c in cs])
        slope = np.polyfit(np.log(cs), np.log(vals), 1)[0]
        assert slope == pytest.approx(1.0 / 3.0, abs=1e-4)

    def test_fq_lower_bound_values(self):
        assert fq_gc_lower_bound(100.0, 4.0) == pytest.approx(
            4.930275377300498, rel=1e-14
        )
        assert fq_gc_lower_bound(1e4, 4.0) == pytest.approx(
            49.992929932046735, rel=1e-13
        )

    @pytest.mark.parametrize("c,q", [(10.0, 3.0), (1e3, 4.0), (1e2, 8.0)])
    def test_eval_fq_dominates_bound(self, c, q):
        value = eval_Fq(TwoScaleParams(c), q, "quadrature", 1e-9).value
        assert value >= fq_gc_lower_bound(c, q) - 1e-9


class TestEvalFq:
    def test_closed_vs_quadrature_chirp(self):
        rep = eval_Fq(ChirpParams(2.0), 4.0, "both", 1e-9)
        assert rep.method == "both"
        assert rep.discrepancy is not None and rep.discrepancy <= 1e-8
        assert rep.value == pytest.approx(closed_form_Fq_chirp(2.0, 4.0), rel=1e-13)

    def test_report_value_is_norm_ratio(self):
        rep = eval_Fq(ChirpParams(2.0), 4.0, "quadrature", 1e-9)
        n = [e.value for e in rep.norms]
        assert rep.value == n[0] * n[1] / (n[2] * n[3])
        assert [e.q for e in rep.norms] == [4.0, 4.0, 2.0, 2.0]

    def test_plancherel_identity(self):
        for f in (
            ChirpParams(3.0),
            TwoScaleParams(2.0),
            HermiteExpansion((0.4, -0.2j, 0.6)),
        ):
            assert eval_Fq(f, 2.0, "quadrature", 1e-10).value == pytest.approx(
                1.0, rel=1e-9
            )

    def test_single_gaussian_value(self):
        for q in (1.5, 4.0):
            rep = eval_Fq(ComplexGaussianTerm(1.0, 2.5), q, "closed-form")
            assert rep.value == pytest.approx(
                math.sqrt(2.0) * q ** (-1.0 / q), rel=1e-13
            )

    def test_closed_form_rejects_mixtures(self):
        with pytest.raises(ValueError, match="single Gaussian/chirp term"):
            eval_Fq(TwoScaleParams(2.0), 4.0, "closed-form")

    def test_scalar_scale_invariance(self):
        f = make_two_scale(TwoScaleParams(3.0))
        scaled = GaussianMixture(
            tuple(ComplexGaussianTerm(7.5j * t.amplitude, t.width) for t in f.terms)
        )
        v1 = eval_Fq(f, 3.0, "quadrature", 1e-10).value
        v2 = eval_Fq(scaled, 3.0, "quadrature", 1e-10).value
        assert v1 == pytest.approx(v2, rel=1e-10)

    def test_dilation_invariance(self):
        lam = 2.5  # f(lam x): widths scale by lam^2, ratio unchanged
        f = make_two_scale(TwoScaleParams(2.0))
        dilated = GaussianMixture(
            tuple(
                ComplexGaussianTerm(t.amplitude, lam * lam * t.width) for t in f.terms
            )
        )
        v1 = eval_Fq(f, 4.0, "quadrature", 1e-10).value
        v2 = eval_Fq(dilated, 4.0, "quadrature", 1e-10).value
        assert v1 == pytest.approx(v2, rel=1e-9)

    def test_zero_function_rejected(self):
        with pytest.raises(ValueError, match="zero function"):
            eval_Fq(GaussianMixture((ComplexGaussianTerm(0.0, 1.0),)), 3.0)
        with pytest.raises(ValueError, match="zero function"):
            eval_Fq(HermiteExpansion((0.0, 0.0)), 3.0)

    @pytest.mark.parametrize("f, q", [
        # nonzero coefficients, identically zero sum
        (GaussianMixture((ComplexGaussianTerm(1, 1), ComplexGaussianTerm(-1, 1))), 3.0),
        # every norm underflows
        (HermiteExpansion((1e-300,)), 3.0),
        # the q-norms underflow though F_64(h_0) = 1.3252...
        (HermiteExpansion((1e-10,)), 64.0),
    ])
    def test_vanishing_norm_rejected(self, f, q):
        with pytest.raises(ValueError, match="zero function"):
            eval_Fq(f, q)

    def test_exponent_domain(self):
        f = ChirpParams(2.0)
        with pytest.raises(ValueError):
            eval_Fq(f, EXPONENT_MIN - 1e-6)
        with pytest.raises(ValueError):
            eval_Fq(f, EXPONENT_MAX + 1.0)
        with pytest.raises(ValueError):
            eval_Fq(f, 4.0, method="simpson")

    def test_type_rejection(self):
        with pytest.raises(TypeError):
            eval_Fq("not a function", 3.0)


class TestEvalFqp:
    def test_chirp_closed_vs_quad(self):
        rep = eval_Fqp(ChirpParams(math.sqrt(3.0)), 3.0, 6.0, "both", 1e-9)
        assert rep.value == pytest.approx(1.0491150634216482, rel=1e-12)
        assert rep.discrepancy <= 1e-8

    def test_requires_q_lt_p(self):
        with pytest.raises(ValueError):
            eval_Fqp(ChirpParams(2.0), 3.0, 3.0)
        with pytest.raises(ValueError):
            eval_Fqp(ChirpParams(2.0), 4.0, 3.0)

    def test_p2_reduces_to_fq(self):
        f = TwoScaleParams(5.0)
        a = eval_Fqp(f, 1.5, 2.0, "quadrature", 1e-10).value
        b = eval_Fq(f, 1.5, "quadrature", 1e-10).value
        assert a == pytest.approx(b, rel=1e-12)
