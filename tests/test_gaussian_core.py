"""Exact Gaussian/chirp algebra: constructors, transforms, closed-form
norms and ratios, checked against independent quadrature oracles."""

import cmath
import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from uflab.functionals import eval_Fq, norms
from uflab.gaussian import (
    MIN_CHIRP_MARGIN,
    ChirpParams,
    ComplexGaussianTerm,
    GaussianMixture,
    TwoScaleParams,
    closed_form_Fq_chirp,
    closed_form_Fqp_chirp,
    make_chirp,
    make_two_scale,
    term_lq_norm,
)


def lq_oracle(term, q):
    # |A e^{-pi z x^2}|^q depends only on Re z
    amp, rez = abs(term.amplitude), term.width.real
    val, _ = quad(lambda x: (amp * math.exp(-math.pi * rez * x * x)) ** q,
                  -np.inf, np.inf)
    return val ** (1.0 / q)


class TestConstruction:
    def test_width_must_have_positive_real_part(self):
        with pytest.raises(ValueError):
            ComplexGaussianTerm(1.0, complex(-1.0, 2.0))
        with pytest.raises(ValueError):
            ComplexGaussianTerm(1.0, 0.0)

    def test_term_eval_modulus_is_envelope(self):
        term = ComplexGaussianTerm(2.0j, complex(1.5, -7.0))
        x = np.linspace(-2, 2, 41)
        np.testing.assert_allclose(
            np.abs(term.eval(x)), 2.0 * np.exp(-math.pi * 1.5 * x * x), rtol=1e-14
        )

    def test_chirp_params_reject_degenerate(self):
        with pytest.raises(ValueError, match="degenerate width"):
            ChirpParams(1.0 + 1e-9)
        with pytest.raises(ValueError):
            ChirpParams(1.0)
        ChirpParams(1.0 + 2.0 * MIN_CHIRP_MARGIN)  # just above the margin

    def test_chirp_t_roundtrip(self):
        p = ChirpParams.from_t(3.0)
        assert p.a == pytest.approx(math.sqrt(3.0), rel=1e-15)
        assert p.a ** 2 == pytest.approx(3.0, rel=1e-15)

    def test_term_width_overflow_raises(self):
        # pi*Re z overflows: the parent evaluated exp(-inf*0) = nan at x = 0
        for z in (1e308, complex(1e308, 1.0), complex(6e307, -2.0)):
            with pytest.raises(ValueError, match="term width"):
                ComplexGaussianTerm(1.0, z)
        ComplexGaussianTerm(1.0, 5.7e307).eval(np.linspace(-1.0, 1.0, 16))

    def test_chirp_width_overflow_raises(self):
        # a = 1e154 gave a zero L^q norm and "zero function" from eval_Fq
        for a in (1e154, 1e200, math.inf, math.nan):
            with pytest.raises(ValueError):
                ChirpParams(a)
        with pytest.raises(ValueError):
            closed_form_Fq_chirp(1e200, 3.0)  # nan at the parent
        with pytest.raises(ValueError):
            closed_form_Fqp_chirp(1e200, 3.0, 6.0)

    def test_closed_forms_finite_up_to_largest_chirp(self):
        a_max = 7.564545572282618e153
        ChirpParams(a_max)
        with pytest.raises(ValueError):
            ChirpParams(math.nextafter(a_max, math.inf))
        for a in (1.0 + 2.0 * MIN_CHIRP_MARGIN, 1e10, 1e100, a_max):
            for q in (1.001, 1.5, 3.0, 64.0):
                assert math.isfinite(closed_form_Fq_chirp(a, q))
                assert math.isfinite(closed_form_Fqp_chirp(a, q, 2.0 * q))

    def test_make_chirp_widths(self):
        assert make_chirp(ChirpParams(2.0)).width == complex(3.0, 4.0)
        w = make_chirp(ChirpParams(math.sqrt(3.0))).width
        assert w.real == pytest.approx(2.0, rel=1e-15)
        assert w.imag == pytest.approx(2.0 * math.sqrt(3.0), rel=1e-15)

    def test_two_scale_terms(self):
        mix = make_two_scale(TwoScaleParams(2.0))
        amps = [t.amplitude for t in mix.terms]
        widths = [t.width for t in mix.terms]
        assert amps == [pytest.approx(2.0 ** -0.5), pytest.approx(2.0 ** 0.5)]
        assert widths == [pytest.approx(0.25), pytest.approx(4.0)]
        with pytest.raises(ValueError):
            TwoScaleParams(0.0)
        with pytest.raises(ValueError):
            TwoScaleParams(-2.0)
        # pi*c*c or pi/(c*c) overflows
        for c in (1e-154, 1e-160, 1e-300, 1e160, 1e300):
            with pytest.raises(ValueError):
                TwoScaleParams(c)
        TwoScaleParams(1.33e-154)  # both widths times pi still finite
        TwoScaleParams(7.56e153)

    def test_two_scale_range_ends(self):
        # the term rule decides the range: pi/(c*c) and pi*c*c finite
        lo, hi = 1.3219564750381271e-154, 7.564545572282618e153
        for c in (lo, hi):
            mix = make_two_scale(TwoScaleParams(c))
            assert mix.ft().terms[0].width == pytest.approx(c * c, rel=1e-12)
        for c in (math.nextafter(lo, 0.0), math.nextafter(hi, math.inf)):
            with pytest.raises(ValueError, match="two-scale parameter"):
                TwoScaleParams(c)

    def test_g1_is_doubled_gaussian(self):
        mix = make_two_scale(TwoScaleParams(1.0))
        assert mix.eval(0.0) == pytest.approx(2.0, rel=1e-15)
        assert all(t.width == 1.0 for t in mix.terms)


class TestEval:
    def test_chirp_at_zero(self):
        assert make_chirp(ChirpParams(2.0)).eval(0.0) == pytest.approx(1.0)

    def test_g2_at_one(self):
        # 2^{-1/2} e^{-pi/4} + 2^{1/2} e^{-4 pi}, scalar arithmetic oracle
        expected = 0.3224018737916913
        got = make_two_scale(TwoScaleParams(2.0)).eval(1.0)
        assert got.real == pytest.approx(expected, rel=1e-14)
        assert got.imag == 0.0

    def test_mixture_eval_is_sum_of_terms(self):
        terms = (
            ComplexGaussianTerm(1.0, complex(1.0, 3.0)),
            ComplexGaussianTerm(-0.5j, complex(0.2, -1.0)),
        )
        mix = GaussianMixture(terms)
        x = np.linspace(-3, 3, 17)
        np.testing.assert_allclose(
            mix.eval(x), terms[0].eval(x) + terms[1].eval(x), rtol=1e-15
        )


class TestFourierTransform:
    def test_unit_gaussian_self_dual(self):
        term = ComplexGaussianTerm(1.0, 1.0)
        hat = term.ft()
        assert hat.amplitude == pytest.approx(1.0)
        assert hat.width == pytest.approx(1.0)

    def test_chirp_transform_modulus_and_width(self):
        # a = sqrt(3): |A_hat| = 1/2, Re(1/z) = (a^2-1)/(a^2+1)^2 = 1/8
        hat = make_chirp(ChirpParams(math.sqrt(3.0))).ft()
        assert abs(hat.amplitude) == pytest.approx(0.5, rel=1e-14)
        assert hat.width.real == pytest.approx(0.125, rel=1e-14)

    def test_transform_rule(self):
        z = complex(3.0, 4.0)
        hat = ComplexGaussianTerm(2.0, z).ft()
        assert hat.amplitude == pytest.approx(2.0 / cmath.sqrt(z), rel=1e-15)
        assert hat.width == pytest.approx(1.0 / z, rel=1e-15)

    def test_double_transform_is_identity_for_even_terms(self):
        for z in (complex(3.0, 4.0), complex(0.01, -2.0), complex(5.0, 0.0)):
            term = ComplexGaussianTerm(1.5 - 0.5j, z)
            twice = term.ft().ft()
            assert twice.amplitude == pytest.approx(term.amplitude, rel=1e-14)
            assert twice.width == pytest.approx(term.width, rel=1e-14)

    def test_two_scale_self_dual(self):
        mix = make_two_scale(TwoScaleParams(2.0))
        hat = mix.ft()
        # transform swaps the two terms; compare sorted by real width
        got = sorted(hat.terms, key=lambda t: t.width.real)
        want = sorted(mix.terms, key=lambda t: t.width.real)
        for g, w in zip(got, want):
            assert g.amplitude == pytest.approx(w.amplitude, rel=1e-14)
            assert g.width == pytest.approx(w.width, rel=1e-14)


class TestNorms:
    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 4.0, 10.0])
    @pytest.mark.parametrize("z", [complex(1.0), complex(2.0, 2.0 * math.sqrt(3.0)),
                                   complex(1e-3, 0.5), complex(40.0, -9.0)])
    def test_term_lq_norm_matches_quadrature(self, q, z):
        term = ComplexGaussianTerm(1.3, z)
        assert term_lq_norm(term, q) == pytest.approx(lq_oracle(term, q), rel=1e-10)

    def test_gaussian_l2(self):
        assert term_lq_norm(ComplexGaussianTerm(1.0, 1.0), 2.0) == pytest.approx(
            2.0 ** -0.25, rel=1e-15
        )

    def test_chirp_norms_from_display(self):
        # ||f_a||_q = (q (a^2-1))^{-1/(2q)}; a = sqrt(3), q = 2 gives 2^{-1/2}
        term = make_chirp(ChirpParams(math.sqrt(3.0)))
        assert term_lq_norm(term, 2.0) == pytest.approx(2.0 ** -0.5, rel=1e-14)
        # transformed side at q = 4: 0.5 * 2^{1/8}, quadrature-checked
        hat = term.ft()
        assert term_lq_norm(hat, 4.0) == pytest.approx(0.5452538663326288, rel=1e-14)
        assert term_lq_norm(hat, 4.0) == pytest.approx(lq_oracle(hat, 4.0), rel=1e-10)

    def test_term_norm_where_q_times_width_overflows(self):
        # 64 * 1e307 overflows; the parent returned 0.0 as a closed form
        with mpmath.workdps(40):
            exact = float((64 * mpmath.mpf(1e307)) ** (-mpmath.mpf(1) / 128))
        assert exact == pytest.approx(3.8676905465582514e-3, rel=1e-15)
        (est,) = norms(GaussianMixture((ComplexGaussianTerm(1.0, 1e307),)), (64.0,), 1e-10)
        assert est.method == "closed-form"
        assert est.value == pytest.approx(exact, rel=1e-12)

    def test_chirp_ratio_where_q_times_width_overflows(self):
        # the parent raised "zero function" here
        value = eval_Fq(ChirpParams(7e153), 64.0).value
        assert value == pytest.approx(closed_form_Fq_chirp(7e153, 64.0), rel=1e-15)

    def test_term_norm_rejects_bad_exponent(self):
        term = ComplexGaussianTerm(1.0, 1.0)
        with pytest.raises(ValueError):
            term_lq_norm(term, 0.5)
        with pytest.raises(ValueError):
            term_lq_norm(term, math.inf)

    @pytest.mark.parametrize("c", [0.1, 0.5, 1.0, 2.0, 10.0, 100.0])
    def test_mixture_l2_matches_identity(self, c):
        # ||g_c||_2^2 = sqrt(2) + 2c/sqrt(c^4+1)
        mix = make_two_scale(TwoScaleParams(c))
        expected = math.sqrt(math.sqrt(2.0) + 2.0 * c / math.sqrt(c ** 4 + 1.0))
        assert norms(mix, (2.0,), 1e-13)[0].value == pytest.approx(expected, rel=1e-13)

    def test_mixture_l2_complex_cross_terms(self):
        mix = GaussianMixture(
            (
                ComplexGaussianTerm(1.0, complex(1.0, 2.0)),
                ComplexGaussianTerm(0.5j, complex(3.0, -1.0)),
            )
        )
        val, _ = quad(
            lambda x: abs(mix.eval(x)) ** 2, -np.inf, np.inf
        )
        assert norms(mix, (2.0,), 1e-13)[0].value == pytest.approx(math.sqrt(val), rel=1e-10)


class TestClosedForms:
    def test_f4_at_t3(self):
        assert closed_form_Fq_chirp(math.sqrt(3.0), 4.0) == pytest.approx(
            2.0 ** -0.25, rel=1e-14
        )

    def test_f43_at_t3(self):
        assert closed_form_Fq_chirp(math.sqrt(3.0), 4.0 / 3.0) == pytest.approx(
            1.3554030054147674, rel=1e-14
        )

    @pytest.mark.parametrize("a", [1.01, 1.5, 2.0, 30.0])
    def test_f2_is_one(self, a):
        assert closed_form_Fq_chirp(a, 2.0) == pytest.approx(1.0, rel=1e-14)

    def test_large_t_limit_is_gaussian_value(self):
        for q in (1.5, 4.0):
            limit = math.sqrt(2.0) * q ** (-1.0 / q)
            assert closed_form_Fq_chirp(1e6, q) == pytest.approx(limit, rel=1e-9)

    def test_fqp_at_t3(self):
        assert closed_form_Fqp_chirp(math.sqrt(3.0), 3.0, 6.0) == pytest.approx(
            1.0491150634216482, rel=1e-14
        )

    def test_fqp_large_t_limit(self):
        limit = 3.0 ** (-1.0 / 3.0) * 6.0 ** (1.0 / 6.0)
        assert closed_form_Fqp_chirp(1e6, 3.0, 6.0) == pytest.approx(limit, rel=1e-9)

    def test_fqp_rejects_bad_ordering(self):
        with pytest.raises(ValueError):
            closed_form_Fqp_chirp(2.0, 3.0, 3.0)
        with pytest.raises(ValueError):
            closed_form_Fqp_chirp(2.0, 6.0, 3.0)

    @pytest.mark.parametrize("q,sign", [(1.5, -1.0), (4.0, 1.0)])
    def test_monotone_in_t(self, q, sign):
        # increasing for q > 2, decreasing for q < 2
        ts = [1.5, 2.0, 5.0, 50.0]
        vals = [closed_form_Fq_chirp(math.sqrt(t), q) for t in ts]
        diffs = np.diff(vals)
        assert np.all(sign * diffs > 0)
