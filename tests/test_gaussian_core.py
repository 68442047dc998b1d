"""Exact Gaussian/chirp algebra: constructors, transforms, closed-form
norms and ratios, checked against independent quadrature oracles."""

import cmath
import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from uflab.functionals import eval_Fq, norms
from uflab.gaussian import (
    MAX_POWER_PARTS,
    MIN_CHIRP_MARGIN,
    ChirpParams,
    ComplexGaussianTerm,
    GaussianMixture,
    TwoScaleParams,
    closed_form_Fq_chirp,
    closed_form_Fqp_chirp,
    _multiset_plan,
    term_lq_norm,
)
from uflab.hermite import random_schwartz


def lq_oracle(term, q):
    # |A e^{-pi z x^2}|^q depends only on Re z
    amp, rez = abs(term.amplitude), term.width.real
    val, _ = quad(lambda x: (amp * math.exp(-math.pi * rez * x * x)) ** q,
                  -np.inf, np.inf)
    return val ** (1.0 / q)


def power_parts_reference(g, m):
    """GaussianMixture.power_parts as a dict over nondecreasing index
    tuples, each grown from its prefix and its widths summed anew."""
    scale = g.envelope()[0] or 1.0
    amps = [t.amplitude / scale for t in g.terms]
    merged = {}
    for tj, aj in zip(g.terms, amps):
        for tk, ak in zip(g.terms, amps):
            w = tj.width + tk.width.conjugate()
            merged[w] = merged.get(w, 0j) + aj * ak.conjugate()
    if (math.comb(len(merged) + m - 1, m) > MAX_POWER_PARTS
            or not all(cmath.isfinite(m * w) for w in merged)):
        return None
    widths, amps = tuple(merged), tuple(merged.values())
    power = {(): 1.0 + 0.0j}
    for _ in range(m):
        power = {key + (i,): amp * amps[i] * (len(key) + 1) / (key.count(i) + 1)
                 for key, amp in power.items()
                 for i in range(key[-1] if key else 0, len(widths))}
    return tuple(amp / cmath.sqrt(sum(widths[i] for i in key))
                 for key, amp in power.items())


def bits(parts):
    """The exact bits of a tuple of complex numbers, signed zeros apart."""
    return None if parts is None else tuple((z.real.hex(), z.imag.hex()) for z in parts)


def two_scale_terms_build(c):
    """Whether the parent rule accepts c: c > 0 and c*c > 0, then the two
    terms of g_c built with their own checks."""
    if not (c > 0.0 and c * c > 0.0):
        return False
    try:
        ComplexGaussianTerm(c ** -0.5, 1.0 / (c * c))
        ComplexGaussianTerm(c ** 0.5, c * c)
    except ValueError:
        return False
    return True


class TestConstruction:
    def test_width_must_have_positive_real_part(self):
        with pytest.raises(ValueError):
            ComplexGaussianTerm(1.0, complex(-1.0, 2.0))
        with pytest.raises(ValueError):
            ComplexGaussianTerm(1.0, 0.0)

    def test_amplitude_must_be_finite(self):
        with pytest.raises(ValueError, match="amplitude must be finite"):
            ComplexGaussianTerm(math.nan, 1.0)

    def test_mixture_envelope_amplitude_must_be_finite(self):
        # each amplitude is finite, their sum is not; accepted, the
        # mixture's norms would end in a nan relative error
        terms = (ComplexGaussianTerm(1e308, 1.0), ComplexGaussianTerm(1e308, 2.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="envelope amplitude"):
                GaussianMixture(terms)

    def test_mixture_needs_a_term(self):
        with pytest.raises(ValueError, match="at least one term"):
            GaussianMixture(())

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
        with pytest.raises(ValueError, match="t must be finite and > 1"):
            ChirpParams.from_t(1.0)

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

    def test_chirp_widths(self):
        assert ChirpParams(2.0).function.terms[0].width == complex(3.0, 4.0)
        w = ChirpParams(math.sqrt(3.0)).function.terms[0].width
        assert w.real == pytest.approx(2.0, rel=1e-15)
        assert w.imag == pytest.approx(2.0 * math.sqrt(3.0), rel=1e-15)

    def test_parameters_carry_their_function(self):
        # built once, and left out of repr, == and hash
        for make, value, name in ((ChirpParams, 2.0, "a"), (TwoScaleParams, 3.0, "c")):
            p, twin = make(value), make(value)
            assert p.function is p.function and p.function is not twin.function
            assert p.function == twin.function
            assert p == twin and hash(p) == hash(twin)
            assert repr(p) == f"{make.__name__}({name}={value!r})"

    def test_two_scale_terms(self):
        mix = TwoScaleParams(2.0).function
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
            mix = TwoScaleParams(c).function
            assert mix.ft().terms[0].width == pytest.approx(c * c, rel=1e-12)
        for c in (math.nextafter(lo, 0.0), math.nextafter(hi, math.inf)):
            with pytest.raises(ValueError, match="two-scale parameter"):
                TwoScaleParams(c)

    def test_two_scale_validation_matches_its_terms(self):
        # every float near an edge of a check the terms make: pi/(c*c)
        # and pi*c*c overflowing (the range ends), 1/(c*c) and c*c
        # overflowing, c*c underflowing to 0
        big = sys.float_info.max
        anchors = [1.3219564750381271e-154, 7.564545572282618e153, math.sqrt(big),
                   1.0 / math.sqrt(big), math.sqrt(5e-324), math.sqrt(math.pi / big)]
        cases = [0.0, -0.0, -1.0, 5e-324, math.nan, math.inf, -math.inf, 1.0]
        for anchor in anchors:
            below = above = anchor
            for _ in range(4):
                cases += [below, above]
                below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
        for c in cases:
            if two_scale_terms_build(c):
                assert TwoScaleParams(c).c == c
            else:
                with pytest.raises(ValueError) as info:
                    TwoScaleParams(c)
                assert str(info.value) == (f"two-scale parameter needs c > 0 with finite "
                                           f"pi*c*c and pi/(c*c), got {c}")
        accepted = [c for c in cases if two_scale_terms_build(c)]
        assert 1.3219564750381271e-154 in accepted and 7.564545572282618e153 in accepted
        assert len(accepted) < len(cases)

    def test_g1_is_doubled_gaussian(self):
        mix = TwoScaleParams(1.0).function
        assert mix.eval(0.0) == pytest.approx(2.0, rel=1e-15)
        assert all(t.width == 1.0 for t in mix.terms)


class TestEval:
    def test_chirp_at_zero(self):
        assert ChirpParams(2.0).function.eval(0.0) == pytest.approx(1.0)

    def test_g2_at_one(self):
        # 2^{-1/2} e^{-pi/4} + 2^{1/2} e^{-4 pi}, scalar arithmetic oracle
        expected = 0.3224018737916913
        got = TwoScaleParams(2.0).function.eval(1.0)
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

    def test_real_terms_evaluate_in_real_arithmetic(self):
        # a real width takes the real exp, within 1 ulp of the complex
        # one, and one more rounding for the amplitude; a real mixture
        # gives a real array
        mix = TwoScaleParams(3.0).function
        x = np.linspace(-6.0, 6.0, 1201)
        eps = np.finfo(float).eps
        for term in (*mix.terms, ComplexGaussianTerm(0.6 - 0.8j, 0.25),
                     *(ComplexGaussianTerm(1.0, t.width) for t in mix.terms)):
            got = term.eval(x)
            complex_path = term.amplitude * np.exp(-math.pi * term.width * x * x)
            assert np.iscomplexobj(got) == (term.amplitude.imag != 0.0)
            bound = (np.spacing(complex_path.real) if term.amplitude == 1.0
                     else 2.0 * eps * np.abs(complex_path))
            assert np.all(np.abs(got - complex_path) <= bound)
        assert mix.eval(x).dtype == np.float64
        assert GaussianMixture(mix.terms[:1] + (ComplexGaussianTerm(0.6 - 0.8j, 0.25),)
                               ).eval(x).dtype == np.complex128

    def test_mixture_is_even_to_the_bit(self):
        # quadrature evaluates a mixture at x >= 0 alone on this premise
        x = np.linspace(0.0, 6.0, 601)
        for seed in range(40):
            f = random_schwartz("gaussian-mixture", 1 + seed % 4, seed)
            for g in (f, f.ft()):
                assert g.is_even()
                np.testing.assert_array_equal(g.eval(-x), g.eval(x))

    def test_envelope_majorant_beyond_radius(self):
        # |f(x)| <= S(R) * exp(-pi*w*x*x) for |x| >= R, w the smallest
        # Re z, up to rounding, which is absolute among subnormals; at
        # R = 0, S is the amplitude sum
        x = np.linspace(0.0, 6.0, 601)
        for seed in range(40):
            f = random_schwartz("gaussian-mixture", 1 + seed % 4, seed)
            for g in (f, f.ft(), TwoScaleParams(1.0 + seed).function):
                floor = min(t.width.real for t in g.terms)
                assert g.envelope(0.0) == g.envelope() == (
                    sum(abs(t.amplitude) for t in g.terms), floor, 0.0)
                for radius in (0.25, 1.0, 2.5):
                    amp, width, shift = g.envelope(radius)
                    assert (width, shift) == (floor, 0.0) and amp <= g.envelope()[0]
                    beyond = radius + x
                    bound = amp * np.exp(-math.pi * width * beyond * beyond)
                    for side in (beyond, -beyond):
                        assert np.all(np.abs(g.eval(side))
                                      <= bound * (1.0 + 1e-13) + np.finfo(float).tiny)


    def test_overflowing_exponent_gives_zero_without_warning(self):
        # the exponent of the narrow term of g_c at c = 1e150 overflows to
        # -inf far out, and the term is 0 there, alone or in its mixture
        c = 1e150
        x = np.concatenate(([0.0], np.geomspace(1e-10, 1e10, 41)))
        narrow, g = ComplexGaussianTerm(c ** 0.5, c * c), TwoScaleParams(c).function
        with np.errstate(over="ignore"):
            overflows = np.isinf((-math.pi * c * c) * x * x)
        assert overflows.any() and not overflows.all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lone, mixture, wide = narrow.eval(x), g.eval(x), g.terms[0].eval(x)
        assert np.all(lone[overflows] == 0.0) and np.all(lone[~overflows] >= 0.0)
        np.testing.assert_array_equal(mixture[overflows], wide[overflows])


class TestEnvelopeCache:
    def test_origin_envelope_is_computed_once_and_exact(self):
        # at radius 0 every excess-decay factor is exp(-0.0) = 1
        for seed in range(20):
            f = random_schwartz("gaussian-mixture", 1 + seed % 4, seed)
            for g in (f, f.ft(), TwoScaleParams(10.0 ** (seed - 10)).function):
                floor = min(t.width.real for t in g.terms)
                recomputed = (sum(abs(t.amplitude) * math.exp(
                    -(math.pi * (t.width.real - floor) * 0.0) * 0.0) for t in g.terms),
                    floor, 0.0)
                assert g.envelope() is g.envelope(0.0)
                assert [v.hex() for v in g.envelope()] == [v.hex() for v in recomputed]

    def test_cache_leaves_equality_and_hash(self):
        g, h = (TwoScaleParams(3.0).function for _ in range(2))
        g.envelope()
        assert "_origin_envelope" in vars(g)
        assert g == h and hash(g) == hash(h) and repr(g) == repr(h)


class TestEvaluator:
    def test_one_evaluator_per_sequence_of_term_kinds(self):
        # g_c of any c has two real terms; a real width may carry a
        # complex amplitude, and a chirp's width is complex
        gcs = [TwoScaleParams(c).function for c in (1e-150, 3.0, 7e153)]
        assert all(g.evaluator == gcs[0].evaluator for g in gcs)
        assert gcs[0].evaluator.kinds == ("real", "real")
        chirped = GaussianMixture((ComplexGaussianTerm(1.0, 1.0),
                                   ComplexGaussianTerm(1j, 2.0 + 3.0j)))
        turned = GaussianMixture((ComplexGaussianTerm(1j, 1.0),))
        assert chirped.evaluator.kinds == ("real", "complex width")
        assert turned.evaluator.kinds == ("real width",)
        assert len({gcs[0].evaluator, chirped.evaluator, turned.evaluator}) == 3

    def test_eval_keeps_the_shape_of_x(self):
        g = TwoScaleParams(3.0).function
        x = np.linspace(-2.0, 2.0, 12).reshape(3, 4)
        assert g.eval(x).shape == (3, 4) and g.eval(0.5).shape == ()
        np.testing.assert_array_equal(g.eval(x).ravel(), g.evaluator([g], x.ravel(), [12]))


class TestPowerParts:
    def test_matches_reference_expansion(self):
        mixtures = [TwoScaleParams(c).function for c in np.geomspace(1e-6, 1e6, 25)]
        for seed in range(20):
            f = random_schwartz("gaussian-mixture", 1 + seed % 4, seed)
            mixtures += [f, f.ft()]
        expanded = 0
        for g in mixtures:
            for m in range(1, 5):
                got = g.power_parts(m)
                assert bits(got) == bits(power_parts_reference(g, m))
                expanded += got is not None
        # at most the ten four-term mixtures exceed the cap, at m = 4
        assert expanded >= 4 * len(mixtures) - 10

    def test_deepest_level(self):
        # g_c at q = 64: comb(3 + 31, 32) = 561 multisets of 32 of its 3
        # merged widths
        for c in (1e-150, 0.3, 3.0, 1e150):
            g = TwoScaleParams(c).function
            got = g.power_parts(32)
            assert len(got) == 561 and bits(got) == bits(power_parts_reference(g, 32))

    def test_none_cases_unchanged(self):
        # 16 merged widths give comb(19, 4) = 3876 parts at m = 4, over
        # the cap; m times the widest of g_c at c = 7e153 overflows
        four = GaussianMixture(tuple(ComplexGaussianTerm(a, z) for a, z in (
            (1.0, 1 + 1j), (0.5j, 2 - 1j), (-0.3, 0.5 + 2j), (0.2 + 0.1j, 3 + 0.5j))))
        huge = TwoScaleParams(7e153).function
        for g, m in ((four, 4), (huge, 2)):
            assert g.power_parts(m) is None and power_parts_reference(g, m) is None
        assert bits(four.power_parts(3)) == bits(power_parts_reference(four, 3))
        assert bits(huge.power_parts(1)) == bits(power_parts_reference(huge, 1))

    def test_m1_is_not_capped(self):
        # 40 terms merge into more than MAX_POWER_PARTS widths; at m = 1 the
        # parts are those merged products, built before the cap is read,
        # so they are returned and sum to ||f/S||_2**2
        f = random_schwartz("gaussian-mixture", 40, 0)
        parts = f.power_parts(1)
        assert len(parts) > MAX_POWER_PARTS and f.power_parts(2) is None
        quad_sq = (norms(f, (2.0,), 1e-10, "quadrature")[0].value / f.envelope()[0]) ** 2
        assert sum(parts).real == pytest.approx(quad_sq, rel=1e-9)

    def test_plan_is_computed_once_per_size(self):
        _multiset_plan.cache_clear()
        for _ in range(3):
            for c in (2.0, 5.0):
                TwoScaleParams(c).function.power_parts(3)
        info = _multiset_plan.cache_info()
        assert (info.misses, info.hits) == (1, 5)
        assert [len(level) for level in _multiset_plan(3, 3)] == [3, 6, 10]


class TestFourierTransform:
    def test_unit_gaussian_self_dual(self):
        term = ComplexGaussianTerm(1.0, 1.0)
        hat = term.ft()
        assert hat.amplitude == pytest.approx(1.0)
        assert hat.width == pytest.approx(1.0)

    def test_chirp_transform_modulus_and_width(self):
        # a = sqrt(3): |A_hat| = 1/2, Re(1/z) = (a^2-1)/(a^2+1)^2 = 1/8
        (hat,) = ChirpParams(math.sqrt(3.0)).function.ft().terms
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
        mix = TwoScaleParams(2.0).function
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
        (term,) = ChirpParams(math.sqrt(3.0)).function.terms
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
        mix = TwoScaleParams(c).function
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

    def test_fq_rejects_q_le_1(self):
        with pytest.raises(ValueError, match="q must be finite and > 1"):
            closed_form_Fq_chirp(2.0, 1.0)

    def test_fqp_rejects_bad_ordering(self):
        with pytest.raises(ValueError):
            closed_form_Fqp_chirp(2.0, 3.0, 3.0)
        with pytest.raises(ValueError):
            closed_form_Fqp_chirp(2.0, 6.0, 3.0)

    @pytest.mark.parametrize("q,sign", [(1.5, -1.0), (1.9, -1.0), (2.2, 1.0), (4.0, 1.0)])
    def test_monotone_in_t(self, q, sign):
        # increasing for q > 2, decreasing for q < 2, also at the slow
        # rates |1/q - 1/2| of q near 2
        ts = [1.5, 2.0, 5.0, 50.0]
        vals = [closed_form_Fq_chirp(math.sqrt(t), q) for t in ts]
        diffs = np.diff(vals)
        assert np.all(sign * diffs > 0)
