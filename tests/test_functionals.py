"""Uncertainty ratios F_q / F_qp, named constants, and the two-scale
bound family."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uflab import functionals, numerics, verifier
from uflab.functionals import (
    EXPONENT_MAX,
    EXPONENT_MIN,
    beckner_constant,
    conjugate_exponent,
    eval_batch,
    eval_Fq,
    eval_Fqp,
    fq_gc_lower_bound,
    gc_l2_norm_sq,
    gc_lq_bracket,
    interpolation_exponent,
    norms,
    norms_batch,
)
from uflab.gaussian import (
    ChirpParams,
    ComplexGaussianTerm,
    GaussianMixture,
    TwoScaleParams,
    closed_form_Fq_chirp,
)
from uflab.hermite import HermiteExpansion, random_schwartz
from uflab.numerics import lq_norm_quad, lq_norm_quad_batch

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
            lq_norm_quad(f, (conjugate_exponent(p),), 1e-10)[0].value
            / lq_norm_quad(f, (p,), 1e-10)[0].value
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
        assert gc_lq_bracket(1.0, 4.0)[0] == pytest.approx(
            math.sqrt(3.0), rel=1e-14
        )

    def test_weak_bound_value(self):
        # the single-spike form (1/4)**(1/4) * 100**(1/2) = 7.0710678118654755
        # over ||g_100||_2**2
        assert fq_gc_lower_bound(100.0, 4.0) == pytest.approx(
            7.0710678118654755 / gc_l2_norm_sq(100.0), rel=1e-14
        )

    @pytest.mark.parametrize("c,q", [(5.0, 4.0), (50.0, 3.0), (0.2, 6.0)])
    def test_lower_bound_below_quadrature(self, c, q):
        norm_sq = lq_norm_quad(TwoScaleParams(c).function, (q,), 1e-10)[0].value ** 2
        assert norm_sq >= gc_lq_bracket(c, q)[0] - 1e-9

    def test_lower_bound_dominates_weak_form(self):
        for c, q in [(2.0, 3.0), (10.0, 4.0), (100.0, 8.0)]:
            weak = fq_gc_lower_bound(c, q) * gc_l2_norm_sq(c)
            assert gc_lq_bracket(c, q)[0] >= weak - 1e-12

    @pytest.mark.parametrize("c", [1.0, 3.0, 1e3])
    def test_no_lower_side_at_q_le_2(self, c):
        assert gc_lq_bracket(c, 2.0)[0] is None
        assert gc_lq_bracket(c, 1.5)[0] is None

    def test_lower_bound_rejects_q_le_2(self):
        # the divergence bound raises where the bracket states no lower side
        for q in (2.0, 1.5):
            with pytest.raises(ValueError, match="lower bound stated for q > 2"):
                fq_gc_lower_bound(3.0, q)

    def test_upper_bound_rejects_q_le_1(self):
        with pytest.raises(ValueError, match="upper bound stated for q > 1"):
            gc_lq_bracket(3.0, 1.0)

    def test_upper_bound_cases(self):
        assert gc_lq_bracket(7.0, 2.0) == (None, 4.0)

    @pytest.mark.parametrize("c,q", [(10.0, 4.0), (3.0, 1.5), (7.0, 2.0), (0.3, 6.0)])
    def test_upper_bound_above_quadrature(self, c, q):
        norm_sq = lq_norm_quad(TwoScaleParams(c).function, (q,), 1e-10)[0].value ** 2
        assert norm_sq <= gc_lq_bracket(c, q)[1] + 1e-9

    def test_upper_bound_growth_exponent_q_lt_2(self):
        # log-log slope of the q = 1.5 bound approaches 2/q - 1 = 1/3;
        # the c^{q/2-1} term decays slowly, so fit far out
        cs = np.geomspace(1e6, 1e12, 7)
        vals = np.array([gc_lq_bracket(c, 1.5)[1] for c in cs])
        slope = np.polyfit(np.log(cs), np.log(vals), 1)[0]
        assert slope == pytest.approx(1.0 / 3.0, abs=1e-4)

    def test_fq_lower_bound_values(self):
        assert fq_gc_lower_bound(100.0, 4.0) == pytest.approx(
            4.930275377300498, rel=1e-14
        )
        assert fq_gc_lower_bound(1e4, 4.0) == pytest.approx(
            49.992929932046735, rel=1e-13
        )

    @pytest.mark.parametrize("c", [1e80, 1e150, 1e-80, 1e-150])
    def test_extreme_c_reaches_limits(self, c):
        # g_c = g_{1/c}, so every bound depends on s = max(c, 1/c) alone;
        # the braced sum tends to (s + 1/s)/2 at q = 4.
        s = max(c, 1.0 / c)
        assert gc_l2_norm_sq(c) == pytest.approx(math.sqrt(2.0), rel=1e-15)
        lower, upper = gc_lq_bracket(c, 4.0)
        assert lower == pytest.approx(math.sqrt(s / 2.0), rel=1e-14)
        assert upper == pytest.approx(math.sqrt(3.0 * s / 2.0), rel=1e-14)
        if c > 1.0:
            assert fq_gc_lower_bound(c, 4.0) == pytest.approx(
                0.25 ** 0.25 * math.sqrt(c) / math.sqrt(2.0), rel=1e-14)
        # the bracketing powers stay finite at the top of the exponent range
        lower, upper = gc_lq_bracket(c, 64.0)
        assert lower == pytest.approx(64.0 ** (-1.0 / 64.0) * s ** (31.0 / 32.0), rel=1e-13)
        assert upper == pytest.approx(3.0 ** (31.0 / 32.0) * lower, rel=1e-13)

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
        assert rep.value == (n[0] / n[2]) * (n[1] / n[3])
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

    def test_default_method_is_auto(self):
        rep = eval_Fq(HermiteExpansion((0.4, -0.2j, 0.6)), 3.0)
        assert rep.method == "auto"
        assert [n.method for n in rep.norms] == ["quadrature"] * 2 + ["closed-form"] * 2

    def test_single_gaussian_value(self):
        for q in (1.5, 4.0):
            rep = eval_Fq(ComplexGaussianTerm(1.0, 2.5), q, "closed-form")
            assert rep.value == pytest.approx(
                math.sqrt(2.0) * q ** (-1.0 / q), rel=1e-13
            )

    def test_closed_form_rejects_mixtures(self):
        # g_c has an exact route at q = 4 (an even integer), not at q = 3
        with pytest.raises(ValueError, match=r"no exact route .* q = 3 "):
            eval_Fq(TwoScaleParams(2.0), 3.0, "closed-form")

    def test_scalar_scale_invariance(self):
        f = TwoScaleParams(3.0).function
        scaled = GaussianMixture(
            tuple(ComplexGaussianTerm(7.5j * t.amplitude, t.width) for t in f.terms)
        )
        v1 = eval_Fq(f, 3.0, "quadrature", 1e-10).value
        v2 = eval_Fq(scaled, 3.0, "quadrature", 1e-10).value
        assert v1 == pytest.approx(v2, rel=1e-10)

    def test_dilation_invariance(self):
        lam = 2.5  # f(lam x): widths scale by lam^2, ratio unchanged
        f = TwoScaleParams(2.0).function
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
    ])
    def test_vanishing_norm_rejected(self, f, q):
        with pytest.raises(ValueError, match="zero function"):
            eval_Fq(f, q)

    @pytest.mark.parametrize("amp, q", [(1e-300, 3.0), (1e-10, 64.0)])
    def test_tiny_amplitude_is_scale_free(self, amp, q):
        # |f|**q underflows unless integrated as |f/S|**q; F_q(h_0) is the
        # Gaussian value sqrt(2) * q**(-1/q) at every amplitude
        rep = eval_Fq(HermiteExpansion((amp,)), q)
        assert rep.value == pytest.approx(math.sqrt(2.0) * q ** (-1.0 / q), rel=1e-12)

    @pytest.mark.parametrize("a", [1e-200, 1e200])
    @pytest.mark.parametrize("f", [
        GaussianMixture((ComplexGaussianTerm(0.7 + 0.2j, 1.3),
                         ComplexGaussianTerm(-0.4, 0.5 + 1.1j))),
        HermiteExpansion((0.3, 0.2j, -0.5, 0.1 + 0.1j)),
    ], ids=["mixture", "hermite"])
    def test_exact_sums_are_scale_free(self, f, a):
        # the exact sums work on f/S as quadrature does: unscaled, a*f's
        # squared amplitudes underflow to 0 or overflow to nan/OverflowError
        if isinstance(f, GaussianMixture):
            scaled = GaussianMixture(tuple(
                ComplexGaussianTerm(a * t.amplitude, t.width) for t in f.terms))
        else:
            scaled = HermiteExpansion(tuple(a * c for c in f.coefficients))
        (scaled_l2,), (l2,) = norms(scaled, (2.0,), 1e-10), norms(f, (2.0,), 1e-10)
        assert scaled_l2.value == pytest.approx(a * l2.value, rel=1e-14)
        for q in (3.0, 4.0):
            assert eval_Fq(scaled, q).value == pytest.approx(eval_Fq(f, q).value, rel=1e-12)

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


class TestEvalBatch:
    # one input of each kind; the Hermite expansion has no exact route
    # at q = 4 or p = 6, so the exact methods run without it
    BATCH = (ChirpParams(2.0), TwoScaleParams(3.0), ComplexGaussianTerm(0.5 - 1j, 2.0 + 1j),
             random_schwartz("gaussian-mixture", 3, 5), random_schwartz("hermite", 4, 5))

    @pytest.mark.parametrize("p", [None, 6.0])
    @pytest.mark.parametrize("method", ["auto", "closed-form", "quadrature", "both"])
    def test_reports_equal_batches_of_one(self, method, p):
        exact = method in ("closed-form", "both")
        fs = self.BATCH[:-1] if exact else self.BATCH
        reports = eval_batch(fs, 4.0, p, method)
        assert reports == [eval_batch((f,), 4.0, p, method)[0] for f in fs]
        assert [(r.q, r.p, r.method) for r in reports] == [(4.0, p or 2.0, method)] * len(fs)
        fq, hq, fp, hp = reports[1].norms  # self-dual g_c: norms taken once
        assert hq is fq and hp is fp
        if exact:
            with pytest.raises(ValueError, match="no exact route .* HermiteExpansion"):
                eval_batch(self.BATCH, 4.0, p, method)

    def test_rejects_exponents(self):
        with pytest.raises(ValueError, match=r"need q < p, got q=4.0, p=4.0"):
            eval_batch(self.BATCH, 4.0, 4.0)
        with pytest.raises(ValueError, match=r"need q < p, got q=4.0, p=3.0"):
            eval_batch(self.BATCH, 4.0, 3.0)
        with pytest.raises(ValueError, match=r"p must lie in \[1.001, 64.0\], got 65.0"):
            eval_batch(self.BATCH, 4.0, 65.0)
        with pytest.raises(ValueError, match=r"q must lie in \[1.001, 64.0\], got 1.0"):
            eval_batch(self.BATCH, 1.0, 6.0)


# One input of each accepted kind, and one of no accepted kind.
_INPUTS = (ChirpParams(2.0), TwoScaleParams(3.0), ComplexGaussianTerm(0.5 - 1j, 2.0 + 1j),
           random_schwartz("gaussian-mixture", 3, 5), random_schwartz("hermite", 4, 5),
           object())


@pytest.mark.parametrize("f", _INPUTS, ids=lambda f: type(f).__name__)
def test_one_input_rule(f):
    # norms, eval_batch and the input map accept the same inputs, and
    # norms gives the f-norms of eval_batch's report, bit for bit
    entry_points = (lambda: functionals._resolve(f), lambda: norms(f, (3.0, 2.0), 1e-8),
                    lambda: eval_batch((f,), 3.0, None, "auto", 1e-8))
    if type(f) is object:
        for call in entry_points:
            with pytest.raises(TypeError, match=r"of object$"):
                call()
        return
    (report,) = eval_batch((f,), 3.0, None, "auto", 1e-8)
    fq, _, f2, _ = report.norms
    for g in (f, functionals._resolve(f)):
        got = norms(g, (3.0, 2.0), 1e-8)
        assert got == (fq, f2)
        assert [n.value.hex() for n in got] == [fq.value.hex(), f2.value.hex()]


def _counting_quadrature(monkeypatch):
    """Route every quadrature norm of ``functionals`` through a recorder;
    returns the list of (function, exponents) requests of every batch."""
    calls = []

    def counted(requests, tol):
        requests = list(requests)
        calls.extend(requests)
        return lq_norm_quad_batch(requests, tol)

    monkeypatch.setattr(functionals, "lq_norm_quad_batch", counted)
    return calls


class TestNorms:
    """The route each norm takes: exact where a guarded exact sum exists,
    quadrature otherwise."""

    def test_routes_per_exponent(self):
        g = TwoScaleParams(3.0).function
        got = norms(g, (2.0, 3.0, 4.0, 4.000000000000001), 1e-10)
        assert [n.method for n in got] == ["closed-form", "quadrature",
                                           "closed-form", "quadrature"]
        assert [n.q for n in got] == [2.0, 3.0, 4.0, 4.000000000000001]
        assert got[0].value == pytest.approx(math.sqrt(gc_l2_norm_sq(3.0)), rel=1e-15)
        assert got[2].value == pytest.approx(got[3].value, rel=1e-10)
        hermite = HermiteExpansion((0.4, -0.2j, 0.6))
        assert [n.method for n in norms(hermite, (2.0, 4.0), 1e-10)] == [
            "closed-form", "quadrature"]
        chirp = GaussianMixture((ComplexGaussianTerm(1.0, 3.0 + 4.0j),))
        assert [n.method for n in norms(chirp, (1.5, 3.0), 1e-10)] == ["closed-form"] * 2

    def test_part_cap_falls_back(self):
        # 16 distinct pairwise widths: 136 parts at q = 4, 3876 at q = 8
        f = GaussianMixture(tuple(ComplexGaussianTerm(a, z) for a, z in (
            (1.0, 1 + 1j), (0.5j, 2 - 1j), (-0.3, 0.5 + 2j), (0.2 + 0.1j, 3 + 0.5j))))
        assert len(f.power_parts(2)) == 136 and f.power_parts(4) is None
        assert [n.method for n in norms(f, (4.0, 8.0), 1e-10)] == [
            "closed-form", "quadrature"]

    def test_exact_routes_report_positive_error(self):
        for g, q in ((TwoScaleParams(2.0).function, 6.0),
                     (HermiteExpansion((1.0, 0.5j)), 2.0)):
            (est,) = norms(g, (q,), 1e-10)
            assert est.method == "closed-form"
            assert 0.0 < est.abs_error_estimate <= 1e-14 * est.value

    @pytest.mark.parametrize("q", [2.0, 4.0])
    def test_near_cancellation_falls_back(self, q):
        # |f| is about 1e-9 of its terms, so the exact sum would cancel
        # about 18 digits; tol 1e-6 keeps the noisy quadrature achievable
        f = GaussianMixture((ComplexGaussianTerm(1.0, 1.0),
                             ComplexGaussianTerm(-1.0 + 1e-9, 1.0 + 1e-9)))
        (est,) = norms(f, (q,), 1e-6)
        assert est.method == "quadrature"
        assert 0.0 < est.value < 1e-8

    def test_near_cancelling_l2_matches_mpmath(self):
        # ||f||_2**2 = 1/sqrt(2) + 2a/sqrt(1+w) + a*a/sqrt(2w) in 40
        # digits: three terms near 0.7 cancel to 1.2e-18, below their
        # rounding, so their sum in doubles is noise (9.6 times the norm)
        f = GaussianMixture((ComplexGaussianTerm(1.0, 1.0),
                             ComplexGaussianTerm(-1.0 + 1e-9, 1.0 + 1e-9)))
        with mpmath.workdps(40):
            a, w = mpmath.mpf(-1.0 + 1e-9), mpmath.mpf(1.0 + 1e-9)
            exact = float(mpmath.sqrt(1 / mpmath.sqrt(2) + 2 * a / mpmath.sqrt(1 + w)
                                      + a * a / mpmath.sqrt(2 * w)))
        assert exact == pytest.approx(1.0923564859e-9, rel=1e-10)
        (est,) = norms(f, (2.0,), 1e-6)
        assert abs(est.value - exact) <= est.abs_error_estimate

    def test_overflowing_sum_falls_back(self, monkeypatch):
        # 32 times the width 2*c*c overflows, so the q = 64 sum of g_c has
        # no exact route; the route goes to quadrature, which returns the
        # norm: the spike c**0.5 * exp(-pi*c*c*x*x) carries all but about
        # 1/c of it
        calls = _counting_quadrature(monkeypatch)
        c = 5e153
        high, l2 = norms(TwoScaleParams(c).function, (64.0, 2.0), 1e-10)
        assert (high.method, l2.method) == ("quadrature", "closed-form")
        assert [qs for _, qs in calls] == [(64.0,)]
        assert high.value == pytest.approx(c ** (31 / 64) * 8.0 ** (-1 / 64), rel=1e-9)

    def test_overflow_fallback_quadrature_is_finite(self):
        # c**32 would overflow an unscaled q = 64 sum of g_c; both routes
        # work on g_c / S, S its envelope amplitude, and agree
        for c in (1e10, 1e150):
            g = TwoScaleParams(c).function
            (quad,) = norms(g, (64.0,), 1e-10, "quadrature")
            (exact,) = norms(g, (64.0,), 1e-10)
            assert exact.method == "closed-form"
            assert abs(quad.value - exact.value) <= (
                quad.abs_error_estimate + exact.abs_error_estimate)

    def test_quadrature_method_integrates_all_four(self, monkeypatch):
        # a chirp is not its own transform, so f and fhat integrate apart
        calls = _counting_quadrature(monkeypatch)
        rep = eval_Fq(ChirpParams(2.0), 4.0, "quadrature")
        assert [qs for _, qs in calls] == [(4.0, 2.0), (4.0, 2.0)]
        assert all(n.method == "quadrature" for n in rep.norms)

    def test_repeated_exponent_integrated_once(self, monkeypatch):
        # F_2 of a chirp asks for the L^2 norm twice per function, as in
        # the closed-forms check; quadrature takes it once
        calls = _counting_quadrature(monkeypatch)
        for a in (1.01, 1.1, 2.0, 10.0, 100.0):
            calls.clear()
            rep = eval_Fq(ChirpParams(a), 2.0, "quadrature")
            assert [qs for _, qs in calls] == [(2.0,), (2.0,)]
            assert (rep.norms[0], rep.norms[1]) == (rep.norms[2], rep.norms[3])
        calls.clear()
        got = norms(TwoScaleParams(3.0).function, (3.0, 2.0, 3.0), 1e-10, "quadrature")
        assert [qs for _, qs in calls] == [(3.0, 2.0)]
        assert got[0] == got[2]

    def test_auto_integrates_only_without_exact_route(self, monkeypatch):
        # g_c is its own transform: its L^3 norm is integrated once
        calls = _counting_quadrature(monkeypatch)
        assert eval_Fq(TwoScaleParams(2.0), 4.0).method == "auto"
        assert calls == []
        eval_Fqp(TwoScaleParams(2.0), 3.0, 6.0)
        assert [qs for _, qs in calls] == [(3.0,)]

    @pytest.mark.parametrize("c", [1e-6, 0.1, 10.0, 1e3, 1e6])
    def test_self_dual_norms_integrated_once(self, monkeypatch, c):
        # g_c is its own transform: one L^3 pass, one integral (the seed
        # round picks the radius, so none restarts), and equal norms
        calls = _counting_quadrature(monkeypatch)
        integrals = []
        integrate = numerics.integrate_adaptive

        def counted(*args):
            integrals.append(args)
            return integrate(*args)

        monkeypatch.setattr(numerics, "integrate_adaptive", counted)
        rep = eval_Fqp(TwoScaleParams(c), 3.0, 6.0)
        assert [qs for _, qs in calls] == [(3.0,)]
        assert len(integrals) == 1
        fq, hq, fp, hp = rep.norms
        assert (fq, fp) == (hq, hp)
        with mpmath.workdps(30):
            cm = mpmath.mpf(c)
            g = lambda x: (cm ** -0.5 * mpmath.exp(-mpmath.pi * (x / cm) ** 2)
                           + cm ** 0.5 * mpmath.exp(-mpmath.pi * (cm * x) ** 2))
            split = [0, min(cm, 1 / cm), max(cm, 1 / cm), mpmath.inf]
            norm = lambda q: (2 * mpmath.quad(lambda x: g(x) ** q, split)) ** (1 / mpmath.mpf(q))
            exact = float((norm(3) / norm(6)) ** 2)
        assert rep.value == pytest.approx(exact, rel=1e-8)

    def test_both_on_even_pair(self, monkeypatch):
        # the quadrature cross-check of self-dual g_c is one pass
        calls = _counting_quadrature(monkeypatch)
        rep = eval_Fqp(TwoScaleParams(3.0), 4.0, 6.0, "both")
        assert all(n.method == "closed-form" for n in rep.norms)
        assert rep.discrepancy <= 1e-12
        assert [qs for _, qs in calls] == [(4.0, 6.0)]

    def test_one_quadrature_call_per_function(self, monkeypatch):
        # |f| is about 1e-4 of its terms, so the guard rejects the L^2
        # and L^4 sums and every exponent goes to the one shared pass
        calls = _counting_quadrature(monkeypatch)
        f = GaussianMixture((ComplexGaussianTerm(1.0, 1.0),
                             ComplexGaussianTerm(-1.0 + 1e-4, 1.0 + 1e-4)))
        got = norms(f, (1.3, 3.0, 2.0, 1.5, 4.0), 1e-10)
        assert [qs for _, qs in calls] == [(1.3, 3.0, 2.0, 1.5, 4.0)]
        assert [n.q for n in got] == [1.3, 3.0, 2.0, 1.5, 4.0]
        calls.clear()
        verifier.verify_reduction_q_lt_2_le_p(1.3, 3.0, samples=6, seed=2)
        # f and fhat of each sample at most once each, all three exponents
        assert 0 < len(calls) <= 12
        assert len({id(g) for g, _ in calls}) == len(calls)
        assert all(qs == (1.3, 3.0, 1.5) for _, qs in calls)

    @pytest.mark.parametrize("tol", [math.nan, 0.0, 0.5, 1e-15])
    def test_every_route_rejects_tolerance(self, tol):
        # checked once on entry, so an exact route cannot pass a nan
        f = GaussianMixture((ComplexGaussianTerm(1.0, 1.0),
                             ComplexGaussianTerm(-1.0 + 1e-4, 1.0 + 1e-4)))
        for method in ("auto", "closed-form", "quadrature"):
            with pytest.raises(ValueError, match="tolerance must lie"):
                norms(f, (4.0,), tol, method)
        for method in ("auto", "closed-form", "quadrature", "both"):
            with pytest.raises(ValueError, match="tolerance must lie"):
                eval_Fq(ChirpParams(2.0), 4.0, method, tol)

    @pytest.mark.parametrize("method", ["auto", "closed-form", "quadrature"])
    def test_empty_request_rejected(self, method):
        # the rule of lq_norm_quad, whatever route the other requests take
        g = TwoScaleParams(3.0)
        for requests in ([(g, ())], [(g, (4.0,)), (g.function, ())]):
            with pytest.raises(ValueError, match="^no norm exponent given$"):
                norms_batch(requests, 1e-8, method)
        with pytest.raises(ValueError, match="^no norm exponent given$"):
            norms(g, (), 1e-8, method)
        with pytest.raises(ValueError, match="^no norm exponent given$"):
            lq_norm_quad(g.function, (), 1e-8)

    def test_closed_form_names_every_missing_exponent(self):
        with pytest.raises(ValueError, match=r"q = 3, 5 "):
            norms(TwoScaleParams(2.0).function, (3.0, 4.0, 5.0), 1e-10,
                  "closed-form")
        with pytest.raises(ValueError, match="norm method"):
            norms(TwoScaleParams(2.0).function, (3.0,), 1e-10, "both")
