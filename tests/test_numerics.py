"""Quadrature engine and discrete Fourier oracle."""

import math
import re

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from uflab import numerics
from uflab.functionals import norms
from uflab.gaussian import (
    ChirpParams,
    ComplexGaussianTerm,
    GaussianMixture,
    TwoScaleParams,
    make_chirp,
    make_two_scale,
    term_lq_norm,
)
from uflab.hermite import HermiteExpansion, random_schwartz
from uflab.numerics import (
    NormEstimate,
    SampledFunction,
    ToleranceNotAchieved,
    dft_approx,
    integrate_adaptive,
    lq_norm_quad,
    sample,
    truncation_radius,
)


def single(amp, z):
    return GaussianMixture((ComplexGaussianTerm(amp, z),))


# Beyond c ~ 1e140 the exponent of g_c's narrow term overflows to
# exp(-inf) = 0, which numpy reports harmlessly.
GC_EXPONENT_OVERFLOW = pytest.mark.filterwarnings(
    r"ignore:(overflow|invalid value) encountered in multiply:RuntimeWarning")


class TestIntegrateAdaptive:
    def test_gaussian_integral(self):
        val, err, converged, _ = integrate_adaptive(
            lambda x: np.exp(-math.pi * x * x), (-10.0, 10.0), 1e-13
        )
        assert converged
        assert val == pytest.approx(1.0, rel=1e-13)
        assert err <= 1e-12

    def test_breakpoint_ladder_resolves_narrow_feature(self):
        # spike of width 1e-3 inside [-50, 50]; a geometric ladder of
        # breakpoints keeps its decay visible to the panel estimator
        fn = lambda x: np.exp(-1e6 * x * x)
        ladder = [s * 4.0 ** k * 1e-3 for k in range(8) for s in (1, -1)]
        ladder = sorted([-50.0, 0.0, 50.0, *ladder])
        val, _, converged, _ = integrate_adaptive(fn, ladder, 1e-10)
        assert converged
        assert val == pytest.approx(math.sqrt(math.pi / 1e6), rel=1e-10)

    def test_budget_exhaustion_reported(self, monkeypatch):
        # endpoint singularity: error stays visible, so a starved budget
        # must report non-convergence instead of a silent wrong answer
        monkeypatch.setattr(numerics, "MAX_PANELS", 4)
        fn = lambda x: 1.0 / np.sqrt(np.abs(x))
        _, _, converged, panels = integrate_adaptive(fn, (0.0, 1.0), 1e-12)
        assert not converged
        assert panels <= 4

    def test_singular_integrand_converges_with_budget(self):
        fn = lambda x: 1.0 / np.sqrt(np.abs(x))
        val, _, converged, _ = integrate_adaptive(fn, (0.0, 1.0), 1e-10)
        assert converged
        assert val == pytest.approx(2.0, rel=1e-9)

    def test_deterministic(self):
        fn = lambda x: np.exp(-x * x) * np.cos(x) ** 2
        a = integrate_adaptive(fn, (-8.0, 8.0), 1e-12)
        b = integrate_adaptive(fn, (-8.0, 8.0), 1e-12)
        assert a == b

    @pytest.mark.parametrize("max_panels", [1, 2, 3, 5, 17, 100])
    def test_never_exceeds_max_panels(self, monkeypatch, max_panels):
        monkeypatch.setattr(numerics, "MAX_PANELS", max_panels)
        fn = lambda x: 1.0 / np.sqrt(np.abs(x))
        _, _, _, panels = integrate_adaptive(fn, (0.0, 1.0), 1e-12)
        assert panels <= max_panels

    def test_components_share_one_mesh(self):
        # two widths on one mesh: each converges to its own closed form,
        # and the sharper one decides the panels
        fn = lambda x: np.exp(-math.pi * np.array([1.0, 16.0])[:, None, None] * x * x)
        vals, errs, converged, panels = integrate_adaptive(fn, (-10.0, 10.0), 1e-12)
        assert converged.tolist() == [True, True]
        assert vals.tolist() == pytest.approx([1.0, 0.25], rel=1e-12)
        assert all(errs <= 1e-12 * vals)
        _, _, _, sharp_panels = integrate_adaptive(lambda x: fn(x)[1], (-10.0, 10.0), 1e-12)
        assert panels >= sharp_panels

    def test_unsplittable_stop_is_per_component(self):
        # the smooth component converges; the jump at float spacing
        # cannot, and stops refinement for both instead of running on
        # to MAX_PANELS
        jump = 1e6 + math.sqrt(2.0)
        fn = lambda x: np.array([np.ones_like(x), np.where(x > jump, 1.0, 0.0)])
        vals, errs, converged, panels = integrate_adaptive(fn, (1e6, 1e6 + 2.0), 1e-13)
        assert converged.tolist() == [True, False]
        assert panels < 1000
        assert vals[0] == pytest.approx(2.0, rel=1e-13)
        assert errs[1] > 1e-13 * vals[1]

    def test_jump_at_float_spacing_reports_failure(self):
        # Near 1e6 the panel holding the jump reaches float spacing while
        # its error is still far above 1e-13 of the integral: refinement
        # must give up as soon as that panel's error alone rules out
        # convergence, report it, and not read a one-spacing panel's
        # collapsed nodes as exact.
        jump = 1e6 + math.sqrt(2.0)
        fn = lambda x: np.where(x > jump, 1.0, 0.0)
        val, err, converged, panels = integrate_adaptive(fn, (1e6, 1e6 + 2.0), 1e-13)
        assert not converged
        assert panels < 1000
        assert err > 1e-13 * val
        assert abs(val - (2.0 - math.sqrt(2.0))) <= 2.0 * np.spacing(jump)


class TestTruncationRadius:
    def test_unit_gaussian_radius_small(self):
        r = truncation_radius(single(1.0, 1.0), 2.0, 1e-12)
        assert r <= 4.0
        # certified: the tail sits at tol/2, within the oracle's own error
        tail, quad_err = quad(lambda x: math.exp(-2.0 * math.pi * x * x), r, np.inf)
        assert 2.0 * tail <= 0.5e-12 + 2.0 * quad_err

    def test_monotone_in_tol(self):
        f = single(1.0, 1.0)
        radii = [truncation_radius(f, 2.0, tol) for tol in (1e-4, 1e-8, 1e-12)]
        assert radii[0] <= radii[1] <= radii[2]

    def test_scales_with_widest_component(self):
        r1 = truncation_radius(make_two_scale(TwoScaleParams(1.0)), 2.0, 1e-10)
        r100 = truncation_radius(make_two_scale(TwoScaleParams(100.0)), 2.0, 1e-10)
        assert 50.0 <= r100 / r1 <= 200.0

    def test_rejects_nonpositive_tol(self):
        with pytest.raises(ValueError):
            truncation_radius(single(1.0, 1.0), 2.0, 0.0)


_LOG_TARGETS = (0.0, -1.0, -10.0, -100.0, -745.0, -1e4, -1e5, -1e6)


class TestTailPair:
    """numerics._log_tail and its inverse numerics._tail_radius."""

    @staticmethod
    def _meets_targets(length, shift):
        radii = []
        for target in _LOG_TARGETS:
            r = numerics._tail_radius(length, shift, target)
            floor = shift + length
            assert math.isfinite(r) and r >= floor
            bound = numerics._log_tail(length, shift, r)
            if r == floor:
                assert bound <= target
            else:
                assert abs(bound - target) <= 1e-12 * max(1.0, abs(target))
            radii.append(r)
        # a tighter target never gives a smaller radius
        assert radii == sorted(radii)

    @pytest.mark.parametrize("shift", [0.0, 3.0])
    @pytest.mark.parametrize("alpha", [2.2250738585072014e-308, 1e-300, 1e-150, 1e-20,
                                       1e-3, 1.0, 1e3])
    def test_inverse_meets_target(self, alpha, shift):
        # the pair takes the decay length 1/sqrt(alpha) of exp(-alpha*x*x)
        self._meets_targets(1.0 / math.sqrt(alpha), shift)

    @pytest.mark.parametrize("length", [1e-160, 1e-155, 1e160])
    def test_inverse_past_representable_rates(self, length):
        # decay lengths whose rate 1/length**2 overflows or is subnormal
        self._meets_targets(length, 0.0)

    @pytest.mark.parametrize("t", [0.0, 0.5, 1.0, 2.5, 10.0, 27.0, 100.0, 1e3, 1e4])
    def test_log_bound_matches_mpmath(self, t):
        # decay length sqrt(2) makes the code's erfc argument
        # radius/sqrt(2) exact in the reference, whose prefactor is
        # sqrt(pi)*sqrt(2) = sqrt(2*pi)
        radius = math.sqrt(2.0) * t
        with mpmath.workdps(40):
            ref = mpmath.log(mpmath.sqrt(2 * mpmath.pi)
                             * mpmath.erfc(mpmath.mpf(radius) / mpmath.sqrt(2)))
        assert numerics._log_tail(math.sqrt(2.0), 0.0, radius) == pytest.approx(
            float(ref), rel=1e-13)

    def test_log_bound_across_cf_switch(self):
        # a decay length of 1 makes the erfc argument the radius itself;
        # the grid crosses _ERFC_CF_FROM, where math.erfc hands over to
        # the continued fraction, and includes the floats on either side
        switch = numerics._ERFC_CF_FROM
        grid = sorted({20.0 + k / 64 for k in range(641)}
                      | {math.nextafter(switch, 0.0), switch, math.nextafter(switch, 30.0)})
        bounds = [numerics._log_tail(1.0, 0.0, t) for t in grid]
        with mpmath.workdps(40):
            for t, bound in zip(grid, bounds):
                ref = mpmath.log(mpmath.sqrt(mpmath.pi) * mpmath.erfc(mpmath.mpf(t)))
                assert bound == pytest.approx(float(ref), rel=1e-13), t
        assert all(b < a for a, b in zip(bounds, bounds[1:]))


class TestLqNormQuad:
    def test_unit_gaussian_l2(self):
        (est,) = lq_norm_quad(single(1.0, 1.0), (2.0,), 1e-12)
        assert est.value == pytest.approx(2.0 ** -0.25, rel=1e-12)
        assert est.method == "quadrature"
        assert est.abs_error_estimate >= 0.0

    def test_chirp_l4_display_value(self):
        # ||f_a||_4 at a = sqrt(3): (1/sqrt(4*2))^{1/4} = 8^{-1/8}
        f = GaussianMixture((make_chirp(ChirpParams(math.sqrt(3.0))),))
        (est,) = lq_norm_quad(f, (4.0,), 1e-11)
        assert est.value == pytest.approx(8.0 ** -0.125, rel=1e-11)

    def test_g1_l2_is_eq1_value(self):
        (est,) = lq_norm_quad(make_two_scale(TwoScaleParams(1.0)), (2.0,), 1e-11)
        assert est.value ** 2 == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-10)

    @pytest.mark.parametrize("q", [1.1, 1.5, 2.0, 3.0, 4.0, 10.0])
    @pytest.mark.parametrize("rez", [1e-4, 1.0, 1e4])
    def test_matches_closed_form_across_scales(self, q, rez):
        term = ComplexGaussianTerm(0.7, complex(rez, 0.3 * rez))
        (est,) = lq_norm_quad(GaussianMixture((term,)), (q,), 1e-10)
        assert est.value == pytest.approx(term_lq_norm(term, q), rel=1e-10)

    def test_two_scale_l4_oracle(self):
        # scipy.integrate.quad reference for ||g_10||_4
        (est,) = lq_norm_quad(make_two_scale(TwoScaleParams(10.0)), (4.0,), 1e-10)
        assert est.value == pytest.approx(1.6724442580962702, rel=1e-9)

    def test_zero_function(self):
        (est,) = lq_norm_quad(single(0.0, 1.0), (2.0,), 1e-10)
        assert est == NormEstimate(0.0, "quadrature", 0.0, 2.0)

    def test_tolerance_domain(self):
        f = single(1.0, 1.0)
        for tol in (1e-14, 0.5, math.nan):
            with pytest.raises(ValueError, match="tolerance must lie"):
                lq_norm_quad(f, (2.0,), tol)
        with pytest.raises(ValueError):
            lq_norm_quad(f, (0.9,), 1e-8)
        with pytest.raises(ValueError):
            lq_norm_quad(f, (2.0, 0.9), 1e-8)
        with pytest.raises(ValueError):
            lq_norm_quad(f, (), 1e-8)
        with pytest.raises(TypeError):
            lq_norm_quad(f, 3.0, 1e-8)  # exponents are always a tuple

    @pytest.mark.parametrize("exponents", [(1.2, 1.5), (1.3, 3.0, 1.5),
                                           (4.0 / 3.0, 4.000000000000001)])
    @pytest.mark.parametrize("spec", [("gaussian-mixture", 3, 5), ("gaussian-mixture", 4, 8),
                                      ("hermite", 4, 6), ("hermite", 8, 9)],
                             ids=lambda s: "-".join(map(str, s)))
    def test_tuple_matches_single_exponents(self, spec, exponents):
        f = random_schwartz(*spec)
        for g in (f, f.ft()):
            shared = lq_norm_quad(g, exponents, 1e-10)
            assert [est.q for est in shared] == list(exponents)
            for q, est in zip(exponents, shared):
                (alone,) = lq_norm_quad(g, (q,), 1e-10)
                assert abs(est.value - alone.value) <= (
                    est.abs_error_estimate + alone.abs_error_estimate)

    def test_fields_are_python_floats(self):
        # numpy scalars would not serialise in the JSON reports
        f = make_two_scale(TwoScaleParams(3.0))
        for est in (*lq_norm_quad(f, (3,), 1e-10), *lq_norm_quad(f, (1.5, 3), 1e-10),
                    *lq_norm_quad(single(0.0, 1.0), (2,), 1e-10)):
            assert [type(v) for v in (est.value, est.abs_error_estimate, est.q)] == [float] * 3

    @pytest.mark.parametrize("q", [8.0, 40.0, 64.0])
    def test_far_below_envelope_stays_positive(self, q):
        # |f| is about 5e-10 of its envelope amplitude 2, so |f/2|**q
        # underflows for q >= 40; the integrand is scaled by the largest
        # sampled |f| instead, and the result is honest or raises
        f = GaussianMixture((ComplexGaussianTerm(1.0, 1.0),
                             ComplexGaussianTerm(-1.0 + 1e-9, 1.0 + 1e-9)))
        with mpmath.workdps(50):
            a, w, qm = mpmath.mpf(-1.0 + 1e-9), mpmath.mpf(1.0 + 1e-9), mpmath.mpf(q)
            g = lambda x: (mpmath.exp(-mpmath.pi * x * x) + a * mpmath.exp(-mpmath.pi * w * x * x)) ** qm
            exact = float((2 * mpmath.quad(g, [0, 0.25, 0.5, 1, 2, 4, mpmath.inf])) ** (1 / qm))
        try:
            (alone,) = lq_norm_quad(f, (q,), 1e-6)
        except ToleranceNotAchieved as exc:
            (alone,) = exc.estimate
        exponents = (8.0, 40.0, 64.0)
        shared = lq_norm_quad(f, exponents, 1e-5)[exponents.index(q)]
        for est in (alone, shared):
            assert est.value > 0.0
            assert abs(est.value - exact) <= est.abs_error_estimate

    def test_budget_failure_carries_estimate(self, monkeypatch):
        monkeypatch.setattr(numerics, "MAX_PANELS", 3)
        with pytest.raises(ToleranceNotAchieved) as exc:
            numerics.lq_norm_quad(make_two_scale(TwoScaleParams(50.0)), (4.0,), 1e-10)
        (est,) = exc.value.estimate
        assert est.value > 0.0
        assert est.method == "quadrature"
        assert re.fullmatch(
            r"GaussianMixture L\^4 norm: tolerance 1e-10 not achieved "
            r"\(relative error \S+, radius \S+, \d+ panels\)",
            str(exc.value),
        )

    def test_budget_failure_names_every_missed_exponent(self, monkeypatch):
        monkeypatch.setattr(numerics, "MAX_PANELS", 3)
        with pytest.raises(ToleranceNotAchieved) as exc:
            numerics.lq_norm_quad(make_two_scale(TwoScaleParams(50.0)), (4.0, 3.0), 1e-10)
        assert [est.q for est in exc.value.estimate] == [4.0, 3.0]
        assert all(est.value > 0.0 for est in exc.value.estimate)
        assert re.fullmatch(
            r"GaussianMixture L\^4, L\^3 norms: tolerance 1e-10 not achieved "
            r"\(relative error \S+, \S+, radius \S+, \d+ panels\)",
            str(exc.value),
        )

    def test_quadrature_where_q_times_width_overflows(self):
        # pi*q*w overflows for q = 64 at width 1e307, and for q = 3 on the
        # largest chirps, though pi*w does not; the decay length is formed
        # without the product, so both integrate to their closed forms
        wide = single(1.0, 1e307)
        chirp = GaussianMixture((make_chirp(ChirpParams(7.5e153)),))
        for f, q in ((wide, 64.0), (chirp, 3.0)):
            (est,) = lq_norm_quad(f, (q,), 1e-10)
            assert est.value == pytest.approx(term_lq_norm(f.terms[0], q), rel=1e-10)
            assert 0.0 < truncation_radius(f, q, 1e-10) < 1e-150
        (est,) = norms(wide, (64.0,), 1e-10, "quadrature")
        assert est.value == pytest.approx(term_lq_norm(wide.terms[0], 64.0), rel=1e-10)

    @pytest.mark.parametrize("c", [7.57e153, 1.3e154, 1 / 7.57e153, 1 / 1.3e154])
    def test_two_scale_width_overflow_raises(self, c):
        # above sqrt(DBL_MAX/pi) ~ 7.56e153, pi*c*c would overflow in the
        # narrow term's exponent (pi/(c*c) in the wide one below its
        # reciprocal), so no such g_c is built and no norm can turn nan
        with pytest.raises(ValueError, match="two-scale parameter"):
            TwoScaleParams(c)

    def test_halving_tol_never_raises_error_estimate(self):
        f = make_two_scale(TwoScaleParams(3.0))
        tols = [1e-4, 5e-5, 2.5e-5, 1.25e-5, 6.25e-6]
        errs = [lq_norm_quad(f, (3.0,), t)[0].abs_error_estimate for t in tols]
        assert all(b <= a for a, b in zip(errs, errs[1:]))


def _mp_hermite_rows(x, n):
    """h_0(x)..h_n(x) by the normalized recurrence, in mpmath."""
    y = mpmath.sqrt(2 * mpmath.pi) * x
    rows = [mpmath.mpf(2) ** 0.25 * mpmath.exp(-y * y / 2)]
    prev = mpmath.mpf(0)
    for k in range(n):
        prev, cur = rows[-1], (
            mpmath.sqrt(mpmath.mpf(2) / (k + 1)) * y * rows[-1]
            - mpmath.sqrt(mpmath.mpf(k) / (k + 1)) * prev
        )
        rows.append(cur)
    return rows


def _h32_lq_reference(q):
    """30-digit ||h_32||_q: the normalized recurrence in mpmath, integrated
    between the 32 zeros so every cusp of |h_32|**q sits at a panel end."""
    with mpmath.workdps(30):
        def h32(x):
            return _mp_hermite_rows(x, 32)[-1]

        nodes, _ = np.polynomial.hermite.hermgauss(32)
        zeros = [mpmath.findroot(h32, z / mpmath.sqrt(2 * mpmath.pi))
                 for z in nodes if z > 0]
        qm = mpmath.mpf(q)
        total = 2 * mpmath.quad(lambda x: abs(h32(x)) ** qm, [0, *zeros, 5, 8])
        return float(total ** (1 / qm))


def _gc_lq_reference(c, q):
    """30-digit ||g_c||_q, integrated piecewise at the two scales 1/c, c."""
    with mpmath.workdps(30):
        cm, qm = mpmath.mpf(c), mpmath.mpf(q)
        g = lambda x: (cm ** -0.5 * mpmath.exp(-mpmath.pi * (x / cm) ** 2)
                       + cm ** 0.5 * mpmath.exp(-mpmath.pi * (cm * x) ** 2))
        total = 2 * mpmath.quad(lambda x: g(x) ** qm, [0, 1 / cm, cm, mpmath.inf])
        return float(total ** (1 / qm))


def _gc_binomial_reference(c, q):
    """40-digit ||g_c||_q at integer q: the binomial expansion of
    (c**-0.5*exp(-pi*x*x/c**2) + c**0.5*exp(-pi*c*c*x*x))**q, integrated
    term by term as Gaussians."""
    with mpmath.workdps(40):
        cm = mpmath.mpf(c)
        total = mpmath.fsum(
            mpmath.binomial(q, k) * cm ** ((q - 2 * k) / mpmath.mpf(2))
            / mpmath.sqrt(k / cm ** 2 + (q - k) * cm ** 2)
            for k in range(q + 1))
        return float(total ** (mpmath.mpf(1) / q))


def _mixture_lq_reference(f, q):
    """20-digit ||f||_q of a centered mixture, integrated over [0, 320]
    between breakpoints that follow |f|**q: every 5, every eight periods
    of the fastest cross-term phase out to 4.5, each local minimum of |f|
    where its terms nearly cancel, and a graded ladder around the deepest
    of these, where |f|**q has near-cusps."""
    fast = max(abs(s.width.imag - t.width.imag) for s in f.terms for t in f.terms)
    pts = set(np.linspace(0.0, 320.0, 65))
    pts.update(np.sqrt(16.0 * np.arange(1, 1 + int(4.5 ** 2 * fast / 16.0)) / fast))
    x = np.linspace(0.0, 4.5, 400_001)
    mod = np.abs(f.eval(x))
    terms_mod = sum(np.abs(t.eval(x)) for t in f.terms)
    for j in np.flatnonzero((mod[1:-1] < mod[:-2]) & (mod[1:-1] < mod[2:])) + 1:
        if mod[j] < 0.5 * terms_mod[j]:
            pts.add(x[j])
        if mod[j] < 0.05 * terms_mod[j]:
            pts.update(x[j] + s * 1e-4 * 2.0 ** k for k in range(10) for s in (-1, 1))
    with mpmath.workdps(20):
        terms = [(mpmath.mpc(t.amplitude), mpmath.mpc(t.width)) for t in f.terms]
        qm = mpmath.mpf(q)
        g = lambda x: abs(sum(a * mpmath.exp(-mpmath.pi * z * x * x) for a, z in terms)) ** qm
        total = 2 * mpmath.quad(g, sorted(float(p) for p in pts if p >= 0.0))
        return float(total ** (1 / qm))


def _chirp_cases():
    for a, q in ((1.0 + 2e-6, 64.0), (1.7, 1.001)):
        f = GaussianMixture((make_chirp(ChirpParams(a)),))
        for g in (f, f.ft()):
            yield pytest.param(g, q, lambda g=g, q=q: term_lq_norm(g.terms[0], q),
                               id=f"chirp-a{a}-q{q}-{'ft' if g is not f else 'f'}")


_FAST_CHIRP_MIX = GaussianMixture((ComplexGaussianTerm(1.0, 1.0 + 40.0j),
                                   ComplexGaussianTerm(0.7 - 0.2j, 0.25)))

_HARD_CASES = [
    *_chirp_cases(),
    *(pytest.param(make_two_scale(TwoScaleParams(c)), 3.0,
                   lambda c=c: _gc_lq_reference(c, 3.0), id=f"gc-{c:g}-q3")
      for c in (1.0, 1e3, 1e6)),
    # the far end of the two-scale range: widths 1e-306 to 1e306
    *(pytest.param(make_two_scale(TwoScaleParams(c)), float(q),
                   lambda c=c, q=q: _gc_binomial_reference(c, q), id=f"gc-{c:g}-q{q}",
                   marks=GC_EXPONENT_OVERFLOW)
      for c in (1e145, 1e150, 1e153) for q in (2, 3, 4, 6)),
    pytest.param(HermiteExpansion((0.0,) * 32 + (1.0,)), 1.001,
                 lambda: _h32_lq_reference(1.001), id="h32-q1.001"),
    # A fast chirp over a slow Gaussian: |f| oscillates and nearly vanishes
    # near x = 0.36, and fhat decays over a length of about 40.
    *(pytest.param(g, q, lambda g=g, q=q: _mixture_lq_reference(g, q),
                   id=f"chirpmix-q{q:g}-{tag}")
      for tag, g in (("f", _FAST_CHIRP_MIX), ("ft", _FAST_CHIRP_MIX.ft()))
      for q in (3.0, 1.2)),
]


def _hermite_l2_reference(coefficients):
    """30-digit ||f||_2 of an expansion, by mpmath.quad of |f|**2 built
    from the mpmath recurrence (not from the coefficient sum)."""
    with mpmath.workdps(30):
        cs = [mpmath.mpc(c) for c in coefficients]

        def mod2(x):
            return abs(mpmath.fsum(c * h for c, h in
                                   zip(cs, _mp_hermite_rows(x, len(cs) - 1)))) ** 2

        # |f|**2 is not even when both parities occur: the whole line
        edges = [-mpmath.inf, -5, -3, -2, -1, 0, 1, 2, 3, 5, mpmath.inf]
        return float(mpmath.sqrt(mpmath.quad(mod2, edges)))


_DEGREE_8 = HermiteExpansion(tuple(complex(0.9 - 0.1 * n, 0.05 * n * (-1) ** n)
                                   for n in range(9)))

# Norms with an exact route: the Gaussian sum of |f|**q at even q and the
# coefficient sum of a Hermite expansion at q = 2.
_EXACT_CASES = [
    *(pytest.param(make_two_scale(TwoScaleParams(c)), q,
                   lambda c=c, q=q: _gc_lq_reference(c, q), id=f"gc-{c:g}-q{q:g}")
      for c in (1.0, 1e3, 1e6) for q in (4.0, 6.0)),
    *(pytest.param(g, q, lambda g=g, q=q: _mixture_lq_reference(g, q),
                   id=f"chirpmix-q{q:g}-{tag}")
      for tag, g in (("f", _FAST_CHIRP_MIX), ("ft", _FAST_CHIRP_MIX.ft()))
      for q in (2.0, 4.0)),
    pytest.param(_DEGREE_8, 2.0, lambda: _hermite_l2_reference(_DEGREE_8.coefficients),
                 id="hermite-deg8-q2"),
]


class TestErrorEstimateHonesty:
    """The reported abs_error_estimate bounds the true error against an
    exact closed form or a 20- to 30-digit mpmath reference."""

    @pytest.mark.parametrize("f, q, reference", _HARD_CASES)
    def test_estimate_bounds_true_error(self, f, q, reference):
        # alone, and sharing its mesh and radius with a second exponent
        exact = reference()
        partner = 2.0 if q > 2.0 else 3.0
        for tol in (1e-6, 1e-10):
            for est in (*lq_norm_quad(f, (q,), tol), lq_norm_quad(f, (partner, q), tol)[1]):
                assert est.q == q
                assert abs(est.value - exact) <= est.abs_error_estimate

    @pytest.mark.parametrize("f, q, reference", _EXACT_CASES)
    def test_exact_route_estimate_bounds_true_error(self, f, q, reference):
        exact = reference()
        for tol in (1e-6, 1e-10):
            (est,) = norms(f, (q,), tol)
            assert est.method == "closed-form"
            assert 0.0 < est.abs_error_estimate
            assert abs(est.value - exact) <= est.abs_error_estimate


class TestSampledFunction:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            SampledFunction(100, 0.1, np.zeros(100, dtype=complex))  # not pow2
        with pytest.raises(ValueError):
            SampledFunction(8, 0.1, np.zeros(8, dtype=complex))  # too small
        with pytest.raises(ValueError):
            SampledFunction(16, -0.1, np.zeros(16, dtype=complex))
        with pytest.raises(ValueError):
            SampledFunction(16, 0.1, np.zeros(8, dtype=complex))  # length mismatch

    def test_grids(self):
        s = SampledFunction(16, 0.5, np.zeros(16, dtype=complex))
        assert s.x_grid()[8] == 0.0
        assert s.x_grid()[0] == -4.0
        assert dft_approx(s).dx == pytest.approx(1.0 / 8.0)

    def test_sample_matches_eval(self):
        mix = make_two_scale(TwoScaleParams(1.0))
        s = sample(mix, 16, 0.25)
        np.testing.assert_array_equal(s.samples, mix.eval(s.x_grid()))
        assert s.samples[8] == pytest.approx(2.0)

    def test_tail_samples_small_when_grid_covers_radius(self):
        # the radius certifies the integral tail; pointwise values at the
        # edge sit a factor ~pi*R above it, hence the looser threshold
        mix = single(1.0, 1.0)
        r = truncation_radius(mix, 1.0, 1e-10)
        dx = 2.0 * r / 16
        s = sample(mix, 16, dx)
        assert abs(s.samples[0]) < 1e-8


class TestDftApprox:
    def test_gaussian_transform(self):
        s = sample(single(1.0, 1.0), 1024, 0.05)
        hat = dft_approx(s)
        exact = np.exp(-math.pi * hat.x_grid() ** 2)
        assert np.max(np.abs(hat.samples - exact)) <= 1e-10

    def test_chirp_a2_transform(self):
        f = GaussianMixture((make_chirp(ChirpParams(2.0)),))
        s = sample(f, 4096, 0.01)
        hat = dft_approx(s)
        exact = f.ft().eval(hat.x_grid())
        assert np.max(np.abs(hat.samples - exact)) <= 1e-8

    def test_zero_in_zero_out(self):
        s = SampledFunction(32, 0.1, np.zeros(32, dtype=complex))
        assert np.all(dft_approx(s).samples == 0.0)

    def test_error_decreases_as_n_doubles(self):
        f = GaussianMixture((make_chirp(ChirpParams(2.0)),))
        fhat = f.ft()
        r = truncation_radius(f, 1.0, 1e-12)
        dx = 2.0 * r / 2048  # fixed spacing; larger n widens coverage
        errors = []
        for n in (256, 512, 1024, 2048):
            hat = dft_approx(sample(f, n, dx))
            errors.append(np.max(np.abs(hat.samples - fhat.eval(hat.x_grid()))))
        assert all(b < a for a, b in zip(errors, errors[1:]))

    def test_discrete_plancherel(self):
        f = GaussianMixture(
            (
                ComplexGaussianTerm(1.0, complex(2.0, 1.0)),
                ComplexGaussianTerm(0.3j, complex(0.5, -0.2)),
            )
        )
        s = sample(f, 512, 0.05)
        hat = dft_approx(s)
        lhs = s.dx * np.sum(np.abs(s.samples) ** 2)
        rhs = hat.dx * np.sum(np.abs(hat.samples) ** 2)
        assert lhs == pytest.approx(rhs, rel=1e-10)
