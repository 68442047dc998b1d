"""Quadrature engine and discrete Fourier oracle."""

import cmath
import math
import re
import warnings
from functools import partial

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from uflab import hermite, numerics
from uflab.functionals import norms
from uflab.gaussian import (
    ChirpParams,
    ComplexGaussianTerm,
    GaussianMixture,
    MixtureEvaluator,
    TwoScaleParams,
    term_lq_norm,
)
from uflab.hermite import HermiteExpansion, random_schwartz
from uflab.numerics import (
    MAX_SAMPLES,
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


def _seed_edges_reference(f, q, shift, radius):
    """The seed mesh as first written, by two np.unique calls: the
    reference for numerics._seed_edges."""
    lengths = [s / math.sqrt(q) for s in f.scales()]
    ladder = [0.0]
    v = min(lengths)
    while v < radius and len(ladder) < 41:
        ladder.append(v)
        v *= 4.0
    rungs = [s * 2.0 ** (0.5 * j) for s in lengths for j in range(5)]
    phases = [np.empty(0)]
    for rate, width in f.cross_phases():
        reach = min(radius, math.sqrt(80.0 / (math.pi * width)))
        count = int(min(numerics.MAX_PHASE_RUNGS, 0.5 * rate * reach * reach))
        phases.append(np.sqrt((2.0 / rate) * np.arange(1, count + 1)))
    phases = np.unique(np.concatenate(phases))[:numerics.MAX_PHASE_RUNGS]
    pts = np.unique(np.concatenate((ladder, rungs, phases, [shift])))
    return np.append(pts[pts < radius], radius)


def _integrate_one(fn, edges, rel_tol):
    """integrate_adaptive of the one integrand ``fn``: its values, error
    estimates and convergence as arrays of shape (k,), and its panel
    count."""
    values, errs, converged, panels, _ = integrate_adaptive([fn], [edges], rel_tol)
    return np.array(values[0]), np.array(errs[0]), np.array(converged[0]), panels


def _integrate_reference(fn, edges, rel_tol):
    """integrate_adaptive as first written, one integrand at a time: the
    reference for the batched refinement."""
    pts = np.asarray(edges, dtype=float)
    los, his = pts[:-1], pts[1:]
    narrow = 16.0 * np.spacing(max(-pts[0], pts[-1]))
    (ve,) = numerics._gk_panels([fn], [los], [his])
    k = ve.shape[0] // 2
    sums = ve.sum(1).tolist()
    excess = [e - rel_tol * abs(t) for t, e in zip(sums, sums[k:])]
    while los.size + 3 <= numerics.MAX_PANELS and max(excess) > 0.0:
        errs = ve[k:]
        rank = np.minimum.reduce([e * (-1.0 / max(rel_tol * abs(t), numerics._TINY))
                                  for e, t in zip(errs, sums)])
        order = np.argsort(rank, kind="stable")
        if (his - los).min() <= narrow:
            cuts = numerics._quarters(los, his)
            eighths = 0.5 * (cuts[:-1] + cuts[1:])
            splittable = ((cuts[:-1] < eighths) & (eighths < cuts[1:])).all(0)
            order = order[splittable[order]]
            if order.size == 0 or (order.size < los.size and any(
                stuck > rel_tol * (abs(t) + e)
                for stuck, t, e in zip(errs[:, ~splittable].sum(1).tolist(), sums, sums[k:])
            )):
                break
        take = 1 + max([int(np.searchsorted(np.cumsum(e[order]), x))
                        for e, x in zip(errs, excess)])
        split = order[: min(take, (numerics.MAX_PANELS - los.size) // 3)]
        cuts = numerics._quarters(los[split], his[split])
        (new_ve,) = numerics._gk_panels([fn], [cuts[:-1].ravel()], [cuts[1:].ravel()])
        n = split.size
        los = np.concatenate((los, cuts[1:-1].ravel()))
        his = np.concatenate((his, cuts[2:].ravel()))
        his[split] = cuts[1]
        ve = np.concatenate((ve, new_ve[:, n:]), 1)
        ve[:, split] = new_ve[:, :n]
        sums = ve.sum(1).tolist()
        excess = [e - rel_tol * abs(t) for t, e in zip(sums, sums[k:])]
    return sums[:k], sums[k:], [x <= 0.0 for x in excess], int(los.size)


class _Hooks:
    """``f`` behind the quadrature hooks, with ``is_even()`` as given,
    recording every array its family evaluator is called at."""

    def __init__(self, f, even):
        self.f, self.even, self.seen = f, even, []

    def evaluator(self, fs, x, counts):
        # a bound method, equal only to itself: each instance is a family
        # of its own, so every array seen here is this function's
        self.seen.append(np.array(x))
        return self.f.evaluator([h.f for h in fs], x, counts)

    def envelope(self, radius=0.0):
        return self.f.envelope(radius)

    def scales(self):
        return self.f.scales()

    def cross_phases(self):
        return self.f.cross_phases()

    def is_even(self):
        return self.even


class TestIntegrateAdaptive:
    def test_gaussian_integral(self):
        val, err, converged, _ = _integrate_one(
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
        val, _, converged, _ = _integrate_one(fn, ladder, 1e-10)
        assert converged
        assert val == pytest.approx(math.sqrt(math.pi / 1e6), rel=1e-10)

    def test_budget_exhaustion_reported(self, monkeypatch):
        # endpoint singularity: error stays visible, so a starved budget
        # must report non-convergence instead of a silent wrong answer
        monkeypatch.setattr(numerics, "MAX_PANELS", 4)
        fn = lambda x: 1.0 / np.sqrt(np.abs(x))
        _, _, converged, panels = _integrate_one(fn, (0.0, 1.0), 1e-12)
        assert not converged
        assert panels <= 4

    def test_singular_integrand_converges_with_budget(self):
        fn = lambda x: 1.0 / np.sqrt(np.abs(x))
        val, _, converged, _ = _integrate_one(fn, (0.0, 1.0), 1e-10)
        assert converged
        assert val == pytest.approx(2.0, rel=1e-9)

    def test_deterministic(self):
        fn = lambda x: np.exp(-x * x) * np.cos(x) ** 2
        a = _integrate_one(fn, (-8.0, 8.0), 1e-12)
        b = _integrate_one(fn, (-8.0, 8.0), 1e-12)
        assert a == b

    @pytest.mark.parametrize("max_panels", [1, 2, 3, 5, 17, 100])
    def test_never_exceeds_max_panels(self, monkeypatch, max_panels):
        monkeypatch.setattr(numerics, "MAX_PANELS", max_panels)
        fn = lambda x: 1.0 / np.sqrt(np.abs(x))
        _, _, _, panels = _integrate_one(fn, (0.0, 1.0), 1e-12)
        assert panels <= max_panels

    @pytest.mark.parametrize("max_panels", [1, 2, 3, 5, 17, 100, 100_000])
    def test_rounds_quarter_panels(self, monkeypatch, max_panels):
        # every round after the seed splits whole panels of the current
        # mesh into their four quarters, in one non-empty fn call, and the
        # budget is never exceeded
        calls = []
        gk_panels = numerics._gk_panels

        def recorded(fns, los, his):
            calls.append([(a, b) for lo, hi in zip(los, his)
                          for a, b in zip(lo.tolist(), hi.tolist())])
            return gk_panels(fns, los, his)

        monkeypatch.setattr(numerics, "_gk_panels", recorded)
        monkeypatch.setattr(numerics, "MAX_PANELS", max_panels)
        fn = lambda x: 1.0 / np.sqrt(np.abs(x))
        _, _, _, panels = _integrate_one(fn, (0.0, 0.25, 1.0), 1e-12)
        seed, *rounds = calls
        mesh = set(seed)
        assert mesh == {(0.0, 0.25), (0.25, 1.0)}
        for children in rounds:
            assert children and len(children) % 4 == 0
            parents, tiled = set(), set()
            for lo, hi in mesh:
                mid = 0.5 * (lo + hi)
                quarters = {(lo, 0.5 * (lo + mid)), (0.5 * (lo + mid), mid),
                            (mid, 0.5 * (mid + hi)), (0.5 * (mid + hi), hi)}
                if quarters & set(children):
                    parents.add((lo, hi))
                    tiled |= quarters
            assert tiled == set(children) and 4 * len(parents) == len(children)
            mesh = mesh - parents | tiled
        assert len(mesh) == panels <= max(max_panels, 2)
        assert bool(rounds) == (max_panels >= 5)

    def test_components_share_one_mesh(self):
        # two widths on one mesh: each converges to its own closed form,
        # and the sharper one decides the panels
        fn = lambda x: np.exp(-math.pi * np.array([1.0, 16.0])[:, None, None] * x * x)
        vals, errs, converged, panels = _integrate_one(fn, (-10.0, 10.0), 1e-12)
        assert converged.tolist() == [True, True]
        assert vals.tolist() == pytest.approx([1.0, 0.25], rel=1e-12)
        assert all(errs <= 1e-12 * vals)
        _, _, _, sharp_panels = _integrate_one(lambda x: fn(x)[1], (-10.0, 10.0), 1e-12)
        assert panels >= sharp_panels

    def test_unsplittable_stop_is_per_component(self):
        # the smooth component converges; the jump at float spacing
        # cannot, and stops refinement for both instead of running on
        # to MAX_PANELS
        jump = 1e6 + math.sqrt(2.0)
        fn = lambda x: np.array([np.ones_like(x), np.where(x > jump, 1.0, 0.0)])
        vals, errs, converged, panels = _integrate_one(fn, (1e6, 1e6 + 2.0), 1e-13)
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
        val, err, converged, panels = _integrate_one(fn, (1e6, 1e6 + 2.0), 1e-13)
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
        r1 = truncation_radius(TwoScaleParams(1.0).function, 2.0, 1e-10)
        r100 = truncation_radius(TwoScaleParams(100.0).function, 2.0, 1e-10)
        assert 50.0 <= r100 / r1 <= 200.0

    def test_rejects_nonpositive_tol(self):
        with pytest.raises(ValueError):
            truncation_radius(single(1.0, 1.0), 2.0, 0.0)

    def test_zero_function_is_one_past_shift(self):
        # a zero envelope has no tail, so the radius is its floor
        assert truncation_radius(single(0.0, 1.0), 2.0, 1e-10) == 1.0
        zero = HermiteExpansion((0.0, 0.0))
        shift = zero.envelope()[2]
        assert shift > 0.0
        assert truncation_radius(zero, 2.0, 1e-10) == shift + 1.0


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
        # The bound lies above the exact tail log(sqrt(pi)*L*erfc(t)) and
        # meets it at t = 0.  Decay length sqrt(2) makes the reference's
        # erfc argument radius/sqrt(2) exact, with prefactor sqrt(2*pi).
        radius = math.sqrt(2.0) * t
        with mpmath.workdps(40):
            ref = float(mpmath.log(mpmath.sqrt(2 * mpmath.pi)
                                   * mpmath.erfc(mpmath.mpf(radius) / mpmath.sqrt(2))))
        bound = numerics._log_tail(math.sqrt(2.0), 0.0, radius)
        if t == 0.0:
            assert bound == pytest.approx(ref, rel=1e-13)
        else:
            assert bound >= ref


class TestLqNormQuad:
    def test_unit_gaussian_l2(self):
        (est,) = lq_norm_quad(single(1.0, 1.0), (2.0,), 1e-12)
        assert est.value == pytest.approx(2.0 ** -0.25, rel=1e-12)
        assert est.method == "quadrature"
        assert est.abs_error_estimate >= 0.0

    def test_chirp_l4_display_value(self):
        # ||f_a||_4 at a = sqrt(3): (1/sqrt(4*2))^{1/4} = 8^{-1/8}
        f = ChirpParams(math.sqrt(3.0)).function
        (est,) = lq_norm_quad(f, (4.0,), 1e-11)
        assert est.value == pytest.approx(8.0 ** -0.125, rel=1e-11)

    def test_g1_l2_is_eq1_value(self):
        (est,) = lq_norm_quad(TwoScaleParams(1.0).function, (2.0,), 1e-11)
        assert est.value ** 2 == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-10)

    @pytest.mark.parametrize("q", [1.1, 1.5, 2.0, 3.0, 4.0, 10.0])
    @pytest.mark.parametrize("rez", [1e-4, 1.0, 1e4])
    def test_matches_closed_form_across_scales(self, q, rez):
        term = ComplexGaussianTerm(0.7, complex(rez, 0.3 * rez))
        (est,) = lq_norm_quad(GaussianMixture((term,)), (q,), 1e-10)
        assert est.value == pytest.approx(term_lq_norm(term, q), rel=1e-10)

    def test_two_scale_l4_oracle(self):
        # scipy.integrate.quad reference for ||g_10||_4
        (est,) = lq_norm_quad(TwoScaleParams(10.0).function, (4.0,), 1e-10)
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
        f = TwoScaleParams(3.0).function
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

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 5: GaussianMixture.eval adds the terms in double, so a "
        "near-cancelling pair loses digits no panel estimate sees; the L^2 and "
        "L^3 norms miss tol 1e-8 by 1.5x and 1.25x without raising"))
    def test_near_cancelling_pair_meets_tol_or_raises(self):
        # |f| is about 1e-9 of its terms; the reference is 40-digit mpmath
        f = GaussianMixture((ComplexGaussianTerm(3.0, 1.0),
                             ComplexGaussianTerm(-3.0 + 3e-9, 1.0 + 1e-9)))
        try:
            found = lq_norm_quad(f, (2.0, 3.0), 1e-8)
        except ToleranceNotAchieved:
            return
        with mpmath.workdps(40):
            a, w = mpmath.mpf(-3.0 + 3e-9), mpmath.mpf(1.0 + 1e-9)
            for est in found:
                qm = mpmath.mpf(est.q)
                g = lambda x: (3 * mpmath.exp(-mpmath.pi * x * x)
                               + a * mpmath.exp(-mpmath.pi * w * x * x)) ** qm
                exact = float((2 * mpmath.quad(g, [0, 0.25, 0.5, 1, 2, 4, mpmath.inf]))
                              ** (1 / qm))
                assert abs(est.value - exact) <= min(est.abs_error_estimate, 1e-8 * exact)

    def test_budget_failure_carries_estimate(self, monkeypatch):
        monkeypatch.setattr(numerics, "MAX_PANELS", 3)
        with pytest.raises(ToleranceNotAchieved) as exc:
            numerics.lq_norm_quad(TwoScaleParams(50.0).function, (4.0,), 1e-10)
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
            numerics.lq_norm_quad(TwoScaleParams(50.0).function, (4.0, 3.0), 1e-10)
        assert [est.q for est in exc.value.estimate] == [4.0, 3.0]
        assert all(est.value > 0.0 for est in exc.value.estimate)
        assert re.fullmatch(
            r"GaussianMixture L\^4, L\^3 norms: tolerance 1e-10 not achieved "
            r"\(relative error \S+, \S+, radius \S+, \d+ panels\)",
            str(exc.value),
        )

    def test_shared_pass_retries_missed_exponents_alone(self, monkeypatch):
        # |f| is about 1e-9 of its terms: rounding noise at q = 40 and 64
        # refines the shared mesh to the panel budget and fails L^8 there
        # too, though L^8 converges on a mesh of its own; the message
        # gives the largest radius and panel count of the failed solo
        # passes, not those of the L^8 pass that converged
        f = GaussianMixture((ComplexGaussianTerm(1.0, 1.0),
                             ComplexGaussianTerm(-1.0 + 1e-9, 1.0 + 1e-9)))
        (alone,) = lq_norm_quad(f, (8.0,), 1e-6)
        failed = numerics._quad_passes([(f, (40.0,)), (f, (64.0,))], 1e-6)
        assert all(p.missed for p in failed)
        with pytest.raises(ToleranceNotAchieved) as exc:
            lq_norm_quad(f, (8.0, 40.0, 64.0), 1e-6)
        assert re.fullmatch(
            r"GaussianMixture L\^40, L\^64 norms: tolerance 1e-06 not achieved "
            r"\(relative error \S+, \S+, radius \S+, \d+ panels\)",
            str(exc.value),
        )
        assert str(exc.value).endswith(
            f"radius {max(p.radius for p in failed):.6g}, "
            f"{max(p.panels for p in failed)} panels)")
        assert [est.q for est in exc.value.estimate] == [8.0, 40.0, 64.0]
        assert exc.value.estimate[0] == alone
        # two members of one slice whose shared passes miss at different
        # exponent indices, (0, 1, 2) and (1, 2, 3): every exponent they
        # miss is retried in one batch of solo passes
        calls, passes = [], numerics._quad_passes

        def recorded(requests, tol):
            calls.append([exponents for _, exponents in requests])
            return passes(requests, tol)

        monkeypatch.setattr(numerics, "_quad_passes", recorded)
        with pytest.raises(ToleranceNotAchieved) as shared:
            numerics.lq_norm_quad_batch([(f, (8.0, 40.0, 64.0)), (f, (1.5, 3.0, 8.0, 16.0))], 1e-6)
        assert str(shared.value) == str(exc.value)
        assert calls == [[(8.0, 40.0, 64.0), (1.5, 3.0, 8.0, 16.0)],
                         [(8.0,), (40.0,), (64.0,), (3.0,), (8.0,), (16.0,)]]

    def test_seed_edges_follow_scales_and_phases(self):
        # a ratio-4 ladder, five half-octave rungs per decay length, and
        # one rung per period of the cross-term phase out to where its
        # envelope exp(-pi*1.25*x*x) has fallen by exp(-80)
        f = GaussianMixture((ComplexGaussianTerm(1.0, 1.0 + 40.0j),
                             ComplexGaussianTerm(0.7 - 0.2j, 0.25)))
        q, radius = 3.0, 30.0
        edges = numerics._seed_edges(f, q, 0.0, radius)
        assert edges[0] == 0.0 and edges[-1] == radius and np.all(np.diff(edges) > 0.0)
        reach = math.sqrt(80.0 / (math.pi * 1.25))
        periods = np.sqrt(np.arange(1.0, 20.0 * reach * reach) / 20.0)
        ladder = [4.0 ** k / math.sqrt(q) for k in range(3)]
        halves = [s / math.sqrt(q) * 2.0 ** (0.5 * j) for s in (1.0, 2.0) for j in range(5)]
        expected = np.array([0.0, *periods, *ladder, *halves, radius])
        assert periods[-1] <= reach < periods[-1] + 0.01
        for points, within in ((expected, edges), (edges, expected)):
            assert all(np.abs(within - x).min() <= 1e-14 * x for x in points)
        # an expansion has no cross-term phase: ladder and rungs only
        h = HermiteExpansion((1.0, 0.5, 0.25))
        shift = h.envelope()[2]
        assert h.cross_phases() == ()
        np.testing.assert_array_equal(
            numerics._seed_edges(h, q, shift, radius),
            sorted({0.0, *ladder, *halves[:5], shift, radius}))

    def test_seed_edges_match_reference(self):
        # one sort of a set gives the edges of two np.unique calls, on g_c,
        # random and fast-chirp mixtures (one past MAX_PHASE_RUNGS) and an
        # expansion whose shift is an edge
        functions = [TwoScaleParams(c).function for c in (1.0, 37.0, 1e4, 1e-3)]
        functions += [random_schwartz("gaussian-mixture", 1 + seed % 4, seed)
                      for seed in range(12)]
        functions += [_FAST_CHIRP_MIX, _FAST_CHIRP_MIX.ft(), _AUDIT_CHIRP_MIX,
                      GaussianMixture((ComplexGaussianTerm(1.0, 1.0 + 1e6j),
                                       ComplexGaussianTerm(1.0, 1.0))),
                      HermiteExpansion((1.0, 0.5, 0.25))]
        for f in functions:
            shift = f.envelope()[2]
            for q in (1.5, 3.0):
                for r in (0.5, 3.0, 12.0):
                    radius = shift + r * max(f.scales())
                    got = numerics._seed_edges(f, q, shift, radius)
                    want = _seed_edges_reference(f, q, shift, radius)
                    assert got.dtype == want.dtype
                    assert got.tolist() == want.tolist()

    def test_phase_rungs_are_capped(self, monkeypatch):
        # the cross term of (1, 1 + 1e6j) + (1, 1) turns about 6.4e6 times
        # before its envelope falls by exp(-80): the seed mesh takes its
        # first MAX_PHASE_RUNGS periods, refinement the rest, and the pass
        # meets tol or raises within the panel budget (about 0.6 s on a
        # 2-vCPU host)
        f = GaussianMixture((ComplexGaussianTerm(1.0, 1.0 + 1e6j),
                             ComplexGaussianTerm(1.0, 1.0)))
        exact = math.sqrt(math.sqrt(2.0) + 2.0 * (1.0 / cmath.sqrt(2.0 + 1e6j)).real)
        rounds = []
        panels = numerics._gk_panels

        def counted(fns, los, his):
            rounds.append(sum(lo.size for lo in los))
            return panels(fns, los, his)

        monkeypatch.setattr(numerics, "_gk_panels", counted)
        try:
            (est,) = lq_norm_quad(f, (2.0,), 1e-6)
        except ToleranceNotAchieved:
            pass
        else:
            assert abs(est.value - exact) <= 1e-6 * exact
        assert numerics.MAX_PHASE_RUNGS <= rounds[0] <= numerics.MAX_PHASE_RUNGS + 41 + 10
        assert sum(rounds) <= 2 * numerics.MAX_PANELS

    def test_radius_start_over_matches_reference(self, monkeypatch):
        # the refined totals of this expansion at q = 64 leave a tail bound
        # above tol/2, so the pass starts over at the radius they need:
        # two integrals, and the value still meets tol against QUADPACK
        integrals = []
        integrate = numerics.integrate_adaptive

        def counted(*args):
            integrals.append(args)
            return integrate(*args)

        monkeypatch.setattr(numerics, "integrate_adaptive", counted)
        f, tol = random_schwartz("hermite", 12, 26), 1e-10
        (est,) = lq_norm_quad(f, (64.0,), tol)
        assert len(integrals) == 2
        # in a batch, the second round integrates that expansion alone
        integrals.clear()
        others = [random_schwartz("hermite", 12, seed) for seed in (3, 5)]
        got = numerics.lq_norm_quad_batch([(g, (64.0,)) for g in (others[0], f, others[1])], tol)
        assert [len(args[0]) for args in integrals] == [3, 1]
        assert got[1] == (est,)
        edges = np.linspace(-12.0, 12.0, 97)
        peak = float(np.abs(f.eval(np.linspace(-12.0, 12.0, 2401))).max())
        power = lambda x: float(np.abs(f.eval(np.array([x]))[0]) / peak) ** 64
        total = math.fsum(quad(power, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                          for a, b in zip(edges[:-1], edges[1:]))
        ref = peak * total ** (1.0 / 64.0)
        assert abs(est.value - ref) <= tol * ref

    @pytest.mark.parametrize("q", [1.5, 3.0])
    @pytest.mark.parametrize("f", [HermiteExpansion((1.0, 1.0)),
                                   random_schwartz("hermite", 8, 3)],
                             ids=["h0+h1", "hermite-8-3"])
    def test_fold_of_uneven_modulus_matches_whole_line(self, f, q):
        # both parities occur, so |f(x)| and |f(-x)| differ; the folded
        # half-line pass must still give the whole line's norm, alone and
        # shared, against QUADPACK over [-8, 8] (h0 + h1 vanishes at
        # -1/(2*sqrt(pi)), a cusp of |f|**q, which is an edge there)
        x = np.linspace(0.0, 3.0, 61)
        assert np.abs(np.abs(f.eval(x)) - np.abs(f.eval(-x))).max() > 1.0
        edges = sorted({*np.linspace(-8.0, 8.0, 33), -0.5 / math.sqrt(math.pi)})
        power = lambda x: float(abs(f.eval(np.array([x]))[0])) ** q
        ref = math.fsum(quad(power, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                        for a, b in zip(edges[:-1], edges[1:])) ** (1.0 / q)
        tol = 1e-10
        partner = 2.0 if q > 2.0 else 3.0
        for est in (*lq_norm_quad(f, (q,), tol), lq_norm_quad(f, (partner, q), tol)[1]):
            assert est.q == q
            assert abs(est.value - ref) <= min(est.abs_error_estimate, tol * ref)

    @pytest.mark.parametrize("f", [
        *(random_schwartz("gaussian-mixture", 1 + seed % 4, seed) for seed in range(6)),
        GaussianMixture((ComplexGaussianTerm(1.0, 1.0 + 40.0j),
                         ComplexGaussianTerm(0.7 - 0.2j, 0.25))).ft(),
        TwoScaleParams(300.0).function,
        HermiteExpansion((1.0, 0.0, 0.0, 0.0, 1.0)),
    ], ids=[*(f"mixture-{seed}" for seed in range(6)), "chirpmix-ft", "gc-300", "h0+h4"])
    def test_even_function_evaluated_one_sided(self, f):
        # an even f is evaluated at x >= 0 only, and its estimates equal,
        # to the bit, those of the two-sided fold of the same function
        assert f.is_even()
        for exponents in ((3.0,), (1.5, 3.0)):
            one_sided, two_sided = _Hooks(f, True), _Hooks(f, False)
            assert (lq_norm_quad(one_sided, exponents, 1e-10)
                    == lq_norm_quad(two_sided, exponents, 1e-10)
                    == lq_norm_quad(f, exponents, 1e-10))
            assert all(x.min() >= 0.0 for x in one_sided.seen)
            assert all(x.min() < 0.0 for x in two_sided.seen)
            assert sum(map(np.size, two_sided.seen)) == 2 * sum(map(np.size, one_sided.seen))

    def test_odd_expansion_evaluated_two_sided(self):
        f = HermiteExpansion((1.0, 0.0, 0.0, 0.5))
        assert not f.is_even()
        recorded = _Hooks(f, f.is_even())
        (est,) = lq_norm_quad(recorded, (3.0,), 1e-10)
        assert est == lq_norm_quad(f, (3.0,), 1e-10)[0]
        assert all(x.min() < 0.0 < x.max() for x in recorded.seen)

    def test_one_eval_per_two_scale_norm(self, monkeypatch):
        # the tail majorant at the initial radius bounds g_c's tail by its
        # wide term alone, so no radius round follows the seed round: at
        # the sweep's tol the seed round is the only evaluation of each
        # g_c, and at 1e-10 refinement stays inside the seed radius (c
        # below about 100 split four of its panels once); the sweep takes
        # them in one batch, whose rounds evaluate each g_c at most once,
        # on its own points of the family evaluator's call
        reach = {}
        evaluate = MixtureEvaluator.__call__

        def counted(evaluator, fs, x, counts):
            for f, points in zip(fs, np.split(x, np.cumsum(counts)[:-1])):
                reach.setdefault(id(f), []).append(float(np.abs(points).max()))
            return evaluate(evaluator, fs, x, counts)

        monkeypatch.setattr(MixtureEvaluator, "__call__", counted)
        grid = np.logspace(1.0, 6.0, 50).tolist()
        gcs = [TwoScaleParams(c).function for c in grid]
        numerics.lq_norm_quad_batch([(g, (3.0,)) for g in gcs], 1e-8)
        for c, g in zip(grid, gcs):
            assert len(reach[id(g)]) == 1, c
        reach.clear()
        numerics.lq_norm_quad_batch([(g, (3.0,)) for g in gcs], 1e-10)
        for c, g in zip(grid, gcs):
            seen = reach[id(g)]
            assert len(seen) <= 2 and max(seen) == seen[0], c

    def test_zero_tail_amplitude(self):
        # the widest term has amplitude 0, so the envelope amplitude
        # beyond any radius the pass picks underflows to 0: no tail
        f = GaussianMixture((ComplexGaussianTerm(0.0, 1.0), ComplexGaussianTerm(1.0, 1e300)))
        assert f.envelope(1e-100)[0] == 0.0
        for q in (1.5, 3.0):
            (est,) = lq_norm_quad(f, (q,), 1e-10)
            exact = term_lq_norm(f.terms[1], q)
            assert abs(est.value - exact) <= min(est.abs_error_estimate, 1e-10 * exact)

    def test_quadrature_where_q_times_width_overflows(self):
        # pi*q*w overflows for q = 64 at width 1e307, and for q = 3 on the
        # largest chirps, though pi*w does not; the decay length is formed
        # without the product, so both integrate to their closed forms
        wide = single(1.0, 1e307)
        chirp = ChirpParams(7.5e153).function
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
        f = TwoScaleParams(3.0).function
        tols = [1e-4, 5e-5, 2.5e-5, 1.25e-5, 6.25e-6]
        errs = [lq_norm_quad(f, (3.0,), t)[0].abs_error_estimate for t in tols]
        assert all(b <= a for a, b in zip(errs, errs[1:]))


def _pass_bits(p):
    """A pass's estimates, radius and panel count, compared exactly."""
    return [(e.value, e.abs_error_estimate) for e in p.found], p.missed, p.radius, p.panels


_NEAR_CANCELLING = GaussianMixture((ComplexGaussianTerm(1.0, 1.0),
                                    ComplexGaussianTerm(-1.0 + 1e-9, 1.0 + 1e-9)))


class TestBatch:
    """lq_norm_quad_batch refines every request's mesh in lockstep; each
    request's estimates are those it gets alone."""

    def test_members_match_batches_of_one(self, monkeypatch):
        # the randomized checks' functions and transforms at five
        # exponents, a g_c grid at one, and both with exponent tuples of
        # one to three exponents mixed in one batch: values, error
        # estimates, radii and panel counts equal those of batches of one,
        # bit for bit, and so do the estimates of a batch run in slices of
        # any size
        from uflab.verifier import _sample_functions

        mixed = [g for f in _sample_functions(40, 3) for g in (f, f.ft())]
        gcs = [TwoScaleParams(c).function for c in np.geomspace(10.0, 1e6, 30).tolist()]
        tuples = [(1.5,), (3.0, 1.2), (1.3, 4.0, 2.0)]
        for requests in ([(f, (1.2, 1.3, 1.5, 4.0 / 3.0, 3.0)) for f in mixed],
                         [(g, (3.0,)) for g in gcs],
                         [(f, tuples[j % 3]) for j, f in enumerate(mixed[:24] + gcs[::3])]):
            batch = numerics._quad_passes(requests, 1e-10)
            for r, p in zip(requests, batch):
                assert _pass_bits(p) == _pass_bits(numerics._quad_passes([r], 1e-10)[0])
            for size in (1, 7, 64):
                monkeypatch.setattr(numerics, "BATCH_FUNCTIONS", size)
                assert numerics.lq_norm_quad_batch(requests, 1e-10) == [
                    tuple(p.found) for p in batch]

    @pytest.mark.parametrize("max_panels", [200, 100_000])
    def test_batch_matches_one_integrand_at_a_time(self, monkeypatch, max_panels):
        # the batched refinement against the loop it replaced, run on each
        # integrand alone: the same totals, errors, convergence and panel
        # counts, bit for bit, also where the budget or thin panels stop
        # an integrand early, and where the integrands of one batch have
        # different numbers of components
        from uflab.verifier import _sample_functions

        monkeypatch.setattr(numerics, "MAX_PANELS", max_panels)
        fs = [g for f in _sample_functions(8, 5) for g in (f, f.ft())] + [
            _NEAR_CANCELLING, TwoScaleParams(30.0).function]
        tol = 1e-10
        for tuples in ([(1.5, 2.0, 3.0)], [(1.5, 2.0, 3.0), (3.0,), (4.0, 1.5)]):
            requests = [(f, tuples[j % len(tuples)]) for j, f in enumerate(fs)]
            batch = numerics.integrate_adaptive(
                *zip(*((p, p.edges) for p in (numerics._Pass(*r, tol) for r in requests))), tol)
            # the total panel count is an int, as perfbench's tracer reads it
            assert type(batch[3]) is int and batch[3] == sum(batch[4])
            for j, r in enumerate(requests):
                p = numerics._Pass(*r, tol)
                assert _integrate_reference(p, p.edges, tol) == (
                    batch[0][j], batch[1][j], batch[2][j], batch[4][j])
        jump = 1e6 + math.sqrt(2.0)
        spikes = [lambda x: 1.0 / np.sqrt(np.abs(x)), lambda x: np.exp(-x * x),
                  lambda x: np.where(x > jump, 1.0, 0.0), lambda x: np.abs(np.sin(40.0 * x)),
                  lambda x: np.array((np.exp(-x * x), np.abs(np.sin(40.0 * x))))]
        meshes = [(0.0, 1.0), (-8.0, 0.5, 8.0), (1e6, 1e6 + 2.0), (0.0, 0.1, 3.0), (0.0, 0.1, 3.0)]
        batch = numerics.integrate_adaptive(spikes, meshes, 1e-12)
        for j, (fn, mesh) in enumerate(zip(spikes, meshes)):
            assert _integrate_reference(fn, mesh, 1e-12) == (
                batch[0][j], batch[1][j], batch[2][j], batch[4][j])

    def test_caller_first_and_edges_are_not_written(self, monkeypatch):
        # a split writes its first quarters into arrays of the integrand's
        # own, never into the caller's seed blocks or edges, which
        # _quad_passes reads again when a pass starts over at a wider radius
        jump = 1e6 + math.sqrt(2.0)
        fns = [lambda x: 1.0 / np.sqrt(np.abs(x)), lambda x: np.exp(-x * x),
               lambda x: np.where(x > jump, 1.0, 0.0)]
        edges = [np.array(m) for m in ((0.0, 1.0), (-8.0, 0.5, 8.0), (1e6, 1e6 + 2.0))]
        first = numerics._gk_panels(fns, [e[:-1] for e in edges], [e[1:] for e in edges])
        before = [a.tobytes() for a in (*first, *edges)]
        got = numerics.integrate_adaptive(fns, edges, 1e-12, first)
        assert [a.tobytes() for a in (*first, *edges)] == before
        assert min(got[4]) > 3 and got == numerics.integrate_adaptive(fns, edges, 1e-12)
        # the start-over of this expansion at q = 64 hands the seeded blocks
        # and edges of its first integral, widened, to a second one
        unchanged, integrate = [], numerics.integrate_adaptive

        def checked(fns, edges, rel_tol, first):
            before = [a.tobytes() for a in (*first, *edges)]
            result = integrate(fns, edges, rel_tol, first)
            unchanged.append([a.tobytes() for a in (*first, *edges)] == before)
            return result

        monkeypatch.setattr(numerics, "integrate_adaptive", checked)
        lq_norm_quad(random_schwartz("hermite", 12, 26), (64.0,), 1e-10)
        assert unchanged == [True, True]

    def test_batch_refines_in_lockstep(self, monkeypatch):
        # one integrate_adaptive call and one evaluation per round for the
        # whole batch, in which no pass comes twice, and which calls each
        # family evaluator once per parity (the exponents are the same for
        # all), on every function of that family with new panels: an even
        # one once, an odd one twice, at its nodes and their mirror images
        from uflab.verifier import _sample_functions

        fs = [g for f in _sample_functions(10, 4) for g in (f, f.ft())]
        rounds, integrals = [], []
        gk_panels, integrate = numerics._gk_panels, numerics.integrate_adaptive
        mixtures, expansions = MixtureEvaluator.__call__, HermiteExpansion.evaluator

        def counted_panels(fns, los, his):
            rounds.append((list(fns), []))
            return gk_panels(fns, los, his)

        def counted_mixtures(evaluator, members, x, counts):
            rounds[-1][1].append((evaluator, [id(f) for f in members]))
            return mixtures(evaluator, members, x, counts)

        def counted_expansions(members, x, counts):
            rounds[-1][1].append((expansions, [id(f) for f in members]))
            return expansions(members, x, counts)

        def counted_integrals(*args):
            integrals.append(len(args[0]))
            return integrate(*args)

        monkeypatch.setattr(numerics, "_gk_panels", counted_panels)
        monkeypatch.setattr(numerics, "integrate_adaptive", counted_integrals)
        monkeypatch.setattr(MixtureEvaluator, "__call__", counted_mixtures)
        monkeypatch.setattr(HermiteExpansion, "evaluator", staticmethod(counted_expansions))
        numerics.lq_norm_quad_batch([(f, (1.5, 3.0)) for f in fs], 1e-10)
        assert integrals[0] == len(rounds[0][0]) == len(fs)
        assert len(integrals) <= 4 and all(n <= len(fs) for n in integrals)
        for members, calls in rounds:
            assert len(set(map(id, members))) == len(members)
            families = [(evaluator, len(set(ids)) == len(ids)) for evaluator, ids in calls]
            assert len(set(families)) == len(families)
            assert sorted(i for _, ids in calls for i in ids) == sorted(
                id(p.f) for p in members for _ in range(1 if p.f.is_even() else 2))
        batch, alone = len(rounds), 0
        for f in fs:
            rounds.clear()
            numerics.lq_norm_quad(f, (1.5, 3.0), 1e-10)
            alone += len(rounds)
        assert batch < alone

    def test_missed_member_raises_its_own_message(self, monkeypatch):
        # the near-cancelling pair misses 1e-8 at q = 2 within 200 panels;
        # in a batch it raises what it raises alone, and the budget is per
        # function, so the others keep the bits they get alone
        from uflab.verifier import _sample_functions

        monkeypatch.setattr(numerics, "MAX_PANELS", 200)
        others = [g for f in _sample_functions(6, 3) for g in (f, f.ft())]
        others += [TwoScaleParams(c).function for c in (3.0, 300.0)]
        for exponents in ((2.0,), (2.0, 3.0)):
            with pytest.raises(ToleranceNotAchieved) as alone:
                lq_norm_quad(_NEAR_CANCELLING, exponents, 1e-8)
            batch = others[:5] + [_NEAR_CANCELLING] + others[5:]
            with pytest.raises(ToleranceNotAchieved) as shared:
                numerics.lq_norm_quad_batch([(f, exponents) for f in batch], 1e-8)
            assert str(shared.value) == str(alone.value)
            assert shared.value.estimate == alone.value.estimate
            # the member ran out of its own budget: not one more split fits
            panels = int(re.search(r"L\^2.* (\d+) panels\)$", str(shared.value))[1])
            assert 200 - 3 < panels <= 200
            # two members that refine to the budget together, beside the
            # others: every member keeps the bits it gets alone
            twin = GaussianMixture((ComplexGaussianTerm(7.0, 1.0),
                                    ComplexGaussianTerm(-7.0 + 7e-9, 1.0 + 1e-9)))
            passes = numerics._quad_passes([(f, exponents) for f in batch + [twin]], 1e-8)
            assert passes[5].missed and passes[-1].missed
            for f, p in zip(batch + [twin], passes):
                assert bool(p.missed) == (f is _NEAR_CANCELLING or f is twin)
                assert _pass_bits(p) == _pass_bits(
                    numerics._quad_passes([(f, exponents)], 1e-8)[0])

    def test_zero_member_has_zero_norms(self):
        # the zero function runs the ordinary pass, warning-free: alone,
        # beside other families, and beside nonzero members of its own
        # family, where the stacked round reads a zero peak among others
        zeros = (single(0.0, 1.0), HermiteExpansion((0.0, 0.0)))
        g = TwoScaleParams(3.0).function
        batch = [g, zeros[0], single(1.0, 2.0), zeros[1], single(-2.5, 0.7), g]
        exponents = (1.5, 3.0)
        assert numerics._Pass(zeros[0], exponents, 1e-10).family == numerics._Pass(
            batch[2], exponents, 1e-10).family

        def zero_norms(exponents):
            # repr tells 0.0 from -0.0
            return repr(tuple(NormEstimate(0.0, "quadrature", 0.0, e) for e in exponents))

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = numerics.lq_norm_quad_batch([(f, exponents) for f in batch], 1e-10)
            for f, found in zip(batch, got):
                if any(f is z for z in zeros):
                    assert repr(found) == zero_norms(exponents)
                else:
                    assert found == lq_norm_quad(f, exponents, 1e-10)
            for zero in zeros:
                for alone in ((2.0,), exponents):
                    assert repr(lq_norm_quad(zero, alone, 1e-10)) == zero_norms(alone)
            assert numerics.lq_norm_quad_batch([], 1e-10) == []


def _fold_reference(p, x):
    """The folded integrand of the pass p at the node array x, one pass
    at a time: the reference for ``_Pass.stack``.  Each exponent's power
    is one np.power call with that exponent alone: numpy rounds a square
    by its scalar fast path, x*x, but inside one call with three or more
    exponents it takes pow(x, 2.0), and on small arrays only."""
    if p.even:
        mag = np.abs(p.f.eval(x))
    else:
        mag = np.abs(p.f.eval(np.concatenate((x, -x)))).reshape(2, *x.shape)
    if not p.peak:
        p.peak = float(mag.max()) or p.scale
    power = np.array([np.power(mag / p.peak, e) for e in p.exponents])
    return 2.0 * power if p.even else power.sum(1)


def _gk_panels_reference(fns, los, his):
    """numerics._gk_panels as first written, with one evaluation per
    integrand, ``fns[j]`` called on the nodes of its own panels: the
    reference for the stacked round."""
    lo, hi = np.concatenate(los), np.concatenate(his)
    halves = 0.5 * (hi - lo)[:, None]
    nodes = 0.5 * (hi + lo)[:, None] + halves * numerics._K15_NODES
    kds, resascs, a = [], [], 0
    for fn, n in zip(fns, map(len, los)):
        xs, half = nodes[a:a + n], halves[a:a + n]
        a += n
        fx = np.asarray(fn(xs), dtype=float).reshape(-1, *xs.shape) * half
        kd = fx @ numerics._KD_WEIGHTS
        kds.append(kd)
        resascs.append((np.abs(fx - 0.5 * kd[..., :1]) @ numerics._K15_WEIGHTS).ravel())
    kd = np.concatenate([kd.reshape(-1, 2) for kd in kds])
    ik = kd[:, 0]
    resasc = np.concatenate(resascs)
    ratio = np.divide(200.0 * np.abs(kd[:, 1]), resasc, out=np.zeros(ik.shape),
                      where=resasc > 0.0)
    err = resasc * np.minimum(1.0, ratio ** 1.5)
    ve = np.concatenate((ik, np.maximum(err, 50.0 * numerics._EPS * np.abs(ik)))).reshape(2, -1)
    blocks, a = [], 0
    for k, n, _ in (kd.shape for kd in kds):
        blocks.append(ve[:, a:a + k * n].reshape(2 * k, n))
        a += k * n
    return blocks


def _alone_reference(f, x):
    """f at the small array x, term by term with scalar amplitudes and
    coefficients, as first written: the reference for each family
    evaluator's values.  numpy reuses no temporary of an array this
    small, so each complex product keeps its operands' order."""
    if isinstance(f, HermiteExpansion):
        y = math.sqrt(2.0 * math.pi) * x
        acc = np.zeros(y.shape, dtype=complex)
        for c, row in zip(f.coefficients, hermite._basis_rows(f.degree, y)):
            acc += c * row
        return acc
    acc = None
    with np.errstate(over="ignore"):
        for t in f.terms:
            if t.width.imag == 0.0:
                amp = t.amplitude.real if t.amplitude.imag == 0.0 else t.amplitude
                values = amp * np.exp((-math.pi * t.width.real) * x * x)
            else:
                values = t.amplitude * np.exp(-math.pi * t.width * x * x)
            acc = values if acc is None else acc + values
    return acc


_UNIT = st.floats(0.1, 1.0)
_SIGNED = st.builds(lambda v, sign: sign * v, _UNIT, st.sampled_from((1.0, -1.0)))


@st.composite
def _terms(draw):
    """A term of each kind: real width and amplitude, real width and
    complex amplitude, or complex width (with either amplitude)."""
    kind = draw(st.sampled_from(("real", "real width", "complex width")))
    w = draw(st.floats(0.2, 5.0))
    if kind == "real":
        return ComplexGaussianTerm(draw(_SIGNED), w)
    if kind == "real width":
        return ComplexGaussianTerm(complex(draw(_SIGNED), draw(_SIGNED)), w)
    amp = complex(draw(_SIGNED), draw(st.one_of(st.just(0.0), _SIGNED)))
    return ComplexGaussianTerm(amp, complex(w, 4.0 * w * draw(_SIGNED)))


@st.composite
def _functions(draw):
    """A mixture of one to four terms or its transform, a Hermite
    expansion of degree 0 to 32, odd or even, or g_c at the ends of its
    range and at c = 1."""
    family = draw(st.sampled_from(("mixture", "hermite", "two-scale")))
    if family == "mixture":
        f = GaussianMixture(tuple(draw(st.lists(_terms(), min_size=1, max_size=4))))
        return f.ft() if draw(st.booleans()) else f
    if family == "hermite":
        degree, even = draw(st.integers(0, 32)), draw(st.booleans())
        pairs = draw(st.lists(st.tuples(_SIGNED, _SIGNED), min_size=degree + 1,
                              max_size=degree + 1))
        return HermiteExpansion(tuple(0j if even and n % 2 else complex(*c)
                                      for n, c in enumerate(pairs)))
    return TwoScaleParams(draw(st.sampled_from((1e-150, 1.0, 7e153)))).function


_REQUESTS = st.lists(st.tuples(_functions(), st.lists(st.sampled_from(
    (1.0, 1.001, 1.25, 4.0 / 3.0, 1.5, 2.0, 3.0, 4.0, 6.4, 64.0)),
    min_size=1, max_size=5, unique=True).map(tuple)), min_size=1, max_size=8)


class TestStackedRound:
    """A round evaluates each family of passes in one stacked call; every
    block is bit for bit that of one evaluation per integrand."""

    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(_REQUESTS)
    def test_blocks_match_one_evaluation_per_integrand(self, requests):
        # the seed round, which sets each pass's peak, then a round on the
        # quarters of every other seed panel, with a plain function of x
        # in the same call; the passes of the reference are fresh, so
        # their peaks are set by the reference alone
        plain = lambda x: np.exp(-x * x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stacked = [numerics._Pass(f, e, 1e-10) for f, e in requests]
            alone = [numerics._Pass(f, e, 1e-10) for f, e in requests]
            edges = [p.edges for p in stacked] + [np.array([0.0, 0.5, 2.0])]
            cuts = [numerics._quarters(e[:-1][::2], e[1:][::2]) for e in edges]
            for los, his in (([e[:-1] for e in edges], [e[1:] for e in edges]),
                             ([c[:-1].ravel() for c in cuts], [c[1:].ravel() for c in cuts])):
                got = numerics._gk_panels(stacked + [plain], los, his)
                want = _gk_panels_reference(
                    [partial(_fold_reference, p) for p in alone] + [plain], los, his)
                assert [(b.shape, b.tobytes()) for b in got] == [
                    (b.shape, b.tobytes()) for b in want]
                assert [p.peak.hex() for p in stacked] == [p.peak.hex() for p in alone]
            # each family evaluator at both sides of every seed mesh, against
            # each member's eval and its terms one at a time: the same
            # dtype and bits
            families = {}
            for p, e in zip(stacked, edges):
                families.setdefault(p.f.evaluator, []).append((p.f, np.concatenate((e, -e))))
            for evaluate, members in families.items():
                fs, xs = zip(*members)
                values = evaluate(list(fs), np.concatenate(xs), [x.size for x in xs])
                for alone in ([f.eval(x) for f, x in members],
                              [_alone_reference(f, x) for f, x in members]):
                    assert all(v.dtype == values.dtype for v in alone)
                    assert values.tobytes() == np.concatenate(alone).tobytes()


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
        f = ChirpParams(a).function
        for g in (f, f.ft()):
            yield pytest.param(g, q, lambda g=g, q=q: term_lq_norm(g.terms[0], q),
                               id=f"chirp-a{a}-q{q}-{'ft' if g is not f else 'f'}")


_FAST_CHIRP_MIX = GaussianMixture((ComplexGaussianTerm(1.0, 1.0 + 40.0j),
                                   ComplexGaussianTerm(0.7 - 0.2j, 0.25)))
# One function of a seeded fast-chirp audit, f = (1, w1 + i*b) + (a2, w2).
_AUDIT_CHIRP_MIX = GaussianMixture((
    ComplexGaussianTerm(1.0, complex(0.7097346640066967, 31.546480636050298)),
    ComplexGaussianTerm(complex(-0.43238702211173785, -0.3717322087953956),
                        0.1870697095488409)))

_HARD_CASES = [
    *_chirp_cases(),
    *(pytest.param(TwoScaleParams(c).function, 3.0,
                   lambda c=c: _gc_lq_reference(c, 3.0), id=f"gc-{c:g}-q3")
      for c in (1.0, 1e3, 1e6)),
    # the far end of the two-scale range: widths 1e-306 to 1e306
    *(pytest.param(TwoScaleParams(c).function, float(q),
                   lambda c=c, q=q: _gc_binomial_reference(c, q), id=f"gc-{c:g}-q{q}")
      for c in (1e145, 1e150, 1e153) for q in (2, 3, 4, 6)),
    pytest.param(HermiteExpansion((0.0,) * 32 + (1.0,)), 1.001,
                 lambda: _h32_lq_reference(1.001), id="h32-q1.001"),
    # A fast chirp over a slow Gaussian: |f| oscillates and nearly vanishes
    # near x = 0.36, and fhat decays over a length of about 40.
    *(pytest.param(g, q, lambda g=g, q=q: _mixture_lq_reference(g, q),
                   id=f"chirpmix-q{q:g}-{tag}")
      for tag, g in (("f", _FAST_CHIRP_MIX), ("ft", _FAST_CHIRP_MIX.ft()))
      for q in (3.0, 1.2)),
    # A chirp of rate 31.5 over a wide Gaussian, whose cross term turns
    # about 320 times over [0, 4.5]: on a mesh seeded without its phase,
    # Gauss7 and Kronrod15 alias together on panels spanning several
    # periods (see also test_audit_chirp_meets_tol).
    pytest.param(_AUDIT_CHIRP_MIX, 1.5,
                 lambda: _mixture_lq_reference(_AUDIT_CHIRP_MIX, 1.5),
                 id="chirpmix-b31.5-q1.5-f"),
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
    *(pytest.param(TwoScaleParams(c).function, q,
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

    def test_audit_chirp_meets_tol(self):
        # at tol 1e-8 a mesh seeded without the cross-term phase gave an
        # L^1.5 error 47 times tol, against a 25-digit mpmath reference
        exact = 1.2903068767169366
        for est in (*lq_norm_quad(_AUDIT_CHIRP_MIX, (1.5,), 1e-8),
                    lq_norm_quad(_AUDIT_CHIRP_MIX, (3.0, 1.5), 1e-8)[1]):
            assert abs(est.value - exact) <= min(est.abs_error_estimate, 1e-8 * exact)

    def test_two_scale_l3_estimate_bounds_exact_error(self):
        # ||g_c||_3**3 is the sum of four Gaussian integrals, taken to 40
        # digits, against the tail bound of the per-term majorant
        for c in np.logspace(1.0, 6.0, 30):
            g = TwoScaleParams(float(c)).function
            exact = _gc_binomial_reference(float(c), 3)
            for tol in (1e-8, 1e-10):
                (est,) = lq_norm_quad(g, (3.0,), tol)
                assert abs(est.value - exact) <= min(est.abs_error_estimate, tol * exact)

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
        for dx in (1e308, 1e-320):  # n*dx, then 1/dx, is not finite
            with pytest.raises(ValueError, match=re.escape(f"got {dx!r}") + "$"):
                SampledFunction(16, dx, np.zeros(16, dtype=complex))
        with pytest.raises(ValueError, match=f"from 16 to {MAX_SAMPLES}, got"):
            SampledFunction(2 * MAX_SAMPLES, 0.1, np.zeros(16, dtype=complex))

    def test_sample_checks_grid_before_allocating(self):
        # 2**40 complex values would take 16 TiB: the rule rejects the
        # size before any array of that length exists
        with pytest.raises(ValueError, match=f"from 16 to {MAX_SAMPLES}, got {2**40}$"):
            sample(single(1.0, 1.0), 2**40, 1e-3)

    def test_grids(self):
        s = SampledFunction(16, 0.5, np.zeros(16, dtype=complex))
        assert s.x_grid()[8] == 0.0
        assert s.x_grid()[0] == -4.0
        assert dft_approx(s).dx == pytest.approx(1.0 / 8.0)

    def test_sample_matches_eval(self):
        mix = TwoScaleParams(1.0).function
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
        f = ChirpParams(2.0).function
        s = sample(f, 4096, 0.01)
        hat = dft_approx(s)
        exact = f.ft().eval(hat.x_grid())
        assert np.max(np.abs(hat.samples - exact)) <= 1e-8

    def test_zero_in_zero_out(self):
        s = SampledFunction(32, 0.1, np.zeros(32, dtype=complex))
        assert np.all(dft_approx(s).samples == 0.0)

    def test_error_decreases_as_n_doubles(self):
        f = ChirpParams(2.0).function
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
