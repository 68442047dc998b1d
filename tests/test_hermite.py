"""Hermite eigenbasis and the random test-function generator."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from uflab.functionals import norms
from uflab.gaussian import GaussianMixture
from uflab.hermite import L2_REJECT_FLOOR, N_MAX, HermiteExpansion, random_schwartz
from uflab.numerics import dft_approx, lq_norm_quad, sample


def basis(n, x):
    """h_n at x: the expansion with unit coefficient vector e_n.  Its
    values are real, and the real part is the recurrence row itself."""
    return HermiteExpansion((0.0,) * n + (1.0,)).eval(x).real


class TestHermiteEval:
    def test_h0_is_normalized_gaussian(self):
        # h_0(x) = 2^{1/4} e^{-pi x^2}
        assert basis(0, 0.0) == pytest.approx(2.0 ** 0.25, rel=1e-12)
        assert basis(0, 0.3) == pytest.approx(0.8963211143301847, rel=1e-12)

    def test_h1_odd(self):
        assert basis(1, 0.0) == pytest.approx(0.0, abs=1e-14)
        x = np.linspace(0.1, 2.0, 7)
        np.testing.assert_allclose(
            basis(1, -x), -basis(1, x), rtol=1e-13
        )

    def test_h2_value(self):
        # factorial-form oracle H_2(sqrt(2 pi) x) e^{-pi x^2} normalized
        assert basis(2, 0.7) == pytest.approx(0.9303345362048063, rel=1e-11)

    def test_degree_cap(self):
        # the top row h_{N_MAX} is reachable and finite; one past it is not
        assert np.isfinite(basis(N_MAX, 0.5))
        with pytest.raises(ValueError):
            basis(N_MAX + 1, 0.5)

    @pytest.mark.parametrize("n", range(N_MAX + 1))
    def test_unit_l2_norm(self, n):
        val, _ = quad(lambda x: basis(n, x) ** 2, -np.inf, np.inf, limit=200)
        assert val == pytest.approx(1.0, rel=1e-9)

    def test_orthogonality_gram_matrix(self):
        # Gram matrix of h_0..h_8 is the identity within 1e-8 per entry
        xs, ws = np.polynomial.legendre.leggauss(600)
        lo, hi = -6.0, 6.0
        x = 0.5 * (hi - lo) * xs + 0.5 * (hi + lo)
        w = 0.5 * (hi - lo) * ws
        rows = np.array([basis(n, x) for n in range(9)])
        gram = (rows * w) @ rows.T
        np.testing.assert_allclose(gram, np.eye(9), atol=1e-8)

    def test_sup_bound(self):
        # classical uniform bound: |h_n| <= 2^{1/4}
        x = np.linspace(-8.0, 8.0, 4001)
        for n in (0, 3, 12, 32):
            assert np.max(np.abs(basis(n, x))) <= 2.0 ** 0.25 + 1e-12


def ft_coeffs(coefficients):
    return HermiteExpansion(coefficients).ft().coefficients


class TestFtCoeffs:
    def test_eigenvalues_cycle(self):
        assert ft_coeffs((1.0,)) == (1.0 + 0.0j,)
        assert ft_coeffs((0.0, 1.0)) == (0.0j, -1.0j)
        got = ft_coeffs((1.0, 1.0, 1.0, 1.0, 1.0))
        assert got == (1.0 + 0j, -1j, -1.0 + 0j, 1j, 1.0 + 0j)

    def test_fourth_power_is_identity(self):
        rng = np.random.default_rng(5)
        coeffs = tuple(complex(a, b) for a, b in rng.uniform(-1, 1, (6, 2)))
        out = coeffs
        for _ in range(4):
            out = ft_coeffs(out)
        np.testing.assert_allclose(np.asarray(out), np.asarray(coeffs), rtol=1e-15)


class TestExpansion:
    def test_parseval(self):
        f = HermiteExpansion((1.0, 0.5j, -0.25))
        (quad_l2,) = lq_norm_quad(f, (2.0,), 1e-10)
        (l2,) = norms(f, (2.0,), 1e-10)
        assert l2.method == "closed-form"
        assert l2.value == pytest.approx(quad_l2.value, rel=1e-8)

    def test_degree_cap(self):
        HermiteExpansion(tuple([0.0] * N_MAX + [1.0])).eval(0.5)
        with pytest.raises(ValueError):
            HermiteExpansion(tuple([0.0] * (N_MAX + 1) + [1.0]))
        with pytest.raises(ValueError):
            HermiteExpansion(())  # no degree below 0

    def test_eval_linear_combination(self):
        f = HermiteExpansion((2.0, 0.0, -1.0))
        x = np.linspace(-2, 2, 9)
        expected = 2.0 * basis(0, x) - basis(2, x)
        np.testing.assert_allclose(f.eval(x), expected, rtol=1e-12)

    def test_ft_matches_dft_oracle(self):
        # quadrature L^q norms of the analytic transform agree with the
        # Riemann sum over the discrete-Fourier samples within 1e-6
        # relative, degree <= 8
        f = HermiteExpansion((0.8, -0.3j, 0.0, 0.5, 0.0, 0.0, 0.0, 0.2, 0.1j))
        fhat = f.ft()
        s = sample(f, 1024, 0.02)
        hat_grid = dft_approx(s)
        for q in (1.5, 2.0, 3.0):
            (analytic,) = lq_norm_quad(fhat, (q,), 1e-9)
            discrete = (hat_grid.dx * np.sum(np.abs(hat_grid.samples) ** q)) ** (1.0 / q)
            assert analytic.value == pytest.approx(discrete, rel=1e-6)

    def test_ft_pointwise_against_dft(self):
        f = HermiteExpansion((0.5, 0.25, -0.7, 0.0, 0.3))
        hat = dft_approx(sample(f, 1024, 0.02))
        exact = f.ft().eval(hat.x_grid())
        assert np.max(np.abs(hat.samples - exact)) < 1e-9

    def test_norm_oracles(self):
        h1 = HermiteExpansion((0.0, 1.0))
        assert lq_norm_quad(h1, (4.0,), 1e-10)[0].value == pytest.approx(
            0.9306048591020997, rel=1e-9
        )
        assert lq_norm_quad(h1, (1.5,), 1e-10)[0].value == pytest.approx(
            1.084864613886606, rel=1e-9
        )
        h3 = HermiteExpansion((0.0, 0.0, 0.0, 1.0))
        assert lq_norm_quad(h3, (3.0,), 1e-10)[0].value == pytest.approx(
            0.9034269160116104, rel=1e-9
        )

    def test_even_when_odd_degrees_vanish(self):
        # h_n has the parity of n, to the bit
        x = np.linspace(0.0, 6.0, 601)
        for coeffs, even in (((1.0, 0.0, 0.0, 0.0, 1.0), True),
                             ((0.5j, -0.0, 2.0, 0j), True),
                             ((1.0, 1.0), False), ((0.0, 1.0), False),
                             ((1.0, 0.0, 0.0, 1e-300), False)):
            f = HermiteExpansion(coeffs)
            assert f.is_even() is even
            if even:
                np.testing.assert_array_equal(np.abs(f.eval(-x)), np.abs(f.eval(x)))

    def test_envelope_dominates_tail(self):
        # envelope() certifies |f| <= amp * exp(-pi*width*(|x|-shift)**2)
        # beyond the classical turning point (and amp inside it).  Without
        # its safety factor 2 the bound is already tight to rounding for
        # every basis function, so this holds with a 2x margin.
        x = np.linspace(0.0, 12.0, 2401)
        for n in range(N_MAX + 1):
            f = HermiteExpansion((0.0,) * n + (1.0,))
            amp, width, shift = f.envelope()
            bound = amp * np.exp(-math.pi * width * np.maximum(x - shift, 0.0) ** 2)
            assert np.all(np.abs(f.eval(x)) <= bound), n
        f = HermiteExpansion(tuple([0.1] * 9))
        amp, width, shift = f.envelope()
        x = np.linspace(shift, shift + 6.0, 300)
        bound = amp * np.exp(-math.pi * width * (x - shift) ** 2)
        assert np.all(np.abs(f.eval(x)) <= bound + 1e-12)


class TestRandomSchwartz:
    def test_deterministic(self):
        args = ("gaussian-mixture", 3, 42)
        f1, f2 = random_schwartz(*args), random_schwartz(*args)
        assert f1 == f2

    def test_families(self):
        f = random_schwartz("gaussian-mixture", 2, seed=0)
        assert isinstance(f, GaussianMixture)
        g = random_schwartz("hermite", 4, seed=0)
        assert isinstance(g, HermiteExpansion)

    def test_l2_floor(self):
        for seed in range(20):
            f = random_schwartz("gaussian-mixture", 3, seed=seed)
            assert lq_norm_quad(f, (2.0,), 1e-8)[0].value >= 1e-6
            g = random_schwartz("hermite", 5, seed=seed)
            assert norms(g, (2.0,), 1e-8)[0].value >= 1e-6

    def test_chirp_magnitude_bounded(self):
        # |Im z| <= 4 Re z keeps transformed widths off the axis
        for seed in range(30):
            f = random_schwartz("gaussian-mixture", 4, seed=seed)
            for term in f.terms:
                assert abs(term.width.imag) <= 4.0 * term.width.real + 1e-12

    def test_widths_in_scale_range(self):
        for seed in range(10):
            f = random_schwartz("gaussian-mixture", 4, seed=seed)
            for term in f.terms:
                assert 0.2 <= term.width.real <= 5.0

    def test_hermite_draws_match_scalar_draws(self):
        # the reference: one scalar draw each for the real and the
        # imaginary part of every coefficient, redrawn below the L^2 floor
        for seed in range(50):
            for size in range(1, 10):
                rng = np.random.default_rng(seed)
                while True:
                    f = HermiteExpansion(tuple(
                        complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
                        for _ in range(size + 1)))
                    if (f.envelope()[0] * math.sqrt(max(sum(f.power_parts(1)).real, 0.0))
                            >= L2_REJECT_FLOOR):
                        break
                assert random_schwartz("hermite", size, seed) == f
                # one array draw leaves the generator where the scalar
                # draws do, so a redraw starts from the same state
                one = np.random.default_rng(seed)
                pairs = one.uniform(-1.0, 1.0, size=2 * (size + 1)).reshape(-1, 2).tolist()
                scalar = np.random.default_rng(seed)
                assert [complex(re, im) for re, im in pairs] == [
                    complex(scalar.uniform(-1.0, 1.0), scalar.uniform(-1.0, 1.0))
                    for _ in range(size + 1)]
                assert one.bit_generator.state == scalar.bit_generator.state

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            random_schwartz("unknown", 2, seed=0)
        with pytest.raises(ValueError):
            random_schwartz("hermite", 0, seed=0)
        with pytest.raises(ValueError):
            random_schwartz("hermite", N_MAX + 1, seed=0)
