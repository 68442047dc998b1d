"""Exact algebra of centered Gaussians with complex width.

A term is ``A * exp(-pi*z*x**2)`` with ``Re z > 0``.  Finite sums of such
terms are closed under the Fourier transform

    fhat(xi) = integral f(x) * exp(-2*pi*i*x*xi) dx,

which sends a term ``(A, z)`` to ``(A/sqrt(z), 1/z)`` (principal square
root), and every L^q norm of a single term has a closed form.  Two
parametric families built from these terms drive all experiments here:

* the quadratic chirp ``exp(-pi*(a*a-1)*x**2) * exp(-2*pi*i*a*x**2)``
  for ``a > 1``: a single term of width ``(a*a-1) + 2*i*a = (a+i)**2``,
  whose uncertainty ratio sweeps out every positive value as ``a`` moves;
* the two-scale sum ``c**-0.5 * exp(-pi*x**2/c**2) + c**0.5 *
  exp(-pi*c**2*x**2)`` for ``c > 0``, which is its own transform.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .numerics import check_exponent

# Chirps closer to the degenerate width a = 1 than this are rejected:
# Re z = a*a - 1 collapses and every L^q norm of the term blows up.
MIN_CHIRP_MARGIN = 1e-6

# Most terms GaussianMixture.power_parts expands into, so that the
# expansion stays cheaper than quadrature: g_c at q = 64 has 561 (0.15 ms
# against 0.7 ms), a four-term complex mixture has 136 at q = 4 and
# 490,314 at q = 16.
MAX_POWER_PARTS = 1000


@dataclass(frozen=True)
class ComplexGaussianTerm:
    """One term ``amplitude * exp(-pi * width * x**2)``, ``Re width > 0``
    and ``pi * Re width`` finite; the family parameters build theirs."""

    amplitude: complex
    width: complex

    def __post_init__(self):
        object.__setattr__(self, "amplitude", complex(self.amplitude))
        object.__setattr__(self, "width", complex(self.width))
        if not (math.isfinite(math.pi * self.width.real)
                and math.isfinite(self.width.imag) and self.width.real > 0.0):
            raise ValueError(f"term width needs Re width > 0 with pi*Re width and "
                             f"Im width finite, got {self.width}")
        if not (
            math.isfinite(self.amplitude.real) and math.isfinite(self.amplitude.imag)
        ):
            raise ValueError("term amplitude must be finite")

    def eval(self, x):
        x = np.asarray(x)
        return self.amplitude * np.exp(-math.pi * self.width * x * x)

    def ft(self) -> "ComplexGaussianTerm":
        """Exact transform ``(A/sqrt(z), 1/z)``."""
        # Principal branch keeps Re sqrt(z) > 0, so 1/z stays admissible.
        root = cmath.sqrt(self.width)
        return ComplexGaussianTerm(self.amplitude / root, 1.0 / self.width)


@dataclass(frozen=True)
class GaussianMixture:
    """Finite sum of :class:`ComplexGaussianTerm`, evaluated pointwise.

    Terms are kept unaggregated even when widths coincide, so a mixture
    round-trips through the Fourier transform term by term.
    """

    terms: tuple[ComplexGaussianTerm, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.terms:
            raise ValueError("mixture needs at least one term")

    def eval(self, x):
        x = np.asarray(x)
        acc = self.terms[0].eval(x)
        for term in self.terms[1:]:
            acc = acc + term.eval(x)
        return acc

    def envelope(self):
        """(amplitude sum, width floor, center shift) majorizing |f|."""
        return (sum(abs(t.amplitude) for t in self.terms),
                min(t.width.real for t in self.terms), 0.0)

    def scales(self):
        """Decay length 1/sqrt(Re z) of each term, ascending."""
        return tuple(sorted(1.0 / math.sqrt(t.width.real) for t in self.terms))

    def ft(self) -> "GaussianMixture":
        """Exact transform, term by term; applying it twice reproduces an
        even input exactly."""
        return GaussianMixture(tuple(t.ft() for t in self.terms))

    def power_parts(self, m: int) -> tuple[complex, ...] | None:
        """Integrals of the terms of ``(g * conj(g))**m`` for ``g = f/S``,
        ``S = envelope()[0]``; they sum to the integral of ``|f/S|**(2m)``,
        which no common factor of f's amplitudes can overflow or underflow.

        The pairwise products ``a_j * conj(a_k) * exp(-pi*(z_j +
        conj(z_k))*x**2)``, ``a = A/S``, are merged by width.  The m-th
        power of their sum has one term per multiset of m merged widths,
        with the multinomial count of its orderings, and each term
        ``B * exp(-pi*w*x**2)`` integrates to ``B/sqrt(w)``.  None when
        there would be more than ``MAX_POWER_PARTS`` terms or a sum of m
        widths could overflow.
        """
        scale = self.envelope()[0] or 1.0
        amps = [t.amplitude / scale for t in self.terms]
        merged: dict[complex, complex] = {}
        for tj, aj in zip(self.terms, amps):
            for tk, ak in zip(self.terms, amps):
                w = tj.width + tk.width.conjugate()
                merged[w] = merged.get(w, 0j) + aj * ak.conjugate()
        if (math.comb(len(merged) + m - 1, m) > MAX_POWER_PARTS
                or not all(cmath.isfinite(m * w) for w in merged)):
            return None
        widths, amps = tuple(merged), tuple(merged.values())
        # Each multiset is a nondecreasing index tuple, grown once from
        # its prefix; appending index i multiplies the multinomial count
        # by (length + 1) / (multiplicity of i + 1).
        power = {(): 1.0 + 0.0j}
        for _ in range(m):
            power = {key + (i,): amp * amps[i] * (len(key) + 1) / (key.count(i) + 1)
                     for key, amp in power.items()
                     for i in range(key[-1] if key else 0, len(widths))}
        return tuple(amp / cmath.sqrt(sum(widths[i] for i in key))
                     for key, amp in power.items())


@dataclass(frozen=True)
class ChirpParams:
    """Parameter of the chirp family: ``a > 1 + MIN_CHIRP_MARGIN`` whose
    term is valid, which holds up to about 7.56e153."""

    a: float

    def __post_init__(self):
        if not self.a > 1.0 + MIN_CHIRP_MARGIN:
            raise ValueError(f"chirp parameter must exceed 1 + {MIN_CHIRP_MARGIN:g} "
                             f"(degenerate width otherwise), got {self.a}")
        make_chirp(self)

    @classmethod
    def from_t(cls, t: float) -> "ChirpParams":
        """The chirp with a*a = t, the variable of closed forms and sweeps."""
        if not (math.isfinite(t) and t > 1.0):
            raise ValueError(f"t must be finite and > 1, got {t}")
        return cls(math.sqrt(t))


@dataclass(frozen=True)
class TwoScaleParams:
    """Parameter of the self-dual two-scale family: any ``c > 0`` whose
    two terms, of widths ``1/(c*c)`` and ``c*c``, are valid; about
    [1.32e-154, 7.56e153]."""

    c: float

    def __post_init__(self):
        message = (f"two-scale parameter needs c > 0 with finite "
                   f"pi*c*c and pi/(c*c), got {self.c}")
        # c*c > 0 keeps 1/(c*c) in make_two_scale from dividing by zero
        if not (self.c > 0.0 and self.c * self.c > 0.0):
            raise ValueError(message)
        try:
            make_two_scale(self)
        except ValueError as exc:
            raise ValueError(message) from exc


def make_chirp(params: ChirpParams) -> ComplexGaussianTerm:
    a = params.a
    return ComplexGaussianTerm(1.0, complex(a * a - 1.0, 2.0 * a))


def make_two_scale(params: TwoScaleParams) -> GaussianMixture:
    c = params.c
    wide = ComplexGaussianTerm(c ** -0.5, 1.0 / (c * c))
    narrow = ComplexGaussianTerm(c ** 0.5, c * c)
    return GaussianMixture((wide, narrow))


def term_lq_norm(term: ComplexGaussianTerm, q: float) -> float:
    """Closed-form L^q norm |A| * (q * Re z)**(-1/(2q)) of a single term;
    the two factors are raised apart only where q * Re z overflows."""
    check_exponent(q)
    w, e = term.width.real, -0.5 / q
    return abs(term.amplitude) * ((q * w) ** e if q * w < math.inf else q ** e * w ** e)


def _check_fq_exponents(q: float, p: float | None = None):
    if not (math.isfinite(q) and q > 1.0):
        raise ValueError(f"q must be finite and > 1, got {q}")
    if p is not None:
        if not (math.isfinite(p) and p > q):
            raise ValueError(f"p must be finite and > q = {q}, got {p}")


def _chirp_ratio(t: float, q: float, p: float) -> float:
    """(1/q)**(1/q) / (1/p)**(1/p) * ((t+1)/(t-1))**(1/q - 1/p), the ratio
    ||f||_q ||fhat||_q / (||f||_p ||fhat||_p) of the chirp with t = a*a."""
    ratio = (t + 1.0) / (t - 1.0)
    return (1.0 / q) ** (1.0 / q) / (1.0 / p) ** (1.0 / p) * ratio ** (1.0 / q - 1.0 / p)


def closed_form_Fq_chirp(a: float, q: float) -> float:
    """Uncertainty ratio of the chirp: sqrt(2) * (1/q)**(1/q) *
    ((t+1)/(t-1))**(1/q - 1/2) with t = a*a.

    Increasing in t for q > 2 and decreasing for q < 2; the t -> inf
    limit sqrt(2) * q**(-1/q) is the value of the plain Gaussian.
    """
    ChirpParams(a)
    _check_fq_exponents(q)
    return _chirp_ratio(a * a, q, 2.0)


def closed_form_Fqp_chirp(a: float, q: float, p: float) -> float:
    """Two-exponent ratio of the chirp, stated for p > q."""
    ChirpParams(a)
    _check_fq_exponents(q, p)
    return _chirp_ratio(a * a, q, p)
