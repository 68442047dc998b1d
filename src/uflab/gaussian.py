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

# Chirps closer to the degenerate width a = 1 than this are rejected:
# Re z = a*a - 1 collapses and every L^q norm of the term blows up.
MIN_CHIRP_MARGIN = 1e-6


@dataclass(frozen=True)
class ComplexGaussianTerm:
    """One term ``amplitude * exp(-pi * width * x**2)``, ``Re width > 0``."""

    amplitude: complex
    width: complex

    def __post_init__(self):
        object.__setattr__(self, "amplitude", complex(self.amplitude))
        object.__setattr__(self, "width", complex(self.width))
        if not (
            math.isfinite(self.width.real)
            and math.isfinite(self.width.imag)
            and self.width.real > 0.0
        ):
            raise ValueError(
                f"term width must be finite with positive real part, got {self.width}"
            )
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

    @property
    def amp_abs_sum(self) -> float:
        return sum(abs(t.amplitude) for t in self.terms)

    @property
    def width_floor(self) -> float:
        return min(t.width.real for t in self.terms)

    def envelope(self):
        """(amplitude sum, width floor, center shift) majorizing |f|."""
        return (self.amp_abs_sum, self.width_floor, 0.0)

    def scales(self):
        """Decay length 1/sqrt(Re z) of each term, ascending."""
        return tuple(sorted(1.0 / math.sqrt(t.width.real) for t in self.terms))

    def ft(self) -> "GaussianMixture":
        """Exact transform, term by term; applying it twice reproduces an
        even input exactly."""
        return GaussianMixture(tuple(t.ft() for t in self.terms))

    def l2_norm(self) -> float:
        """Exact L^2 norm from pairwise Gaussian integrals."""
        acc = 0.0 + 0.0j
        for tj in self.terms:
            for tk in self.terms:
                w = tj.width + tk.width.conjugate()
                acc += tj.amplitude * tk.amplitude.conjugate() / cmath.sqrt(w)
        return math.sqrt(max(acc.real, 0.0))


@dataclass(frozen=True)
class ChirpParams:
    """Parameter of the chirp family; requires ``a > 1 + MIN_CHIRP_MARGIN``."""

    a: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and self.a > 1.0 + MIN_CHIRP_MARGIN):
            raise ValueError(
                f"chirp parameter must exceed 1 + {MIN_CHIRP_MARGIN:g} "
                f"(degenerate width otherwise), got {self.a}"
            )

    @property
    def t(self) -> float:
        """Squared parameter; closed forms and sweeps are stated in t."""
        return self.a * self.a

    @classmethod
    def from_t(cls, t: float) -> "ChirpParams":
        if not (math.isfinite(t) and t > 1.0):
            raise ValueError(f"t must be finite and > 1, got {t}")
        return cls(math.sqrt(t))


@dataclass(frozen=True)
class TwoScaleParams:
    """Parameter of the self-dual two-scale family: any ``c > 0`` whose
    widths ``c*c`` and ``1/(c*c)`` are both finite positive floats."""

    c: float

    def __post_init__(self):
        w = self.c * self.c
        if not (self.c > 0.0 and 0.0 < w < math.inf and 1.0 / w < math.inf):
            raise ValueError(f"two-scale parameter needs c > 0 with finite positive "
                             f"c*c and 1/(c*c), got {self.c}")


def make_chirp(params: ChirpParams) -> ComplexGaussianTerm:
    a = params.a
    return ComplexGaussianTerm(1.0, complex(a * a - 1.0, 2.0 * a))


def make_two_scale(params: TwoScaleParams) -> GaussianMixture:
    c = params.c
    wide = ComplexGaussianTerm(c ** -0.5, 1.0 / (c * c))
    narrow = ComplexGaussianTerm(c ** 0.5, c * c)
    return GaussianMixture((wide, narrow))


def term_lq_norm(term: ComplexGaussianTerm, q: float) -> float:
    """Closed-form L^q norm |A| * (q * Re z)**(-1/(2q)) of a single term."""
    if not (math.isfinite(q) and q >= 1.0):
        raise ValueError(f"norm exponent must be finite and >= 1, got {q}")
    return abs(term.amplitude) * (q * term.width.real) ** (-0.5 / q)


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
