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
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .numerics import check_exponent, spread

# Chirps closer to the degenerate width a = 1 than this are rejected:
# Re z = a*a - 1 collapses and every L^q norm of the term blows up.
MIN_CHIRP_MARGIN = 1e-6

# Most terms GaussianMixture.power_parts expands into for m > 1.  The
# cap counts parts, not cost: on a 2-vCPU Xeon, g_c (c = 3) at q = 64
# has 561 parts, which take 1.2 ms against 0.09 ms for quadrature of its
# L^64 norm at tol 1e-8, while a four-term complex mixture has 136 at
# q = 4 (0.06 ms against 0.17 ms) and 490,314 at q = 16.
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
        """The term at x: the one-term mixture's value."""
        return GaussianMixture((self,)).eval(x)

    def ft(self) -> "ComplexGaussianTerm":
        """Exact transform ``(A/sqrt(z), 1/z)``."""
        # Principal branch keeps Re sqrt(z) > 0, so 1/z stays admissible.
        root = cmath.sqrt(self.width)
        return ComplexGaussianTerm(self.amplitude / root, 1.0 / self.width)


@dataclass(frozen=True)
class GaussianMixture:
    """Finite sum of :class:`ComplexGaussianTerm`, evaluated pointwise;
    the sum of its amplitudes' moduli, the envelope amplitude, must be
    finite.

    Terms are kept unaggregated even when widths coincide, so a mixture
    round-trips through the Fourier transform term by term.
    """

    terms: tuple[ComplexGaussianTerm, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.terms:
            raise ValueError("mixture needs at least one term")
        if not math.isfinite(self._origin_envelope[0]):
            raise ValueError("mixture amplitude sum (envelope amplitude) must be finite")

    def eval(self, x):
        """The mixture at an array x of any shape: its evaluator's batch of
        one."""
        x = np.asarray(x)
        return self.evaluator([self], x.ravel(), [x.size]).reshape(x.shape)

    @property
    def evaluator(self) -> "MixtureEvaluator":
        """The evaluator of every mixture whose terms have the kinds of
        this one's, in order."""
        return MixtureEvaluator(tuple(kind for kind, _, _ in self._kernels))

    @cached_property
    def _kernels(self):
        """``(kind, coefficient, amplitude)`` of each term, whose value is
        ``amplitude * exp(coefficient * x * x)``: in real arithmetic for a
        real width, and as a real array for a real amplitude too; computed
        once, since the terms are frozen."""
        kernels = []
        for t in self.terms:
            if t.width.imag != 0.0:
                kernels.append(("complex width", -math.pi * t.width, t.amplitude))
            elif t.amplitude.imag != 0.0:
                kernels.append(("real width", -math.pi * t.width.real, t.amplitude))
            else:
                kernels.append(("real", -math.pi * t.width.real, t.amplitude.real))
        return tuple(kernels)

    def envelope(self, radius=0.0):
        """(S, w, 0.0) with |f(x)| <= S * exp(-pi*w*x*x) for |x| >= radius:
        w the smallest Re z_j and S = sum |A_j| * exp(-pi*(Re z_j - w) *
        radius**2), each term's excess decay taken at the radius.  At
        radius 0, S is the amplitude sum."""
        if not radius:
            return self._origin_envelope
        floor = self._origin_envelope[1]
        # radius*radius may overflow; (rate*radius)*radius keeps a zero
        # rate at 0 where rate*inf would be nan
        return (sum(abs(t.amplitude)
                    * math.exp(-(math.pi * (t.width.real - floor) * radius) * radius)
                    for t in self.terms), floor, 0.0)

    @cached_property
    def _origin_envelope(self):
        """envelope() at radius 0, where every excess-decay factor is
        exp(-0.0) = 1; computed once, since the terms are frozen."""
        return (sum(abs(t.amplitude) for t in self.terms),
                min(t.width.real for t in self.terms), 0.0)

    def is_even(self):
        """True: every term is even in x."""
        return True

    def scales(self):
        """Decay length 1/sqrt(Re z) of each term, ascending."""
        return tuple(sorted(1.0 / math.sqrt(t.width.real) for t in self.terms))

    def cross_phases(self):
        """(|Im z_j - Im z_k|, Re z_j + Re z_k) of each pair of terms whose
        widths differ in imaginary part: the rate of the phase
        pi*rate*x**2 of their cross term in |f|**2, and the width of its
        envelope."""
        return tuple((abs(s.width.imag - t.width.imag), s.width.real + t.width.real)
                     for i, s in enumerate(self.terms) for t in self.terms[i + 1:]
                     if s.width.imag != t.width.imag)

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
        ``B * exp(-pi*w*x**2)`` integrates to ``B/sqrt(w)``.  None when a
        sum of m widths could overflow, or when m > 1 and there would be
        more than ``MAX_POWER_PARTS`` terms; at m = 1 the parts are the
        merged pairwise products themselves, already built, so the cap
        saves no work there.
        """
        scale = self.envelope()[0] or 1.0
        amps = [t.amplitude / scale for t in self.terms]
        merged: dict[complex, complex] = {}
        for tj, aj in zip(self.terms, amps):
            for tk, ak in zip(self.terms, amps):
                w = tj.width + tk.width.conjugate()
                merged[w] = merged.get(w, 0j) + aj * ak.conjugate()
        if ((m > 1 and math.comb(len(merged) + m - 1, m) > MAX_POWER_PARTS)
                or not all(cmath.isfinite(m * w) for w in merged)):
            return None
        widths, amps = tuple(merged), tuple(merged.values())
        # Each multiset's amplitude and width sum grow from its prefix's:
        # the width sum is a left fold from int 0, as sum() runs it.
        power, width_sums = [1.0 + 0.0j], [0]
        for level in _multiset_plan(len(widths), m):
            power, width_sums = (
                [power[p] * amps[i] * length / count for p, i, length, count in level],
                [width_sums[p] + widths[i] for p, i, _, _ in level])
        return tuple(amp / cmath.sqrt(w) for amp, w in zip(power, width_sums))


@dataclass(frozen=True)
class MixtureEvaluator:
    """Values of many mixtures in one array pass, for mixtures whose terms
    have the kinds ``kinds`` in order (see ``GaussianMixture._kernels``),
    so that each term keeps the real or complex ``exp`` of its kind."""

    kinds: tuple[str, ...]

    def __call__(self, fs, x, counts):
        """``fs[i]`` at its ``counts[i]`` consecutive points of the flat
        array x, concatenated in order.  Term j of every mixture is
        evaluated at once, its coefficient and amplitude spread over its
        mixture's points, and the terms are summed in order, so each
        point's value is bit for bit that of its mixture alone."""
        acc = None
        # Far out on a very wide or very narrow term the exponent
        # overflows to -inf, and exp(-inf) = 0 is the term's value.
        with np.errstate(over="ignore"):
            for j in range(len(self.kinds)):
                _, coef, amp = zip(*(f._kernels[j] for f in fs))
                # amplitude * exp((coefficient * x) * x), each product in
                # the order written: a complex product rounds by its
                # operands' order
                arg = spread(coef, counts) * x
                arg *= x
                values = np.multiply(spread(amp, counts), np.exp(arg, out=arg))
                acc = values if acc is None else acc + values
        return acc


@lru_cache
def _multiset_plan(n: int, m: int) -> tuple[tuple[tuple[int, int, int, int], ...], ...]:
    """How the multisets of m indices in range(n) grow, level by level:
    each nondecreasing index tuple of length L + 1 is its prefix of
    length L with one index i appended.  Level L + 1 lists, in the order
    prefix then i ascending, ``(prefix position in level L, i, L + 1,
    multiplicity of i in the prefix + 1)``; appending i multiplies the
    multinomial count of orderings by the third over the fourth."""
    keys, plan = [()], []
    for _ in range(m):
        level = tuple((p, i, len(key) + 1, key.count(i) + 1)
                      for p, key in enumerate(keys)
                      for i in range(key[-1] if key else 0, n))
        keys = [keys[p] + (i,) for p, i, _, _ in level]
        plan.append(level)
    return tuple(plan)


@dataclass(frozen=True)
class ChirpParams:
    """Parameter of the chirp family: ``a > 1 + MIN_CHIRP_MARGIN`` whose
    term, of width ``(a*a-1) + 2*i*a``, is valid, which holds up to about
    7.56e153.  ``function`` is that term as a one-term mixture, built
    once and left out of ``repr`` and ``==``."""

    a: float
    function: GaussianMixture = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = self.a
        if not a > 1.0 + MIN_CHIRP_MARGIN:
            raise ValueError(f"chirp parameter must exceed 1 + {MIN_CHIRP_MARGIN:g} "
                             f"(degenerate width otherwise), got {a}")
        term = ComplexGaussianTerm(1.0, complex(a * a - 1.0, 2.0 * a))
        object.__setattr__(self, "function", GaussianMixture((term,)))

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
    [1.32e-154, 7.56e153].  ``function`` is g_c, built once and left out
    of ``repr`` and ``==``."""

    c: float
    function: GaussianMixture = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        c = self.c
        message = (f"two-scale parameter needs c > 0 with finite "
                   f"pi*c*c and pi/(c*c), got {c}")
        if not c > 0.0:
            raise ValueError(message)
        # The narrow term first: its width check rejects a c*c that
        # underflows to 0 before 1/(c*c) divides by it.
        try:
            narrow = ComplexGaussianTerm(c ** 0.5, c * c)
            wide = ComplexGaussianTerm(c ** -0.5, 1.0 / (c * c))
        except ValueError:
            raise ValueError(message) from None
        object.__setattr__(self, "function", GaussianMixture((wide, narrow)))


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
