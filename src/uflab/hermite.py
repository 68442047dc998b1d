"""Fourier eigenbasis and seeded random test functions.

The basis functions h_n(x) are the L^2-normalized Hermite functions in
the scaling that makes them eigenvectors of the transform used here:
h_n = kappa_n * H_n(sqrt(2*pi)*x) * exp(-pi*x**2) with
hat(h_n) = (-i)**n * h_n.  They are generated by the stable normalized
three-term recurrence, which gives every degree the L^2 norm of its
seed; seeding it with the normalized h_0 = 2**0.25 * exp(-pi*x**2)
therefore normalizes all degrees with one constant instead of a
factorial kappa_n.  The test suite checks ||h_n||_2 = 1 for every degree
against independent quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import ComplexGaussianTerm, GaussianMixture
from .numerics import spread

N_MAX = 32
_SQRT_2PI = math.sqrt(2.0 * math.pi)
# Peak of h_0, which is also the uniform sup bound for the normalized
# basis: |h_n(x)| <= 2**0.25.  The extra factor 2 makes the envelope
# used for tail truncation safely conservative beyond the classical
# turning point.
_SUP_BOUND = 2.0 ** 0.25
_ENVELOPE_SAFETY = 2.0


def _basis_rows(nmax: int, y: np.ndarray):
    """Yield h_0..h_nmax at x = y/sqrt(2*pi), by the normalized recurrence
    seeded with h_0, holding two rows at a time."""
    y = np.asarray(y, dtype=float)
    prev = np.zeros_like(y)
    cur = _SUP_BOUND * np.exp(-0.5 * y * y)
    for n in range(nmax + 1):
        yield cur
        if n < nmax:
            prev, cur = cur, (
                math.sqrt(2.0 / (n + 1)) * y * cur
                - math.sqrt(n / (n + 1.0)) * prev
            )


@dataclass(frozen=True)
class HermiteExpansion:
    """Finite expansion sum(c_n * h_n); degree at most N_MAX, with a
    finite envelope amplitude."""

    coefficients: tuple[complex, ...]

    def __post_init__(self):
        coeffs = tuple(complex(c) for c in self.coefficients)
        object.__setattr__(self, "coefficients", coeffs)
        if not coeffs:
            raise ValueError("expansion needs at least one coefficient")
        if len(coeffs) - 1 > N_MAX:
            raise ValueError(f"degree {len(coeffs) - 1} exceeds cap {N_MAX}")
        if not math.isfinite(self.envelope()[0]):
            raise ValueError("expansion envelope amplitude (from sum |c_n|) must be finite")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def eval(self, x):
        """The expansion at an array x of any shape: its evaluator's batch
        of one."""
        x = np.asarray(x, dtype=float)
        return self.evaluator([self], x.ravel(), [x.size]).reshape(x.shape)

    @staticmethod
    def evaluator(fs, x, counts):
        """``fs[i]`` at its ``counts[i]`` consecutive points of the flat
        array x, concatenated in order, in one pass of the recurrence to
        the largest degree among them.  A lower degree is padded with
        zero coefficients, whose products add ±0 to sums that start at
        +0 and so are never -0: each point's value is bit for bit that of
        its expansion alone."""
        degree = max(f.degree for f in fs)
        coefficients = np.zeros((degree + 1, len(fs)), dtype=complex)
        for i, f in enumerate(fs):
            coefficients[:f.degree + 1, i] = f.coefficients
        y = _SQRT_2PI * np.asarray(x, dtype=float)
        acc = np.zeros(y.shape, dtype=complex)
        for c, row in zip(coefficients, _basis_rows(degree, y)):
            acc += spread(c, counts) * row
        return acc

    def ft(self) -> "HermiteExpansion":
        """Exact transform c_n -> (-i)**n * c_n; the factors cycle through
        1, -i, -1, i, so four applications reproduce the input exactly."""
        cycle = (1.0 + 0.0j, -1.0j, -1.0 + 0.0j, 1.0j)
        return HermiteExpansion(tuple(cycle[n % 4] * c
                                      for n, c in enumerate(self.coefficients)))

    def power_parts(self, m: int) -> tuple[float, ...] | None:
        """Parts summing to the integral of ``|f/S|**(2m)``, ``S =
        envelope()[0]``: ``|c_n/S|**2`` for m = 1, by orthonormality of
        the basis; None for m > 1, which has no expansion here."""
        if m != 1:
            return None
        scale = self.envelope()[0] or 1.0
        return tuple(abs(c / scale) ** 2 for c in self.coefficients)

    def envelope(self, radius=0.0):
        """(S, 1.0, shift): |f| <= S, and |f(x)| <= S * exp(-pi*(|x|-shift)**2)
        for |x| >= shift, at any radius; the radius is not used."""
        amp = _ENVELOPE_SAFETY * _SUP_BOUND * sum(abs(c) for c in self.coefficients)
        shift = math.sqrt((2 * self.degree + 1) / (2.0 * math.pi))
        return (amp, 1.0, shift)

    def is_even(self):
        """True when every odd-degree coefficient is 0: h_n has the
        parity of n."""
        return not any(self.coefficients[1::2])

    def scales(self):
        return (1.0,)

    def cross_phases(self):
        """Empty: the basis functions are real, so no product of two of
        them has a phase."""
        return ()


_MIXTURE_WIDTHS = (0.2, 5.0)
L2_REJECT_FLOOR = 1e-6
_MAX_DRAWS = 1000


def random_schwartz(family: str, size: int, seed: int):
    """Seeded random test function; same arguments, same function.

    family 'gaussian-mixture': ``size`` terms with log-uniform real
    widths in ``_MIXTURE_WIDTHS``, amplitudes from the complex unit box, and
    (for half the terms on average) a chirp bounded by |Im z| <= 4 Re z
    so the transformed widths stay well off the imaginary axis.
    family 'hermite': degree ``size`` with unit-box complex
    coefficients.  Draws with ||f||_2 < 1e-6 are rejected and redrawn.
    """
    if family not in ("gaussian-mixture", "hermite"):
        raise ValueError(f"unknown family {family!r}")
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    rng = np.random.default_rng(seed)
    lo, hi = _MIXTURE_WIDTHS
    for _ in range(_MAX_DRAWS):
        if family == "gaussian-mixture":
            terms = []
            for _k in range(size):
                w = math.exp(rng.uniform(math.log(lo), math.log(hi)))
                im = rng.uniform(-4.0 * w, 4.0 * w) if rng.random() < 0.5 else 0.0
                amp = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
                terms.append(ComplexGaussianTerm(amp, complex(w, im)))
            f = GaussianMixture(tuple(terms))
        else:
            # one draw of all parts, paired (re, im) in the order scalar draws take
            pairs = rng.uniform(-1.0, 1.0, size=2 * (size + 1)).reshape(-1, 2).tolist()
            f = HermiteExpansion(tuple(complex(re, im) for re, im in pairs))
        # ||f||_2 from the m = 1 sum of power_parts, S times its root
        if f.envelope()[0] * math.sqrt(max(sum(f.power_parts(1)).real, 0.0)) >= L2_REJECT_FLOOR:
            return f
    raise RuntimeError(f"rejection sampling failed for {family} size {size} seed {seed}")
