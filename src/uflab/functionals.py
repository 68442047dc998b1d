"""Uncertainty ratios and the closed-form bounds attached to them.

The central quantity is the scale-invariant ratio

    F_q(f)   = ||f||_q * ||fhat||_q / (||f||_2 * ||fhat||_2),
    F_qp(f)  = ||f||_q * ||fhat||_q / (||f||_p * ||fhat||_p),

evaluated either from single-term closed forms (chirps and plain
Gaussians) or by the quadrature engine, with both routes cross-checked
when requested.  Alongside the evaluators live the elementary bounds
for the two-scale family g_c and the sharp Hausdorff-Young constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .gaussian import (
    ChirpParams,
    ComplexGaussianTerm,
    GaussianMixture,
    TwoScaleParams,
    make_chirp,
    make_two_scale,
    term_lq_norm,
)
from .hermite import HermiteExpansion
from .numerics import NormEstimate, lq_norm_quad

# Exponents accepted by the evaluators.  Closed forms stay finite well
# beyond this range, but quadrature conditioning does not, so the public
# surface is capped.
EXPONENT_MIN = 1.0 + 1e-3
EXPONENT_MAX = 64.0

_METHODS = ("closed-form", "quadrature", "both")


@dataclass(frozen=True)
class FunctionalReport:
    """One evaluated ratio: the four norms behind it, the value (always
    the exact product ratio of the reported norms), and the relative
    closed-form/quadrature discrepancy when both routes ran."""

    q: float
    p: float
    norms: tuple[NormEstimate, NormEstimate, NormEstimate, NormEstimate]
    value: float
    method: str
    discrepancy: float | None


def _in_range(*exponents) -> bool:
    return all(math.isfinite(e) and EXPONENT_MIN <= e <= EXPONENT_MAX for e in exponents)


def _check_exponent(value: float, name: str = "q"):
    if not _in_range(value):
        raise ValueError(
            f"{name} must lie in [{EXPONENT_MIN}, {EXPONENT_MAX}], got {value}"
        )


def conjugate_exponent(q: float) -> float:
    """q' with 1/q + 1/q' = 1; requires q > 1."""
    if not (math.isfinite(q) and q > 1.0):
        raise ValueError(f"conjugate exponent needs q > 1, got {q}")
    return q / (q - 1.0)


def beckner_constant(p: float) -> float:
    """Sharp ratio ||fhat||_p' / ||f||_p over L^p, 1 < p <= 2:
    (p**(1/p) / p'**(1/p'))**(1/2), attained by Gaussians."""
    if not (math.isfinite(p) and 1.0 < p <= 2.0):
        raise ValueError(f"sharp constant defined for 1 < p <= 2, got {p}")
    pc = conjugate_exponent(p)
    return math.sqrt(p ** (1.0 / p) / pc ** (1.0 / pc))


def interpolation_exponent(q: float, p: float) -> float:
    """theta with ||f||_p <= ||f||_q**theta * ||f||_2**(1-theta) for
    1 < q < p < 2, from Holder between L^q and L^2."""
    if not (1.0 < q < p < 2.0):
        raise ValueError(f"need 1 < q < p < 2, got q={q}, p={p}")
    return (1.0 / p - 0.5) / (1.0 / q - 0.5)


def gc_l2_norm_sq(c: float) -> float:
    """||g_c||_2**2 = sqrt(2) + 2c/sqrt(c**4+1); maximal (2*sqrt(2))
    at c = 1 and -> sqrt(2) at both ends."""
    TwoScaleParams(c)
    return math.sqrt(2.0) + 2.0 * c / math.sqrt(c ** 4 + 1.0)


def _gc_braced_sum(c: float, q: float) -> float:
    return (
        c ** (1.0 - 0.5 * q) + c ** (0.5 * q - 1.0)
        + 2.0 ** (0.5 * (q + 1.0)) * c / math.sqrt(c ** 4 + 1.0)
    ) / math.sqrt(q)


def gc_lq_lower_bound(c: float, q: float) -> float:
    """Termwise lower bound for ||g_c||_q**2, q > 2: the braced sum of
    the three componentwise integrals raised to 2/q."""
    TwoScaleParams(c)
    if not (math.isfinite(q) and q > 2.0):
        raise ValueError(f"lower bound stated for q > 2, got {q}")
    return _gc_braced_sum(c, q) ** (2.0 / q)


def gc_lq_lower_bound_weak(c: float, q: float) -> float:
    """Single-spike weakening (1/q)**(1/q) * c**(1-2/q) of the bound
    above; what the divergence rate of F_q(g_c) is read off from."""
    TwoScaleParams(c)
    if not (math.isfinite(q) and q > 2.0):
        raise ValueError(f"lower bound stated for q > 2, got {q}")
    return (1.0 / q) ** (1.0 / q) * c ** (1.0 - 2.0 / q)


def gc_lq_upper_bound(c: float, q: float) -> float:
    """Upper bound for ||g_c||_q**2 with the three-way exponent split:
    4 at q = 2, the braced sum to the 2/q for q < 2, and an extra
    3**(1-2/q) (triple superadditivity constant) for q > 2."""
    TwoScaleParams(c)
    if not (math.isfinite(q) and q > 1.0):
        raise ValueError(f"upper bound stated for q > 1, got {q}")
    if q == 2.0:
        return 4.0
    braced = _gc_braced_sum(c, q)
    if q < 2.0:
        return braced ** (2.0 / q)
    factor = max(1.0, 3.0 ** (0.5 * q - 1.0)) ** (2.0 / q)
    return factor * braced ** (2.0 / q)


def fq_gc_lower_bound(c: float, q: float) -> float:
    """Divergent lower bound for F_q(g_c), q > 2:
    (1/q)**(1/q) * c**(1-2/q) / ||g_c||_2**2."""
    return gc_lq_lower_bound_weak(c, q) / gc_l2_norm_sq(c)


def _resolve(f):
    """Map any accepted input to (object, analytic transform)."""
    if isinstance(f, ChirpParams):
        obj = GaussianMixture((make_chirp(f),))
    elif isinstance(f, TwoScaleParams):
        obj = make_two_scale(f)
    elif isinstance(f, ComplexGaussianTerm):
        obj = GaussianMixture((f,))
    elif isinstance(f, (GaussianMixture, HermiteExpansion)):
        obj = f
    else:
        raise TypeError(f"cannot evaluate functionals of {type(f).__name__}")
    return obj, obj.ft()


def _four_norms(obj, obj_hat, q, p, norm):
    """||f||_q, ||fhat||_q, ||f||_p, ||fhat||_p, in report order."""
    return tuple(norm(g, e) for e in (q, p) for g in (obj, obj_hat))


def _closed_norm(mix, e):
    return NormEstimate(term_lq_norm(mix.terms[0], e), "closed-form", 0.0, e)


def _ratio(norms) -> float:
    if any(n.value == 0.0 for n in norms):
        raise ValueError("zero function has no uncertainty ratio (a norm is 0 or underflows)")
    return norms[0].value * norms[1].value / (norms[2].value * norms[3].value)


def _eval_ratio(f, q, p, method, tol) -> FunctionalReport:
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}, got {method!r}")
    obj, obj_hat = _resolve(f)
    closed_ok = isinstance(obj, GaussianMixture) and len(obj.terms) == 1
    if method in ("closed-form", "both") and not closed_ok:
        raise ValueError(
            "closed-form evaluation needs a single Gaussian/chirp term; "
            "use method='quadrature' for this input"
        )
    closed = quad = None
    if method != "quadrature":
        closed = _four_norms(obj, obj_hat, q, p, _closed_norm)
    if method != "closed-form":
        quad = _four_norms(obj, obj_hat, q, p, lambda g, e: lq_norm_quad(g, e, tol))
    norms = closed or quad
    value = _ratio(norms)
    discrepancy = abs(value - _ratio(quad)) / value if method == "both" else None
    return FunctionalReport(q, p, norms, value, method, discrepancy)


def eval_Fq(f, q: float, method: str = "quadrature", tol: float = 1e-10) -> FunctionalReport:
    """F_q(f) with the L^2 pair in the denominator.

    ``f`` may be chirp/two-scale parameters, a term, a mixture, or a
    Hermite expansion; ``method`` picks closed forms (single terms
    only), quadrature, or both with a recorded discrepancy.
    """
    _check_exponent(q)
    return _eval_ratio(f, q, 2.0, method, tol)


def eval_Fqp(
    f, q: float, p: float, method: str = "quadrature", tol: float = 1e-10
) -> FunctionalReport:
    """F_qp(f) with the L^p pair in the denominator; requires q < p."""
    _check_exponent(q)
    _check_exponent(p, "p")
    if not p > q:
        raise ValueError(f"need q < p, got q={q}, p={p}")
    return _eval_ratio(f, q, p, method, tol)

