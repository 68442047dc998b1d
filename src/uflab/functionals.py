"""Uncertainty ratios and the closed-form bounds attached to them.

The central quantity is the scale-invariant ratio

    F_q(f)   = ||f||_q * ||fhat||_q / (||f||_2 * ||fhat||_2),
    F_qp(f)  = ||f||_q * ||fhat||_q / (||f||_p * ||fhat||_p),

Every norm comes from :func:`norms`, which takes an exact route where
one exists (the closed form of a single Gaussian/chirp term, the finite
Gaussian sum of ``|f|**q`` for a mixture at even integer q, and
``sum |c_n|**2`` for a Hermite expansion at q = 2) and certified
quadrature everywhere else; ``method`` can also force either route or
cross-check the two.  Alongside the evaluators live the elementary
bounds for the two-scale family g_c and the sharp Hausdorff-Young
constant.
"""

from __future__ import annotations

import math
import sys
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
from .numerics import NormEstimate, check_tolerance, lq_norm_quad

# Exponents accepted by the evaluators.  Closed forms stay finite well
# beyond this range, but quadrature conditioning does not, so the public
# surface is capped.
EXPONENT_MIN = 1.0 + 1e-3
EXPONENT_MAX = 64.0

_METHODS = ("auto", "closed-form", "quadrature", "both")
_EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class FunctionalReport:
    """One evaluated ratio: the four norms behind it, the value (always
    :func:`_ratio` of the reported norms), and the relative
    exact/quadrature discrepancy when both routes ran."""

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


def _gc_cross(c: float) -> float:
    """2c/sqrt(c**4+1), as 2c/hypot(c*c, 1): c*c is finite for every
    accepted c, so nothing overflows at either end."""
    return 2.0 * c / math.hypot(c * c, 1.0)


def gc_l2_norm_sq(c: float) -> float:
    """||g_c||_2**2 = sqrt(2) + 2c/sqrt(c**4+1); maximal (2*sqrt(2))
    at c = 1 and -> sqrt(2) at both ends."""
    TwoScaleParams(c)
    return math.sqrt(2.0) + _gc_cross(c)


def _gc_braced_power(c: float, q: float) -> float:
    """The braced sum (c**(1-q/2) + c**(q/2-1) + 2**((q-1)/2) *
    2c/sqrt(c**4+1)) / sqrt(q), raised to 2/q.  The larger power
    s**e, s = max(c, 1/c) and e = |q/2-1|, is factored out, so no
    intermediate overflows."""
    s, e = max(c, 1.0 / c), abs(0.5 * q - 1.0)
    rest = 1.0 + s ** (-2.0 * e) + 2.0 ** (0.5 * (q - 1.0)) * _gc_cross(c) * s ** -e
    return s ** (2.0 * e / q) * (rest / math.sqrt(q)) ** (2.0 / q)


def gc_lq_lower_bound(c: float, q: float) -> float:
    """Termwise lower bound for ||g_c||_q**2, q > 2: the braced sum of
    the three componentwise integrals raised to 2/q."""
    TwoScaleParams(c)
    if not (math.isfinite(q) and q > 2.0):
        raise ValueError(f"lower bound stated for q > 2, got {q}")
    return _gc_braced_power(c, q)


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
    if q < 2.0:
        return _gc_braced_power(c, q)
    factor = max(1.0, 3.0 ** (0.5 * q - 1.0)) ** (2.0 / q)
    return factor * _gc_braced_power(c, q)


def fq_gc_lower_bound(c: float, q: float) -> float:
    """Divergent lower bound for F_q(g_c), q > 2:
    (1/q)**(1/q) * c**(1-2/q) / ||g_c||_2**2."""
    return gc_lq_lower_bound_weak(c, q) / gc_l2_norm_sq(c)


def _resolve(f):
    """Map any accepted input to (object, analytic transform).  g_c is
    its own transform, so the two-scale family returns g_c twice, the
    same object, and its norms are taken once."""
    if isinstance(f, ChirpParams):
        obj = GaussianMixture((make_chirp(f),))
    elif isinstance(f, TwoScaleParams):
        obj = make_two_scale(f)
        return obj, obj
    elif isinstance(f, ComplexGaussianTerm):
        obj = GaussianMixture((f,))
    elif isinstance(f, (GaussianMixture, HermiteExpansion)):
        obj = f
    else:
        raise TypeError(f"cannot evaluate functionals of {type(f).__name__}")
    return obj, obj.ft()


def _exact_norm(g, q: float, tol: float) -> NormEstimate | None:
    """||g||_q by an exact route, or None where there is none.

    A single term has its closed form at every q.  At an even integer
    q = 2m the parts of ``g.power_parts(m)``, which state ``|g/S|**q``
    with S the envelope amplitude, are summed, but only when the sum is
    finite and positive and its rounding bound
    rel = k*eps*sum|part|/sum(part), k = number of parts + q, is at most
    tol/2; the norm is then S times the sum's q-th root and reports
    value*rel/q as its error.
    """
    if isinstance(g, GaussianMixture) and len(g.terms) == 1:
        return NormEstimate(term_lq_norm(g.terms[0], q), "closed-form", 0.0, q)
    if not (q >= 2.0 and q % 2.0 == 0.0 and hasattr(g, "power_parts")):
        return None
    parts = g.power_parts(int(q) // 2)
    if parts is None:
        return None
    total = sum(part.real for part in parts)
    magnitude = sum(abs(part) for part in parts)
    if not (math.isfinite(magnitude) and total > 0.0):
        return None
    rel = (len(parts) + q) * _EPS * magnitude / total
    if rel > 0.5 * tol:
        return None
    value = g.envelope()[0] * total ** (1.0 / q)
    return NormEstimate(value, "closed-form", value * rel / q, q)


def norms(g, exponents, tol: float, method: str = "auto") -> tuple[NormEstimate, ...]:
    """||g||_q for each q in ``exponents``, in order.

    ``tol`` must lie in numerics [TOL_FLOOR, TOL_CEIL] whatever the route.
    ``method`` "auto" takes the exact route of :func:`_exact_norm` where
    it exists and passes its guard, and quadrature otherwise;
    "closed-form" takes only exact routes and raises ValueError naming
    every exponent without one; "quadrature" takes only quadrature.
    Every exponent left to quadrature goes to one ``lq_norm_quad`` call,
    which integrates them all on one mesh.
    """
    check_tolerance(tol)
    if method not in ("auto", "closed-form", "quadrature"):
        raise ValueError(f"norm method must be auto, closed-form or quadrature, got {method!r}")
    exact = [None if method == "quadrature" else _exact_norm(g, q, tol) for q in exponents]
    missing = tuple(q for q, est in zip(exponents, exact) if est is None)
    if method == "closed-form" and missing:
        raise ValueError(
            f"no exact route for the L^q norm of this {type(g).__name__} at "
            f"q = {', '.join(f'{q:g}' for q in missing)} (tolerance {tol:g}); "
            "use method 'auto' or 'quadrature'"
        )
    quad = iter(lq_norm_quad(g, missing, tol) if missing else ())
    return tuple(est or next(quad) for est in exact)


def _ratio(norms) -> float:
    """(||f||_q/||f||_p) * (||fhat||_q/||fhat||_p): each quotient is of
    norms of one function, so tiny norms cannot underflow the product."""
    if any(n.value == 0.0 for n in norms):
        raise ValueError("zero function has no uncertainty ratio (a norm is 0)")
    fq, hq, fp, hp = (n.value for n in norms)
    return (fq / fp) * (hq / hp)


def _eval_ratio(f, q, p, method, tol) -> FunctionalReport:
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}, got {method!r}")
    obj, obj_hat = _resolve(f)

    def four(route):
        """||f||_q, ||fhat||_q, ||f||_p, ||fhat||_p, in report order; a
        self-dual input's norms serve both functions."""
        fq, fp = norms(obj, (q, p), tol, route)
        hq, hp = (fq, fp) if obj_hat is obj else norms(obj_hat, (q, p), tol, route)
        return fq, hq, fp, hp

    found = four("closed-form" if method == "both" else method)
    value = _ratio(found)
    discrepancy = None
    if method == "both":
        discrepancy = abs(value - _ratio(four("quadrature"))) / value
    return FunctionalReport(q, p, found, value, method, discrepancy)


def eval_Fq(f, q: float, method: str = "auto", tol: float = 1e-10) -> FunctionalReport:
    """F_q(f) with the L^2 pair in the denominator.

    ``f`` may be chirp/two-scale parameters, a term, a mixture, or a
    Hermite expansion.  ``method`` "auto" lets :func:`norms` pick each
    norm's route; "closed-form" requires an exact route for all four
    (ValueError otherwise); "quadrature" integrates all four; "both"
    evaluates exactly and records the relative discrepancy from
    quadrature.
    """
    _check_exponent(q)
    return _eval_ratio(f, q, 2.0, method, tol)


def eval_Fqp(
    f, q: float, p: float, method: str = "auto", tol: float = 1e-10
) -> FunctionalReport:
    """F_qp(f) with the L^p pair in the denominator; requires q < p."""
    _check_exponent(q)
    _check_exponent(p, "p")
    if not p > q:
        raise ValueError(f"need q < p, got q={q}, p={p}")
    return _eval_ratio(f, q, p, method, tol)

