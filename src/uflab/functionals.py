"""Uncertainty ratios and the closed-form bounds attached to them.

The central quantity is the scale-invariant ratio

    F_q(f)   = ||f||_q * ||fhat||_q / (||f||_2 * ||fhat||_2),
    F_qp(f)  = ||f||_q * ||fhat||_q / (||f||_p * ||fhat||_p),

F_q being F_qp at p = 2.  Every ratio comes from :func:`eval_batch`,
for a whole batch of inputs at once; :func:`eval_Fq` and
:func:`eval_Fqp` are its batch of one.  Every norm comes from
:func:`norms`, or :func:`norms_batch` over many ``(g, exponents)``
requests at once, which takes an exact route where one exists (the
closed form of a single Gaussian/chirp term, the finite Gaussian sum of
``|f|**q`` for a mixture at even integer q, and ``sum |c_n|**2`` for a
Hermite expansion at q = 2) and certified quadrature everywhere else,
one quadrature request per function with the exponents it has no exact
route for; ``method`` can also force either route or cross-check the
two.
Alongside the evaluators live the elementary bounds for the two-scale
family g_c and the sharp Hausdorff-Young constant.
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
    term_lq_norm,
)
from .hermite import HermiteExpansion
from .numerics import NormEstimate, check_tolerance, lq_norm_quad_batch

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


def gc_lq_bracket(c: float, q: float) -> tuple[float | None, float]:
    """(lower, upper) bracket of ||g_c||_q**2, q > 1, from the braced
    sum of the three componentwise integrals raised to 2/q.  The upper
    side is 4 at q = 2, the braced power for q < 2, and for q > 2 the
    braced power times 3**(1-2/q), from (a1+a2+a3)**s <= 3**(s-1) *
    sum(a_i**s), s = q/2.  The lower side is the braced power itself,
    stated for q > 2 only, and None elsewhere.  The verifier's
    asymptotics rows check the bracket against the quadrature norms of
    g_c."""
    TwoScaleParams(c)
    if not (math.isfinite(q) and q > 1.0):
        raise ValueError(f"upper bound stated for q > 1, got {q}")
    if q == 2.0:
        return None, 4.0
    braced = _gc_braced_power(c, q)
    if q < 2.0:
        return None, braced
    return braced, (3.0 ** (0.5 * q - 1.0)) ** (2.0 / q) * braced


def fq_gc_lower_bound(c: float, q: float) -> float:
    """Divergent lower bound for F_q(g_c), q > 2:
    (1/q)**(1/q) * c**(1-2/q) / ||g_c||_2**2, the single-spike weakening
    of the bracket's lower side over the L^2 identity."""
    TwoScaleParams(c)
    if not (math.isfinite(q) and q > 2.0):
        raise ValueError(f"lower bound stated for q > 2, got {q}")
    return (1.0 / q) ** (1.0 / q) * c ** (1.0 - 2.0 / q) / gc_l2_norm_sq(c)


def _resolve(f):
    """The function an accepted input stands for: the mixture or
    expansion itself, a family parameter's ``function``, or a term's
    one-term mixture.  Every entry point maps its inputs here."""
    if isinstance(f, (GaussianMixture, HermiteExpansion)):
        return f
    if isinstance(f, (ChirpParams, TwoScaleParams)):
        return f.function
    if isinstance(f, ComplexGaussianTerm):
        return GaussianMixture((f,))
    raise TypeError(f"cannot take norms or functionals of {type(f).__name__}")


def _with_transform(f):
    """(function, analytic transform) of an accepted input.  g_c is its
    own transform, so the two-scale family returns g_c twice, the same
    object, and its norms are taken once."""
    obj = _resolve(f)
    return obj, obj if isinstance(f, TwoScaleParams) else obj.ft()


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
    if not (q >= 2.0 and q % 2.0 == 0.0):
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
    """||g||_q for each q in ``exponents``, in order, for any input that
    :func:`eval_batch` accepts.

    ``tol`` must lie in numerics [TOL_FLOOR, TOL_CEIL] whatever the route.
    ``method`` "auto" takes the exact route of :func:`_exact_norm` where
    it exists and passes its guard, and quadrature otherwise;
    "closed-form" takes only exact routes and raises ValueError naming
    every exponent without one; "quadrature" takes only quadrature.
    Every distinct exponent left to quadrature is integrated once, all of
    them on one mesh.
    """
    return norms_batch([(g, exponents)], tol, method)[0]


def norms_batch(requests, tol: float, method: str = "auto") -> list[tuple[NormEstimate, ...]]:
    """:func:`norms` of each ``(g, exponents)`` request, in order; each g
    goes through :func:`_resolve`, and a request with no exponent is a
    ValueError.  The exponents each request leaves to quadrature go, one
    request per function, to one ``lq_norm_quad_batch`` call, whose
    estimates do not depend on the batch."""
    check_tolerance(tol)
    if method not in _METHODS[:3]:
        raise ValueError(f"norm method must be one of {_METHODS[:3]}, got {method!r}")
    exact, quad = [], {}
    for j, (g, exponents) in enumerate(requests):
        g = _resolve(g)
        if not exponents:
            raise ValueError("no norm exponent given")
        found = [None if method == "quadrature" else _exact_norm(g, q, tol) for q in exponents]
        missing = tuple(dict.fromkeys(q for q, est in zip(exponents, found) if est is None))
        if method == "closed-form" and missing:
            raise ValueError(
                f"no exact route for the L^q norm of this {type(g).__name__} at "
                f"q = {', '.join(f'{q:g}' for q in missing)} (tolerance {tol:g}); "
                "use method 'auto' or 'quadrature'"
            )
        exact.append(found)
        if missing:
            quad[j] = (g, missing)
    for (j, (_, missing)), found in zip(quad.items(), lq_norm_quad_batch(quad.values(), tol)):
        by_q = dict(zip(missing, found))
        exact[j] = [est or by_q[q] for q, est in zip(requests[j][1], exact[j])]
    return [tuple(found) for found in exact]


def _ratio(fq: float, hq: float, fp: float, hp: float) -> float:
    """(||f||_q/||f||_p) * (||fhat||_q/||fhat||_p) from the four norm
    values: each quotient is of norms of one function, so tiny norms
    cannot underflow the product."""
    if 0.0 in (fq, hq, fp, hp):
        raise ValueError("zero function has no uncertainty ratio (a norm is 0)")
    return (fq / fp) * (hq / hp)


def eval_batch(fs, q: float, p: float | None = None, method: str = "auto",
               tol: float = 1e-10) -> list[FunctionalReport]:
    """The report of each input of ``fs``, in order: F_q, with the L^2
    pair in the denominator, when ``p`` is None, and else F_qp, which
    requires q < p.

    An input may be chirp/two-scale parameters, a term, a mixture, or a
    Hermite expansion (:func:`_resolve`), anything else a TypeError.
    ``method`` "auto" lets :func:`norms` pick each norm's route;
    "closed-form" requires an exact route for all four (ValueError
    otherwise); "quadrature" integrates all four; "both" evaluates
    exactly and records the relative discrepancy from quadrature.  The
    norms of all inputs are taken in one :func:`norms_batch` call per
    route.
    """
    _check_exponent(q)
    if p is None:
        p = 2.0
    else:
        _check_exponent(p, "p")
        if not p > q:
            raise ValueError(f"need q < p, got q={q}, p={p}")
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}, got {method!r}")
    pairs = [_with_transform(f) for f in fs]

    def four(route):
        """||f||_q, ||fhat||_q, ||f||_p, ||fhat||_p of each input, in
        report order; a self-dual input's norms serve both functions."""
        found = iter(norms_batch([(g, (q, p)) for obj, obj_hat in pairs
                                  for g in ((obj,) if obj_hat is obj else (obj, obj_hat))],
                                 tol, route))
        out = []
        for obj, obj_hat in pairs:
            fq, fp = next(found)
            hq, hp = (fq, fp) if obj_hat is obj else next(found)
            out.append((fq, hq, fp, hp))
        return out

    found = four("closed-form" if method == "both" else method)
    values = [_ratio(*(n.value for n in norms4)) for norms4 in found]
    checks = four("quadrature") if method == "both" else [None] * len(found)
    return [FunctionalReport(q, p, norms4, value, method, None if check is None else
                             abs(value - _ratio(*(n.value for n in check))) / value)
            for norms4, value, check in zip(found, values, checks)]


def eval_Fq(f, q: float, method: str = "auto", tol: float = 1e-10) -> FunctionalReport:
    """F_q(f) with the L^2 pair in the denominator: :func:`eval_batch`
    of ``f`` alone."""
    return eval_batch((f,), q, None, method, tol)[0]


def eval_Fqp(
    f, q: float, p: float, method: str = "auto", tol: float = 1e-10
) -> FunctionalReport:
    """F_qp(f) with the L^p pair in the denominator, q < p:
    :func:`eval_batch` of ``f`` alone."""
    return eval_batch((f,), q, p, method, tol)[0]
