"""Real-line quadrature and a sampled Fourier oracle.

Every integrand here is ``(|f|/M)**q`` for a test function f carrying an
explicit Gaussian envelope ``S * exp(-pi*w*(|x|-shift)**2)``, M the
largest sampled |f|, so no amplitude of f overflows or underflows it, and
the integral is truncated to ``[-R, R]`` with a certified erfc tail bound,
computed and inverted in log space, rather than a heuristic cutoff:
``math.erfc`` where erfc is a normal float and the continued fraction of
``1/erfcx`` beyond (Cody, "Rational Chebyshev approximations for the
error function", Math. Comp. 23, 1969), inverted by Newton steps.  The
bound is stated in the decay length 1/sqrt(pi*q*w) of ``|f|**q``, which
is finite even where pi*q*w overflows, and R is picked from the first
round's totals.  The finite interval is then handled by adaptive
bisection with an embedded Gauss7/Kronrod15 pair per panel, refined in
rounds: each round bisects every panel it selects and evaluates all of
their nodes in a single ``f.eval`` call.  The integrand is array-valued,
one component per exponent of a norm request, all on one shared mesh
(Shampine, "Vectorized adaptive quadrature in MATLAB", 2008), so
``lq_norm_quad`` computes ||f||_q for a tuple of exponents in one pass.
The reported error estimate is the sum of the achieved panel estimates
and the truncation bound, never the requested tolerance.

Test functions plug in through three duck-typed hooks:

* ``f.eval(x)``            pointwise (complex) values at an array x of any shape,
* ``f.envelope()``         ``(S, w, shift)`` as above,
* ``f.scales()``           ascending decay lengths used to seed panels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

MAX_PANELS = 100_000
TOL_FLOOR = 1e-13
TOL_CEIL = 1e-2


class ToleranceNotAchieved(RuntimeError):
    """Raised when the panel budget runs out; carries the best estimates."""

    def __init__(self, message, estimate):
        super().__init__(message)
        self.estimate = estimate


@dataclass(frozen=True)
class NormEstimate:
    """An L^q norm value with the method that produced it and the error
    estimate the method actually achieved (absolute, on the norm)."""

    value: float
    method: str  # 'closed-form' | 'quadrature'
    abs_error_estimate: float
    q: float


@dataclass(frozen=True, eq=False)
class SampledFunction:
    """Values on the centered grid x_j = (j - n/2)*dx, j = 0..n-1.

    The implied frequency grid after :func:`dft_approx` is
    xi_k = (k - n/2)/(n*dx), i.e. the output is again a SampledFunction
    whose spacing is 1/(n*dx).
    """

    n: int
    dx: float
    samples: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.n < 16 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"n must be a power of two >= 16, got {self.n}")
        if not (math.isfinite(self.dx) and self.dx > 0.0):
            raise ValueError(f"dx must be positive, got {self.dx}")
        samples = np.asarray(self.samples, dtype=complex)
        if samples.shape != (self.n,):
            raise ValueError(f"expected {self.n} samples, got shape {samples.shape}")
        object.__setattr__(self, "samples", samples)

    def x_grid(self) -> np.ndarray:
        return (np.arange(self.n) - self.n // 2) * self.dx


# Gauss7/Kronrod15 pair on [-1, 1].  The odd Kronrod abscissae together
# with the center are the embedded 7-point Gauss rule.
_GK_ABSC = [
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
]
_GK_WK = [
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,  # center
]
_GK_WG = [
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,  # center
]

_K15_NODES = np.array([-x for x in _GK_ABSC] + [0.0] + list(reversed(_GK_ABSC)))
_K15_WEIGHTS = np.array(_GK_WK[:7] + [_GK_WK[7]] + list(reversed(_GK_WK[:7])))
_G7_IDX = np.array([1, 3, 5, 7, 9, 11, 13])
_G7_WEIGHTS = np.array(_GK_WG[:3] + [_GK_WG[3]] + list(reversed(_GK_WG[:3])))

# Columns: the Kronrod weights, and Kronrod minus Gauss, whose sum is
# ik - ig without cancellation.
_KD_WEIGHTS = np.stack((_K15_WEIGHTS, _K15_WEIGHTS), axis=1)
_KD_WEIGHTS[_G7_IDX, 1] -= _G7_WEIGHTS

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


def _gk_panels(fn, lo, hi):
    """Kronrod values (rows 0..k-1) over QUADPACK-style error estimates
    (rows k..2k-1) of the k components of ``fn`` on the panels
    ``[lo[i], hi[i]]``, from one ``fn`` call on an (npanels, 15) array."""
    half = 0.5 * (hi - lo)[:, None]
    xs = 0.5 * (hi + lo)[:, None] + half * _K15_NODES
    # Values times the half-width: each row's weighted sum is an integral.
    fx = np.asarray(fn(xs), dtype=float).reshape(-1, *xs.shape) * half
    kd = fx @ _KD_WEIGHTS
    ik = kd[..., 0]
    resasc = np.abs(fx - 0.5 * ik[:, :, None]) @ _K15_WEIGHTS
    # A constant panel has resasc 0 and ratio 0 here: its |ik - ig| is
    # rounding (the two weight sums differ by about 16 eps), which the
    # 50 eps floor covers.
    ratio = np.divide(200.0 * np.abs(kd[..., 1]), resasc, out=np.zeros_like(ik),
                      where=resasc > 0.0)
    err = resasc * np.minimum(1.0, ratio ** 1.5)
    return np.concatenate((ik, np.maximum(err, 50.0 * _EPS * np.abs(ik))))


def integrate_adaptive(fn, edges, rel_tol, first=None):
    """Adaptively integrate the k components of ``fn`` over
    [edges[0], edges[-1]] on one shared mesh, starting from the panels
    between consecutive ``edges`` (ascending).

    ``fn`` maps an array x to values of shape ``(k, *x.shape)``, or of
    x's own shape when k = 1.  ``first``, when given, is the first
    round ``_gk_panels(fn, edges[:-1], edges[1:])``, already evaluated
    by the caller.  Returns ``(values, err_estimates, converged,
    panels)``, the first three arrays of shape (k,); component i has
    converged when its estimate is at most ``rel_tol * |values[i]|``.
    Each round ranks the panels by their largest error relative to that
    component's target (stable sort, largest first), takes the shortest
    prefix whose summed estimates cover every component's excess over its
    target, and bisects all of it with one ``fn`` call.  Panels within a
    few float spacings of their width limit keep their error and are
    never bisected; refinement gives up once their error alone exceeds a
    component's target, and bisection stops before the panel count would
    exceed ``MAX_PANELS`` (read at call time).  A left half takes its
    parent's place and the right halves are appended, so every sum runs
    in a fixed order and results are reproducible run to run.
    """
    pts = np.asarray(edges, dtype=float)
    los, his = pts[:-1], pts[1:]
    # Midpoints and quarter points are off by at most half a float
    # spacing of the largest |x|, so a panel wider than 8 such spacings
    # always has distinct quarter points.
    narrow = 8.0 * np.spacing(max(-pts[0], pts[-1]))
    # k rows of panel values, k of errors
    ve = _gk_panels(fn, los, his) if first is None else first
    k = ve.shape[0] // 2
    # Per-component totals, targets and excesses are Python floats: k is
    # a handful, and numpy calls on k-vectors cost more than loops.
    sums = ve.sum(1).tolist()
    excess = [e - rel_tol * abs(t) for t, e in zip(sums, sums[k:])]
    while los.size < MAX_PANELS and max(excess) > 0.0:
        errs = ve[k:]
        rank = reduce(np.minimum, [e * (-1.0 / max(rel_tol * abs(t), _TINY))
                                   for e, t in zip(errs, sums)])
        order = np.argsort(rank, kind="stable")
        if (his - los).min() <= narrow:
            # A panel one float spacing wide rounds all 15 nodes to one
            # value and would report zero error, so only panels whose
            # halves can be bisected again are split.
            mids = 0.5 * (los + his)
            left, right = 0.5 * (los + mids), 0.5 * (mids + his)
            splittable = (los < left) & (left < mids) & (mids < right) & (right < his)
            order = order[splittable[order]]
            # Refinement moves a total by at most its error and never
            # lowers the error of panels that cannot be split; once that
            # error alone exceeds a component's target at the largest
            # total refinement could reach, no further round can converge.
            if order.size == 0 or (order.size < los.size and any(
                stuck > rel_tol * (abs(t) + e)
                for stuck, t, e in zip(errs[:, ~splittable].sum(1).tolist(), sums, sums[k:])
            )):
                break
        take = 1 + max([int(np.searchsorted(np.cumsum(e[order]), x))
                        for e, x in zip(errs, excess)])
        split = order[: min(take, MAX_PANELS - los.size)]
        lo_s, hi_s = los[split], his[split]
        mid_s = 0.5 * (lo_s + hi_s)
        new_ve = _gk_panels(fn, np.concatenate((lo_s, mid_s)), np.concatenate((mid_s, hi_s)))
        n = split.size
        los, his = np.concatenate((los, mid_s)), np.concatenate((his, hi_s))
        his[split] = mid_s
        ve = np.concatenate((ve, new_ve[:, n:]), 1)
        ve[:, split] = new_ve[:, :n]
        sums = ve.sum(1).tolist()
        excess = [e - rel_tol * abs(t) for t, e in zip(sums, sums[k:])]
    return (np.array(sums[:k]), np.array(sums[k:]), np.array(excess) <= 0.0,
            int(los.size))


# math.erfc(t) stays a normal float up to t of about 26.5; from here on
# the continued fraction states log erfc instead.
_ERFC_CF_FROM = 25.0
_SQRT_PI = math.sqrt(math.pi)
_LOG_ERFC_1 = math.log(math.erfc(1.0))


def _log_erfc_slope(t):
    """log erfc(t) and its derivative -2*exp(-t*t)/(sqrt(pi)*erfc(t)).

    From ``_ERFC_CF_FROM`` on, erfc(t) = exp(-t*t)/(sqrt(pi)*K(t)) with
    the continued fraction K(t) = t + (1/2)/(t + 1/(t + (3/2)/(t + ...)))
    of 1/erfcx; six levels reach rounding for every t >= 20, and the
    derivative is -2*K(t)."""
    if t < _ERFC_CF_FROM:
        erfc = math.erfc(t)
        return math.log(erfc), -2.0 * math.exp(-t * t) / (_SQRT_PI * erfc)
    k = t
    for half_n in (3.0, 2.5, 2.0, 1.5, 1.0, 0.5):
        k = t + half_n / k
    return -t * t - math.log(_SQRT_PI * k), -2.0 * k


def _log_tail(length, shift, radius):
    """log of sqrt(pi)*length * erfc((radius-shift)/length), which bounds
    the integral of exp(-((|x|-shift)/length)**2) over |x| > radius;
    finite at any radius and any positive decay length."""
    log_erfc, _ = _log_erfc_slope((radius - shift) / length)
    return 0.5 * math.log(math.pi) + math.log(length) + log_erfc


def _tail_radius(length, shift, log_target):
    """Inverse of :func:`_log_tail`, floored at one decay length past
    shift.

    log erfc is concave, so Newton's method on it approaches the root
    from above after at most one step, and the bound at the returned
    radius meets the target up to rounding.  It starts from the
    asymptotic root s = t*t of s + log(sqrt(pi*s)) + 1/(2s) = -y, one
    fixed-point step from s = -y - log(sqrt(-pi*y)), and stops once a
    step moves t by at most 1e-8 relative, after which quadratic
    convergence leaves rounding alone."""
    y = log_target - 0.5 * math.log(math.pi) - math.log(length)
    t = 1.0
    if y < _LOG_ERFC_1:
        s = -y - 0.5 * math.log(-math.pi * y)
        t = math.sqrt(-y - 0.5 * math.log(math.pi * s) - 0.5 / s)
        for _ in range(20):
            log_erfc, slope = _log_erfc_slope(t)
            step = (log_erfc - y) / slope
            t -= step
            if abs(step) <= 1e-8 * t:
                break
    return shift + max(t, 1.0) * length


def _decay_length(q, width_floor):
    """1/sqrt(pi*q*w), the decay length of the envelope of |f|**q.  The
    two square roots are taken apart, so it is finite for every width a
    term accepts, including those where pi*q*w overflows."""
    return 1.0 / (math.sqrt(math.pi * q) * math.sqrt(width_floor))


def truncation_radius(f, q: float, tol: float) -> float:
    """Radius R with the envelope tail bound outside [-R, R] below tol/2.

    Monotone: loosening tol never increases R.
    """
    check_exponent(q)
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tolerance must be positive, got {tol}")
    amp_sum, width_floor, shift = f.envelope()
    if amp_sum <= 0.0:
        return shift + 1.0
    log_target = math.log(0.5 * tol) - q * math.log(amp_sum)
    return _tail_radius(_decay_length(q, width_floor), shift, log_target)


def _seed_edges(f, q, shift, radius):
    """Initial panel edges on [-radius, radius]: a geometric ladder from
    the finest decay length up to the radius, so widely separated scales
    are resolved before any adaptive refinement happens."""
    pts = {0.0}
    v = min(f.scales()) / math.sqrt(q)
    while v < radius and len(pts) < 80:
        pts.add(v)
        pts.add(-v)
        v *= 4.0
    if 0.0 < shift < radius:
        pts.add(shift)
        pts.add(-shift)
    return np.array(sorted({-radius, radius, *pts}))


def check_exponent(q: float) -> None:
    """Reject a norm exponent that is not finite and >= 1, nan included."""
    if not (math.isfinite(q) and q >= 1.0):
        raise ValueError(f"norm exponent must be finite and >= 1, got {q}")


def check_tolerance(tol: float) -> None:
    """Reject a relative norm tolerance outside [TOL_FLOOR, TOL_CEIL],
    nan included."""
    if not (TOL_FLOOR <= tol <= TOL_CEIL):
        raise ValueError(f"tolerance must lie in [{TOL_FLOOR}, {TOL_CEIL}], got {tol}")


def lq_norm_quad(f, exponents: tuple, tol: float) -> tuple[NormEstimate, ...]:
    """L^q norms of ``f`` by certified truncation plus adaptive panels.

    ``exponents`` is a tuple, and one :class:`NormEstimate` per exponent
    is returned in order.  All exponents share one pass: one radius, the
    largest any of them needs, and one mesh, refined until every
    exponent converges, with one ``f.eval`` per round.  The seed round
    picks the radius, so a pass rarely starts over.  The
    integrand is ``(|f|/M)**q`` with M the largest |f| on the first
    round's nodes, so it stays representable however far |f| lies below
    its envelope amplitude S; each exponent's tail bound carries the
    factor (S/M)**q in log space.  The requested tolerance is relative
    and is split evenly between the truncation bound and the quadrature
    estimate; the returned estimates report what was actually achieved.
    Raises :class:`ToleranceNotAchieved`, naming every exponent that
    missed and carrying the tuple of best estimates, if the panel budget
    runs out first.
    """
    exponents = tuple(map(float, exponents))
    if not exponents:
        raise ValueError("no norm exponent given")
    for e in exponents:
        check_exponent(e)
    check_tolerance(tol)
    scale, width_floor, shift = f.envelope()
    if scale == 0.0:
        return tuple(NormEstimate(0.0, "quadrature", 0.0, e) for e in exponents)

    powers = np.array(exponents)[:, None, None]
    peak = 0.0

    def integrand(x):
        nonlocal peak
        mag = np.abs(f.eval(x))
        if not peak:
            peak = float(mag.max()) or scale
        return np.power(mag / peak, powers)

    # |f/S|**q lies below exp(-((|x|-shift)/L)**2), L the decay length,
    # whose tails _log_tail bounds.  The initial radius assumes the
    # integral could undershoot the envelope's own integral beyond shift
    # by six orders (cancellation).  The seed round on it sets the peak,
    # and where its totals show a tail bound too large, they pick the
    # radius: panels out to it join the seeded ones, whose values are
    # kept.  The tail bounds at the refined totals certify the result; a
    # pass starts over at a wider radius only where they do not.
    lengths = [_decay_length(e, width_floor) for e in exponents]

    def log_tails(radius):
        log_ratio = math.log(scale) - math.log(peak)
        return [_log_tail(n, shift, radius) + e * log_ratio
                for n, e in zip(lengths, exponents)]

    def covered(tails, totals):
        return min(totals) <= 0.0 or all(
            t <= math.log(0.5 * tol * total) for t, total in zip(tails, totals))

    def needed(totals):
        """The radius that brings every tail bound to tol/4 of its total."""
        log_ratio = math.log(scale) - math.log(peak)
        return max(_tail_radius(n, shift, math.log(0.25 * tol * total) - e * log_ratio)
                   for n, e, total in zip(lengths, exponents, totals))

    radius = max(_tail_radius(n, shift, math.log(0.25e-6 * tol) + _log_tail(n, shift, shift))
                 for n in lengths)
    for _ in range(4):
        edges = _seed_edges(f, max(exponents), shift, radius)
        first = _gk_panels(integrand, edges[:-1], edges[1:])
        seeded = first[:len(exponents)].sum(1).tolist()
        wider = radius if covered(log_tails(radius), seeded) else needed(seeded)
        if wider > radius:
            grown = _seed_edges(f, max(exponents), shift, wider)
            left, right = grown[grown < -radius], grown[grown > radius]
            outer = _gk_panels(integrand, np.concatenate((left, [radius], right[:-1])),
                               np.concatenate((left[1:], [-radius], right)))
            first = np.concatenate((outer[:, :left.size], first, outer[:, left.size:]), 1)
            edges, radius = np.concatenate((left, edges, right)), wider
        totals, errs, converged, panels = integrate_adaptive(
            integrand, edges, 0.5 * tol, first)
        totals, tails = totals.tolist(), log_tails(radius)
        if covered(tails, totals):
            break
        radius = needed(totals)
    found, missed = [], []
    for e, log_tail, total, err, ok in zip(exponents, tails, totals, errs.tolist(),
                                           converged.tolist()):
        if total <= 0.0:
            found.append(NormEstimate(0.0, "quadrature", 0.0, e))
            continue
        rel_err = err / total + math.exp(min(log_tail - math.log(total), 700.0))
        value = peak * total ** (1.0 / e)
        found.append(NormEstimate(value, "quadrature", value * rel_err / e, e))
        if not (ok and rel_err <= tol):
            missed.append((e, rel_err))
    if missed:
        raise ToleranceNotAchieved(
            f"{type(f).__name__} {', '.join(f'L^{e:g}' for e, _ in missed)} "
            f"norm{'s' if len(missed) > 1 else ''}: tolerance {tol:g} not achieved "
            f"(relative error {', '.join(f'{r:.3g}' for _, r in missed)}, "
            f"radius {radius:.6g}, {panels} panels)",
            tuple(found),
        )
    return tuple(found)


def sample(f, n: int, dx: float) -> SampledFunction:
    """Evaluate ``f`` on the centered n-point grid with spacing dx."""
    probe = SampledFunction(n, float(dx), np.zeros(n, dtype=complex))
    values = np.asarray(f.eval(probe.x_grid()), dtype=complex)
    return SampledFunction(n, float(dx), values)


def dft_approx(s: SampledFunction) -> SampledFunction:
    """Discrete approximation of the continuous Fourier transform.

    Riemann sum of f(x)*exp(-2*pi*i*x*xi) over the centered grid; the
    centering phases reduce to (-1)**j / (-1)**k sign flips because n is
    a multiple of four.  Error against an analytic transform is the sum
    of the truncation and aliasing tails of f.
    """
    k = np.arange(s.n)
    sign = np.where(k % 2 == 0, 1.0, -1.0)
    out = s.dx * sign * np.fft.fft(sign * s.samples)
    return SampledFunction(s.n, 1.0 / (s.n * s.dx), out)
