"""Real-line quadrature and a sampled Fourier oracle.

Every integrand here is ``|f|**q`` for a test function f carrying an
explicit Gaussian envelope ``S * exp(-pi*w*(|x|-shift)**2)``, so the
integral is truncated to ``[-R, R]`` with a certified erfc tail bound
rather than a heuristic cutoff.  The finite interval is then handled by
adaptive bisection with an embedded Gauss7/Kronrod15 pair per panel,
refined in rounds: each round bisects every panel it selects and
evaluates all of their nodes in a single ``f.eval`` call (Shampine,
"Vectorized adaptive quadrature in MATLAB", 2008).  The reported error
estimate is the sum of the achieved panel estimates and the truncation
bound, never the requested tolerance.

Test functions plug in through three duck-typed hooks:

* ``f.eval(x)``            pointwise (complex) values at an array x of any shape,
* ``f.envelope()``         ``(amp_sum, width_floor, shift)`` as above,
* ``f.scales()``           ascending decay lengths used to seed panels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erfcinv, erfcx

MAX_PANELS = 100_000
TOL_FLOOR = 1e-13
TOL_CEIL = 1e-2


class ToleranceNotAchieved(RuntimeError):
    """Raised when the panel budget runs out; carries the best estimate."""

    def __init__(self, message, estimate):
        super().__init__(message)
        self.estimate = estimate


@dataclass(frozen=True)
class NormEstimate:
    """An L^q norm value with the method that produced it and the error
    estimate the method actually achieved (absolute, on the norm)."""

    value: float
    method: str  # 'closed-form' | 'quadrature' | 'dft'
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

    @property
    def xi_spacing(self) -> float:
        return 1.0 / (self.n * self.dx)


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

_EPS = np.finfo(float).eps


def _gk_panels(fn, lo, hi):
    """Kronrod values and QUADPACK-style error estimates on the panels
    ``[lo[i], hi[i]]``, from one ``fn`` call on an (npanels, 15) array."""
    half = 0.5 * (hi - lo)
    xs = (0.5 * (hi + lo))[:, None] + half[:, None] * _K15_NODES
    fx = np.asarray(fn(xs), dtype=float)
    ik = half * (fx @ _K15_WEIGHTS)
    ig = half * (fx[:, _G7_IDX] @ _G7_WEIGHTS)
    mean = ik / (hi - lo)
    resasc = half * (np.abs(fx - mean[:, None]) @ _K15_WEIGHTS)
    delta = np.abs(ik - ig)
    scaled = resasc > 0.0
    ratio = np.divide(200.0 * delta, resasc, out=np.zeros_like(delta), where=scaled)
    err = np.where(scaled, resasc * np.minimum(1.0, ratio ** 1.5), delta)
    return ik, np.maximum(err, 50.0 * _EPS * np.abs(ik))


def integrate_adaptive(fn, lo, hi, rel_tol, breakpoints=()):
    """Adaptively integrate ``fn`` over [lo, hi].

    Returns ``(value, err_estimate, converged, panels)``.  ``fn`` takes
    an array of any shape.  Each round sorts the panels by error estimate
    (stable, largest first), takes the shortest prefix whose summed
    estimate covers the excess over ``rel_tol * |value|``, and bisects
    all of it with one ``fn`` call.  Panels within a few float spacings
    of their width limit keep their error and are never bisected;
    refinement gives up once their error alone exceeds the target, and
    bisection stops before the panel count would exceed ``MAX_PANELS``
    (read at call time).  Sums run in panel position order, so results
    are reproducible run to run.
    """
    inner = (float(b) for b in breakpoints if lo < b < hi)
    pts = np.array(sorted({float(lo), float(hi), *inner}))
    los, his = pts[:-1], pts[1:]
    vals, errs = _gk_panels(fn, los, his)
    total, err_total = float(vals.sum()), float(errs.sum())
    while err_total > rel_tol * abs(total) and los.size < MAX_PANELS:
        mids = 0.5 * (los + his)
        # A panel one float spacing wide rounds all 15 nodes to one value
        # and would report zero error, so only panels whose halves can
        # be bisected again are split.
        left, right = 0.5 * (los + mids), 0.5 * (mids + his)
        splittable = (los < left) & (left < mids) & (mids < right) & (right < his)
        order = np.argsort(-errs, kind="stable")
        order = order[splittable[order]]
        # Refinement moves the total by at most err_total and never lowers
        # the error of panels that cannot be split; once that error alone
        # exceeds the target at the largest total refinement could reach,
        # no further round can converge.
        if order.size == 0 or (
            order.size < los.size
            and float(errs[~splittable].sum()) > rel_tol * (abs(total) + err_total)
        ):
            break
        covered = np.cumsum(errs[order])
        take = int(np.searchsorted(covered, err_total - rel_tol * abs(total))) + 1
        split = order[: min(take, MAX_PANELS - los.size)]
        new_lo = np.concatenate((los[split], mids[split]))
        new_hi = np.concatenate((mids[split], his[split]))
        new_vals, new_errs = _gk_panels(fn, new_lo, new_hi)
        keep = np.ones(los.size, dtype=bool)
        keep[split] = False
        los = np.concatenate((los[keep], new_lo))
        by_position = np.argsort(los, kind="stable")
        los = los[by_position]
        his = np.concatenate((his[keep], new_hi))[by_position]
        vals = np.concatenate((vals[keep], new_vals))[by_position]
        errs = np.concatenate((errs[keep], new_errs))[by_position]
        total, err_total = float(vals.sum()), float(errs.sum())
    converged = err_total <= rel_tol * abs(total)
    return total, err_total, converged, int(los.size)


def _radius_from_log_u(log_u, alpha, shift):
    """Invert erfc for the tail radius; log_u = log of the erfc argument
    target, alpha = pi*q*w.  Floors the radius at one decay length."""
    u = math.exp(min(log_u, 0.0))
    u = max(u, 1e-300)
    r = float(erfcinv(u)) / math.sqrt(alpha)
    return shift + max(r, 1.0 / math.sqrt(alpha))


def _log_tail_bound(amp_sum, width_floor, q, radius, shift):
    """log of  S**q * sqrt(pi/alpha) * erfc(sqrt(alpha)*(R-shift)),
    the two-sided tail of the envelope integral beyond |x| = R."""
    alpha = math.pi * q * width_floor
    z = math.sqrt(alpha) * (radius - shift)
    if z <= 0.0:
        return math.inf
    return (
        q * math.log(amp_sum)
        + 0.5 * math.log(math.pi / alpha)
        + math.log(float(erfcx(z)))
        - z * z
    )


def truncation_radius(f, q: float, tol: float) -> float:
    """Radius R with the envelope tail bound outside [-R, R] below tol/2.

    Monotone: loosening tol never increases R.
    """
    if not (math.isfinite(q) and q >= 1.0):
        raise ValueError(f"exponent must be finite and >= 1, got {q}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tolerance must be positive, got {tol}")
    amp_sum, width_floor, shift = f.envelope()
    if amp_sum <= 0.0:
        return shift + 1.0
    alpha = math.pi * q * width_floor
    log_coef = q * math.log(amp_sum) + 0.5 * math.log(math.pi / alpha)
    return _radius_from_log_u(math.log(0.5 * tol) - log_coef, alpha, shift)


def _seed_breakpoints(f, q, radius):
    """Initial panel edges: a geometric ladder from the finest decay
    length up to the truncation radius, so widely separated scales are
    resolved before any adaptive refinement happens."""
    _, _, shift = f.envelope()
    finest = min(f.scales()) / math.sqrt(q)
    pts = {0.0}
    v = finest
    while v < radius and len(pts) < 80:
        pts.add(v)
        pts.add(-v)
        v *= 4.0
    if 0.0 < shift < radius:
        pts.add(shift)
        pts.add(-shift)
    return sorted(pts)


def lq_norm_quad(f, q: float, tol: float) -> NormEstimate:
    """L^q norm of ``f`` by certified truncation plus adaptive panels.

    The requested tolerance is relative and is split evenly between the
    truncation bound and the quadrature estimate; the returned estimate
    reports what was actually achieved.  Raises
    :class:`ToleranceNotAchieved` (carrying the best estimate) if the
    panel budget runs out first.
    """
    if not (math.isfinite(q) and q >= 1.0):
        raise ValueError(f"norm exponent must be finite and >= 1, got {q}")
    if not (TOL_FLOOR <= tol <= TOL_CEIL):
        raise ValueError(f"tolerance must lie in [{TOL_FLOOR}, {TOL_CEIL}], got {tol}")
    amp_sum, width_floor, shift = f.envelope()
    if amp_sum == 0.0:
        return NormEstimate(0.0, "quadrature", 0.0, q)

    def integrand(x):
        v = np.asarray(f.eval(x))
        mag2 = v.real * v.real + v.imag * v.imag
        return np.power(mag2, 0.5 * q)

    alpha = math.pi * q * width_floor
    log_coef = q * math.log(amp_sum) + 0.5 * math.log(math.pi / alpha)
    # Initial radius assumes the integral could undershoot the envelope
    # scale by six orders (cancellation); the loop below tightens R
    # against the actually computed integral.
    radius = _radius_from_log_u(math.log(0.25e-6 * tol), alpha, shift)
    total = err = 0.0
    converged = True
    panels = 0
    for _ in range(4):
        total, err, converged, panels = integrate_adaptive(
            integrand, -radius, radius, 0.5 * tol, _seed_breakpoints(f, q, radius)
        )
        if total <= 0.0:
            break
        log_trunc = _log_tail_bound(amp_sum, width_floor, q, radius, shift)
        if log_trunc <= math.log(0.5 * tol * total):
            break
        radius = _radius_from_log_u(
            math.log(0.25 * tol * total) - log_coef, alpha, shift
        )
    if total <= 0.0:
        return NormEstimate(0.0, "quadrature", 0.0, q)
    trunc = math.exp(_log_tail_bound(amp_sum, width_floor, q, radius, shift))
    rel_err = (err + trunc) / total
    value = total ** (1.0 / q)
    estimate = NormEstimate(value, "quadrature", value * rel_err / q, q)
    if not converged or rel_err > tol:
        raise ToleranceNotAchieved(
            f"{type(f).__name__} L^{q:g} norm: tolerance {tol:g} not achieved "
            f"(relative error {rel_err:.3g}, radius {radius:.6g}, {panels} panels)",
            estimate,
        )
    return estimate


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
    return SampledFunction(s.n, s.xi_spacing, out)


def norm_from_samples(s: SampledFunction, q: float) -> NormEstimate:
    """Riemann-sum L^q norm of a sampled function (method tag 'dft').

    The error estimate compares against the stride-2 subgrid, which is
    crude but honest for smooth decaying samples.
    """
    if not (math.isfinite(q) and q >= 1.0):
        raise ValueError(f"norm exponent must be finite and >= 1, got {q}")
    mag = np.abs(s.samples)
    full = float((s.dx * np.sum(mag ** q)) ** (1.0 / q))
    half = float((2.0 * s.dx * np.sum(mag[::2] ** q)) ** (1.0 / q))
    return NormEstimate(full, "dft", abs(full - half), q)
