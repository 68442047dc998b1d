"""Real-line quadrature and a sampled Fourier oracle.

Every integrand here is ``(|f|/M)**q`` for a test function f carrying an
explicit Gaussian envelope ``S * exp(-pi*w*(|x|-shift)**2)``, M the
largest sampled |f|, so no amplitude of f overflows or underflows it, and
the integral is truncated to ``[-R, R]`` with a certified tail bound,
erfc(t) <= exp(-t*t), stated and inverted in closed form in log space,
rather than a heuristic cutoff.  The bound is stated in the decay length
1/sqrt(pi*q*w) of ``|f|**q``, which is finite even where pi*q*w
overflows, and with the envelope amplitude S(R) that holds beyond R,
which for a mixture counts each term's decay faster than w; R is picked
from the first round's totals.  The
integrand is folded onto [0, R], ``(|f(x)|/M)**q + (|f(-x)|/M)**q``:
where |f| is even, mirror panels of [-R, R] would carry equal error
estimates, and a round could split one twin and converge on the other's
unsplit, aliased one.  An even f is evaluated at x alone, and the fold
is ``2 * (|f(x)|/M)**q``, the same bits.  The finite interval is then
handled adaptively with an embedded Gauss7/Kronrod15 pair per panel,
refined in rounds: each round splits every panel it selects into
quarters and evaluates all of their nodes, at x (and -x unless f is
even), at once.  The integrand
is array-valued, one component per exponent of a norm request, all on
one shared mesh (Shampine, "Vectorized adaptive quadrature in MATLAB",
2008), so ``lq_norm_quad`` computes ||f||_q for a tuple of exponents in
one pass.
The reported error estimate is the sum of the achieved panel estimates
and the truncation bound, never the requested tolerance.

``lq_norm_quad_batch`` takes many ``(f, exponents)`` requests in
lockstep, each with exponents of its own, and ``lq_norm_quad`` is its
batch of one.  Each request's integrand owns its mesh: its own
components, one per exponent, panel arrays, peak, tail bounds, radius,
``MAX_PANELS`` budget and give-up rule, and it reads only its own
panels, with the numpy calls it makes alone, for every decision: its
totals, the ranking of its panels, how many to split.  The batch shares
only the evaluation of a round: one panel-rule call, which computes the
nodes of all new panels in one array and evaluates the requests that
have new panels one family at a time, the requests whose functions
share an evaluator, a parity and exponents: one evaluator call on all
of their nodes, then |f|, the powers, the fold and the half-width
products each once over the family's values.  Each of these is
elementwise and rounds a value as it does alone; the error formula runs
once over the columns of all requests.  The panel rule's weighted sums
alone are matrix products over one request's panels at a time, since
BLAS rounds a row by where it sits in the array.  So a request's
estimates are bit for bit those of its batch of one.  A batch runs
``BATCH_FUNCTIONS`` requests at a time, which bounds the working arrays
whatever the size of the batch.

Test functions plug in through five duck-typed hooks:

* ``f.evaluator``          the family evaluator f shares with the functions
                           one array pass can evaluate with it, hashable;
                           ``evaluator(fs, x, counts)`` gives the values of
                           ``fs[i]`` at its ``counts[i]`` consecutive points
                           of the flat array x, concatenated, each bit for
                           bit as ``fs[i]`` alone (f.eval is its batch of
                           one),
* ``f.envelope(radius=0.0)``
                           ``(S, w, shift)`` as above, with
                           |f(x)| <= S * exp(-pi*w*(|x|-shift)**2) for
                           |x| >= max(radius, shift) and |f| <= S within;
                           S may shrink as the radius grows,
* ``f.is_even()``          True only when f(-x) == f(x) to the bit,
* ``f.scales()``           ascending decay lengths used to seed panels,
* ``f.cross_phases()``     ``(rate, width)`` of each cross term of ``|f|**2``
                           whose phase turns, ``exp(-pi*width*x**2)`` times
                           a phase ``pi*rate*x**2``; empty for functions
                           without such terms.

The seed mesh follows the last two: a ratio-4 ladder from the
finest decay length, rungs at half-octave steps over each decay length,
and one rung per period of each cross-term phase out to where its
envelope has fallen by exp(-80), so that no seed panel spans several
periods of a chirp, where Gauss7 and Kronrod15 alias together and their
difference understates the panel's error.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

MAX_PANELS = 100_000
# Most points of a sampled grid; larger requests are rejected before
# anything is allocated.
MAX_SAMPLES = 2**22
# Most requests whose passes run in lockstep: a larger batch runs in
# slices of this many, one after the other, so that its working arrays
# do not grow with it.  A slice's solo retries, one exponent each, carry
# no more integrand components than its shared passes did.
BATCH_FUNCTIONS = 64
TOL_FLOOR = 1e-13
TOL_CEIL = 1e-2
# The seed mesh's rungs over each decay length, 2**(j/2) for j = 0..4.
_HALF_OCTAVES = tuple(2.0 ** (0.5 * j) for j in range(5))
# Most cross-term phase rungs of one seed mesh, the nearest the origin;
# refinement resolves a phase beyond them.
MAX_PHASE_RUNGS = 1000


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
    """Values on the centered grid x_j = (j - n/2)*dx, j = 0..n-1, under
    the rule of :func:`check_grid`.

    The implied frequency grid after :func:`dft_approx` is
    xi_k = (k - n/2)/(n*dx), i.e. the output is again a SampledFunction
    whose spacing is 1/(n*dx).
    """

    n: int
    dx: float
    samples: np.ndarray = field(repr=False)

    def __post_init__(self):
        check_grid(self.n, self.dx)
        samples = np.asarray(self.samples, dtype=complex)
        if samples.shape != (self.n,):
            raise ValueError(f"expected {self.n} samples, got shape {samples.shape}")
        object.__setattr__(self, "samples", samples)

    def x_grid(self) -> np.ndarray:
        return _centered_grid(self.n, self.dx)


def check_grid(n: int, dx: float | None = None) -> None:
    """The sampling grid rule: n is a power of two in [16, MAX_SAMPLES],
    and dx, when given, is positive with the grid span n*dx and the dual
    span 1/dx finite.  Raises ValueError naming the value that breaks it."""
    if n < 16 or n > MAX_SAMPLES or n & (n - 1):
        raise ValueError(f"n must be a power of two from 16 to {MAX_SAMPLES}, got {n}")
    if dx is not None and not (dx > 0.0 and math.isfinite(n * dx)
                               and math.isfinite(1.0 / dx)):
        raise ValueError(f"dx must be positive with n*dx and 1/dx finite, got {dx}")


def _centered_grid(n: int, dx: float) -> np.ndarray:
    return (np.arange(n) - n // 2) * dx


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


def _gk_panels(fns, los, his):
    """Per integrand, a ``(2k, npanels)`` block of Kronrod values (rows
    0..k-1) over QUADPACK-style error estimates (rows k..2k-1) of its k
    components on its panels: those of ``fns[j]`` are
    ``[los[j][i], his[j][i]]``.

    The integrands are evaluated one family at a time: those with equal
    ``family`` keys make one call ``stack(members, x, counts)`` of their
    ``stack``, on the ``(npanels, 15)`` array x of the nodes of all of
    their panels, ``counts[i]`` consecutive rows for ``members[i]``,
    which returns a new float array of their values, of shape ``(k,
    npanels, 15)``, or x's own shape when k = 1.  A plain function of x
    is a family of its own, called on its nodes.  The nodes of all panels are computed at once, and each
    family's values are multiplied by their half-widths at once, so that
    each row's weighted sum is an integral.  The sums are matrix products
    over one integrand's panels at a time: BLAS rounds a row differently
    by where it sits in the array, and an integrand's rows sit where they
    sit alone.  The error formula runs once over the ``(k*npanels, 2)``
    columns of all integrands, whatever each one's k, and each block is
    sliced back out of its result."""
    families = {}
    for j, fn in enumerate(fns):
        families.setdefault(getattr(fn, "family", fn), []).append(j)
    order = [j for js in families.values() for j in js]
    lo, hi = np.concatenate([los[j] for j in order]), np.concatenate([his[j] for j in order])
    halves = 0.5 * (hi - lo)[:, None]
    nodes = 0.5 * (hi + lo)[:, None] + halves * _K15_NODES
    # per family: its integrands, their runs of its panels, and its
    # (k, npanels) slabs of Kronrod and Kronrod-minus-Gauss sums and resasc
    slabs, a = [], 0
    for js in families.values():
        stack, counts = getattr(fns[js[0]], "stack", _called), [len(los[j]) for j in js]
        runs = _runs(counts)
        b = a + runs[-1][1]
        x = nodes[a:b]
        fx = stack([fns[j] for j in js], x, counts).reshape(-1, *x.shape)
        fx *= halves[a:b]
        a = b
        sums = np.empty((*fx.shape[:2], 2))
        for s, e in runs:
            np.matmul(fx[:, s:e], _KD_WEIGHTS, out=sums[:, s:e])
        # fx turns into |fx - ik/2|, whose weighted sums are resasc
        fx -= 0.5 * sums[..., :1]
        np.abs(fx, out=fx)
        resasc = np.empty(fx.shape[:2])
        for s, e in runs:
            np.matmul(fx[:, s:e], _K15_WEIGHTS, out=resasc[:, s:e])
        slabs.append((js, runs, sums, resasc))
    kd = np.concatenate([sums.reshape(-1, 2) for _, _, sums, _ in slabs])
    resasc = np.concatenate([resasc.ravel() for *_, resasc in slabs])
    ik = kd[:, 0]
    # A constant panel has resasc 0 and ratio 0 here: its |ik - ig| is
    # rounding (the two weight sums differ by about 16 eps), which the
    # 50 eps floor covers.
    ratio = np.divide(200.0 * np.abs(kd[:, 1]), resasc, out=np.zeros(ik.shape),
                      where=resasc > 0.0)
    err = resasc * np.minimum(1.0, ratio ** 1.5)
    ve = np.concatenate((ik, np.maximum(err, 50.0 * _EPS * np.abs(ik)))).reshape(2, -1)
    blocks, a = [None] * len(fns), 0
    for js, runs, sums, _ in slabs:
        k, n = sums.shape[:2]
        family = ve[:, a:a + k * n].reshape(2, k, n)
        a += k * n
        for j, (s, e) in zip(js, runs):
            blocks[j] = family[:, :, s:e].reshape(2 * k, e - s)
    return blocks


def _called(fns, x, counts):
    """The stack of a plain function of x, a family of its own: its
    values at the nodes x of all of its panels, as a new float array."""
    return np.array(fns[0](x), dtype=float)


def _runs(counts):
    """The ``(start, end)`` of each of the consecutive runs of ``counts``
    items."""
    ends = list(accumulate(counts))
    return list(zip([0] + ends[:-1], ends))


def spread(values, counts):
    """``values[i]`` over each of ``counts[i]`` consecutive points, for a
    family evaluator: ``values[0]`` itself when there is one, which
    broadcasts over the points at no cost, else an array."""
    if len(values) == 1:
        return values[0]
    return np.repeat(values, counts)


def _quarters(lo, hi):
    """Rows lo, q1, q2, q3, hi over the panels ``[lo[i], hi[i]]``: q2 the
    midpoint, q1 and q3 the midpoints of the two halves."""
    q2 = 0.5 * (lo + hi)
    return np.array((lo, 0.5 * (lo + q2), q2, 0.5 * (q2 + hi), hi))


def integrate_adaptive(fns, edges, rel_tol, first=None):
    """Adaptively integrate each of the integrands ``fns``, each on a
    mesh of its own, starting from the panels between consecutive points
    of its ``edges`` (ascending), and refine them in lockstep: each round
    evaluates the new panels of every integrand that has any in one
    :func:`_gk_panels` call, one stacked evaluation per family.

    ``fns[j]`` maps an array x to values of shape ``(k, *x.shape)``, or
    of x's own shape when k = 1, k the number of its components, which
    share its mesh; or it is one of a family, evaluated with the others
    by its ``stack`` (see :func:`_gk_panels`), as the passes of
    :func:`lq_norm_quad_batch` are.
    ``first``, when given, is the first round ``_gk_panels(fns, [e[:-1]
    for e in edges], [e[1:] for e in edges])``, already evaluated by the
    caller; neither its blocks nor ``edges`` are written.  Returns
    ``(values, err_estimates, converged, panels, counts)``: the first
    three lists of one row of its k per integrand, ``panels`` the total
    panel count and ``counts`` each integrand's.  Component i of an
    integrand has converged when its estimate is at most
    ``rel_tol * |values[i]|``.  An integrand reads only its own panels
    for every decision, so its mesh and results are bit for bit those
    it gets alone.

    Each round ranks an integrand's panels by their largest error
    relative to that component's target (stable sort, largest first),
    takes the shortest prefix whose summed estimates cover every
    component's excess over its target, and splits each of its panels
    into four quarters: two levels of bisection per round, since a
    round's fixed cost outweighs its points.  Panels whose eighth points
    are not all distinct floats keep their error and are never split;
    an integrand's refinement gives up once their error alone exceeds a
    component's target.  Each split adds three panels, and a round
    splits only as many of an integrand's panels as keep its count
    within ``MAX_PANELS`` (read at call time); its refinement stops once
    not one more split fits.  A first quarter takes its parent's place
    and the other three follow the integrand's panels, so every sum runs
    in a fixed order and results are reproducible run to run.
    """
    meshes = [np.asarray(e, dtype=float) for e in edges]
    if first is None:
        first = _gk_panels(fns, [m[:-1] for m in meshes], [m[1:] for m in meshes])
    n = len(fns)
    values, errors, converged, panels = [None] * n, [None] * n, [None] * n, [0] * n
    # (integrand, panel los, his and values over errors) of each one refining
    live = [(i, m[:-1], m[1:], ve) for i, (m, ve) in enumerate(zip(meshes, first))]
    while True:
        splits = []  # (integrand, los, his, ve, panels to split) of each one that splits
        for i, lo, hi, ve in live:
            k = len(ve) // 2
            # Per-integrand totals, targets and excesses are Python floats:
            # k is a handful, and numpy calls on k-vectors cost more than
            # loops.
            sums = ve.sum(1).tolist()
            excess = [e - rel_tol * abs(t) for t, e in zip(sums, sums[k:])]
            split = None
            if max(excess) > 0.0 and lo.size + 3 <= MAX_PANELS:
                # Midpoints, quarter and eighth points are each off by at
                # most half a float spacing of the largest |x|, so a panel
                # wider than 16 such spacings always has distinct eighth
                # points.
                narrow = 16.0 * math.ulp(max(-meshes[i][0], meshes[i][-1]))
                split = _to_split(lo, hi, ve[k:], sums, excess, rel_tol, narrow)
            if split is None:
                values[i], errors[i], converged[i] = sums[:k], sums[k:], [x <= 0.0 for x in excess]
                panels[i] = lo.size
            else:
                splits.append((i, lo, hi, ve, split[:(MAX_PANELS - lo.size) // 3]))
        if not splits:
            break
        cuts = [_quarters(lo[s], hi[s]) for _, lo, hi, _, s in splits]
        new_ves = _gk_panels([fns[i] for i, *_ in splits], [c[:-1].ravel() for c in cuts],
                             [c[1:].ravel() for c in cuts])
        live = []
        for (i, lo, hi, ve, s), c, new_ve in zip(splits, cuts, new_ves):
            # The other three quarters follow the integrand's panels on new
            # arrays; only then does a first quarter take its parent's
            # place, so the caller's edges and first blocks are not written.
            m = s.size
            lo, hi = np.concatenate((lo, c[1:-1].ravel())), np.concatenate((hi, c[2:].ravel()))
            ve = np.concatenate((ve, new_ve[:, m:]), 1)
            hi[s], ve[:, s] = c[1], new_ve[:, :m]
            live.append((i, lo, hi, ve))
    return values, errors, converged, sum(panels), panels


def _to_split(los, his, errs, sums, excess, rel_tol, narrow):
    """The panels of one integrand that a round splits, by index: its
    panels ranked by their largest error relative to that component's
    target (stable sort, largest first), as many as the shortest prefix
    whose summed estimates cover every component's excess over its
    target.  None once refinement cannot converge: when no panel can be
    split, or the error of those that cannot exceeds a target."""
    scale = np.array([-1.0 / max(rel_tol * abs(t), _TINY) for t in sums[:len(errs)]])
    order = np.argsort(np.minimum.reduce(errs * scale[:, None]), kind="stable")
    if (his - los).min() <= narrow:
        # A panel one float spacing wide rounds all 15 nodes to one value
        # and would report zero error, so only panels whose quarters can
        # be quartered again are split.
        cuts = _quarters(los, his)
        eighths = 0.5 * (cuts[:-1] + cuts[1:])
        splittable = ((cuts[:-1] < eighths) & (eighths < cuts[1:])).all(0)
        order = order[splittable[order]]
        # Refinement moves a total by at most its error and never lowers
        # the error of panels that cannot be split; once that error alone
        # exceeds a component's target at the largest total refinement
        # could reach, no further round can converge.
        if order.size == 0 or (order.size < los.size and any(
            stuck > rel_tol * (abs(t) + e)
            for stuck, t, e in zip(errs[:, ~splittable].sum(1).tolist(), sums, sums[len(errs):])
        )):
            return None
    covered = np.cumsum(errs[:, order], axis=1)
    return order[:1 + max([int(c.searchsorted(x)) for c, x in zip(covered, excess)])]


def _log_tail(length, shift, radius):
    """log of sqrt(pi)*length * exp(-t*t), t = (radius-shift)/length, which
    bounds the integral of exp(-((|x|-shift)/length)**2) over |x| > radius
    for radius >= shift: that integral is sqrt(pi)*length * erfc(t), and
    erfc(t) <= exp(-t*t) for t >= 0, with equality at t = 0.  Finite at
    any such radius and any positive decay length."""
    t = (radius - shift) / length
    return math.log(math.sqrt(math.pi) * length) - t * t


def _tail_radius(length, shift, log_target):
    """Inverse of :func:`_log_tail`, floored at one decay length past
    shift."""
    t_squared = math.log(math.sqrt(math.pi) * length) - log_target
    return shift + length * math.sqrt(max(t_squared, 1.0))


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
    """Initial panel edges on [0, radius], ascending: a ratio-4 ladder of
    at most 40 rungs from the finest decay length s of |f|**q up to the
    radius, so widely separated scales are resolved before any adaptive
    refinement happens; rungs at s * 2**(j/2), j = 0..4, for every decay
    length s, so each term's shoulder is resolved too; and, for each
    cross-term phase of rate r, the rungs sqrt(2*m/r), m = 1, 2, ..., one
    per period, out to where the cross term's envelope exp(-pi*width*x*x)
    falls below exp(-80), keeping the ``MAX_PHASE_RUNGS`` of them nearest
    the origin."""
    lengths = [s / math.sqrt(q) for s in f.scales()]
    ladder = [0.0]
    v = min(lengths)
    while v < radius and len(ladder) < 41:
        ladder.append(v)
        v *= 4.0
    pts = {shift, *ladder, *[s * r for s in lengths for r in _HALF_OCTAVES]}
    phases = []
    for rate, width in f.cross_phases():
        reach = min(radius, math.sqrt(80.0 / (math.pi * width)))
        count = int(min(MAX_PHASE_RUNGS, 0.5 * rate * reach * reach))
        phases.append(np.sqrt((2.0 / rate) * np.arange(1, count + 1)))
    if phases:
        pts.update(np.unique(np.concatenate(phases))[:MAX_PHASE_RUNGS].tolist())
    pts = sorted(pts)
    del pts[bisect_left(pts, radius):]
    pts.append(radius)
    return np.array(pts)


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
    """L^q norms of ``f`` by certified truncation plus adaptive panels:
    :func:`lq_norm_quad_batch` of the one request ``(f, exponents)``."""
    return lq_norm_quad_batch([(f, exponents)], tol)[0]


def lq_norm_quad_batch(requests, tol: float) -> list[tuple[NormEstimate, ...]]:
    """L^q norms of each ``(f, exponents)`` request, a tuple of
    :class:`NormEstimate` per request, one per exponent in order.

    Each request's exponents share one pass: one radius, the largest
    any of them needs, and one mesh, refined until every exponent
    converges, evaluated once per round.  The seed round picks the
    radius, so a pass rarely starts over.  The passes run in lockstep,
    each on a mesh of its own with one component per exponent (see
    :func:`integrate_adaptive`), so a request's estimates do not depend
    on the batch it is in, nor on the exponents of the others.  The
    integrand is ``(|f|/M)**q`` with M the largest |f| on the first
    round's nodes, so it stays representable however far |f| lies below
    its envelope amplitude S; each exponent's tail bound carries the
    factor (S/M)**q in log space.  The requested tolerance is relative
    and is split evenly between the truncation bound and the quadrature
    estimate; the returned estimates report what was actually achieved.
    Rounding noise in one exponent's integrand keeps a shared mesh
    refining and can fail an exponent that converges on its own mesh, so
    each exponent a shared pass misses is integrated again in a pass of
    its own.  Raises :class:`ToleranceNotAchieved` for the first request
    that still misses, naming every exponent that missed alone and
    carrying the tuple of its best estimates (the solo ones for those
    exponents), if the panel budget runs out first; the message gives
    the largest radius and panel count of its failed passes, panels of
    the half-line [0, radius] that the folded integrand is refined on.
    """
    requests = [(f, tuple(map(float, exponents))) for f, exponents in requests]
    for _, exponents in requests:
        if not exponents:
            raise ValueError("no norm exponent given")
        for e in exponents:
            check_exponent(e)
    check_tolerance(tol)
    found = []
    for start in range(0, len(requests), BATCH_FUNCTIONS):
        passes = _quad_passes(requests[start:start + BATCH_FUNCTIONS], tol)
        # Every exponent that a shared pass of the slice missed, integrated
        # again alone: one batch of single-exponent passes.
        retries = [(p, i) for p in passes if len(p.exponents) > 1 for i, _ in p.missed]
        for p, _ in retries:
            p.missed, p.radius, p.panels = [], 0.0, 0
        for (p, i), solo in zip(retries, _quad_passes(
                [(p.f, p.exponents[i:i + 1]) for p, i in retries], tol)):
            p.found[i] = solo.found[0]
            if solo.missed:
                p.missed.append((i, solo.missed[0][1]))
                p.radius, p.panels = max(p.radius, solo.radius), max(p.panels, solo.panels)
        for p in passes:
            if p.missed:
                raise ToleranceNotAchieved(
                    f"{type(p.f).__name__} "
                    f"{', '.join(f'L^{p.exponents[i]:g}' for i, _ in p.missed)} "
                    f"norm{'s' if len(p.missed) > 1 else ''}: tolerance {tol:g} not achieved "
                    f"(relative error {', '.join(f'{r:.3g}' for _, r in p.missed)}, "
                    f"radius {p.radius:.6g}, {p.panels} panels)",
                    tuple(p.found),
                )
            found.append(tuple(p.found))
    return found


class _Pass:
    """One request's shared pass, ``f`` over its validated float
    ``exponents``: its folded integrand (evaluated by :meth:`stack`, for
    the passes of its ``family`` at once), its radius and mesh, and, once
    run, ``found`` (the estimates in order),
    ``missed`` (the index and relative error of each exponent that missed
    tol), the final ``radius`` and the ``panels`` of its mesh on
    [0, radius].

    The folded integrand takes |f| at x and -x in one evaluation, so every
    panel on [0, R] stands for itself and its mirror image, and the peak
    is read from both sides of the seed round.  An even f is evaluated at
    x alone: f(-x) == f(x) to the bit, and p + p == 2*p.  Beyond a radius
    R, |f/S(R)|**q lies below exp(-((|x|-shift)/L)**2), S(R) the envelope
    amplitude there and L the decay length, whose tails _log_tail bounds.
    The initial radius assumes the integral could undershoot the
    envelope's own integral beyond shift, sqrt(pi)*L, by six orders
    (cancellation), so its tail bound is tol/4 of that undershot
    integral.  The seed round on it sets the peak M, the largest |f| on
    its nodes (else S, else 1), and where its totals show a tail bound too
    large, they pick the radius: panels out to it join the seeded ones,
    whose values are kept.  Where the tail bounds at the refined totals
    still miss, those totals widen the seeded mesh the same way and it is
    refined anew.  The zero function takes the same pass: its totals are
    0, which covers every tail and needs no split, so its norms are 0.
    """

    def __init__(self, f, exponents, tol):
        self.f, self.exponents, self.tol = f, exponents, tol
        self.scale, width_floor, self.shift = f.envelope()
        self.missed, self.radius, self.panels = [], 0.0, 0
        self.even = f.is_even()
        # the key of the passes that one call of stack evaluates together
        self.family = (f.evaluator, self.even, exponents)
        self.peak = 0.0
        self.lengths = [_decay_length(e, width_floor) for e in exponents]
        self.radius = self.shift + max(self.lengths) * math.sqrt(-math.log(0.25e-6 * tol))
        self.edges = _seed_edges(f, max(exponents), self.shift, self.radius)

    @staticmethod
    def stack(passes, x, counts):
        """The folded integrands of ``passes``, one family, as the stack
        of :func:`_gk_panels`: ``passes[i]`` on its ``counts[i]``
        consecutive rows of the node array x.

        The family's evaluator takes the functions at all of x, and at
        -x too when they are not even, in one call.  |f|, each pass's peak
        in its first round, the ratios to the peaks, the powers and the
        fold then run once over the whole family, each elementwise, so
        every value is bit for bit the one a pass gets alone.  Each power
        is one np.power call with its exponent alone: within one call of
        three or more exponents numpy rounds a square by pow(x, 2.0), on
        small arrays only, and alone by x*x."""
        lead, sizes = passes[0], [15 * n for n in counts]
        evaluate, fs = lead.family[0], [p.f for p in passes]
        if lead.even:
            mag = np.abs(evaluate(fs, x.ravel(), sizes))[None]
        else:
            mag = np.abs(evaluate(fs + fs, np.concatenate((x, -x)).ravel(),
                                  sizes + sizes)).reshape(2, -1)
        fresh = [(i, p) for i, p in enumerate(passes) if not p.peak]
        if fresh:
            # the largest |f| on both sides of a pass's first round
            if len(passes) == 1:
                top = [float(mag.max())]
            else:
                starts = [0, *accumulate(sizes[:-1])]
                top = np.maximum.reduceat(mag, starts, axis=1).max(0).tolist()
            for i, p in fresh:
                p.peak = top[i] or p.scale or 1.0
        mag /= spread([p.peak for p in passes], sizes)
        power = np.empty((len(lead.exponents), *mag.shape))
        for e, out in zip(lead.exponents, power):
            np.power(mag, e, out=out)
        if lead.even:
            power *= 2.0
            return power
        return power[:, 0] + power[:, 1]

    def log_tails(self):
        amplitude = self.f.envelope(self.radius)[0]
        if amplitude == 0.0:
            return [-math.inf] * len(self.exponents)
        log_ratio = math.log(amplitude) - math.log(self.peak)
        return [_log_tail(n, self.shift, self.radius) + e * log_ratio
                for n, e in zip(self.lengths, self.exponents)]

    def covered(self):
        return min(self.totals) <= 0.0 or all(
            t <= math.log(0.5 * self.tol * total) for t, total in zip(self.tails, self.totals))

    def needed(self):
        """A radius that brings every tail bound to tol/4 of its total,
        from the envelope amplitude at radius 0, which bounds S(R) at
        every radius."""
        log_ratio = math.log(self.scale) - math.log(self.peak)
        return max(_tail_radius(n, self.shift, math.log(0.25 * self.tol * total) - e * log_ratio)
                   for n, e, total in zip(self.lengths, self.exponents, self.totals))

    def finish(self):
        """The estimates from the refined totals and the tail bounds."""
        self.found = []
        for i, (e, log_tail, total, err, ok) in enumerate(zip(
                self.exponents, self.tails, self.totals, self.errs, self.converged)):
            if total <= 0.0:
                self.found.append(NormEstimate(0.0, "quadrature", 0.0, e))
                continue
            rel_err = err / total + math.exp(min(log_tail - math.log(total), 700.0))
            value = self.peak * total ** (1.0 / e)
            self.found.append(NormEstimate(value, "quadrature", value * rel_err / e, e))
            if not (ok and rel_err <= self.tol):
                self.missed.append((i, rel_err))


def _quad_passes(requests, tol):
    """The shared :class:`_Pass` of each ``(f, exponents)`` request, run
    in lockstep, every request alike: one evaluation of every seed mesh,
    then radius rounds, each one :func:`integrate_adaptive` call over the
    passes whose tail bounds still miss."""
    passes = todo = [_Pass(f, exponents, tol) for f, exponents in requests]
    if not passes:
        return passes
    for p, first in zip(todo, _gk_panels(todo, [p.edges[:-1] for p in todo],
                                          [p.edges[1:] for p in todo])):
        p.first = first  # the seed round's block of the pass
        p.totals = first[:len(p.exponents)].sum(1).tolist()
        p.tails = p.log_tails()
    for _ in range(4):
        wider = []  # (pass, radius, edges beyond its radius) of each widening
        for p in todo:
            if not p.covered():
                radius = p.needed()
                if radius > p.radius:
                    grown = _seed_edges(p.f, max(p.exponents), p.shift, radius)
                    wider.append((p, radius, grown[grown > p.radius]))
        if wider:
            outer_first = _gk_panels([p for p, _, _ in wider],
                                    [np.concatenate(([p.radius], o[:-1])) for p, _, o in wider],
                                    [o for _, _, o in wider])
            for (p, radius, o), outer in zip(wider, outer_first):
                p.first = np.concatenate((p.first, outer), 1)
                p.edges, p.radius = np.concatenate((p.edges, o)), radius
                p.tails = p.log_tails()
        values, errs, converged, _, panels = integrate_adaptive(
            todo, [p.edges for p in todo], 0.5 * tol, [p.first for p in todo])
        for p, v, e, c, n in zip(todo, values, errs, converged, panels):
            p.totals, p.errs, p.converged, p.panels = v, e, c, n
        uncovered = [p for p in todo if not p.covered()]
        if not uncovered:
            break
        todo = uncovered
    for p in passes:
        p.finish()
    return passes


def sample(f, n: int, dx: float) -> SampledFunction:
    """Evaluate ``f`` on the centered n-point grid with spacing dx: its
    evaluator's batch of one.  The grid must follow :func:`check_grid`,
    which is checked before anything is allocated."""
    dx = float(dx)
    check_grid(n, dx)
    return SampledFunction(n, dx, f.evaluator([f], _centered_grid(n, dx), [n]))


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
