"""Inequality and closed-form checks over seeded function batches.

Every check reduces to a worst slack: for an inequality LHS <= RHS the
slack is RHS - LHS (negative means violation), and for an equality the
slack is minus the relative discrepancy.  A check passes when its worst
slack stays above minus its tolerance.  All sampling is seeded, sample
order is fixed, and reductions run in a fixed order, so a repeated run
reproduces every result bit for bit.

The randomized checks (fq-lower, hy, interp, reduction) read one seeded
batch of functions, of at most MAX_CHECK_SAMPLES.  Each fetches its
norm rows in one call, which raises before any norm is taken when
(q, p) lies outside the check's domain, and its worst slacks are minima
of its slack expressions over the rows.  closed-forms and the two
asymptotics rows (verify_divergence, verify_vanishing) run fixed grids
and read neither a seed nor a sample count.
:func:`run_suite` draws the batch once and takes the norms of each
function, and of its transform, once, over the union of the exponents
that the selected checks read, whose values every check then fetches;
the whole table goes to :func:`~uflab.functionals.norms_batch` in one
call, in which each function carries its own union, and numerics alone
decides how many of its quadrature requests refine in lockstep.
Exponents that share a quadrature mesh can move each other's values in
the last bits, so a row's last bits depend on its function's exponent
union, and with it on which checks were selected, but not on which
other functions share its batch.  Each invocation repeats
byte-identically.
"""

from __future__ import annotations

from collections.abc import Callable
from contextvars import ContextVar
from dataclasses import asdict, dataclass

import numpy as np

from .functionals import (
    beckner_constant,
    conjugate_exponent,
    eval_batch,
    fq_gc_lower_bound,
    gc_l2_norm_sq,
    gc_lq_bracket,
    interpolation_exponent,
    norms_batch,
)
# The shared exponent cap, F formula and transform rule.
from .functionals import _in_range, _ratio, _with_transform
from .gaussian import ChirpParams, TwoScaleParams, closed_form_Fq_chirp
from .hermite import random_schwartz

# Norm tolerance used inside verification checks; one-sided inequality
# slacks then only dip below zero by rounding, never by integration
# error.
QUAD_TOL = 1e-10
# Most functions in the seeded batch of a randomized check; a larger
# count is rejected before any function is drawn.
MAX_CHECK_SAMPLES = 100_000

# The two-scale parameters c of the asymptotics rows: F_q(g_c) diverges
# along the first grid, F_qp(g_c) vanishes along the second.
DIVERGENCE_GRID = tuple(np.geomspace(10.0, 1e4, 9).tolist())
VANISHING_GRID = tuple(np.geomspace(10.0, 1e6, 9).tolist())


@dataclass
class CheckResult:
    check_name: str
    parameters: dict
    samples: int
    worst_slack: float
    passed: bool
    seed: int | None
    observed: dict

    def to_json_dict(self) -> dict:
        """Every field in declaration order; ``passed`` is written "pass"."""
        return {("pass" if k == "passed" else k): v for k, v in asdict(self).items()}


@dataclass(frozen=True)
class _Check:
    """One suite row.  ``run(q, p, samples, seed)`` looks its entry point
    up by module-global name at call time, so a replaced module attribute
    (a tracing wrapper, say) sees every call.  ``exponents(q, p)`` of a
    randomized check are the norms it reads of each function and of its
    transform, which ``_norm_rows`` fetches once ``domain(q, p)`` holds.
    None marks default exponents, sample counts, domains and norm
    exponents that a check does not take; a None sample count marks a
    fixed-grid check, which reads neither a sample count nor a seed."""

    suite: str
    check_name: str
    run: Callable
    tol: float
    q: float | None = None
    p: float | None = None
    samples: int | None = None
    domain: Callable[[float, float | None], bool] | None = None
    exponents: Callable[[float, float | None], tuple] | None = None


def _reduction_exponents(q: float, p: float) -> tuple:
    """(q, p, p'), with p' taken as q on the boundary |p' - q| <= 1e-12,
    where F_qp' is then exactly 1."""
    pc = conjugate_exponent(p)
    return (q, p, q if abs(pc - q) <= 1e-12 else pc)


# The suite in SUITE_NAMES order: the only statement of each check's
# tolerance, default exponents, default sample count and domain.
_SUITE = (
    _Check("closed-forms", "closed-forms",
           lambda q, p, n, seed: verify_closed_forms(), 1e-8),
    _Check("fq-lower", "fq-lower",
           lambda q, p, n, seed: verify_fq_lower_bound(q, n, seed), 1e-7,
           1.5, None, 500, lambda q, p: _in_range(q) and q < 2.0,
           lambda q, p: (q, 2.0)),
    _Check("hy", "hausdorff-young",
           lambda q, p, n, seed: verify_hausdorff_young(q, n, seed), 1e-9,
           4.0 / 3.0, None, 200,
           lambda q, p: 1.0 < q <= 2.0 and _in_range(q, conjugate_exponent(q)),
           lambda q, p: (q, conjugate_exponent(q))),
    _Check("interp", "interpolation",
           lambda q, p, n, seed: verify_interpolation(q, p, n, seed), 1e-6,
           1.2, 1.5, 200, lambda q, p: _in_range(q, p) and q < p < 2.0,
           lambda q, p: (q, p, 2.0)),
    _Check("reduction", "reduction",
           lambda q, p, n, seed: verify_reduction_q_lt_2_le_p(q, p, n, seed), 1e-6,
           1.3, 3.0, 200,
           lambda q, p: _in_range(q, p) and q < 2.0 <= p and 1.0 / p + 1.0 / q >= 1.0 - 1e-12,
           _reduction_exponents),
    _Check("asymptotics", "asymptotics-divergence",
           lambda q, p, n, seed: verify_divergence(q), 1e-9,
           4.0, None, None, lambda q, p: _in_range(q) and q > 2.0),
    _Check("asymptotics", "asymptotics-vanishing",
           lambda q, p, n, seed: verify_vanishing(q, p), 1e-9,
           3.0, 6.0, None,
           lambda q, p: _in_range(q, p) and q < p and 1.0 / q + 1.0 / p < 1.0),
)
SUITE_NAMES = tuple(dict.fromkeys(row.suite for row in _SUITE))
_BY_CHECK = {row.check_name: row for row in _SUITE}


def _result(check_name, parameters, samples, worst, seed, observed) -> CheckResult:
    """The report of one check: its row's tolerance goes last in
    ``parameters`` and decides whether the worst slack passes."""
    tol = _BY_CHECK[check_name].tol
    return CheckResult(check_name, {**parameters, "tol": tol}, samples, worst,
                       worst >= -tol, seed, observed)


def _require_domain(check_name: str, q: float, p: float | None = None) -> None:
    if not _BY_CHECK[check_name].domain(q, p):
        raise ValueError(f"q={q}, p={p} lies outside the domain of {check_name}")


def _sample_functions(samples: int, seed: int):
    """Half mixtures, half expansions, with child seeds drawn from one
    generator so the batch is a pure function of (samples, seed)."""
    if not 1 <= samples <= MAX_CHECK_SAMPLES:
        raise ValueError(f"a randomized check needs 1 to {MAX_CHECK_SAMPLES} samples, "
                         f"got {samples}")
    rng = np.random.default_rng(seed)
    out = []
    for i in range(samples):
        child = int(rng.integers(0, 2 ** 63 - 1))
        family, top = ("gaussian-mixture", 5) if i % 2 == 0 else ("hermite", 9)
        out.append(random_schwartz(family, int(rng.integers(1, top)), child))
    return out


def _norm_table(seed: int, requests) -> list:
    """Norm values of the seeded batch for each ``(samples, exponents)``
    request, in request order: per request, one row per function of its
    first ``samples``, the pair (norms of f, norms of fhat), each a tuple
    in the order of its exponents.  The batch is drawn once, at the
    largest count, and function i and its transform (as
    ``_with_transform`` forms it) take their norms once each, over the union of the exponents of the requests whose
    count exceeds i, all of them in one ``norms_batch`` call."""
    batch = []
    for i, f in enumerate(_sample_functions(max(n for n, _ in requests), seed)):
        union = tuple(dict.fromkeys(e for n, exps in requests if n > i for e in exps))
        batch += [(g, union) for g in _with_transform(f)]
    sides = [dict(zip(union, (est.value for est in ests)))
             for (_, union), ests in zip(batch, norms_batch(batch, QUAD_TOL))]
    rows = [sides[j:j + 2] for j in range(0, len(sides), 2)]
    return [[tuple(tuple(side[e] for e in exps) for side in row) for row in rows[:n]]
            for n, exps in requests]


# The rows of the norm table that the run_suite call in progress built,
# keyed by the (samples, seed, exponents) request of the check they
# serve; empty outside run_suite.
_SUITE_TABLE: ContextVar[dict] = ContextVar("_SUITE_TABLE", default={})


def _norm_rows(check_name: str, q: float, p: float | None, samples: int, seed: int):
    """The norm rows of ``check_name`` at (q, p), once (q, p) lies in its
    domain: from the table of the run_suite call in progress, or else
    from a table of its own."""
    _require_domain(check_name, q, p)
    request = (samples, _BY_CHECK[check_name].exponents(q, p))
    rows = _SUITE_TABLE.get().get((seed, *request))
    return _norm_table(seed, [request])[0] if rows is None else rows


def verify_closed_forms() -> CheckResult:
    """Chirp ratios and the two-scale L^2 identity against quadrature;
    both sides stay independent, so no exact route stands in for the
    quadrature."""
    a_grid = (1.01, 1.1, 2.0, 10.0, 100.0)
    q_grid = (1.2, 1.5, 2.0, 3.0, 4.0, 8.0)
    c_grid = (0.1, 1.0, 2.0, 10.0, 100.0)
    slacks = []
    for q in q_grid:
        reports = eval_batch([ChirpParams(a) for a in a_grid], q, None, "quadrature", QUAD_TOL)
        for a, rep in zip(a_grid, reports):
            closed = closed_form_Fq_chirp(a, q)
            slacks.append(-abs(closed - rep.value) / closed)
    found = norms_batch([(TwoScaleParams(c).function, (2.0,)) for c in c_grid],
                        QUAD_TOL, "quadrature")
    for c, (est,) in zip(c_grid, found):
        closed = gc_l2_norm_sq(c)
        slacks.append(-abs(closed - est.value ** 2) / closed)
    worst, count = min(slacks), len(slacks)
    return _result("closed-forms", {"a_grid": list(a_grid), "q_grid": list(q_grid)},
                   count, worst, None, {})


def verify_fq_lower_bound(
    q: float, samples: int = _BY_CHECK["fq-lower"].samples, seed: int = 0
) -> CheckResult:
    """min F_q over a seeded batch stays above 1 (and is recorded against
    the sharper floor 1/B_q); stated for 1 < q < 2."""
    rows = _norm_rows("fq-lower", q, None, samples, seed)
    floor = 1.0 / beckner_constant(q)
    vmin = min(_ratio(nf_q, nh_q, nf_2, nh_2) for (nf_q, nf_2), (nh_q, nh_2) in rows)
    return _result("fq-lower", {"q": q}, samples, vmin - 1.0, seed,
                   {"min_value": vmin, "beckner_floor": floor, "beckner_slack": vmin - floor})


def verify_hausdorff_young(
    q: float, samples: int = _BY_CHECK["hausdorff-young"].samples, seed: int = 0
) -> CheckResult:
    """||fhat||_q' <= B_q * ||f||_q <= ||f||_q and its reflected twin on a
    seeded batch, 1 < q <= 2 (q' in the exponent range too)."""
    rows = _norm_rows("hausdorff-young", q, None, samples, seed)
    qc = conjugate_exponent(q)
    sharp = beckner_constant(q)
    worst = min(s for (nf_q, nf_qc), (nh_q, nh_qc) in rows
                for s in (nf_q - nh_qc, nh_q - nf_qc))
    worst_sharp = min(s for (nf_q, nf_qc), (nh_q, nh_qc) in rows
                      for s in (sharp * nf_q - nh_qc, sharp * nh_q - nf_qc))
    return _result("hausdorff-young", {"q": q, "q_conjugate": qc, "sharp_constant": sharp},
                   samples, min(worst, worst_sharp), seed,
                   {"worst_plain_slack": worst, "worst_sharp_slack": worst_sharp})


def verify_interpolation(
    q: float, p: float, samples: int = _BY_CHECK["interpolation"].samples,
    seed: int = 0,
) -> CheckResult:
    """Holder interpolation ||f||_p <= ||f||_q**theta * ||f||_2**(1-theta)
    on f and fhat, plus its consequence
    F_qp >= F_q**((1/q-1/p)/(1/q-1/2)), for 1 < q < p < 2."""
    rows = _norm_rows("interpolation", q, p, samples, seed)
    theta = interpolation_exponent(q, p)
    expo = (1.0 / q - 1.0 / p) / (1.0 / q - 0.5)
    worst = min(s for (nf_q, nf_p, nf_2), (nh_q, nh_p, nh_2) in rows
                for s in (nf_q ** theta * nf_2 ** (1.0 - theta) - nf_p,
                          nh_q ** theta * nh_2 ** (1.0 - theta) - nh_p,
                          _ratio(nf_q, nh_q, nf_p, nh_p) - _ratio(nf_q, nh_q, nf_2, nh_2) ** expo))
    return _result("interpolation",
                   {"q": q, "p": p, "theta": theta, "consequence_exponent": expo},
                   samples, worst, seed, {})


def verify_reduction_q_lt_2_le_p(
    q: float, p: float, samples: int = _BY_CHECK["reduction"].samples,
    seed: int = 0,
) -> CheckResult:
    """F_qp >= F_qp' when 1 < q < 2 <= p and 1/p + 1/q >= 1 (p' conjugate
    to p; the boundary q = p' degenerates to F_qp >= 1)."""
    rows = _norm_rows("reduction", q, p, samples, seed)
    worst = min(_ratio(nf_q, nh_q, nf_p, nh_p) - _ratio(nf_q, nh_q, nf_pc, nh_pc)
                for (nf_q, nf_p, nf_pc), (nh_q, nh_p, nh_pc) in rows)
    return _result("reduction", {"q": q, "p": p, "p_conjugate": conjugate_exponent(p)},
                   samples, worst, seed, {})


def _worst_bracket_slack(grid, reports, exponents) -> float:
    """The worst relative slack of the two-scale norm bracket
    lower <= ||g_c||_e**2 <= upper, (lower, upper) = gc_lq_bracket(c, e),
    over the grid, e in ``exponents`` (at most (q, p)), read from each
    report's norms: g_c is self-dual, so norms[0] is ||g_c||_q and
    norms[2] is ||g_c||_p.  Where the bracket states no lower side
    (lower is None), the upper side alone is checked."""
    slacks = []
    for c, rep in zip(grid, reports):
        for e, est in zip(exponents, rep.norms[::2]):
            sq = est.value ** 2
            lower, upper = gc_lq_bracket(c, e)
            slacks.append((upper - sq) / sq)
            if lower is not None:
                slacks.append((sq - lower) / sq)
    return min(slacks)


def _twoscale_row(check_name, grid, *exponents):
    """F of g_c at each c of the grid, by eval_batch's default "auto"
    routes, once ``exponents`` (q, or q and p) lie in the domain of
    ``check_name``, and the worst slack of the norm bracket at those
    exponents: (values, bracket slack)."""
    _require_domain(check_name, *exponents)
    reports = eval_batch([TwoScaleParams(c) for c in grid], *exponents, tol=QUAD_TOL)
    return [rep.value for rep in reports], _worst_bracket_slack(grid, reports, exponents)


def verify_divergence(q: float) -> CheckResult:
    """F_q(g_c) strictly increases along DIVERGENCE_GRID and dominates
    fq_gc_lower_bound everywhere, for q > 2; the two-scale norm bracket
    gc_lq_bracket holds on both of its sides at q.

    Up to about q = 2.1, F_q(g_c) still dips somewhere on c = 10..1e4
    before it grows, so this row fails there through its increase slacks
    alone; its bound and bracket slacks stay positive.
    """
    values, bracket = _twoscale_row("asymptotics-divergence", DIVERGENCE_GRID, q)
    bounds = [fq_gc_lower_bound(c, q) for c in DIVERGENCE_GRID]
    trend = [v - b for v, b in zip(values, bounds)] + [b - a for a, b in zip(values, values[1:])]
    return _result("asymptotics-divergence", {"q": q, "c_grid": list(DIVERGENCE_GRID)},
                   len(DIVERGENCE_GRID), min(*trend, bracket), None,
                   {"values": values, "bounds": bounds, "worst_bracket_slack": bracket})


def verify_vanishing(q: float, p: float) -> CheckResult:
    """F_qp(g_c) strictly decreases along VANISHING_GRID and its log-log
    slope over the last four grid points matches the predicted decay rate
    within 0.05, for q < p and 1/p + 1/q < 1.  The two-scale norm bracket
    gc_lq_bracket holds at q and at p: both of its sides where it states
    a lower one (exponents above 2), its upper side alone elsewhere.
    """
    values, bracket = _twoscale_row("asymptotics-vanishing", VANISHING_GRID, q, p)
    target = 2.0 * (1.0 / q + 1.0 / p - 1.0) if q <= 2.0 else 2.0 * (1.0 / p - 1.0 / q)
    slope = float(np.polyfit(np.log(VANISHING_GRID[-4:]), np.log(values[-4:]), 1)[0])
    trend = [a - b for a, b in zip(values, values[1:])] + [0.05 - abs(slope - target)]
    return _result("asymptotics-vanishing", {"q": q, "p": p, "c_grid": list(VANISHING_GRID)},
                   len(VANISHING_GRID), min(*trend, bracket), None,
                   {"values": values, "slope": slope, "slope_target": target,
                    "worst_bracket_slack": bracket})


def run_suite(
    names=SUITE_NAMES,
    seed: int | None = None,
    samples: int | None = None,
    q: float | None = None,
    p: float | None = None,
) -> list[CheckResult]:
    """Run the named checks and return results sorted by check name.

    An override reaches every selected check that reads it: an exponent
    ``q``/``p`` each check that takes that exponent and whose domain
    contains the resulting (q, p), while the other checks run with both
    of their defaults; ``samples`` and ``seed`` each randomized check
    (one with a default sample count), whose seed defaults to 0.  An
    override that no selected check reads is a ValueError.  The
    randomized checks read their norms from one table, built here for
    all of them and dropped on return.
    """
    jobs, read = [], set()
    for name in names:
        rows = [row for row in _SUITE if row.suite == name]
        if not rows:
            raise ValueError(f"unknown check {name!r}")
        for row in rows:
            eq = row.q if q is None or row.q is None else q
            ep = row.p if p is None or row.p is None else p
            # A row without exponents has no domain and reads no override.
            if row.domain is None or not row.domain(eq, ep):
                eq, ep = row.q, row.p
            else:
                read |= {k for k in ("q", "p") if getattr(row, k) is not None}
            if row.samples is not None:
                read |= {"samples", "seed"}
            jobs.append((row, eq, ep, row.samples if samples is None else samples))
    overrides = {"q": q, "p": p, "samples": samples, "seed": seed}
    unread = [f"{k}={v}" for k, v in overrides.items() if v is not None and k not in read]
    if unread:
        raise ValueError(f"override {', '.join(unread)} is read by no check "
                         f"of {', '.join(names)} (not taken or outside its domain)")
    seed = seed or 0
    requests = [(n, row.exponents(eq, ep)) for row, eq, ep, n in jobs if row.exponents]
    table = _norm_table(seed, requests) if requests else []
    token = _SUITE_TABLE.set({(seed, *request): rows
                              for request, rows in zip(requests, table)})
    try:
        results = [row.run(eq, ep, n, seed) for row, eq, ep, n in jobs]
    finally:
        _SUITE_TABLE.reset(token)
    return sorted(results, key=lambda r: r.check_name)
