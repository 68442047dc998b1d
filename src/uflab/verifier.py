"""Inequality and closed-form checks over seeded function batches.

Every check reduces to a worst slack: for an inequality LHS <= RHS the
slack is RHS - LHS (negative means violation), and for an equality the
slack is minus the relative discrepancy.  A check passes when its worst
slack stays above minus its tolerance.  All sampling is seeded, sample
order is fixed, and reductions run in a fixed order, so a repeated run
reproduces every result bit for bit.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import asdict, dataclass

import numpy as np

from .functionals import (
    beckner_constant,
    conjugate_exponent,
    eval_Fq,
    eval_Fqp,
    fq_gc_lower_bound,
    gc_l2_norm_sq,
    interpolation_exponent,
    norms,
)
from .functionals import _in_range  # shared public-exponent cap
from .gaussian import ChirpParams, TwoScaleParams, closed_form_Fq_chirp, make_two_scale
from .hermite import random_schwartz

# Norm tolerance used inside verification checks; one-sided inequality
# slacks then only dip below zero by rounding, never by integration
# error.
QUAD_TOL = 1e-10


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
    (a tracing wrapper, say) sees every call.  None marks default
    exponents, sample counts and domains that a check does not take."""

    suite: str
    check_name: str
    run: Callable
    tol: float
    q: float | None = None
    p: float | None = None
    samples: int | None = None
    domain: Callable[[float, float | None], bool] | None = None


# The suite in SUITE_NAMES order: the only statement of each check's
# tolerance, default exponents, default sample count and domain.
_SUITE = (
    _Check("closed-forms", "closed-forms",
           lambda q, p, n, seed: verify_closed_forms(), 1e-8),
    _Check("fq-lower", "fq-lower",
           lambda q, p, n, seed: verify_fq_lower_bound(q, n, seed), 1e-7,
           1.5, None, 500, lambda q, p: _in_range(q) and q < 2.0),
    _Check("hy", "hausdorff-young",
           lambda q, p, n, seed: verify_hausdorff_young(q, n, seed), 1e-9,
           4.0 / 3.0, None, 200,
           lambda q, p: 1.0 < q <= 2.0 and _in_range(q, conjugate_exponent(q))),
    _Check("interp", "interpolation",
           lambda q, p, n, seed: verify_interpolation(q, p, n, seed), 1e-6,
           1.2, 1.5, 200, lambda q, p: _in_range(q, p) and q < p < 2.0),
    _Check("reduction", "reduction",
           lambda q, p, n, seed: verify_reduction_q_lt_2_le_p(q, p, n, seed), 1e-6,
           1.3, 3.0, 200,
           lambda q, p: _in_range(q, p) and q < 2.0 <= p and 1.0 / p + 1.0 / q >= 1.0 - 1e-12),
    _Check("asymptotics", "asymptotics-divergence",
           lambda q, p, n, seed: verify_asymptotics(q), 1e-9,
           4.0, None, None, lambda q, p: _in_range(q) and q > 2.0),
    _Check("asymptotics", "asymptotics-vanishing",
           lambda q, p, n, seed: verify_asymptotics(q, p), 1e-9,
           3.0, 6.0, None,
           lambda q, p: _in_range(q, p) and q < p and 1.0 / q + 1.0 / p < 1.0),
    _Check("superadd", "superadditivity",
           lambda q, p, n, seed: verify_superadditivity(n, seed), 1e-9, samples=10_000),
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
    if samples < 1:
        raise ValueError(f"a randomized check needs samples >= 1, got {samples}")
    rng = np.random.default_rng(seed)
    out = []
    for i in range(samples):
        child = int(rng.integers(0, 2 ** 63 - 1))
        family, top = ("gaussian-mixture", 5) if i % 2 == 0 else ("hermite", 9)
        out.append(random_schwartz(family, int(rng.integers(1, top)), child))
    return out


def _norms(f, *exponents) -> tuple[float, ...]:
    """||f||_e for each exponent, each by the route ``norms`` picks."""
    return tuple(n.value for n in norms(f, exponents, QUAD_TOL))


def verify_closed_forms() -> CheckResult:
    """Chirp ratios and the two-scale L^2 identity against quadrature;
    both sides stay independent, so no exact route stands in for the
    quadrature."""
    a_grid = (1.01, 1.1, 2.0, 10.0, 100.0)
    q_grid = (1.2, 1.5, 2.0, 3.0, 4.0, 8.0)
    worst = math.inf
    count = 0
    for a in a_grid:
        for q in q_grid:
            closed = closed_form_Fq_chirp(a, q)
            quad = eval_Fq(ChirpParams(a), q, "quadrature", QUAD_TOL).value
            worst = min(worst, -abs(closed - quad) / closed)
            count += 1
    for c in (0.1, 1.0, 2.0, 10.0, 100.0):
        closed = gc_l2_norm_sq(c)
        g = make_two_scale(TwoScaleParams(c))
        quad = norms(g, (2.0,), QUAD_TOL, "quadrature")[0].value ** 2
        worst = min(worst, -abs(closed - quad) / closed)
        count += 1
    return _result("closed-forms", {"a_grid": list(a_grid), "q_grid": list(q_grid)},
                   count, worst, None, {})


def verify_fq_lower_bound(
    q: float, samples: int = _BY_CHECK["fq-lower"].samples, seed: int = 0
) -> CheckResult:
    """min F_q over a seeded batch stays above 1 (and is recorded against
    the sharper floor 1/B_q); stated for 1 < q < 2."""
    _require_domain("fq-lower", q)
    floor = 1.0 / beckner_constant(q)
    vmin = math.inf
    for f in _sample_functions(samples, seed):
        vmin = min(vmin, eval_Fq(f, q, "auto", QUAD_TOL).value)
    return _result("fq-lower", {"q": q}, samples, vmin - 1.0, seed,
                   {"min_value": vmin, "beckner_floor": floor, "beckner_slack": vmin - floor})


def verify_hausdorff_young(
    q: float, samples: int = _BY_CHECK["hausdorff-young"].samples, seed: int = 0
) -> CheckResult:
    """||fhat||_q' <= B_q * ||f||_q <= ||f||_q and its reflected twin on a
    seeded batch, 1 < q <= 2 (q' in the exponent range too)."""
    _require_domain("hausdorff-young", q)
    qc = conjugate_exponent(q)
    sharp = beckner_constant(q)
    worst = math.inf
    worst_sharp = math.inf
    for f in _sample_functions(samples, seed):
        nf_q, nf_qc = _norms(f, q, qc)
        nh_q, nh_qc = _norms(f.ft(), q, qc)
        worst = min(worst, nf_q - nh_qc, nh_q - nf_qc)
        worst_sharp = min(worst_sharp, sharp * nf_q - nh_qc, sharp * nh_q - nf_qc)
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
    _require_domain("interpolation", q, p)
    theta = interpolation_exponent(q, p)
    expo = (1.0 / q - 1.0 / p) / (1.0 / q - 0.5)
    worst = math.inf
    for f in _sample_functions(samples, seed):
        nf = dict(zip((q, p, 2.0), _norms(f, q, p, 2.0)))
        nh = dict(zip((q, p, 2.0), _norms(f.ft(), q, p, 2.0)))
        worst = min(
            worst,
            nf[q] ** theta * nf[2.0] ** (1.0 - theta) - nf[p],
            nh[q] ** theta * nh[2.0] ** (1.0 - theta) - nh[p],
        )
        f_q = nf[q] * nh[q] / (nf[2.0] * nh[2.0])
        f_qp = nf[q] * nh[q] / (nf[p] * nh[p])
        worst = min(worst, f_qp - f_q ** expo)
    return _result("interpolation",
                   {"q": q, "p": p, "theta": theta, "consequence_exponent": expo},
                   samples, worst, seed, {})


def verify_reduction_q_lt_2_le_p(
    q: float, p: float, samples: int = _BY_CHECK["reduction"].samples,
    seed: int = 0,
) -> CheckResult:
    """F_qp >= F_qp' when 1 < q < 2 <= p and 1/p + 1/q >= 1 (p' conjugate
    to p; the boundary q = p' degenerates to F_qp >= 1)."""
    _require_domain("reduction", q, p)
    pc = conjugate_exponent(p)
    boundary = abs(pc - q) <= 1e-12
    worst = math.inf
    for f in _sample_functions(samples, seed):
        exponents = (q, p) if boundary else (q, p, pc)
        nf, nh = _norms(f, *exponents), _norms(f.ft(), *exponents)
        f_qp = nf[0] * nh[0] / (nf[1] * nh[1])
        rhs = 1.0 if boundary else nf[0] * nh[0] / (nf[2] * nh[2])
        worst = min(worst, f_qp - rhs)
    return _result("reduction", {"q": q, "p": p, "p_conjugate": pc}, samples, worst, seed, {})


def verify_asymptotics(q: float, p: float | None = None) -> CheckResult:
    """Trend checks along the two-scale family.

    Without p (needs q > 2): F_q(g_c) strictly increases along the grid
    c = 10..1e4 and dominates fq_gc_lower_bound everywhere.  With p
    (needs q < p and 1/p + 1/q < 1): F_qp(g_c) strictly decreases along
    c = 10..1e6 and its log-log slope over the last four grid points
    matches the predicted decay rate within 0.05.
    """
    if p is None:
        _require_domain("asymptotics-divergence", q)
        grid = np.geomspace(10.0, 1e4, 9)
        values = [
            eval_Fq(TwoScaleParams(c), q, "auto", QUAD_TOL).value for c in grid
        ]
        bounds = [float(fq_gc_lower_bound(float(c), q)) for c in grid]
        slacks = [v - b for v, b in zip(values, bounds)]
        slacks += [values[i + 1] - values[i] for i in range(len(grid) - 1)]
        worst = min(slacks)
        return _result("asymptotics-divergence", {"q": q, "c_grid": [float(c) for c in grid]},
                       len(grid), worst, None, {"values": values, "bounds": bounds})
    _require_domain("asymptotics-vanishing", q, p)
    grid = np.geomspace(10.0, 1e6, 9)
    values = [
        eval_Fqp(TwoScaleParams(c), q, p, "auto", QUAD_TOL).value for c in grid
    ]
    target = 2.0 * (1.0 / q + 1.0 / p - 1.0) if q <= 2.0 else 2.0 * (1.0 / p - 1.0 / q)
    slope = float(
        np.polyfit(np.log(np.asarray(grid[-4:])), np.log(np.asarray(values[-4:])), 1)[0]
    )
    slacks = [values[i] - values[i + 1] for i in range(len(grid) - 1)]
    slacks.append(0.05 - abs(slope - target))
    worst = min(slacks)
    return _result("asymptotics-vanishing",
                   {"q": q, "p": p, "c_grid": [float(c) for c in grid]}, len(grid), worst,
                   None, {"values": values, "slope": slope, "slope_target": target})


def verify_superadditivity(
    samples: int = _BY_CHECK["superadditivity"].samples, seed: int = 0
) -> CheckResult:
    """Scalar triple inequalities behind the two-scale norm bounds:
    (a1+a2+a3)**s >= sum(a_i**s) for s >= 1, and the reverse with the
    factor max(1, 3**(s-1)) for every s > 0.  Slacks are relative."""
    if samples < 2:
        raise ValueError(f"superadditivity needs samples >= 2, got {samples}")
    rng = np.random.default_rng(seed)
    triples = rng.uniform(0.0, 10.0, size=(samples, 3))
    # Degenerate rows exercise the equality cases exactly.
    triples[0] = (1.0, 0.0, 0.0)
    triples[1] = (0.0, 0.0, 0.0)
    worst = math.inf
    s_values = (0.6, 1.0, 1.5, 3.0)
    for s in s_values:
        lhs = triples.sum(axis=1) ** s
        rhs = (triples ** s).sum(axis=1)
        scale = np.maximum(lhs, 1e-300)
        if s >= 1.0:
            worst = min(worst, float(((lhs - rhs) / scale).min()))
        factor = max(1.0, 3.0 ** (s - 1.0))
        scale = np.maximum(factor * rhs, 1e-300)
        worst = min(worst, float(((factor * rhs - lhs) / scale).min()))
    return _result("superadditivity", {"s_values": list(s_values)}, samples, worst, seed, {})


def run_suite(
    names=SUITE_NAMES,
    seed: int = 0,
    samples: int | None = None,
    q: float | None = None,
    p: float | None = None,
) -> list[CheckResult]:
    """Run the named checks and return results sorted by check name.

    An exponent override ``q``/``p`` reaches every check that takes that
    exponent and whose domain contains the resulting (q, p); the other
    checks run with both of their defaults.  An override that no
    selected check reads is a ValueError, and so is a ``samples`` count
    when every selected check runs a fixed grid.
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
            jobs.append((row, eq, ep))
    unread = [f"{k}={v}" for k, v in (("q", q), ("p", p)) if v is not None and k not in read]
    if unread:
        raise ValueError(f"exponent override {', '.join(unread)} is read by no check "
                         f"of {', '.join(names)} (not taken or outside its domain)")
    if samples is not None and jobs and all(row.samples is None for row, *_ in jobs):
        raise ValueError(f"{', '.join(names)} takes no sample count")
    results = [
        row.run(eq, ep, row.samples if samples is None else samples, seed)
        for row, eq, ep in jobs
    ]
    return sorted(results, key=lambda r: r.check_name)
