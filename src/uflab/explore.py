"""Parameter sweeps, image-interval estimates, and direct-search
minimization of the uncertainty ratios.

Sweeps over the chirp family run in the squared parameter t = a*a (the
natural variable of the closed forms) and are evaluated in closed form
with periodic quadrature spot checks; sweeps over the two-scale family
let each norm take its own route (method "auto": the exact Gaussian sum
at even integer exponents, quadrature otherwise).  Results serialize to
CSV with 17 significant digits, enough to round-trip doubles exactly,
and to JSON.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from . import verifier
from .functionals import _check_exponent, beckner_constant, eval_Fq, eval_Fqp
from .gaussian import (
    ChirpParams,
    ComplexGaussianTerm,
    GaussianMixture,
    MIN_CHIRP_MARGIN,
    TwoScaleParams,
)
from .numerics import ToleranceNotAchieved

SWEEP_SCHEMA = "uflab.sweep/1"
_SPOT_CHECK_EVERY = 8

_GRID_RE = re.compile(r"^\s*([^:\s]+):([^:\s]+):(\d+)(log|lin)?\s*$")


@dataclass(frozen=True)
class GridSpec:
    """Sweep grid 'start:stop:count[log|lin]'; linear when unsuffixed."""

    start: float
    stop: float
    count: int
    scale: str = "lin"

    def __post_init__(self):
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ValueError("grid endpoints must be finite")
        if not self.start < self.stop:
            raise ValueError(f"grid needs start < stop, got {self.start}:{self.stop}")
        if self.count < 2:
            raise ValueError(f"grid needs at least 2 points, got {self.count}")
        if self.scale not in ("lin", "log"):
            raise ValueError(f"grid scale must be lin or log, got {self.scale!r}")
        if self.scale == "log" and self.start <= 0.0:
            raise ValueError("log grid needs a positive start")

    @classmethod
    def parse(cls, text: str) -> "GridSpec":
        m = _GRID_RE.match(text)
        if not m:
            raise ValueError(f"grid spec must look like start:stop:count[log|lin], got {text!r}")
        return cls(float(m.group(1)), float(m.group(2)), int(m.group(3)), m.group(4) or "lin")

    def values(self) -> np.ndarray:
        if self.scale == "log":
            return np.geomspace(self.start, self.stop, self.count)
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class SweepRow:
    family: str
    param: float
    q: float
    p: float
    norm_f_q: float
    norm_fhat_q: float
    norm_f_p: float
    norm_fhat_p: float
    value: float
    method: str
    err_est: float


# The CSV columns: the schema, then every SweepRow field in order.
CSV_HEADER = ("schema",) + tuple(f.name for f in fields(SweepRow))


@dataclass
class SweepResult:
    schema: str
    rows: list[SweepRow] = field(default_factory=list)

    def csv_text(self) -> str:
        """Floats with 17 significant digits, so they read back exactly."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for r in self.rows:
            writer.writerow(
                [self.schema]
                + [v if isinstance(v, str) else f"{v:.17g}" for v in astuple(r)]
            )
        return buf.getvalue()

    @classmethod
    def from_csv(cls, stream) -> "SweepResult":
        reader = csv.reader(stream)
        header = next(reader)
        if tuple(header) != CSV_HEADER:
            raise ValueError(f"unexpected sweep header {header!r}")
        schema = None
        rows = []
        for rec in reader:
            schema = rec[0]
            rows.append(SweepRow(*(
                v if f.type == "str" else float(v) for f, v in zip(fields(SweepRow), rec[1:])
            )))
        return cls(schema or SWEEP_SCHEMA, rows)


def _row(family: str, param: float, q, p, method, tol) -> SweepRow:
    """One sweep row of the family's parameters, t = a*a for the chirp and
    c for the two-scale family, from the evaluator's report.  The error
    estimate is the exact/quadrature discrepancy when both routes ran,
    else the value times the summed relative error estimates of the four
    norms."""
    f = ChirpParams.from_t(param) if family == "chirp" else TwoScaleParams(param)
    rep = eval_Fq(f, q, method, tol) if p is None else eval_Fqp(f, q, p, method, tol)
    err = rep.discrepancy
    if err is None:
        err = rep.value * sum(n.abs_error_estimate / n.value for n in rep.norms)
    return SweepRow(family, param, q, rep.p, *(n.value for n in rep.norms), rep.value,
                    rep.method, err)


def sweep(
    family: str,
    q: float,
    p: float | None = None,
    grid: GridSpec | str = "1.1:100:25log",
    tol: float = 1e-8,
) -> SweepResult:
    """Evaluate the ratio along a parameter grid.

    family 'chirp' sweeps t = a*a (closed form, quadrature spot checks
    on every ``_SPOT_CHECK_EVERY``-th row); family 'twoscale' sweeps c
    with method "auto", so even integer exponents are summed exactly and
    the others integrated.  Rows come back ordered by the swept
    parameter.
    """
    if isinstance(grid, str):
        grid = GridSpec.parse(grid)
    if family not in ("chirp", "twoscale"):
        raise ValueError(f"unknown sweep family {family!r}")
    return SweepResult(SWEEP_SCHEMA, [
        _row(family, float(v), q, p, "auto" if family == "twoscale"
             else "both" if i % _SPOT_CHECK_EVERY == 0 else "closed-form", tol)
        for i, v in enumerate(grid.values())
    ])


@dataclass(frozen=True)
class IntervalReport:
    """Observed envelope of ratio values for fixed exponents, with trend
    flags and the proved floor where one exists."""

    q: float
    p: float | None
    observed_min: float
    observed_max: float
    divergence_flag: bool
    vanishing_flag: bool
    proved_lower_bound: float | None


def _strictly_monotone(values, sign: int) -> bool:
    return all(sign * (b - a) > 0.0 for a, b in zip(values, values[1:]))


# Chirp grid points and quadrature tolerance of estimate_image_interval.
_INTERVAL_POINTS = 17
_INTERVAL_TOL = 1e-8


def estimate_image_interval(q: float, p: float | None = None) -> IntervalReport:
    """Sweep both families and report the observed value envelope.

    Along the chirps the ratio is a constant times ((t+1)/(t-1))**r,
    r = 1/q - 1/p (p = 2 for F_q), so as t -> 1+ it diverges for r > 0
    and vanishes for r < 0.  That trend is flagged when the chirp values
    are strictly monotone and their log-log slope against t - 1 over the
    first four grid points lies within 1% of -r.  The two-scale trends
    come from the verifier's asymptotics check: divergence of F_q for
    q > 2, vanishing of F_qp for 1/p + 1/q < 1.
    The proved lower bound is 1/B_q for q < 2, 1 at q = 2, and 1 for the
    two-exponent case with 1/p + 1/q >= 1; otherwise none is known.
    """
    # Geometric in t - 1, not t, so the grid actually probes the guarded
    # corner above the a > 1 margin as well as the flat tail.
    t_min = (1.0 + 2.0 * MIN_CHIRP_MARGIN) ** 2
    dt = np.geomspace(t_min - 1.0, 1e6, _INTERVAL_POINTS)
    t_grid = 1.0 + dt
    chirp_vals = [_row("chirp", float(t), q, p, "closed-form", _INTERVAL_TOL).value
                  for t in t_grid]

    if p is None and q < 2.0:
        c_grid = np.geomspace(0.1, 10.0, 9)
    elif p is None:
        c_grid = np.concatenate([np.geomspace(0.1, 10.0, 5), np.geomspace(10.0, 1e4, 9)[1:]])
    else:
        c_grid = np.concatenate([np.geomspace(0.1, 10.0, 5), np.geomspace(10.0, 1e6, 9)[1:]])
    ts_vals = [_row("twoscale", float(c), q, p, "auto", _INTERVAL_TOL).value for c in c_grid]

    all_vals = chirp_vals + ts_vals
    rate = 1.0 / q - 1.0 / (2.0 if p is None else p)
    slope = float(np.polyfit(np.log(dt[:4]), np.log(chirp_vals[:4]), 1)[0])
    chirp_trend = (rate != 0.0 and _strictly_monotone(chirp_vals, -1 if rate > 0.0 else +1)
                   and abs(slope + rate) <= 0.01 * abs(rate))
    divergence = chirp_trend and rate > 0.0
    vanishing = chirp_trend and rate < 0.0
    if p is None:
        if q > 2.0:
            divergence = divergence or verifier.verify_asymptotics(q).passed
        proved = None if q > 2.0 else (1.0 if q == 2.0 else 1.0 / beckner_constant(q))
    else:
        if 1.0 / q + 1.0 / p < 1.0:
            vanishing = vanishing or verifier.verify_asymptotics(q, p).passed
        proved = 1.0 if 1.0 / q + 1.0 / p >= 1.0 else None

    return IntervalReport(
        q,
        p,
        min(all_vals),
        max(all_vals),
        divergence,
        vanishing,
        proved,
    )


# Random restarts draw log-uniform widths from this range; each start's
# initial simplex steps this far along every coordinate.
_START_WIDTH_RANGE = (0.125, 8.0)
_SIMPLEX_SCALE = 0.5


@dataclass(frozen=True)
class MinimizeFamilySpec:
    """Real Gaussian mixtures searched by the optimizer: ``terms``
    amplitudes (the first pinned to 1 as the scale gauge) and ``terms``
    log-widths, so the search dimension is 2*terms - 1 <= 12."""

    terms: int = 2

    def __post_init__(self):
        if self.terms < 1 or 2 * self.terms - 1 > 12:
            raise ValueError(f"terms must satisfy 1 <= 2*terms-1 <= 12, got {self.terms}")

    @property
    def dimension(self) -> int:
        return 2 * self.terms - 1


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 8
    max_iter: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1 or self.max_iter < 1:
            raise ValueError(f"restarts and max_iter must be >= 1, got "
                             f"{self.restarts} and {self.max_iter}")


@dataclass
class MinimizeReport:
    q: float
    terms: int
    best_value: float
    best_parameters: dict
    iterations: int
    restarts: int
    converged: bool
    comparisons: dict


def _mixture_from_vector(x: np.ndarray, terms: int) -> GaussianMixture:
    amps = np.concatenate([[1.0], x[: terms - 1]])
    widths = np.exp(np.clip(x[terms - 1 :], -12.0, 12.0))
    return GaussianMixture(
        tuple(ComplexGaussianTerm(complex(a), complex(w)) for a, w in zip(amps, widths))
    )


def minimize_Fq(
    q: float,
    family: MinimizeFamilySpec = MinimizeFamilySpec(),
    config: OptimizerConfig = OptimizerConfig(),
) -> MinimizeReport:
    """Search for small F_q over real Gaussian mixtures by seeded
    Nelder-Mead restarts.

    The plain Gaussian is always one start point, so the best value
    never exceeds sqrt(2)*q**(-1/q) beyond quadrature noise; for q < 2
    the proved floor 1/B_q is reported alongside for comparison.
    """
    # Imported here, the package's one such import: loaded with the
    # package, it would more than double its import time.
    from scipy.optimize import minimize as nelder_mead

    _check_exponent(q)
    rng = np.random.default_rng(config.seed)
    dim = family.dimension
    lo, hi = _START_WIDTH_RANGE

    def objective(x):
        try:
            return eval_Fq(_mixture_from_vector(np.asarray(x, float), family.terms),
                           q, "auto", 1e-10).value
        except (ValueError, ToleranceNotAchieved):
            return math.inf

    starts = [np.zeros(dim)]
    attempts = 0
    while len(starts) < config.restarts and attempts < 100 * config.restarts:
        attempts += 1
        cand = np.concatenate([
            rng.uniform(-1.0, 1.0, family.terms - 1),
            rng.uniform(math.log(lo), math.log(hi), family.terms),
        ])
        if math.isfinite(objective(cand)):
            starts.append(cand)

    best_x, best_val = None, math.inf
    iterations = 0
    converged = False
    for x0 in starts:
        simplex = np.vstack([x0] + [x0 + _SIMPLEX_SCALE * e for e in np.eye(dim)])
        res = nelder_mead(
            objective,
            x0,
            method="Nelder-Mead",
            options={
                "maxiter": config.max_iter,
                "initial_simplex": simplex,
                "xatol": 1e-8,
                "fatol": 1e-10,
            },
        )
        iterations += int(res.nit)
        if res.fun < best_val:
            best_val = float(res.fun)
            best_x = np.asarray(res.x, float)
            converged = bool(res.success)

    mix = _mixture_from_vector(best_x, family.terms)
    comparisons = {
        "unity": 1.0,
        "gaussian": math.sqrt(2.0) * (1.0 / q) ** (1.0 / q),
        "beckner_floor": 1.0 / beckner_constant(q) if q < 2.0 else None,
    }
    return MinimizeReport(
        q,
        family.terms,
        best_val,
        {
            "amplitudes": [t.amplitude.real for t in mix.terms],
            "widths": [t.width.real for t in mix.terms],
        },
        iterations,
        len(starts),
        converged,
        comparisons,
    )
