"""Parameter sweeps and direct-search minimization of the uncertainty
ratios.

Sweeps over the chirp family run in the squared parameter t = a*a (the
natural variable of the closed forms) and are evaluated in closed form
with periodic quadrature spot checks; sweeps over the two-scale family
let each norm take its own route (method "auto": the exact Gaussian sum
at even integer exponents, quadrature otherwise).  Either way the rows
come from whole-grid :func:`~uflab.functionals.eval_batch` calls, and
only numerics decides how many quadrature requests refine together.
Results serialize to CSV with 17 significant digits, enough to
round-trip doubles exactly, and to JSON.
"""

from __future__ import annotations

import csv
import io
import math
import re
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .functionals import _check_exponent, beckner_constant, eval_batch, eval_Fq
from .gaussian import (
    ChirpParams,
    ComplexGaussianTerm,
    GaussianMixture,
    TwoScaleParams,
)
from .numerics import ToleranceNotAchieved

SWEEP_SCHEMA = "uflab.sweep/1"
_SPOT_CHECK_EVERY = 8
# Most points of a sweep grid; a larger count is rejected before any
# grid array is allocated.
MAX_GRID_COUNT = 100_000

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
        if not 2 <= self.count <= MAX_GRID_COUNT:
            raise ValueError(f"grid needs 2 to {MAX_GRID_COUNT} points, got {self.count}")
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
            values = (getattr(r, name) for name in CSV_HEADER[1:])
            writer.writerow(
                [self.schema] + [v if isinstance(v, str) else f"{v:.17g}" for v in values])
        return buf.getvalue()


def _rows(family: str, params, q, p, method, tol) -> list[SweepRow]:
    """One sweep row per parameter of the family, t = a*a for the chirp
    and c for the two-scale family, from the :func:`eval_batch` reports
    of all of them.  The error estimate is the exact/quadrature
    discrepancy when both routes ran, else the value times the summed
    relative error estimates of the four norms."""
    make = ChirpParams.from_t if family == "chirp" else TwoScaleParams
    reports = eval_batch([make(param) for param in params], q, p, method, tol)
    rows = []
    for param, rep in zip(params, reports):
        err = rep.discrepancy
        if err is None:
            err = rep.value * sum(n.abs_error_estimate / n.value for n in rep.norms)
        rows.append(SweepRow(family, param, q, rep.p, *(n.value for n in rep.norms),
                             rep.value, rep.method, err))
    return rows


def sweep(
    family: str,
    q: float,
    p: float | None = None,
    grid: GridSpec | str = "1.1:100:25log",
    tol: float = 1e-8,
) -> SweepResult:
    """Evaluate the ratio along a parameter grid.

    family 'chirp' sweeps t = a*a in closed form, and every
    ``_SPOT_CHECK_EVERY``-th row again with method "both", its spot
    checks in one batch; family 'twoscale' sweeps c with method "auto",
    so even integer exponents are summed exactly and the others
    integrated, all rows in one batch.  Rows come back ordered by the
    swept parameter.
    """
    if isinstance(grid, str):
        grid = GridSpec.parse(grid)
    if family not in ("chirp", "twoscale"):
        raise ValueError(f"unknown sweep family {family!r}")
    values = grid.values().tolist()
    if family == "twoscale":
        return SweepResult(SWEEP_SCHEMA, _rows(family, values, q, p, "auto", tol))
    rows = _rows(family, values, q, p, "closed-form", tol)
    rows[::_SPOT_CHECK_EVERY] = _rows(family, values[::_SPOT_CHECK_EVERY], q, p, "both", tol)
    return SweepResult(SWEEP_SCHEMA, rows)


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

    The starts are the plain Gaussian and ``restarts - 1`` seeded draws.
    A point where F_q cannot be evaluated scores the largest float, not
    inf, whose differences over a simplex of such points would be nan.  A
    start where F_q cannot be evaluated costs only its own restart, and
    the Gaussian start keeps the best value within quadrature noise of
    sqrt(2)*q**(-1/q); for q < 2 the proved floor 1/B_q is reported
    alongside for comparison.
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
            return sys.float_info.max

    starts = [np.zeros(dim)] + [
        np.concatenate([rng.uniform(-1.0, 1.0, family.terms - 1),
                        rng.uniform(math.log(lo), math.log(hi), family.terms)])
        for _ in range(config.restarts - 1)
    ]
    results = [
        nelder_mead(objective, x0, method="Nelder-Mead", options={
            "maxiter": config.max_iter,
            "initial_simplex": np.vstack([x0] + [x0 + _SIMPLEX_SCALE * e for e in np.eye(dim)]),
            "xatol": 1e-8,
            "fatol": 1e-10,
        })
        for x0 in starts
    ]
    best = min(results, key=lambda r: r.fun)  # the first of equal minima

    mix = _mixture_from_vector(best.x, family.terms)
    comparisons = {
        "unity": 1.0,
        "gaussian": math.sqrt(2.0) * (1.0 / q) ** (1.0 / q),
        "beckner_floor": 1.0 / beckner_constant(q) if q < 2.0 else None,
    }
    return MinimizeReport(
        q,
        family.terms,
        float(best.fun),
        {
            "amplitudes": [t.amplitude.real for t in mix.terms],
            "widths": [t.width.real for t in mix.terms],
        },
        sum(int(r.nit) for r in results),
        len(starts),
        bool(best.success),
        comparisons,
    )
