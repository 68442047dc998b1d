"""The benchmark's workloads: inputs from a seed, one timed call into
uflab's public surface, and a check of the outputs against references
that do not use uflab's quadrature.

Each workload is a closed loop on one thread: the next call starts when
the previous one has returned and been checked.  A workload object is
built once per run from the seed; ``call()`` runs one repeat and
returns ``(output, items)``, and ``check(output)`` returns
``(attempted, failed)`` for that output.  ``expected`` is the number of
operations one repeat attempts, all of which count as failed when the
call raises.  Every repeat of a run does the same work.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np
from scipy import integrate

# Workload sizes: the program's defaults, and a smallest size for the
# smoke run that only checks the benchmark's own plumbing.
SIZES = ("full", "smoke")


def beckner_constant(p: float) -> float:
    """Sharp Hausdorff-Young constant, stated here independently of uflab."""
    pc = p / (p - 1.0)
    return math.sqrt(p ** (1.0 / p) / pc ** (1.0 / pc))


class VerifySuite:
    """``uflab verify --suite all --seed S --samples 100 --out FILE`` through
    run_cli.

    With the default sizes (500 functions for fq-lower, 200 for the other
    randomized checks) one repeat takes 5-7 s, too few repeats fit in a
    run to time them steadily on a noisy machine (see worker.py); 100
    functions per check keep every check and both function families at
    2-3 s a repeat.  Every repeat uses the same seed, so every repeat must
    write the same bytes; each check must pass.  Items are the random test functions
    (and grid points) the checks evaluated, i.e. the summed ``samples``
    of every check except superadditivity, whose samples are scalar
    triples that never reach the quadrature.
    """

    name = "verify-suite"

    def __init__(self, seed: int, size: str, scratch: str):
        samples = 2 if size == "smoke" else 100
        self.argv = ["verify", "--suite", "all", "--seed", str(seed),
                     "--samples", str(samples)]
        self.path = os.path.join(scratch, f"verify-{os.getpid()}.json")
        self.argv += ["--out", self.path]
        self.first: bytes | None = None
        self.expected = 8

    def call(self):
        from uflab import cli

        code = cli.run_cli(self.argv)
        with open(self.path, "rb") as fh:
            text = fh.read()
        os.remove(self.path)
        report = json.loads(text)
        items = sum(c["samples"] for c in report["checks"]
                    if c["check_name"] != "superadditivity")
        return (code, text, report), items

    def check(self, output):
        code, text, report = output
        checks = report["checks"]
        failed = sum(not c["pass"] for c in checks)
        if code != 0 and failed == 0:
            failed = 1
        if self.first is None:
            self.first = text
        elif text != self.first:
            failed = len(checks)  # a report that changes between repeats
        return len(checks), failed


class MinimizeSearch:
    """``minimize_Fq(1.5, MinimizeFamilySpec(terms=2), OptimizerConfig(seed))``
    for the optimizer seeds 2S and 2S+1, one after the other.

    The work of one search depends on its random start points (norms per
    search ranged from 8.6k to 10.9k over five seeds), so a repeat runs
    two searches to shrink that variance between runs.  The best value must lie between the proved floor 1/B_q and the plain
    Gaussian's value sqrt(2)*q**(-1/q), which is always a start point.
    Items are Nelder-Mead iterations.
    """

    name = "minimize-search"
    q = 1.5

    def __init__(self, seed: int, size: str, scratch: str):
        self.seeds = (2 * seed, 2 * seed + 1)
        self.smoke = size == "smoke"
        self.lo = 1.0 / beckner_constant(self.q) - 1e-6
        self.hi = math.sqrt(2.0) * self.q ** (-1.0 / self.q) + 1e-9
        self.expected = len(self.seeds)

    def call(self):
        from uflab import explore

        reports = []
        for seed in self.seeds:
            config = explore.OptimizerConfig(seed=seed)
            if self.smoke:
                config = explore.OptimizerConfig(restarts=1, max_iter=5, seed=seed)
            reports.append(explore.minimize_Fq(
                self.q, explore.MinimizeFamilySpec(terms=2), config))
        return reports, sum(r.iterations for r in reports)

    def check(self, reports):
        failed = sum(not self.lo <= r.best_value <= self.hi for r in reports)
        return len(reports), failed


def _twoscale_norm(c: float, q: float) -> float:
    """||g_c||_q by scipy's QUADPACK on [0, 10c], split at the two scales
    1/c and c; the integrand is positive and even, and the tail beyond 10c
    is below exp(-100*pi*q) relative."""
    amp_wide, amp_narrow = c ** -0.5, c ** 0.5

    def integrand(x):
        return (amp_wide * math.exp(-math.pi * (x / c) ** 2)
                + amp_narrow * math.exp(-math.pi * (c * x) ** 2)) ** q

    edges = (0.0, 1.0 / c, 8.0 / c, c, 10.0 * c)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        value, _err = integrate.quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-13,
                                     limit=200)
        total += value
    return (2.0 * total) ** (1.0 / q)


class TwoscaleSweep:
    """``sweep("twoscale", 3.0, 6.0, grid)`` on a 300-point log grid over
    c in [10, 1e6] whose endpoints are jittered by the seed.

    g_c is its own transform, so both f-norms equal both fhat-norms of the
    same exponent; every row must match an independent QUADPACK reference
    to 1e-8 relative in each norm and in the ratio.  Items are rows.
    """

    name = "twoscale-sweep"
    q, p = 3.0, 6.0
    rel_tol = 1e-8

    def __init__(self, seed: int, size: str, scratch: str):
        rng = np.random.default_rng(seed)
        self.start = 10.0 * 10.0 ** rng.uniform(0.0, 0.1)
        self.stop = 1e6 * 10.0 ** -rng.uniform(0.0, 0.1)
        self.count = 4 if size == "smoke" else 300
        self.expected = self.count
        self.reference: dict[float, tuple[float, float]] = {}

    def call(self):
        from uflab import explore

        grid = explore.GridSpec(self.start, self.stop, self.count, "log")
        result = explore.sweep("twoscale", self.q, self.p, grid)
        return result, len(result.rows)

    def _ref(self, c: float):
        if c not in self.reference:
            self.reference[c] = (_twoscale_norm(c, self.q), _twoscale_norm(c, self.p))
        return self.reference[c]

    def check(self, result):
        failed = abs(len(result.rows) - self.count)
        for row in result.rows:
            nq, np_ = self._ref(row.param)
            pairs = ((row.norm_f_q, nq), (row.norm_fhat_q, nq), (row.norm_f_p, np_),
                     (row.norm_fhat_p, np_), (row.value, (nq / np_) ** 2))
            if not all(abs(got - want) <= self.rel_tol * want for got, want in pairs):
                failed += 1
        return max(self.count, len(result.rows)), failed


WORKLOADS = {w.name: w for w in (VerifySuite, MinimizeSearch, TwoscaleSweep)}
