"""Spans around uflab's layer boundaries, recorded from outside the package.

A :class:`Tracer` keeps every span in flat arrays (name id, parent index,
start, end, size, failed) until the run ends; nothing is written while the
workload runs.  :func:`install` replaces uflab's public functions with
recording wrappers wherever a module has bound them by name, and on the
classes for the two ``eval`` methods; :func:`uninstall` puts the originals
back.  :func:`layer_metrics` turns one tracer's spans into the per-layer
numbers the benchmark reports.

Spans are strictly nested because every workload runs on one thread, so a
span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

# Span names.  The verifier wrapper renames its span to the check name it
# returns, because one entry point (verify_asymptotics) runs two checks.
NORM = "numerics.lq_norm_quad"
INTEGRAL = "numerics.integrate_adaptive"
GAUSS = "gaussian.eval"
HERMITE = "hermite.eval"
FUNCTIONAL = "functionals.eval"
MINIMIZE = "explore.minimize"
SWEEP = "explore.sweep"
CLI = "cli.run_cli"
CHECK_PREFIX = "verifier."
CHECK_NAMES = (
    "closed-forms",
    "fq-lower",
    "hausdorff-young",
    "interpolation",
    "reduction",
    "asymptotics-divergence",
    "asymptotics-vanishing",
    "superadditivity",
)

# Work counts that do not depend on machine speed; two traced runs of the
# same inputs must agree on every one of them exactly.
COUNTERS = (
    "numerics.lq_norm_quad.calls",
    "numerics.integrate_adaptive.calls",
    "numerics.panels",
    "numerics.radius_rounds",
    "numerics.eval_points",
    "gaussian.eval.calls",
    "hermite.eval.calls",
    "functionals.eval.calls",
)

_perf = time.perf_counter


class Tracer:
    """In-memory span store for one traced phase of a run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size = array("q")
        self.failed = array("b")
        self._stack = [-1]

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.size.append(0)
        self.failed.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(_perf())
        return idx

    def close(self, idx: int, size: int = 0, failed: bool = False) -> None:
        self.end[idx] = _perf()
        self._stack.pop()
        if size:
            self.size[idx] = size
        if failed:
            self.failed[idx] = 1

    def rename(self, idx: int, name: str) -> None:
        self.name[idx] = self.name_id(name)


class _Active:
    """The tracer that installed wrappers currently record into."""

    tracer: Tracer | None = None


def _span(name, fn, size_of=None, name_of=None):
    def wrapper(*args, **kwargs):
        t = _Active.tracer
        idx = t.open(t.name_id(name))
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            t.close(idx, failed=True)
            raise
        t.close(idx, size_of(out) if size_of else 0)
        if name_of is not None:
            t.rename(idx, name_of(out))
        return out

    wrapper.__wrapped__ = fn
    return wrapper


def _eval_span(name, fn):
    # The hot path: called once per Gauss-Kronrod panel, so it skips the
    # generic wrapper's keyword handling and records the point count.
    def wrapper(self, x):
        t = _Active.tracer
        idx = t.open(t.name_id(name))
        try:
            out = fn(self, x)
        except BaseException:
            t.close(idx, failed=True)
            raise
        t.close(idx, np.size(x))
        return out

    wrapper.__wrapped__ = fn
    return wrapper


def _uflab_modules():
    return [m for n, m in sorted(sys.modules.items())
            if (n == "uflab" or n.startswith("uflab.")) and m is not None]


def _function_wrappers():
    """(original, wrapper) for every traced module-level function."""
    from uflab import cli, explore, functionals, numerics

    pairs = [
        (numerics.lq_norm_quad, _span(NORM, numerics.lq_norm_quad)),
        (numerics.integrate_adaptive,
         _span(INTEGRAL, numerics.integrate_adaptive, size_of=lambda r: r[3])),
        (functionals.eval_Fq, _span(FUNCTIONAL, functionals.eval_Fq)),
        (functionals.eval_Fqp, _span(FUNCTIONAL, functionals.eval_Fqp)),
        (explore.minimize_Fq, _span(MINIMIZE, explore.minimize_Fq)),
        (explore.sweep, _span(SWEEP, explore.sweep, size_of=lambda r: len(r.rows))),
        (cli.run_cli, _span(CLI, cli.run_cli)),
    ]
    for fn in verifier_checks():
        pairs.append((fn, _span(CHECK_PREFIX + "unnamed", fn,
                                name_of=lambda r: CHECK_PREFIX + r.check_name)))
    return pairs


def patch(orig, wrapper) -> list:
    """Replace ``orig`` by ``wrapper`` in every uflab module that binds it.

    A module that did ``from .numerics import lq_norm_quad`` holds its own
    reference, so patching the defining module alone would miss its
    calls.  Returns the undo list for :func:`uninstall`.
    """
    undo = []
    for mod in _uflab_modules():
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapper)
                undo.append((mod, attr, orig))
    return undo


def install(tracer: Tracer):
    """Patch uflab so every traced call records into ``tracer``; returns
    the undo list for :func:`uninstall`."""
    from uflab.gaussian import GaussianMixture
    from uflab.hermite import HermiteExpansion

    undo = []
    for orig, wrapper in _function_wrappers():
        undo += patch(orig, wrapper)
    for cls, name in ((GaussianMixture, GAUSS), (HermiteExpansion, HERMITE)):
        undo.append((cls, "eval", cls.eval))
        cls.eval = _eval_span(name, cls.eval)
    _Active.tracer = tracer
    return undo


def uninstall(undo) -> None:
    for owner, attr, orig in reversed(undo):
        setattr(owner, attr, orig)
    _Active.tracer = None


def verifier_checks():
    """The verifier's check entry points, as run_suite reaches them."""
    from uflab import verifier

    return [getattr(verifier, attr) for attr in sorted(vars(verifier))
            if attr.startswith("verify_") and callable(getattr(verifier, attr))]


def _percentile_ms(durations: np.ndarray, pct: float) -> float:
    if durations.size == 0:
        return 0.0
    return float(np.percentile(durations, pct)) * 1e3


def layer_metrics(t: Tracer) -> dict:
    """Per-layer counts and times from one traced phase."""
    n = len(t.start)
    names = np.frombuffer(t.name, np.int32)
    parent = np.frombuffer(t.parent, np.int32)
    dur = np.frombuffer(t.end) - np.frombuffer(t.start)
    size = np.frombuffer(t.size, np.int64)
    failed = np.frombuffer(t.failed, np.int8)
    child = np.zeros(n)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child

    def mask(name):
        nid = t._ids.get(name)
        return names == nid if nid is not None else np.zeros(n, bool)

    def under(child_name, parent_name):
        """Spans named child_name whose direct parent is named parent_name."""
        m = mask(child_name)
        pm = mask(parent_name)
        return m & has_parent & pm[np.where(has_parent, parent, 0)]

    def ancestor_counts(child_name, prefix):
        """Count child_name spans under each ancestor whose name starts
        with prefix, keyed by that ancestor's name."""
        counts: dict[str, int] = {}
        for i in np.flatnonzero(mask(child_name)):
            j = int(parent[i])
            while j >= 0 and not t.names[names[j]].startswith(prefix):
                j = int(parent[j])
            if j >= 0:
                key = t.names[names[j]]
                counts[key] = counts.get(key, 0) + 1
        return counts

    m_norm, m_int = mask(NORM), mask(INTEGRAL)
    m_gauss, m_herm, m_fun = mask(GAUSS), mask(HERMITE), mask(FUNCTIONAL)
    m_min, m_sweep, m_cli = mask(MINIMIZE), mask(SWEEP), mask(CLI)
    norms = int(m_norm.sum())
    integrals = int(m_int.sum())
    panels = int(size[m_int].sum())
    rounds = int(under(INTEGRAL, NORM).sum())
    fun_calls = int(m_fun.sum())
    out = {
        "numerics.lq_norm_quad.calls": norms,
        "numerics.lq_norm_quad.busy_s": float(dur[m_norm].sum()),
        "numerics.lq_norm_quad.p50_ms": _percentile_ms(dur[m_norm], 50),
        "numerics.lq_norm_quad.p99_ms": _percentile_ms(dur[m_norm], 99),
        "numerics.lq_norm_quad.failed": int(failed[m_norm].sum()),
        "numerics.integrate_adaptive.calls": integrals,
        "numerics.integrate_adaptive.self_s": float(self_time[m_int].sum()),
        "numerics.panels": panels,
        "numerics.panels_per_integral": panels / integrals if integrals else 0.0,
        "numerics.radius_rounds": rounds,
        "numerics.radius_rounds_per_norm": rounds / norms if norms else 0.0,
        "numerics.eval_points": int(size[m_gauss | m_herm].sum()),
    }
    for prefix, m in (("gaussian.eval", m_gauss), ("hermite.eval", m_herm)):
        calls = int(m.sum())
        points = int(size[m].sum())
        out[prefix + ".calls"] = calls
        out[prefix + ".points"] = points
        out[prefix + ".points_per_call"] = points / calls if calls else 0.0
        out[prefix + ".busy_s"] = float(dur[m].sum())
    out.update({
        "functionals.eval.calls": fun_calls,
        "functionals.eval.busy_s": float(dur[m_fun].sum()),
        "functionals.eval.self_s": float(self_time[m_fun].sum()),
        "functionals.eval.p50_ms": _percentile_ms(dur[m_fun], 50),
        "functionals.eval.p99_ms": _percentile_ms(dur[m_fun], 99),
        "functionals.quad_norms_per_eval":
            int(under(NORM, FUNCTIONAL).sum()) / fun_calls if fun_calls else 0.0,
    })
    check_norms = ancestor_counts(NORM, CHECK_PREFIX)
    for check in CHECK_NAMES:
        key = CHECK_PREFIX + check
        out[key + ".s"] = float(dur[mask(key)].sum())
        out[key + ".norms"] = check_norms.get(key, 0)
    out.update({
        "explore.minimize.self_s": float(self_time[m_min].sum()),
        "explore.minimize.objective_evals": int(under(FUNCTIONAL, MINIMIZE).sum()),
        "explore.sweep.rows": int(size[m_sweep].sum()),
        "explore.sweep.self_s": float(self_time[m_sweep].sum()),
        "cli.run_cli.self_s": float(self_time[m_cli].sum()),
    })
    return out

