"""One fresh interpreter of the benchmark; started by run.py, never by hand.

``worker.py setup``
    Import uflab and fill its lazy caches, then exit.  The ``run`` mode
    times this from outside to get the set-up time a user pays on every
    run.

``worker.py run WORKLOAD SEED SECONDS SIZE TRACE SETUP_RUNS``
    Set up as above (untimed), then either repeat the workload until the
    next repeat would end past SECONDS, timing SETUP_RUNS fresh set-ups
    along the way (TRACE 0), or run it twice untraced and twice traced on
    the same inputs (TRACE 1).  Prints one JSON object as the last line
    of stdout.

How a repeat is timed (TRACE 0).  On a small shared machine the CPU runs
at one of a few speeds that change every few seconds to minutes (the
same code took 8.5 ms or 14-16 ms on one vCPU within a minute), and CPU
time follows wall time, so the slow spells are not time spent off the
CPU.  A repeat of 1-3 s seldom runs entirely in a fast spell.  So each
repeat is also split at its calls into ``lq_norm_quad`` (0.4-5 ms each,
where nearly all of the time goes), and the run reports, for each norm,
the fastest of the repeats, summed with the fastest remainder of a
repeat outside the norms.  The repeats do
identical work, and the noise only ever adds time, so this is the
repeat's time with the spells removed (the minimum, as argued by Chen and
Revels, "Robust benchmarking in noisy environments", 2016, applied to
each piece).  The per-repeat wall times are reported too.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench_tmp")

# Every workload runs with the program's default thread count.  The
# benchmark's own modules are imported inside functions, so that the
# setup mode imports uflab and nothing else.
os.environ.pop("UFLAB_THREADS", None)
sys.path.insert(0, os.path.join(ROOT, "src"))


def fill_caches() -> None:
    """One degree-32 Hermite evaluation: runs every lazily cached
    per-degree normalisation the workloads can reach."""
    from uflab.hermite import HermiteExpansion

    HermiteExpansion((1.0,) * 33).eval(0.0)


class _FillCaches:
    """fill_caches in the shape of a workload, so it can be traced."""

    expected = 1

    def call(self):
        fill_caches()
        return None, 0

    def check(self, output):
        return 1, 0


class NormClock:
    """Wall and CPU time of each ``lq_norm_quad`` call, patched wherever
    uflab binds it."""

    def __init__(self):
        self.wall: list[float] = []
        self.cpu: list[float] = []

    def __enter__(self):
        import tracer
        from uflab import numerics

        fn = numerics.lq_norm_quad

        def wrapper(*args, **kwargs):
            wall0, cpu0 = time.perf_counter(), time.process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                self.cpu.append(time.process_time() - cpu0)
                self.wall.append(time.perf_counter() - wall0)

        self._undo = tracer.patch(fn, wrapper)
        return self

    def __exit__(self, *exc):
        import tracer

        tracer.uninstall(self._undo)


def run_once(work, clock=None) -> dict:
    """One repeat: the timed call, then the untimed output check."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        with clock or contextlib.nullcontext():
            output, items = work.call()
    except Exception:  # a raising call is a failed operation, not a crash
        traceback.print_exc()
        wall = time.perf_counter() - wall0
        return {"wall_s": wall, "cpu_s": time.process_time() - cpu0, "items": 0,
                "attempted": work.expected, "failed": work.expected}
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    attempted, failed = work.check(output)
    return {"wall_s": wall, "cpu_s": cpu, "items": items,
            "attempted": attempted, "failed": failed}


def setup_once() -> float:
    """Wall time from starting a fresh interpreter until it has imported
    uflab and filled its caches; the import is what every user of the
    package pays.  The child reads the system-wide monotonic clock that
    perf_counter uses when it is done, so waiting for it to exit adds no
    polling delay to the sample."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "setup"],
                          cwd=ROOT, check=True, timeout=60,
                          stdout=subprocess.PIPE, text=True)
    return float(proc.stdout) - t0


def fastest_pieces(reps, clocks, key: str) -> float | None:
    """Sum over norms of the fastest repeat, plus the fastest remainder;
    None when the repeats did not compute the same number of norms."""
    series = [getattr(c, key) for c in clocks]
    if len({len(s) for s in series}) != 1:
        return None
    rest = min(r[key + "_s"] - sum(s) for r, s in zip(reps, series))
    return sum(min(col) for col in zip(*series)) + rest


def measure(work, seconds: float, setup_runs: int) -> dict:
    """Repeat the workload for ``seconds``, with ``setup_runs`` set-up
    samples spread evenly through the run, so that one slow spell of the
    machine cannot land on all of them."""
    reps, clocks, setup = [], [], []
    cpus = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()
    try:
        while True:
            # Each vCPU changes speed on its own, so alternating them
            # keeps one long slow spell on one of them off most repeats.
            os.sched_setaffinity(0, {cpus[len(reps) % len(cpus)]})
            elapsed = time.perf_counter() - start
            if len(setup) < setup_runs and elapsed >= len(setup) * seconds / setup_runs:
                setup.append(setup_once())
            clocks.append(NormClock())
            reps.append(run_once(work, clocks[-1]))
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(reps) > seconds:
                break
        while len(setup) < setup_runs:
            setup.append(setup_once())
    finally:
        os.sched_setaffinity(0, cpus)
    return {"reps": reps, "setup_s": setup,
            "norms": len(clocks[0].wall),
            "pieces_wall_s": fastest_pieces(reps, clocks, "wall"),
            "pieces_cpu_s": fastest_pieces(reps, clocks, "cpu")}


def traced_run(work, t) -> tuple[dict, dict]:
    """One repeat with ``t`` installed; its spans live until it returns."""
    import tracer

    undo = tracer.install(t)
    try:
        rep = run_once(work)
    finally:
        tracer.uninstall(undo)
    return rep, tracer.layer_metrics(t)


def trace(work) -> dict:
    import tracer

    setup_rep, setup_layers = traced_run(_FillCaches(), tracer.Tracer())

    # Untraced and traced repeats alternate, and each side keeps its
    # fastest, so a slow spell of the machine does not pose as overhead.
    untraced, traced = [], []
    for _ in range(2):
        untraced.append(run_once(work))
        traced.append(traced_run(work, tracer.Tracer()))
    reps = untraced + [rep for rep, _ in traced]
    counters = [{k: layers[k] for k in tracer.COUNTERS} for _, layers in traced]
    layers = traced[0][1]
    layers["setup.integrate_adaptive.calls"] = setup_layers[
        "numerics.integrate_adaptive.calls"]
    layers["setup.traced_s"] = setup_rep["wall_s"]
    layers["trace.untraced_wall_s"] = min(r["wall_s"] for r in untraced)
    layers["trace.traced_wall_s"] = min(r["wall_s"] for r, _ in traced)
    layers["trace.overhead_s"] = (layers["trace.traced_wall_s"]
                                  - layers["trace.untraced_wall_s"])
    return {"reps": reps, "layers": layers, "counters": counters,
            "counters_repeat": counters[0] == counters[1]}


def main(argv) -> int:
    mode = argv[0]
    if mode == "setup":
        import uflab  # noqa: F401  (the import is part of what is timed)

        fill_caches()
        print(repr(time.perf_counter()))
        return 0
    name, seed, seconds, size, traced, setup_runs = argv[1:7]
    import uflab  # noqa: F401
    from workloads import WORKLOADS

    os.makedirs(SCRATCH, exist_ok=True)
    work = WORKLOADS[name](int(seed), size, SCRATCH)
    if traced == "1":
        out = trace(work)  # fills the caches under its own setup tracer
    else:
        fill_caches()
        out = measure(work, float(seconds), int(setup_runs))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
