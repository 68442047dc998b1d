"""uflab benchmark: closed-loop workloads driven through uflab's public
functions, timed from outside, with outputs checked against references.

Run from the root of a checkout holding ``src/uflab``::

    python3 perfbench/run.py --workload verify-suite --seed 1 --seconds 60 --trace 0

Workloads (see workloads.py and README.md for why each exists):
``verify-suite`` and ``twoscale-sweep``, which BENCHMARK.json lists, and
``minimize-search``, which it leaves out.

``--trace 0`` starts one fresh interpreter that repeats the workload for
``--seconds`` and prints the end-to-end metrics: set-up time (the fastest
of five fresh interpreters that import uflab and fill its lazy caches),
the wall and CPU time of one repeat and its throughput (timed as
worker.py explains), the interpreter's peak memory, and the share of
operations whose output checked correct.

``--trace 1`` runs the workload twice untraced and twice traced on the same
inputs and prints the per-layer metrics of tracer.py, the tracing overhead
and the set-up work; the machine-independent work counters of the two
traced runs must agree exactly.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
samples behind the metrics and the environment.  Without ``src/uflab``
the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

from tracer import CHECK_NAMES  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402

# A run must end within 180 s; the worker is killed past this.
DEADLINE_S = 170.0
SETUP_RUNS = 5

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("success_rate", "ratio", "higher"),
)

PER_LAYER = (
    ("numerics.lq_norm_quad.calls", "count", "lower"),
    ("numerics.lq_norm_quad.busy_s", "s", "lower"),
    ("numerics.lq_norm_quad.p50_ms", "ms", "lower"),
    ("numerics.lq_norm_quad.p99_ms", "ms", "lower"),
    ("numerics.lq_norm_quad.failed", "count", "lower"),
    ("numerics.integrate_adaptive.calls", "count", "lower"),
    ("numerics.integrate_adaptive.self_s", "s", "lower"),
    ("numerics.panels", "count", "lower"),
    ("numerics.panels_per_integral", "panels/integral", "lower"),
    ("numerics.radius_rounds", "count", "lower"),
    ("numerics.radius_rounds_per_norm", "rounds/norm", "lower"),
    ("numerics.eval_points", "count", "lower"),
    ("gaussian.eval.calls", "count", "lower"),
    ("gaussian.eval.points", "count", "lower"),
    ("gaussian.eval.points_per_call", "points/call", "higher"),
    ("gaussian.eval.busy_s", "s", "lower"),
    ("hermite.eval.calls", "count", "lower"),
    ("hermite.eval.points", "count", "lower"),
    ("hermite.eval.points_per_call", "points/call", "higher"),
    ("hermite.eval.busy_s", "s", "lower"),
    ("functionals.eval.calls", "count", "lower"),
    ("functionals.eval.busy_s", "s", "lower"),
    ("functionals.eval.self_s", "s", "lower"),
    ("functionals.eval.p50_ms", "ms", "lower"),
    ("functionals.eval.p99_ms", "ms", "lower"),
    ("functionals.quad_norms_per_eval", "norms/eval", "lower"),
    *((f"verifier.{name}.{kind}", unit, "lower")
      for name in CHECK_NAMES for kind, unit in (("s", "s"), ("norms", "count"))),
    ("explore.minimize.self_s", "s", "lower"),
    ("explore.minimize.objective_evals", "count", "lower"),
    ("explore.sweep.rows", "count", "higher"),
    ("explore.sweep.self_s", "s", "lower"),
    ("cli.run_cli.self_s", "s", "lower"),
    ("setup.integrate_adaptive.calls", "count", "lower"),
    ("setup.traced_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.traced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class BenchError(RuntimeError):
    """The benchmark itself could not produce a result."""


def environment() -> dict:
    import numpy
    import scipy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True, timeout=10,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": commit}


def run_worker(args) -> dict:
    """Start the worker in a fresh interpreter and return its result."""
    try:
        proc = subprocess.run([sys.executable, WORKER, *args], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True, timeout=DEADLINE_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {DEADLINE_S:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values) -> dict:
    values = list(values)
    out = {"n": len(values), "min": min(values), "median": statistics.median(values),
           "samples": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def end_to_end(out: dict, success_rate: float) -> tuple[dict, dict]:
    """Set-up time is the fastest of the fresh interpreters; wall and CPU
    time are the fastest pieces of the repeats (see worker.py), or the
    fastest whole repeat when the repeats computed different norms."""
    reps = out["reps"]
    walls = [r["wall_s"] for r in reps]
    cpus = [r["cpu_s"] for r in reps]
    wall = out["pieces_wall_s"] if out["pieces_wall_s"] is not None else min(walls)
    cpu = out["pieces_cpu_s"] if out["pieces_cpu_s"] is not None else min(cpus)
    items = statistics.median(r["items"] for r in reps)
    values = {
        "setup_s": min(out["setup_s"]),
        "wall_s": wall,
        "cpu_s": cpu,
        "items_per_s": items / wall,
        "peak_rss_mb": out["peak_rss_mb"],
        "success_rate": success_rate,
    }
    detail = {
        "setup_s": summary(out["setup_s"]),
        "repeat_wall_s": summary(walls),
        "repeat_cpu_s": summary(cpus),
        "items": [r["items"] for r in reps],
        "norms": out["norms"],
    }
    return values, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full",
                        help="'smoke' shrinks every workload to check the plumbing")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "uflab", "__init__.py")):
        sys.stderr.write(f"perfbench: no uflab sources under {ROOT}/src\n")
        return 2
    try:
        out = run_worker(["run", args.workload, str(args.seed), str(args.seconds),
                          args.size, str(args.trace), str(SETUP_RUNS)])
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    reps = out["reps"]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    correct = failed == 0
    if args.trace:
        table, values = PER_LAYER, out["layers"]
        correct = correct and out["counters_repeat"]
        detail = {"counters": out["counters"], "reps": reps}
    else:
        table = END_TO_END
        values, detail = end_to_end(out, 1.0 - failed / attempted)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in table}
    detail.update(workload=args.workload, seed=args.seed, size=args.size,
                  environment=environment())
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
