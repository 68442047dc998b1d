"""Smallest-size self-check of the benchmark's plumbing.

    python3 perfbench/smoke.py

Runs every workload of workloads.py (also those BENCHMARK.json leaves
out) at ``--size smoke`` with tracing off and on, and asserts that each
run prints exactly the metrics BENCHMARK.json names,
each with its unit, that the outputs checked correct, that the two
workloads without Hermite inputs never reach ``HermiteExpansion.eval``,
and that a copy holding only the benchmark (no ``src/uflab``) exits
non-zero without printing a result.  Takes well under a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


def _run(root: str, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--size", "smoke"],
        cwd=root, capture_output=True, text=True, timeout=180)


def check_runs(spec: dict) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for workload in sorted(WORKLOADS):
            proc = _run(ROOT, workload, trace)
            assert proc.returncode == 0, (workload, trace, proc.stderr[-2000:])
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, (workload, result)
            assert result["attempted"] >= 1, result
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), (name, m)
            if trace and workload != "verify-suite":
                assert result["metrics"]["hermite.eval.calls"]["value"] == 0, workload
            print(f"ok  {workload:16s} trace={trace}  {len(got)} metrics")


def check_bare_copy(spec: dict) -> None:
    bare = os.path.join(ROOT, ".perfbench_tmp", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, spec["workloads"][0]["name"], 0)
        assert proc.returncode != 0, proc.stdout
        assert '"metrics"' not in proc.stdout, proc.stdout
        print(f"ok  bare copy exits {proc.returncode} without a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check_runs(spec)
    check_bare_copy(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
