"""Command-line front end.

Subcommands: eval (one functional value), sweep (CSV/JSON parameter
sweep), verify (inequality check suite), minimize (direct search for
small F_q), ftcheck (DFT vs analytic transform diagnostic).  Each
subcommand's handler returns its document, a dict or the CSV text of a
sweep, with an exit code; ``run_cli`` alone renders the document and
writes it to stdout or to ``--out``.  Exit codes: 0 success, 1
verification failure or tolerance not achieved, 2 usage error, a value
the library rejects or an unwritable ``--out`` included; argparse
reports each usage error under the failing subcommand's usage.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .explore import (MAX_GRID_COUNT, GridSpec, MinimizeFamilySpec, OptimizerConfig,
                      minimize_Fq, sweep)
from .functionals import _METHODS, _with_transform, eval_batch
from .gaussian import ChirpParams, ComplexGaussianTerm, TwoScaleParams
from .numerics import (MAX_SAMPLES, ToleranceNotAchieved, check_grid, dft_approx,
                       sample, truncation_radius)
from .verifier import MAX_CHECK_SAMPLES, SUITE_NAMES, run_suite

EVAL_SCHEMA = "uflab.eval/1"
VERIFY_SCHEMA = "uflab.verify/1"
MINIMIZE_SCHEMA = "uflab.minimize/1"
FTCHECK_SCHEMA = "uflab.ftcheck/1"


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uflab",
        description="Numerical experiments with Fourier uncertainty ratios.",
    )
    parser.add_argument("--version", action="version", version=f"uflab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags shared by several subcommands; each subcommand declares only
    # those its handler reads, so an unread flag is a usage error, and
    # marks those it cannot run without as required.
    shared = {
        "--family": dict(choices=("chirp", "twoscale", "gaussian")),
        "--a": dict(type=float, default=None, help="chirp parameter, a > 1"),
        "--c": dict(type=float, default=None,
                    help="twoscale scale c > 0, or gaussian width (default 1)"),
        "--q": dict(type=float, default=None, help="exponent q"),
        "--p": dict(type=float, default=None,
                    help="second exponent p; eval and sweep then use F_qp"),
        "--tol": dict(type=float, default=1e-8, help="tolerance (default 1e-8)"),
        "--seed": dict(type=int, default=0, help="RNG seed, a non-negative integer (default 0)"),
        "--out": dict(type=str, default=None, help="write output to this file"),
    }

    def command(name, handler, help, *flags, required=()):
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(handler=handler, parser=sp)
        for flag in flags + ("--out",):
            sp.add_argument(flag, required=flag in required, **shared[flag])
        return sp

    sp = command("eval", _cmd_eval, "evaluate one uncertainty ratio",
                 "--family", "--a", "--c", "--q", "--p", "--tol",
                 required=("--family", "--q"))
    sp.add_argument("--method", choices=_METHODS, default="quadrature",
                    help="norm routes: auto (exact where one exists, else quadrature), "
                         "closed-form, quadrature, or both (default quadrature)")

    sp = command("sweep", _cmd_sweep, "sweep a family parameter", "--q", "--p", "--tol",
                 required=("--q",))
    sp.add_argument("--json", action="store_true", help="write JSON instead of CSV")
    sp.add_argument("--family", choices=("chirp", "twoscale"), required=True)
    sp.add_argument("--grid", type=str, required=True,
                    help=f"start:stop:count[log|lin], count from 2 to {MAX_GRID_COUNT}; "
                         "t for chirp, c for twoscale")

    sp = command("verify", _cmd_verify, "run inequality checks", "--q", "--p", "--seed")
    sp.add_argument("--suite", choices=("all",) + SUITE_NAMES, default="all",
                    help="check name or 'all' (default all)")
    sp.add_argument("--samples", type=int, default=None,
                    help="random test functions per randomized check, "
                         f"from 1 to {MAX_CHECK_SAMPLES}")

    sp = command("minimize", _cmd_minimize, "search for small F_q values", "--q", "--seed",
                 required=("--q",))
    family, optimizer = MinimizeFamilySpec(), OptimizerConfig()
    for flag, default, what in (("--terms", family.terms, "Gaussian terms in the mixture"),
                                ("--restarts", optimizer.restarts, "optimizer restarts"),
                                ("--max-iter", optimizer.max_iter, "iterations per restart")):
        sp.add_argument(flag, type=int, default=default, help=f"{what} (default {default})")

    sp = command("ftcheck", _cmd_ftcheck, "compare DFT against the analytic transform",
                 "--family", "--a", "--c", "--tol", required=("--family",))
    sp.add_argument("--grid-n", type=int, default=4096,
                    help=f"sample count, power of two from 16 to {MAX_SAMPLES} (default 4096)")
    sp.add_argument("--dx", type=float, default=None,
                    help="grid spacing; chosen automatically when omitted")

    return parser


def _family_object(args):
    """The parameters named by --family and the one flag it reads (the
    chirp --a, the others --c), along with that value for reports."""
    flag, unread = ("a", "c") if args.family == "chirp" else ("c", "a")
    if getattr(args, unread) is not None:
        raise ValueError(f"--family {args.family} takes no --{unread}")
    value = getattr(args, flag)
    if args.family == "gaussian":
        width = 1.0 if value is None else value
        return ComplexGaussianTerm(1.0, complex(width)), width
    if value is None:
        raise ValueError(f"--family {args.family} needs --{flag}")
    return (ChirpParams if args.family == "chirp" else TwoScaleParams)(value), value


def _cmd_eval(args):
    params, _ = _family_object(args)
    report = eval_batch((params,), args.q, args.p, args.method, args.tol)[0]
    return {"schema": EVAL_SCHEMA, "family": args.family, **asdict(report)}, 0


def _cmd_sweep(args):
    result = sweep(args.family, args.q, args.p, GridSpec.parse(args.grid), args.tol)
    return (asdict(result) if args.json else result.csv_text()), 0


def _cmd_verify(args):
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    results = run_suite(names, seed=args.seed, samples=args.samples, q=args.q, p=args.p)
    all_pass = all(r.passed for r in results)
    return (
        {
            "schema": VERIFY_SCHEMA,
            "suite": args.suite,
            "seed": args.seed,
            "checks": [r.to_json_dict() for r in results],
            "pass": all_pass,
        },
        0 if all_pass else 1,
    )


def _cmd_minimize(args):
    report = minimize_Fq(
        args.q,
        MinimizeFamilySpec(terms=args.terms),
        OptimizerConfig(restarts=args.restarts, max_iter=args.max_iter, seed=args.seed),
    )
    return {"schema": MINIMIZE_SCHEMA, **asdict(report)}, 0


def _auto_dx(obj, obj_hat, n: int, tol: float) -> float:
    # Coverage wants n*dx >= 2R; aliasing wants dx <= 1/(2*Omega).  Take
    # the smaller of the two candidates so bandwidth is never violated.
    u = max(min(tol, 1e-10) * 1e-2, 1e-14)
    radius = 1.5 * truncation_radius(obj, 1.0, u)
    bandwidth = 1.5 * truncation_radius(obj_hat, 1.0, u)
    return min(1.0 / (2.0 * bandwidth), 2.0 * radius / n)


def _cmd_ftcheck(args):
    """DFT of the sampled function against its analytic transform on the
    dual grid.  For the two-scale family the transform is g_c itself
    (``_with_transform`` returns it twice), so the check compares the
    DFT of g_c with g_c: the self-duality statement."""
    n = args.grid_n
    check_grid(n)
    if not (math.isfinite(args.tol) and args.tol > 0.0):
        raise ValueError(f"--tol must be finite and positive, got {args.tol}")
    params, param = _family_object(args)
    obj, obj_hat = _with_transform(params)
    dx = args.dx if args.dx is not None else _auto_dx(obj, obj_hat, n, args.tol)
    approx = dft_approx(sample(obj, n, dx))
    exact = obj_hat.eval(approx.x_grid())
    max_err = float(np.max(np.abs(approx.samples - exact)))
    passed = max_err <= args.tol
    return (
        {
            "schema": FTCHECK_SCHEMA,
            "family": args.family,
            "param": param,
            "n": n,
            "dx": dx,
            "max_abs_error": max_err,
            "tol": args.tol,
            "pass": passed,
        },
        0 if passed else 1,
    )


def run_cli(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        try:
            doc, code = args.handler(args)
        except ValueError as exc:
            args.parser.error(str(exc))
        except ToleranceNotAchieved as exc:
            args.parser.exit(1, f"uflab: tolerance not achieved: {exc}\n")
        text = doc if isinstance(doc, str) else json.dumps(doc, indent=2) + "\n"
        if args.out is None:
            sys.stdout.write(text)
        else:
            try:
                with open(args.out, "w") as fh:
                    fh.write(text)
            except OSError as exc:
                args.parser.error(f"cannot write --out {args.out}: {exc.strerror or exc}")
        return code
    except SystemExit as exc:
        # argparse writes every usage error under the failing subcommand's
        # usage and exits 2; it exits 0 for --help/--version and 1 for a
        # tolerance not achieved
        return int(exc.code or 0)


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
