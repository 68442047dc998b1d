"""Command-line front end.

Subcommands: eval (one functional value), sweep (CSV/JSON parameter
sweep), verify (inequality check suite), minimize (direct search for
small F_q), ftcheck (DFT vs analytic transform diagnostic).  Exit codes:
0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .explore import GridSpec, MinimizeFamilySpec, OptimizerConfig, minimize_Fq, sweep
from .functionals import _resolve, eval_Fq, eval_Fqp
from .gaussian import ChirpParams, ComplexGaussianTerm, TwoScaleParams
from .numerics import ToleranceNotAchieved, dft_approx, sample, truncation_radius
from .verifier import SUITE_NAMES, run_suite

EVAL_SCHEMA = "uflab.eval/1"
VERIFY_SCHEMA = "uflab.verify/1"
MINIMIZE_SCHEMA = "uflab.minimize/1"
FTCHECK_SCHEMA = "uflab.ftcheck/1"

_METHOD_MAP = {"auto": "auto", "closed": "closed-form", "quad": "quadrature", "both": "both"}


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
        "--seed": dict(type=int, default=0, help="RNG seed (default 0)"),
        "--out": dict(type=str, default=None, help="write output to this file"),
    }

    def command(name, help, *flags, required=()):
        sp = sub.add_parser(name, help=help)
        for flag in flags + ("--out",):
            sp.add_argument(flag, required=flag in required, **shared[flag])
        return sp

    sp = command("eval", "evaluate one uncertainty ratio",
                 "--family", "--a", "--c", "--q", "--p", "--tol",
                 required=("--family", "--q"))
    sp.add_argument("--method", choices=tuple(_METHOD_MAP), default="quad",
                    help="norm routes: auto (exact where one exists, else quadrature), "
                         "closed, quad, or both (default quad)")

    sp = command("sweep", "sweep a family parameter", "--q", "--p", "--tol",
                 required=("--q",))
    sp.add_argument("--json", action="store_true", help="write JSON instead of CSV")
    sp.add_argument("--family", choices=("chirp", "twoscale"), required=True)
    sp.add_argument("--grid", type=str, required=True,
                    help="start:stop:count[log|lin]; t for chirp, c for twoscale")

    sp = command("verify", "run inequality checks", "--q", "--p", "--seed")
    sp.add_argument("--suite", choices=("all",) + SUITE_NAMES, default="all",
                    help="check name or 'all' (default all)")
    sp.add_argument("--samples", type=int, default=None,
                    help="random test functions per randomized check")

    sp = command("minimize", "search for small F_q values", "--q", "--seed",
                 required=("--q",))
    sp.add_argument("--terms", type=int, default=2,
                    help="Gaussian terms in the mixture (default 2)")
    sp.add_argument("--restarts", type=int, default=8,
                    help="optimizer restarts (default 8)")
    sp.add_argument("--max-iter", type=int, default=200,
                    help="iterations per restart (default 200)")

    sp = command("ftcheck", "compare DFT against the analytic transform",
                 "--family", "--a", "--c", "--tol", required=("--family",))
    sp.add_argument("--grid-n", type=int, default=4096,
                    help="sample count, power of two >= 16 (default 4096)")
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


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _json_text(obj: dict) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _cmd_eval(args) -> int:
    params, _ = _family_object(args)
    method = _METHOD_MAP[args.method]
    if args.p is None:
        report = eval_Fq(params, args.q, method, args.tol)
    else:
        report = eval_Fqp(params, args.q, args.p, method, args.tol)
    doc = {"schema": EVAL_SCHEMA, "family": args.family, **asdict(report)}
    _emit(_json_text(doc), args.out)
    return 0


def _cmd_sweep(args) -> int:
    result = sweep(args.family, args.q, args.p, GridSpec.parse(args.grid), args.tol)
    if args.json:
        _emit(_json_text(asdict(result)), args.out)
    else:
        _emit(result.csv_text(), args.out)
    return 0


def _cmd_verify(args) -> int:
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    results = run_suite(names, seed=args.seed, samples=args.samples, q=args.q, p=args.p)
    all_pass = all(r.passed for r in results)
    _emit(
        _json_text(
            {
                "schema": VERIFY_SCHEMA,
                "suite": args.suite,
                "seed": args.seed,
                "checks": [r.to_json_dict() for r in results],
                "pass": all_pass,
            }
        ),
        args.out,
    )
    return 0 if all_pass else 1


def _cmd_minimize(args) -> int:
    report = minimize_Fq(
        args.q,
        MinimizeFamilySpec(terms=args.terms),
        OptimizerConfig(restarts=args.restarts, max_iter=args.max_iter, seed=args.seed),
    )
    _emit(_json_text({"schema": MINIMIZE_SCHEMA, **asdict(report)}), args.out)
    return 0


def _auto_dx(obj, obj_hat, n: int, tol: float) -> float:
    # Coverage wants n*dx >= 2R; aliasing wants dx <= 1/(2*Omega).  Take
    # the smaller of the two candidates so bandwidth is never violated.
    u = max(min(tol, 1e-10) * 1e-2, 1e-14)
    radius = 1.5 * truncation_radius(obj, 1.0, u)
    bandwidth = 1.5 * truncation_radius(obj_hat, 1.0, u)
    return min(1.0 / (2.0 * bandwidth), 2.0 * radius / n)


def _cmd_ftcheck(args) -> int:
    """DFT of the sampled function against its analytic transform on the
    dual grid.  For the two-scale family the transform is g_c itself
    (``_resolve`` returns it twice), so the check compares the DFT of
    g_c with g_c: the self-duality statement."""
    n = args.grid_n
    if n < 16 or n & (n - 1):
        raise ValueError(f"--grid-n must be a power of two >= 16, got {n}")
    if not (math.isfinite(args.tol) and args.tol > 0.0):
        raise ValueError(f"--tol must be finite and positive, got {args.tol}")
    params, param = _family_object(args)
    obj, obj_hat = _resolve(params)
    dx = args.dx if args.dx is not None else _auto_dx(obj, obj_hat, n, args.tol)
    approx = dft_approx(sample(obj, n, dx))
    exact = obj_hat.eval(approx.x_grid())
    max_err = float(np.max(np.abs(approx.samples - exact)))
    passed = max_err <= args.tol
    _emit(
        _json_text(
            {
                "schema": FTCHECK_SCHEMA,
                "family": args.family,
                "param": param,
                "n": n,
                "dx": dx,
                "max_abs_error": max_err,
                "tol": args.tol,
                "pass": passed,
            }
        ),
        args.out,
    )
    return 0 if passed else 1


_COMMANDS = {
    "eval": _cmd_eval,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
    "minimize": _cmd_minimize,
    "ftcheck": _cmd_ftcheck,
}


def run_cli(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help/--version and 2 for usage errors
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        sys.stderr.write(parser.format_usage())
        sys.stderr.write(f"uflab: error: {exc}\n")
        return 2
    except ToleranceNotAchieved as exc:
        sys.stderr.write(f"uflab: tolerance not achieved: {exc}\n")
        return 1


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
