"""Command-line interface: exit codes, output formats, determinism."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import uflab
from uflab import explore, numerics, verifier
from uflab.cli import run_cli
from uflab.functionals import eval_batch
from uflab.gaussian import TwoScaleParams, closed_form_Fq_chirp


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv):
    """``python -m uflab`` in a child process, so that stderr shows
    whatever the interpreter itself would print, tracebacks included."""
    src = str(Path(uflab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-m", "uflab", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        code, _, err = run(capsys)
        assert code == 2
        assert "usage" in err

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_domain_error_is_usage_error(self, capsys):
        code, _, err = run(capsys, "eval", "--family", "chirp", "--a", "0.5", "--q", "4")
        assert code == 2
        assert "usage" in err and "error" in err

    def test_missing_required_flag(self, capsys):
        assert run(capsys, "eval", "--family", "chirp", "--a", "2")[0] == 2
        assert run(capsys, "eval", "--q", "4", "--a", "2")[0] == 2

    @pytest.mark.parametrize("argv", [
        ("eval", "--family", "chirp", "--a", "2"),
        ("sweep", "--family", "chirp", "--grid", "2:3:2"),
        ("minimize", "--terms", "1", "--restarts", "1", "--max-iter", "5"),
    ])
    def test_q_is_required_in_usage(self, capsys, argv):
        # argparse, not the handler, rejects a missing --q, and the usage
        # line no longer shows it as optional
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "the following arguments are required: --q" in err
        assert "[--q" not in err

    def test_bad_grid(self, capsys):
        code, _, err = run(capsys, "sweep", "--family", "chirp", "--q", "4",
                           "--grid", "5:1:9log")
        assert code == 2

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0
        assert run(capsys, "eval", "--help")[0] == 0

    # Each subcommand takes only the shared flags its handler reads; any
    # other one is rejected instead of silently ignored.
    BASE = {
        "eval": ("eval", "--family", "chirp", "--a", "2", "--q", "4"),
        "sweep": ("sweep", "--family", "chirp", "--q", "4", "--grid", "2:3:2"),
        "verify": ("verify", "--suite", "closed-forms"),
        "minimize": ("minimize", "--q", "1.5", "--terms", "1", "--restarts", "1",
                     "--max-iter", "5"),
        "ftcheck": ("ftcheck", "--family", "gaussian", "--grid-n", "16"),
    }

    @pytest.mark.parametrize("command, flag", [
        ("eval", ("--seed", "1")), ("eval", ("--json",)),
        ("sweep", ("--seed", "1")),
        ("verify", ("--tol", "1e-30")), ("verify", ("--json",)),
        ("minimize", ("--p", "3")), ("minimize", ("--tol", "1e-3")),
        ("minimize", ("--json",)),
        ("ftcheck", ("--q", "4")), ("ftcheck", ("--p", "6")),
        ("ftcheck", ("--seed", "1")), ("ftcheck", ("--json",)),
    ])
    def test_unread_flag_is_usage_error(self, capsys, command, flag):
        code, out, err = run(capsys, *self.BASE[command], *flag)
        assert code == 2
        assert out == ""
        assert f"unrecognized arguments: {' '.join(flag)}" in err

    # A negative seed is rejected by argparse itself, naming the flag, not
    # by numpy's bare "expected non-negative integer" where a check draws
    # functions, and also where no check reads it (asymptotics).
    @pytest.mark.parametrize("argv", [
        ("verify", "--suite", "fq-lower", "--seed", "-5"),
        ("minimize", "--q", "3", "--seed", "-1"),
        ("verify", "--suite", "asymptotics", "--seed", "-1"),
    ], ids=["fq-lower", "minimize", "asymptotics"])
    def test_negative_seed_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "argument --seed" in err.strip().splitlines()[-1]

    # Values the library rejects, and family flags the family does not
    # read (the chirp reads --a, the others --c), reach the user as usage
    # errors, not tracebacks, silently clamped reports or ignored flags.
    @pytest.mark.parametrize("argv", [
        ("minimize", "--q", "0.5"),
        ("minimize", "--q", "100"),
        ("minimize", "--q", "1.5", "--restarts", "0"),
        ("minimize", "--q", "1.5", "--restarts", "-3"),
        ("minimize", "--q", "1.5", "--max-iter", "0"),
        ("eval", "--family", "twoscale", "--c", "1e-300", "--q", "3"),
        ("eval", "--family", "twoscale", "--c", "1e154", "--q", "3"),
        ("ftcheck", "--family", "gaussian", "--c", "-1", "--grid-n", "16"),
        ("ftcheck", "--family", "gaussian", "--grid-n", "16", "--dx", "0"),
        ("ftcheck", "--family", "gaussian", "--grid-n", "16", "--dx", "nan"),
        ("eval", "--family", "chirp", "--a", "2", "--c", "5", "--q", "3"),
        ("eval", "--family", "twoscale", "--c", "3", "--a", "7", "--q", "3"),
        ("ftcheck", "--family", "gaussian", "--a", "3"),
        ("ftcheck", "--family", "chirp", "--a", "2", "--c", "3"),
        # tolerances that are not finite and positive, with and without
        # --dx; the parent passed inf and failed the check on the others
        ("ftcheck", "--family", "chirp", "--a", "2", "--tol", "inf"),
        ("ftcheck", "--family", "chirp", "--a", "2", "--tol", "0"),
        ("ftcheck", "--family", "chirp", "--a", "2", "--tol", "-1"),
        ("ftcheck", "--family", "chirp", "--a", "2", "--tol", "nan", "--dx", "0.1"),
        # the chirp without the --a it reads
        ("eval", "--family", "chirp", "--q", "3"),
    ])
    def test_rejected_value_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "usage" in err and "error" in err

    # A norm tolerance outside [1e-13, 1e-2], nan included, is rejected
    # whichever route the norms take.  The ids are short route labels,
    # which keep the test names stable.
    @pytest.mark.parametrize("method", ["auto", "closed-form", "quadrature", "both"],
                             ids=["auto", "closed", "quad", "both"])
    @pytest.mark.parametrize("tol", ["nan", "0", "0.5", "1e-15"])
    def test_rejected_tolerance_is_usage_error(self, capsys, method, tol):
        code, out, err = run(capsys, "eval", "--family", "chirp", "--a", "2", "--q", "3",
                             "--tol", tol, "--method", method)
        assert code == 2
        assert out == ""
        assert "tolerance must lie" in err

    # A spacing whose grid span n*dx or dual span 1/dx is not finite is
    # rejected by name, before the grid is built or sampled.
    @pytest.mark.parametrize("dx, shown", [("1e308", "1e+308"), ("1e-320", "1e-320")])
    def test_rejected_dx_names_given_value(self, capsys, dx, shown):
        code, out, err = run(capsys, "ftcheck", "--family", "gaussian", "--dx", dx)
        assert code == 2
        assert out == ""
        assert "usage" in err and f"got {shown}\n" in err

    # Sizes past the cap are rejected before the grid is allocated.
    def test_grid_n_above_cap_is_usage_error(self, capsys):
        code, out, err = run(capsys, "ftcheck", "--family", "chirp", "--a", "2",
                             "--grid-n", "1099511627776")
        assert code == 2
        assert out == ""
        assert "usage" in err and f"from 16 to {numerics.MAX_SAMPLES}" in err

    # Counts past their caps are rejected before anything is allocated or
    # drawn; no function may be drawn at all.
    @pytest.mark.parametrize("argv, cap", [
        (("sweep", "--family", "chirp", "--q", "3", "--grid", "2:3:1000000000000"),
         f"grid needs 2 to {explore.MAX_GRID_COUNT} points"),
        (("verify", "--suite", "fq-lower", "--samples", "100000000000"),
         f"needs 1 to {verifier.MAX_CHECK_SAMPLES} samples"),
    ], ids=["grid", "samples"])
    def test_count_above_cap_is_usage_error(self, capsys, monkeypatch, argv, cap):
        def drawn(*args):
            raise AssertionError("a function was drawn")

        monkeypatch.setattr(verifier, "random_schwartz", drawn)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "usage" in err and cap in err

    # An --out that cannot be opened for writing is a usage error, not a
    # traceback with the exit status of a failed check.
    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_unwritable_out_is_usage_error(self, tmp_path, where):
        path = tmp_path / "missing" / "x.json" if where == "missing-dir" else tmp_path
        proc = run_module("eval", "--family", "chirp", "--a", "2", "--q", "3",
                          "--out", str(path))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("usage: uflab")
        assert f"uflab eval: error: cannot write --out {path}: " in proc.stderr
        assert "Traceback" not in proc.stderr

    # A value the library rejects is reported as argparse reports its own
    # errors: the failing subcommand's usage line, then the library's
    # message under that subcommand's name.
    @pytest.mark.parametrize("argv, library_call", [
        (("sweep", "--family", "chirp", "--q", "3", "--grid", "2:3:1"),
         lambda: explore.GridSpec.parse("2:3:1")),
        (("verify", "--suite", "closed-forms", "--q", "3"),
         lambda: verifier.run_suite(("closed-forms",), q=3.0)),
        (("eval", "--family", "twoscale", "--c", "3", "--q", "3", "--method", "closed-form"),
         lambda: eval_batch((TwoScaleParams(3.0),), 3.0, None, "closed-form", 1e-8)),
        (("ftcheck", "--family", "chirp", "--a", "2", "--grid-n", "1099511627776"),
         lambda: numerics.check_grid(1099511627776)),
        (("minimize", "--q", "1.5", "--restarts", "0"),
         lambda: explore.OptimizerConfig(restarts=0)),
    ], ids=["sweep", "verify", "eval", "ftcheck", "minimize"])
    def test_library_error_under_subcommand_usage(self, capsys, argv, library_call):
        with pytest.raises(ValueError) as excinfo:
            library_call()
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert lines[0].startswith(f"usage: uflab {argv[0]} ")
        assert lines[-1] == f"uflab {argv[0]}: error: {excinfo.value}"


# Every subcommand writes through one path: --out FILE holds exactly the
# bytes the same invocation prints without it, and stdout stays empty.
@pytest.mark.parametrize("argv", [
    ("eval", "--family", "chirp", "--a", "2", "--q", "3"),
    ("sweep", "--family", "chirp", "--q", "4", "--grid", "2:3:2"),
    ("sweep", "--family", "chirp", "--q", "4", "--grid", "2:3:2", "--json"),
    ("verify", "--suite", "closed-forms"),
    ("minimize", "--q", "1.5", "--terms", "1", "--restarts", "1", "--max-iter", "5"),
    ("ftcheck", "--family", "gaussian", "--grid-n", "256"),
], ids=["eval", "sweep-csv", "sweep-json", "verify", "minimize", "ftcheck"])
def test_out_matches_stdout(capsys, tmp_path, argv):
    code, printed, _ = run(capsys, *argv)
    path = tmp_path / "out"
    assert run(capsys, *argv, "--out", str(path)) == (code, "", "")
    assert path.read_bytes() == printed.encode()


class TestEval:
    def test_chirp_both_methods(self, capsys):
        code, out, _ = run(capsys, "eval", "--family", "chirp", "--a", "2",
                           "--q", "4", "--method", "both")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "uflab.eval/1"
        assert doc["method"] == "both"
        assert doc["discrepancy"] <= 1e-7
        assert len(doc["norms"]) == 4

    def test_twoscale_quadrature(self, capsys):
        code, out, _ = run(capsys, "eval", "--family", "twoscale", "--c", "1",
                           "--q", "2")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(1.0, rel=1e-8)

    def test_auto_method_tags_each_norm(self, capsys):
        code, out, _ = run(capsys, "eval", "--family", "twoscale", "--c", "3",
                           "--q", "3", "--p", "6", "--method", "auto")
        assert code == 0
        doc = json.loads(out)
        assert doc["method"] == "auto"
        assert [n["method"] for n in doc["norms"]] == ["quadrature"] * 2 + ["closed-form"] * 2

    def test_closed_without_exact_route_is_usage_error(self, capsys):
        code, out, err = run(capsys, "eval", "--family", "twoscale", "--c", "3",
                             "--q", "3", "--method", "closed-form")
        assert code == 2 and out == ""
        assert "no exact route" in err and "q = 3" in err

    def test_closed_route_advice_names_accepted_methods(self, capsys):
        # the methods the closed-form route's error advises are --method
        # choices, and each of them runs
        argv = ("eval", "--family", "twoscale", "--c", "3", "--q", "3", "--method")
        code, _, err = run(capsys, *argv, "closed-form")
        assert code == 2
        advised = re.findall(r"'([a-z-]+)'", err.split("; use method", 1)[1])
        assert advised
        for method in advised:
            assert run(capsys, *argv, method)[0] == 0

    def test_gaussian_family(self, capsys):
        code, out, _ = run(capsys, "eval", "--family", "gaussian", "--q", "4",
                           "--method", "closed-form")
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == pytest.approx(2.0 ** 0.5 * 4.0 ** -0.25, rel=1e-12)

    def test_largest_chirp_matches_closed_form(self, capsys):
        # the default quadrature route where pi*3*Re z overflows, though
        # pi*Re z does not: the decay length is formed without the product
        code, out, _ = run(capsys, "eval", "--family", "chirp", "--a", "7.5e153", "--q", "3")
        assert code == 0
        doc = json.loads(out)
        assert [n["method"] for n in doc["norms"]] == ["quadrature"] * 4
        assert doc["value"] == pytest.approx(closed_form_Fq_chirp(7.5e153, 3.0), rel=1e-8)

    def test_tolerance_not_achieved_exits_one(self, capsys, monkeypatch):
        # a panel budget too small for g_c's norms at tol 1e-12 (at the
        # default 1e-8 its seed mesh alone converges): exit status 1, and
        # the message names the exponents that missed
        monkeypatch.setattr(numerics, "MAX_PANELS", 3)
        code, out, err = run(capsys, "eval", "--family", "twoscale", "--c", "50", "--q", "3",
                             "--tol", "1e-12")
        assert code == 1 and out == ""
        assert err.startswith("uflab: tolerance not achieved:")
        assert "L^3, L^2" in err

    def test_fqp_via_p_flag(self, capsys):
        code, out, _ = run(capsys, "eval", "--family", "chirp", "--a", "2",
                           "--q", "3", "--p", "6", "--method", "closed-form")
        assert code == 0
        assert json.loads(out)["p"] == 6.0


class TestSweep:
    def test_csv_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "s.csv"
        code, out, _ = run(capsys, "sweep", "--family", "twoscale", "--q", "4",
                           "--grid", "10:10000:9log", "--out", str(out_path))
        assert code == 0
        assert out == ""
        lines = out_path.read_text().splitlines()
        assert len(lines) == 10  # header + 9 rows
        assert lines[0].startswith("schema,family,param")

    def test_json_mode(self, capsys):
        code, out, _ = run(capsys, "sweep", "--family", "chirp", "--q", "4",
                           "--grid", "2:50:4log", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "uflab.sweep/1"
        assert len(doc["rows"]) == 4


class TestVerify:
    def test_single_suite_exit_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "closed-forms")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "uflab.verify/1"
        assert doc["pass"] is True
        assert [c["check_name"] for c in doc["checks"]] == ["closed-forms"]

    def test_byte_identical_runs(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            code = run_cli(["verify", "--suite", "asymptotics", "--out", str(path)])
            assert code == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    # Parameters each check must report: the override where the check's
    # domain contains it, both defaults where it does not.
    @pytest.mark.parametrize("flags, expected", [
        (("--q", "3"), {"asymptotics-divergence": {"q": 3.0},
                        "asymptotics-vanishing": {"q": 3.0, "p": 6.0},
                        "fq-lower": {"q": 1.5},
                        "interpolation": {"q": 1.2, "p": 1.5}}),
        (("--q", "1.5"), {"hausdorff-young": {"q": 1.5},
                          "reduction": {"q": 1.5, "p": 3.0},
                          "asymptotics-vanishing": {"q": 1.5, "p": 6.0},
                          "asymptotics-divergence": {"q": 4.0},
                          "interpolation": {"q": 1.2, "p": 1.5}}),
        (("--p", "1.5"), {"interpolation": {"q": 1.2, "p": 1.5},
                          "reduction": {"q": 1.3, "p": 3.0},
                          "asymptotics-vanishing": {"q": 3.0, "p": 6.0}}),
    ])
    def test_suite_all_applies_override_where_in_domain(self, capsys, flags, expected):
        code, out, _ = run(capsys, "verify", "--suite", "all", "--seed", "1",
                           "--samples", "4", *flags)
        assert code == 0
        checks = {c["check_name"]: c for c in json.loads(out)["checks"]}
        assert len(checks) == 7
        for name, params in expected.items():
            for key, value in params.items():
                assert checks[name]["parameters"][key] == value

    def test_single_suite_out_of_domain_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "fq-lower", "--q", "3",
                           "--samples", "4")
        assert code == 2
        assert "usage" in err and "error" in err

    @pytest.mark.parametrize("flags", [
        # below the public exponent range [1.001, 64]
        ("--suite", "interp", "--q", "1.0000001", "--p", "1.5", "--samples", "2"),
        ("--suite", "hy", "--samples", "0"),
        ("--suite", "reduction", "--samples", "-1"),
        # an exponent override that no selected check takes
        ("--suite", "closed-forms", "--q", "3", "--p", "9"),
        ("--suite", "fq-lower", "--p", "1.5"),  # F_q takes no p
        ("--suite", "hy", "--p", "9"),
    ])
    def test_unrunnable_check_is_usage_error(self, capsys, flags):
        code, _, err = run(capsys, "verify", *flags)
        assert code == 2
        assert "usage" in err and "error" in err


    def test_suite_all_samples_reach_randomized_checks(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "all", "--seed", "1",
                           "--samples", "4")
        assert code == 0
        samples = {c["check_name"]: c["samples"] for c in json.loads(out)["checks"]}
        for name in ("fq-lower", "hausdorff-young", "interpolation", "reduction"):
            assert samples[name] == 4

    # A fixed-grid suite reads neither a sample count nor a seed, and
    # either one given is an override read by no check.
    @pytest.mark.parametrize("flag, value", [("--samples", "3"), ("--seed", "5")],
                             ids=["samples", "seed"])
    @pytest.mark.parametrize("suite", ["closed-forms", "asymptotics"])
    def test_samples_on_fixed_grid_is_usage_error(self, capsys, suite, flag, value):
        code, _, err = run(capsys, "verify", "--suite", suite, flag, value)
        assert code == 2
        assert err.startswith("usage: uflab verify ")
        assert f"{flag[2:]}={value} is read by no check" in err


class TestMinimize:
    def test_report(self, capsys):
        code, out, _ = run(capsys, "minimize", "--q", "1.5", "--terms", "1",
                           "--restarts", "2", "--max-iter", "40")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "uflab.minimize/1"
        assert doc["best_value"] == pytest.approx(doc["comparisons"]["gaussian"],
                                                  abs=1e-9)
        assert doc["comparisons"]["beckner_floor"] == pytest.approx(
            1.0491150634216482, rel=1e-9
        )


class TestFtcheck:
    def test_explicit_grid(self, capsys):
        code, out, _ = run(capsys, "ftcheck", "--family", "chirp", "--a", "2",
                           "--grid-n", "4096", "--dx", "0.01")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "uflab.ftcheck/1"
        assert doc["max_abs_error"] <= 1e-8
        assert doc["pass"] is True

    def test_auto_dx(self, capsys):
        code, out, _ = run(capsys, "ftcheck", "--family", "gaussian",
                           "--grid-n", "256")
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert doc["dx"] > 0

    def test_failing_tolerance_exits_one(self, capsys):
        # a 16-point grid cannot reach 1e-12 for the a=2 chirp
        code, out, _ = run(capsys, "ftcheck", "--family", "chirp", "--a", "2",
                           "--grid-n", "16", "--dx", "0.5", "--tol", "1e-12")
        assert code == 1
        assert json.loads(out)["pass"] is False

    def test_grid_must_be_pow2(self, capsys):
        assert run(capsys, "ftcheck", "--family", "gaussian",
                   "--grid-n", "100")[0] == 2


def test_python_dash_m_runs_cli():
    proc = run_module("eval", "--family", "chirp", "--a", "2", "--q", "4")
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["schema"] == "uflab.eval/1"
