"""Inequality check suite: every check passes at reduced sample counts,
results are reproducible bit for bit, and each check's pass rule is its
suite row's tolerance."""

import json
import math
from dataclasses import replace

import pytest
from test_functionals import _counting_quadrature

from uflab import verifier
from uflab.functionals import conjugate_exponent, norms_batch
from uflab.verifier import (
    _SUITE,
    MAX_CHECK_SAMPLES,
    SUITE_NAMES,
    CheckResult,
    _result,
    _sample_functions,
    run_suite,
    verify_asymptotics,
    verify_closed_forms,
    verify_fq_lower_bound,
    verify_hausdorff_young,
    verify_interpolation,
    verify_reduction_q_lt_2_le_p,
)


class TestClosedForms:
    def test_default_pass(self):
        r = verify_closed_forms()
        assert r.passed
        assert r.worst_slack >= -1e-8


class TestFqLowerBound:
    def test_pass_and_beckner_floor(self):
        r = verify_fq_lower_bound(1.5, samples=60, seed=42)
        assert r.passed
        assert r.observed["min_value"] >= 1.0 - 1e-7
        assert r.observed["min_value"] >= r.observed["beckner_floor"] - 1e-6
        assert r.observed["beckner_floor"] == pytest.approx(
            1.0491150634216482, rel=1e-12
        )

    def test_rejects_q_out_of_range(self):
        with pytest.raises(ValueError):
            verify_fq_lower_bound(2.0, samples=10, seed=0)
        with pytest.raises(ValueError):
            verify_fq_lower_bound(3.0, samples=10, seed=0)


class TestHausdorffYoung:
    def test_pass(self):
        r = verify_hausdorff_young(4.0 / 3.0, samples=40, seed=1)
        assert r.passed
        # sharp form can touch equality (Gaussian draws) but not exceed it
        assert r.observed["worst_sharp_slack"] >= -1e-9

    def test_q2_is_plancherel(self):
        r = verify_hausdorff_young(2.0, samples=20, seed=3)
        assert r.passed
        assert abs(r.observed["worst_plain_slack"]) <= 1e-8

    def test_range(self):
        with pytest.raises(ValueError):
            verify_hausdorff_young(2.5, samples=10, seed=0)


class TestInterpolation:
    def test_pass(self):
        r = verify_interpolation(1.2, 1.5, samples=40, seed=7)
        assert r.passed
        assert r.worst_slack >= -1e-6

    def test_range(self):
        with pytest.raises(ValueError):
            verify_interpolation(1.5, 1.2, samples=10, seed=0)
        with pytest.raises(ValueError):
            verify_interpolation(1.2, 2.0, samples=10, seed=0)

    def test_rejects_q_below_exponent_range(self):
        with pytest.raises(ValueError):
            verify_interpolation(1.0000001, 1.5, samples=2, seed=0)


class TestReduction:
    def test_pass(self):
        r = verify_reduction_q_lt_2_le_p(1.3, 3.0, samples=40, seed=5)
        assert r.passed

    def test_boundary_conjugate_pair(self):
        # p' = q: right side degenerates to the F_q >= 1 style bound
        r = verify_reduction_q_lt_2_le_p(1.5, 3.0, samples=30, seed=5)
        assert r.passed

    def test_identity_reduction_p2(self):
        r = verify_reduction_q_lt_2_le_p(1.2, 2.0, samples=20, seed=5)
        assert r.passed
        assert r.worst_slack >= -1e-10  # F_{q,2} = F_q = F_{q,p'} exactly

    def test_requires_scaling_condition(self):
        with pytest.raises(ValueError):
            verify_reduction_q_lt_2_le_p(1.2, 8.0, samples=10, seed=0)  # 1/p+1/q<1
        with pytest.raises(ValueError):
            verify_reduction_q_lt_2_le_p(2.5, 3.0, samples=10, seed=0)


class TestAsymptotics:
    def test_divergence(self):
        r = verify_asymptotics(4.0)
        assert r.check_name == "asymptotics-divergence"
        assert r.passed
        assert r.observed["values"][-1] >= 50.0

    def test_divergence_needs_q_gt_2(self):
        with pytest.raises(ValueError):
            verify_asymptotics(1.5)

    def test_vanishing_slope(self):
        r = verify_asymptotics(3.0, 6.0)
        assert r.check_name == "asymptotics-vanishing"
        assert r.passed
        assert r.observed["slope"] == pytest.approx(-1.0 / 3.0, abs=0.05)

    def test_vanishing_slope_q_below_2(self):
        r = verify_asymptotics(1.5, 4.0)
        assert r.passed
        assert r.observed["slope"] == pytest.approx(-1.0 / 6.0, abs=0.05)

    def test_vanishing_needs_scaling_condition(self):
        with pytest.raises(ValueError):
            verify_asymptotics(1.5, 2.5)  # 1/q + 1/p > 1

    def test_worst_slack_folds_in_the_bracket(self):
        div, van = run_suite(("asymptotics",))
        v, b = div.observed["values"], div.observed["bounds"]
        trend = min(*(x - y for x, y in zip(v, b)), *(y - x for x, y in zip(v, v[1:])))
        assert div.worst_slack == min(trend, div.observed["worst_bracket_slack"])
        v = van.observed["values"]
        trend = min(*(x - y for x, y in zip(v, v[1:])),
                    0.05 - abs(van.observed["slope"] - van.observed["slope_target"]))
        assert van.worst_slack == min(trend, van.observed["worst_bracket_slack"])
        assert div.observed["worst_bracket_slack"] > 0.0
        assert van.observed["worst_bracket_slack"] > 0.0

    def test_bracket_can_fail(self, monkeypatch):
        # a doubled lower bound lies above ||g_c||_q**2 at every grid point
        lower = verifier.gc_lq_lower_bound
        monkeypatch.setattr(verifier, "gc_lq_lower_bound", lambda c, e: 2.0 * lower(c, e))
        for r in run_suite(("asymptotics",)):
            assert not r.passed
            assert r.worst_slack == r.observed["worst_bracket_slack"] < -0.5

    @pytest.mark.parametrize("q, p", [(64.0, None), (2.2, None), (2.5, None), (1.5, 4.0),
                                      (1.9, 2.2), (2.5, 3.0), (1.1, 12.0)])
    def test_bracket_holds_at_overrides(self, q, p):
        # q < 2 checks the upper side alone at q, both sides at p > 2
        for r in run_suite(("asymptotics",), q=q, p=p):
            assert r.passed
            assert r.observed["worst_bracket_slack"] > 0.0

    @pytest.mark.parametrize("q", [2.0001, 2.0 + 1e-9])
    def test_bracket_holds_near_q2(self, q):
        # the lower bound tends to equality as q -> 2+.  At q = 2.0001 the
        # divergence row fails on its monotone trend (F_q(g_c) first dips
        # along the grid), not on the bracket, so only vanishing must pass
        by_name = {r.check_name: r for r in run_suite(("asymptotics",), q=q)}
        assert [r.parameters["q"] for r in by_name.values()] == [q, q]
        assert all(r.observed["worst_bracket_slack"] > 0.0 for r in by_name.values())
        assert by_name["asymptotics-vanishing"].passed

    def test_divergence_fails_near_q2_on_its_increase_alone(self):
        # at q = 2.05 F_q(g_c) still dips along c = 10..1e4 before it
        # grows: the row fails, while g_c stays above its bound and inside
        # its norm bracket
        r = verify_asymptotics(2.05)
        v, b = r.observed["values"], r.observed["bounds"]
        assert not r.passed
        assert r.observed["worst_bracket_slack"] > 0.0
        assert all(x - y >= 0.0 for x, y in zip(v, b))
        assert min(y - x for x, y in zip(v, v[1:])) < 0.0


class TestRunSuite:
    def test_all_names(self):
        results = run_suite(samples=20, seed=11)
        names = [r.check_name for r in results]
        assert names == sorted(names)
        assert len(results) == len(SUITE_NAMES) + 1  # asymptotics runs 2 modes
        assert all(r.passed for r in results)

    def test_single_name(self):
        results = run_suite(("closed-forms",), seed=0)
        assert [r.check_name for r in results] == ["closed-forms"]

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            run_suite(("nonsense",), seed=0)

    @pytest.mark.parametrize("names", [("fq-lower",), ("hy",), ("interp",), ("reduction",)])
    def test_empty_batch_rejected(self, names):
        with pytest.raises(ValueError):
            run_suite(names, samples=0)

    def test_samples_above_cap_rejected_before_drawing(self, monkeypatch):
        def drawn(*args):
            raise AssertionError("a function was drawn")

        monkeypatch.setattr(verifier, "random_schwartz", drawn)
        with pytest.raises(ValueError, match=f"1 to {MAX_CHECK_SAMPLES} samples"):
            run_suite(samples=MAX_CHECK_SAMPLES + 1)

    def test_default_sample_count(self, monkeypatch):
        # the row's count stands in when no count is given; a small
        # default keeps the batch short
        monkeypatch.setattr(verifier, "_SUITE", tuple(
            replace(row, samples=3) if row.suite == "hy" else row for row in _SUITE))
        assert run_suite(("hy",), seed=0)[0].samples == 3

    def test_bitwise_reproducible(self):
        a = run_suite(("fq-lower", "asymptotics"), samples=30, seed=123)
        b = run_suite(("fq-lower", "asymptotics"), samples=30, seed=123)
        assert [r.to_json_dict() for r in a] == [r.to_json_dict() for r in b]
        assert json.dumps([r.to_json_dict() for r in a]) == json.dumps(
            [r.to_json_dict() for r in b]
        )

    def test_explicit_exponents_forwarded(self):
        results = run_suite(("asymptotics",), q=1.5, p=4.0, seed=0)
        by_name = {r.check_name: r for r in results}
        assert by_name["asymptotics-vanishing"].parameters["q"] == 1.5
        assert by_name["asymptotics-vanishing"].parameters["p"] == 4.0
        # divergence mode needs q > 2, so it falls back to its default
        assert by_name["asymptotics-divergence"].parameters["q"] == 4.0


_RANDOMIZED = ("fq-lower", "hy", "interp", "reduction")
# The exponents the four randomized checks read at their default (q, p)
_UNION = {1.5, 2.0, 4.0 / 3.0, conjugate_exponent(4.0 / 3.0), 1.2, 1.3, 3.0}


class TestSharedNorms:
    """run_suite draws the batch once and takes each function's norms,
    and its transform's, in one pass for every randomized check."""

    @pytest.mark.parametrize("n, m, seed", [(7, 3, 0), (10, 1, 5), (4, 4, 42), (9, 6, 2 ** 40)])
    def test_batch_prefix(self, n, m, seed):
        assert _sample_functions(n, seed)[:m] == _sample_functions(m, seed)

    def test_one_call_per_function_and_transform(self, monkeypatch):
        calls = _counting_quadrature(monkeypatch)
        assert all(r.passed for r in run_suite(_RANDOMIZED, samples=6, seed=2))
        batch = [g for f in _sample_functions(6, 2) for g in (f, f.ft())]
        assert 0 < len(calls) <= len(batch)
        assert len({id(g) for g, _ in calls}) == len(calls)
        assert all(sum(g == h for g, _ in calls) <= 1 for h in batch)
        assert all(g in batch and set(qs) <= _UNION for g, qs in calls)

    def test_whole_table_is_one_call(self, monkeypatch):
        # 40 functions and their transforms go to norms_batch together;
        # how many refine in lockstep is numerics' decision alone
        seen = []

        def recorded(requests, tol):
            seen.append(len(requests))
            return norms_batch(requests, tol)

        monkeypatch.setattr(verifier, "norms_batch", recorded)
        run_suite(("fq-lower",), samples=40, seed=2)
        assert seen == [80]
        assert not hasattr(verifier, "BATCH_FUNCTIONS")

    def test_mixed_counts(self, monkeypatch):
        # function i carries the exponents of the checks that read more
        # than i functions: the first three the union, the rest fq-lower's
        seen = []

        def recorded(requests, tol):
            seen.extend(exponents for _, exponents in requests)
            return norms_batch(requests, tol)

        monkeypatch.setattr(verifier, "norms_batch", recorded)
        monkeypatch.setattr(verifier, "_SUITE", tuple(
            replace(row, samples=5 if row.suite == "fq-lower" else 3) if row.exponents else row
            for row in _SUITE))
        results = run_suite(_RANDOMIZED, seed=2)
        assert [r.samples for r in results] == [5, 3, 3, 3]
        assert all(r.passed for r in results)
        assert all(len(set(qs)) == len(qs) for qs in seen)
        assert [set(qs) for qs in seen] == [_UNION] * 6 + [{1.5, 2.0}] * 4
        assert verifier._SUITE_TABLE.get() == {}

    @pytest.mark.parametrize("run_check", [
        lambda: verify_fq_lower_bound(3.0, samples=4),
        lambda: verify_hausdorff_young(2.5, samples=4),
        lambda: verify_interpolation(1.5, 1.2, samples=4),
        lambda: verify_reduction_q_lt_2_le_p(1.5, 1.8, samples=4),
    ], ids=_RANDOMIZED)
    def test_domain_checked_before_any_norm(self, monkeypatch, run_check):
        def taken(*args):
            raise AssertionError("a norm was taken")

        monkeypatch.setattr(verifier, "norms_batch", taken)
        with pytest.raises(ValueError, match="outside the domain of"):
            run_check()

    def test_suite_rows_match_standalone_checks(self):
        suite = {r.check_name: r for r in run_suite(_RANDOMIZED, samples=8, seed=3)}
        for row in _SUITE:
            if row.exponents is None:
                continue
            alone, shared = row.run(row.q, row.p, 8, 3), suite[row.check_name]
            assert alone.passed and shared.passed
            assert shared.worst_slack == pytest.approx(alone.worst_slack, rel=0, abs=1e-12)
            assert shared.observed.keys() == alone.observed.keys()
            for key, value in alone.observed.items():
                assert shared.observed[key] == pytest.approx(value, rel=0, abs=1e-12)


class TestCheckResult:
    def test_json_dict_shape(self):
        r = CheckResult("demo", {"q": 1.5}, 10, -0.5, False, 3, {"x": 1.0})
        d = r.to_json_dict()
        assert d["check_name"] == "demo"
        assert d["pass"] is False
        assert d["worst_slack"] == -0.5
        assert d["seed"] == 3
        json.dumps(d)  # serializable

    @pytest.mark.parametrize("row", _SUITE, ids=lambda row: row.check_name)
    def test_pass_iff_slack_above_row_tolerance(self, row):
        r = row.run(row.q, row.p, 4 if row.samples else None, 0)
        assert r.check_name == row.check_name
        assert list(r.parameters)[-1] == "tol"
        assert r.parameters["tol"] == row.tol
        assert r.passed == (r.worst_slack >= -row.tol)

    def test_slack_just_below_negative_tolerance_fails(self):
        for row in _SUITE:
            below = math.nextafter(-row.tol, -math.inf)
            assert not _result(row.check_name, {}, 1, below, None, {}).passed
            assert _result(row.check_name, {}, 1, -row.tol, None, {}).passed
