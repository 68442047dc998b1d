"""Inequality check suite: every check passes at reduced sample counts,
results are reproducible bit for bit, and each check's pass rule is its
suite row's tolerance."""

import json
import math

import pytest

from uflab.verifier import (
    _SUITE,
    SUITE_NAMES,
    CheckResult,
    _result,
    run_suite,
    verify_asymptotics,
    verify_closed_forms,
    verify_fq_lower_bound,
    verify_hausdorff_young,
    verify_interpolation,
    verify_reduction_q_lt_2_le_p,
    verify_superadditivity,
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


class TestSuperadditivity:
    def test_pass_exact(self):
        r = verify_superadditivity(samples=2000, seed=0)
        assert r.passed
        assert r.worst_slack >= 0.0  # scalar inequalities hold exactly

    def test_degenerate_rows_included(self):
        r = verify_superadditivity(samples=10, seed=9)
        assert r.passed  # (1,0,0) and (0,0,0) rows are forced in

    def test_needs_room_for_forced_rows(self):
        with pytest.raises(ValueError):
            verify_superadditivity(samples=1)


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

    def test_default_sample_count(self):
        assert run_suite(("superadd",), seed=0)[0].samples == 10_000

    def test_bitwise_reproducible(self):
        a = run_suite(("fq-lower", "superadd"), samples=30, seed=123)
        b = run_suite(("fq-lower", "superadd"), samples=30, seed=123)
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
