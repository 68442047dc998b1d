"""Sweeps, image-interval estimation, and the F_q minimizer."""

import io
import math
from dataclasses import asdict

import numpy as np
import pytest

from uflab.explore import (
    GridSpec,
    MinimizeFamilySpec,
    OptimizerConfig,
    SweepResult,
    estimate_image_interval,
    minimize_Fq,
    sweep,
)
from uflab.gaussian import closed_form_Fq_chirp


class TestGridSpec:
    def test_parse_linear(self):
        g = GridSpec.parse("1:5:5")
        assert g == GridSpec(1.0, 5.0, 5, "lin")
        np.testing.assert_allclose(g.values(), [1, 2, 3, 4, 5])

    def test_parse_log(self):
        g = GridSpec.parse("10:10000:9log")
        assert g.scale == "log"
        vals = g.values()
        assert len(vals) == 9
        assert vals[0] == pytest.approx(10.0)
        assert vals[-1] == pytest.approx(1e4)
        ratios = vals[1:] / vals[:-1]
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-12)

    def test_parse_lin_suffix(self):
        assert GridSpec.parse("0:1:3lin").scale == "lin"

    def test_parse_errors(self):
        for bad in ("5:1:3", "1:5:1", "1:5", "a:b:3", "-1:5:3log", "1:5:3exp"):
            with pytest.raises(ValueError):
                GridSpec.parse(bad)


class TestSweep:
    def test_chirp_rows_ordered_and_closed_form(self):
        res = sweep("chirp", 4.0, grid="1.1:100:13log", tol=1e-8)
        params = [r.param for r in res.rows]
        assert params == sorted(params)
        for r in res.rows:
            assert r.value == pytest.approx(
                closed_form_Fq_chirp(math.sqrt(r.param), 4.0), rel=1e-13
            )
        # every 8th row spot-checked by quadrature
        assert [r.method for r in res.rows[::8]] == ["both", "both"]
        assert all(r.method == "closed-form" for i, r in enumerate(res.rows) if i % 8)
        spot = res.rows[0]
        assert 0.0 <= spot.err_est <= 1e-7

    def test_chirp_monotone_trends(self):
        up = [r.value for r in sweep("chirp", 4.0, grid="1.02:10000:10log").rows]
        assert all(b > a for a, b in zip(up, up[1:]))
        down = [r.value for r in sweep("chirp", 1.5, grid="1.02:10000:10log").rows]
        assert all(b < a for a, b in zip(down, down[1:]))

    def test_twoscale_final_row(self):
        res = sweep("twoscale", 4.0, grid="10:10000:9log", tol=1e-8)
        assert len(res.rows) == 9
        assert res.rows[-1].value >= 50.0
        assert all(r.method == "quadrature" for r in res.rows)

    def test_fqp_sweep(self):
        res = sweep("chirp", 3.0, 6.0, grid="2:50:5log")
        assert all(r.p == 6.0 for r in res.rows)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            sweep("wavelet", 4.0, grid="1.1:2:3")


class TestSerialization:
    def test_csv_roundtrip_exact(self):
        res = sweep("chirp", 4.0, grid="1.1:50:9log")
        text = res.csv_text()
        back = SweepResult.from_csv(io.StringIO(text))
        assert back == res

    def test_csv_header(self):
        text = sweep("chirp", 3.0, grid="2:3:2").csv_text()
        assert text.splitlines()[0] == (
            "schema,family,param,q,p,norm_f_q,norm_fhat_q,norm_f_p,norm_fhat_p,"
            "value,method,err_est"
        )

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            SweepResult.from_csv(io.StringIO("schema,family\nx,y\n"))

    def test_json_dict(self):
        res = sweep("chirp", 4.0, grid="2:3:2")
        d = asdict(res)
        assert d["schema"] == "uflab.sweep/1"
        assert len(d["rows"]) == 2
        assert d["rows"][0]["family"] == "chirp"
        assert d["rows"][0]["value"] == res.rows[0].value


class TestImageInterval:
    def test_q4_divergence_and_small_values(self):
        rep = estimate_image_interval(4.0)
        assert rep.divergence_flag
        assert rep.observed_min < 0.05
        assert rep.observed_max > 10.0
        assert rep.proved_lower_bound is None

    def test_q15_floor(self):
        rep = estimate_image_interval(1.5)
        assert rep.proved_lower_bound == pytest.approx(1.0491150634216482, rel=1e-12)
        assert rep.observed_min >= rep.proved_lower_bound - 1e-6
        assert rep.observed_min <= 1.07926
        assert rep.divergence_flag  # chirp blows up toward t = 1
        assert not rep.vanishing_flag

    def test_q2_degenerate(self):
        rep = estimate_image_interval(2.0)
        assert rep.proved_lower_bound == 1.0
        assert rep.observed_min == pytest.approx(1.0, rel=1e-7)
        assert rep.observed_max == pytest.approx(1.0, rel=1e-7)
        assert not rep.divergence_flag and not rep.vanishing_flag

    def test_qp_vanishing(self):
        rep = estimate_image_interval(3.0, 6.0)
        assert rep.vanishing_flag  # 1/3 + 1/6 < 1
        assert rep.divergence_flag
        assert rep.proved_lower_bound is None

    def test_qp_scaling_boundary_keeps_floor(self):
        rep = estimate_image_interval(1.5, 3.0)
        assert rep.proved_lower_bound == 1.0  # 1/q + 1/p = 1
        assert rep.observed_min >= 1.0 - 1e-6


class TestMinimize:
    def test_single_term_is_gaussian_constant(self):
        rep = minimize_Fq(
            1.5, MinimizeFamilySpec(terms=1), OptimizerConfig(restarts=2, max_iter=40)
        )
        gaussian = math.sqrt(2.0) * 1.5 ** (-1.0 / 1.5)
        assert rep.best_value == pytest.approx(gaussian, abs=1e-9)
        assert rep.comparisons["gaussian"] == pytest.approx(gaussian, rel=1e-14)

    def test_two_term_bracket(self):
        rep = minimize_Fq(
            1.5, MinimizeFamilySpec(terms=2), OptimizerConfig(restarts=4, max_iter=400)
        )
        assert rep.best_value <= rep.comparisons["gaussian"] + 1e-9
        assert rep.best_value >= rep.comparisons["beckner_floor"] - 1e-6
        assert rep.converged  # enough iterations for the simplex to settle

    def test_deterministic(self):
        cfg = OptimizerConfig(restarts=3, max_iter=50, seed=17)
        a = minimize_Fq(1.5, MinimizeFamilySpec(terms=2), cfg)
        b = minimize_Fq(1.5, MinimizeFamilySpec(terms=2), cfg)
        assert a == b

    def test_q_above_2_reports_no_floor(self):
        rep = minimize_Fq(
            4.0, MinimizeFamilySpec(terms=1), OptimizerConfig(restarts=1, max_iter=30)
        )
        assert rep.comparisons["beckner_floor"] is None
        assert rep.best_value <= rep.comparisons["gaussian"] + 1e-9

    def test_dimension_cap(self):
        MinimizeFamilySpec(terms=6)  # 2*6-1 = 11 <= 12
        with pytest.raises(ValueError):
            MinimizeFamilySpec(terms=7)
        with pytest.raises(ValueError):
            MinimizeFamilySpec(terms=0)
