"""Sweeps and the F_q minimizer."""

import csv
import io
import math
from dataclasses import asdict, astuple, replace

import numpy as np
import pytest
import scipy.optimize

from uflab import explore
from uflab.explore import (
    MAX_GRID_COUNT,
    GridSpec,
    MinimizeFamilySpec,
    OptimizerConfig,
    minimize_Fq,
    sweep,
)
from uflab.gaussian import closed_form_Fq_chirp
from uflab.numerics import ToleranceNotAchieved


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

    def test_constructor_errors(self):
        with pytest.raises(ValueError, match="finite"):
            GridSpec(1.0, math.inf, 5)
        with pytest.raises(ValueError, match="lin or log"):
            GridSpec(1.0, 2.0, 5, "sqrt")

    def test_count_above_cap_rejected(self):
        # the count is checked on construction, before values() allocates
        assert GridSpec(2.0, 3.0, MAX_GRID_COUNT).count == MAX_GRID_COUNT
        with pytest.raises(ValueError, match=f"2 to {MAX_GRID_COUNT} points"):
            GridSpec(2.0, 3.0, MAX_GRID_COUNT + 1)


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
        assert all(r.method == "auto" for r in res.rows)

    def test_twoscale_rows_are_one_batch(self, monkeypatch):
        # the L^3 norms of every row go to quadrature in one batch (L^6 is
        # an exact sum), and each row equals the one-row sweep of its c
        from uflab import functionals

        batches = []
        batch = functionals.lq_norm_quad_batch

        def recorded(requests, tol):
            requests = list(requests)
            batches.append((len(requests), {exponents for _, exponents in requests}))
            return batch(requests, tol)

        monkeypatch.setattr(functionals, "lq_norm_quad_batch", recorded)
        res = sweep("twoscale", 3.0, 6.0, grid="10:1e6:12log")
        assert batches == [(12, {(3.0,)})]
        for row in res.rows:
            alone = sweep("twoscale", 3.0, 6.0, GridSpec(row.param, 2 * row.param, 2))
            assert alone.rows[0] == row

    def test_chirp_spot_checks_are_one_batch(self, monkeypatch):
        # rows 0, 8, 16 and 24 are spot-checked by quadrature in one
        # batch, f and fhat of each (the closed-form passes send none),
        # and each row equals the one-row sweep of its t
        from uflab import functionals

        batches = []
        batch = functionals.lq_norm_quad_batch

        def recorded(requests, tol):
            requests = list(requests)
            if requests:
                batches.append(len(requests))
            return batch(requests, tol)

        monkeypatch.setattr(functionals, "lq_norm_quad_batch", recorded)
        res = sweep("chirp", 4.0, grid="1.1:100:25log")
        assert batches == [8]
        assert [i for i, r in enumerate(res.rows) if r.method == "both"] == [0, 8, 16, 24]
        for i, row in enumerate(res.rows):
            alone = sweep("chirp", 4.0, grid=GridSpec(row.param, 2 * row.param, 2))
            if i % 8 == 0:
                assert alone.rows[0] == row
            else:
                assert replace(alone.rows[0], method=row.method, err_est=row.err_est) == row

    def test_fqp_sweep(self):
        res = sweep("chirp", 3.0, 6.0, grid="2:50:5log")
        assert all(r.p == 6.0 for r in res.rows)
        # 1/q - 1/p > 0: the chirp ratio grows toward t = 1
        assert all(b.value < a.value for a, b in zip(res.rows, res.rows[1:]))
        # on the line 1/q + 1/p = 1, Hausdorff-Young keeps F_qp >= 1
        res = sweep("twoscale", 1.5, 3.0, grid="0.1:10:9log")
        assert all(r.p == 3.0 and r.value >= 1.0 - 1e-6 for r in res.rows)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            sweep("wavelet", 4.0, grid="1.1:2:3")


class TestSerialization:
    def test_csv_roundtrip_exact(self):
        res = sweep("chirp", 4.0, grid="1.1:50:9log")
        records = list(csv.reader(io.StringIO(res.csv_text())))[1:]
        assert len(records) == len(res.rows)
        for record, row in zip(records, res.rows):
            assert record[0] == res.schema
            for text, value in zip(record[1:], astuple(row)):
                assert (text == value) if isinstance(value, str) else (float(text) == value)

    def test_csv_header(self):
        text = sweep("chirp", 3.0, grid="2:3:2").csv_text()
        assert text.splitlines()[0] == (
            "schema,family,param,q,p,norm_f_q,norm_fhat_q,norm_f_p,norm_fhat_p,"
            "value,method,err_est"
        )

    def test_json_dict(self):
        res = sweep("chirp", 4.0, grid="2:3:2")
        d = asdict(res)
        assert d["schema"] == "uflab.sweep/1"
        assert len(d["rows"]) == 2
        assert d["rows"][0]["family"] == "chirp"
        assert d["rows"][0]["value"] == res.rows[0].value


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

    def test_one_evaluation_per_start(self, monkeypatch):
        # Nelder-Mead evaluates each start itself; no F_q call is made
        # outside the searches
        calls, results = [], []
        evaluate, search = explore.eval_Fq, scipy.optimize.minimize

        def recorded(*args, **kwargs):
            results.append(search(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(explore, "eval_Fq", lambda *args: calls.append(args)
                            or evaluate(*args))
        monkeypatch.setattr(scipy.optimize, "minimize", recorded)
        rep = minimize_Fq(1.5, MinimizeFamilySpec(2), OptimizerConfig(restarts=3, max_iter=20))
        assert rep.restarts == len(results) == 3
        assert len(calls) == sum(res.nfev for res in results)

    def test_unevaluable_start_costs_only_its_restart(self, monkeypatch):
        # F_q raises unless the second amplitude is 0, so only the Gaussian
        # start's face is finite: every draw's search is lost, and the
        # Gaussian start still finds the Gaussian value
        evaluate = explore.eval_Fq

        def gaussian_face_only(f, *args):
            if f.terms[1].amplitude != 0.0:
                raise ToleranceNotAchieved("off the Gaussian face", ())
            return evaluate(f, *args)

        monkeypatch.setattr(explore, "eval_Fq", gaussian_face_only)
        rep = minimize_Fq(1.5, MinimizeFamilySpec(2), OptimizerConfig(restarts=3, max_iter=20))
        assert rep.restarts == 3
        assert rep.best_value == pytest.approx(rep.comparisons["gaussian"], abs=1e-9)

    def test_unevaluable_simplex_scores_finite(self, monkeypatch):
        # by 60 iterations a lost draw's simplex has shrunk below xatol
        # with every vertex unevaluable; scored inf, scipy's convergence
        # test would take inf - inf and warn on every later iteration
        evaluate = explore.eval_Fq

        def gaussian_face_only(f, *args):
            if f.terms[1].amplitude != 0.0:
                raise ToleranceNotAchieved("off the Gaussian face", ())
            return evaluate(f, *args)

        monkeypatch.setattr(explore, "eval_Fq", gaussian_face_only)
        rep = minimize_Fq(1.5, MinimizeFamilySpec(2), OptimizerConfig(restarts=3, max_iter=60))
        assert rep.restarts == 3
        assert rep.best_value == pytest.approx(rep.comparisons["gaussian"], abs=1e-9)

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
