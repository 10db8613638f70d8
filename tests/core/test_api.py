"""Tests for the public API (dispatch, result envelope, boundary curves)."""

import dataclasses

import numpy as np
import pytest

from repro import (
    OptionSpec,
    Right,
    Style,
    exercise_boundary,
    paper_benchmark_spec,
    price_american,
    price_bermudan,
    price_european,
    price_many,
)
from repro.options.analytic import european_price
from repro.util.validation import ValidationError

SPEC = paper_benchmark_spec()
PUT = dataclasses.replace(SPEC, right=Right.PUT, dividend_yield=0.0)


class TestNoEarlyExerciseShortcut:
    """Never-exercised-early contracts answer from the closed form with
    zero lattice solves (guarded by counting the solver entry points)."""

    ZD_CALL = dataclasses.replace(SPEC, dividend_yield=0.0)
    ZR_PUT = dataclasses.replace(SPEC, right=Right.PUT, rate=0.0)

    def _forbid_lattice(self, monkeypatch):
        import repro.core.api as api

        def boom(*a, **kw):  # pragma: no cover — the shortcut must fire
            raise AssertionError("lattice solver called for a closed-form case")

        for name in (
            "solve_tree_fft", "price_binomial", "price_trinomial",
        ):
            monkeypatch.setattr(api, name, boom)

    @pytest.mark.parametrize("model", ["binomial", "trinomial"])
    def test_zero_dividend_call_is_closed_form(self, model, monkeypatch):
        from repro.options.analytic import black_scholes

        self._forbid_lattice(monkeypatch)
        r = price_american(self.ZD_CALL, 128, model=model)
        assert r.price == black_scholes(self.ZD_CALL).price
        assert r.meta["no_early_exercise"]
        assert r.meta["closed_form"] == "black-scholes"

    @pytest.mark.parametrize("method", ["fft", "loop"])
    def test_zero_rate_put_keeps_the_lattice(self, method):
        # the dual fact (no_early_exercise_put) must NOT shortcut: rho
        # ladders and scenario rate bumps cross r=0, and a ladder mixing
        # an analytic r=0 leg with a lattice r=h leg would divide the
        # discretisation gap by h
        r = price_american(self.ZR_PUT, 128, method=method)
        assert "closed_form" not in r.meta
        assert r.workspan.work > 0

    def test_zero_rate_put_rho_ladder_unpoisoned(self):
        from repro.options.analytic import black_scholes
        from repro.options.greeks import american_greeks

        g = american_greeks(self.ZR_PUT, 256)
        bs = black_scholes(self.ZR_PUT)
        # an R=0 American put equals its European twin, so the one-sided
        # rho ladder must land near the analytic value — a mixed
        # analytic/lattice ladder blows this up by orders of magnitude
        assert g.rho == pytest.approx(bs.rho, rel=0.05)

    def test_shortcut_agrees_with_the_lattice_limit(self):
        from repro.lattice.binomial import price_binomial

        # the closed form is the lattice's converged value: at a real step
        # count they agree to discretisation accuracy
        lattice = price_binomial(self.ZD_CALL, 4096).price
        assert price_american(self.ZD_CALL, 4096).price == pytest.approx(
            lattice, abs=2e-3
        )

    def test_boundary_request_forces_the_lattice(self):
        r = price_american(
            self.ZD_CALL, 64, method="loop", return_boundary=True
        )
        assert "closed_form" not in r.meta
        assert r.boundary is not None
        assert r.workspan.work > 0

    def test_dividend_paying_call_still_solves(self, monkeypatch):
        self._forbid_lattice(monkeypatch)
        with pytest.raises(AssertionError, match="lattice solver called"):
            price_american(SPEC, 64)  # SPEC pays dividends: real solve


class TestPriceAmericanDispatch:
    @pytest.mark.parametrize("method", ["fft", "loop", "tiled", "oblivious", "ql", "zb"])
    def test_binomial_methods_agree(self, method):
        ref = price_american(SPEC, 128, model="binomial", method="loop").price
        v = price_american(SPEC, 128, model="binomial", method=method).price
        assert v == pytest.approx(ref, abs=1e-9 * SPEC.strike)

    @pytest.mark.parametrize("method", ["fft", "loop"])
    def test_trinomial_methods_agree(self, method):
        ref = price_american(SPEC, 96, model="trinomial", method="loop").price
        v = price_american(SPEC, 96, model="trinomial", method=method).price
        assert v == pytest.approx(ref, abs=1e-9 * SPEC.strike)

    @pytest.mark.parametrize("method", ["fft", "loop"])
    def test_bsm_methods_agree(self, method):
        ref = price_american(PUT, 96, model="bsm-fd", method="loop").price
        v = price_american(PUT, 96, model="bsm-fd", method=method).price
        assert v == pytest.approx(ref, abs=1e-9 * PUT.strike)

    def test_put_via_fft_uses_symmetry(self):
        spec = dataclasses.replace(SPEC, right=Right.PUT)
        fft = price_american(spec, 128, method="fft").price
        loop = price_american(spec, 128, method="loop").price
        assert fft == pytest.approx(loop, abs=1e-9 * spec.strike)

    def test_result_fields(self):
        r = price_american(SPEC, 64, method="fft")
        assert r.model == "binomial"
        assert r.method == "fft"
        assert r.steps == 64
        assert r.workspan.work > 0
        assert "trapezoids" in r.stats

    def test_style_forced_to_american(self):
        r = price_american(SPEC.with_style(Style.EUROPEAN), 64, method="loop")
        ref = price_american(SPEC, 64, method="loop")
        assert r.price == ref.price

    def test_unknown_model(self):
        with pytest.raises(ValidationError, match="model"):
            price_american(SPEC, 16, model="heston")

    def test_unknown_method(self):
        with pytest.raises(ValidationError, match="method"):
            price_american(SPEC, 16, method="magic")

    def test_trinomial_rejects_binomial_only_methods(self):
        with pytest.raises(ValidationError):
            price_american(SPEC, 16, model="trinomial", method="zb")

    def test_bsm_rejects_call(self):
        with pytest.raises(ValidationError):
            price_american(SPEC, 16, model="bsm-fd", method="fft")

    def test_baselines_reject_puts(self):
        spec = dataclasses.replace(SPEC, right=Right.PUT)
        with pytest.raises(ValidationError):
            price_american(spec, 16, method="zb")

    def test_baselines_reject_boundary_request(self):
        with pytest.raises(ValidationError):
            price_american(SPEC, 16, method="zb", return_boundary=True)

    def test_base_override(self):
        a = price_american(SPEC, 128, method="fft", base=4).price
        b = price_american(SPEC, 128, method="fft", base=32).price
        assert a == pytest.approx(b, abs=1e-10)


class TestPriceEuropean:
    @pytest.mark.parametrize("model", ["binomial", "trinomial", "bsm-fd"])
    def test_fft_matches_loop(self, model):
        spec = PUT if model == "bsm-fd" else SPEC
        fft = price_european(spec, 128, model=model, method="fft").price
        loop = price_european(spec, 128, model=model, method="loop").price
        assert fft == pytest.approx(loop, abs=1e-9 * spec.strike)

    def test_converges_to_closed_form(self):
        fft = price_european(SPEC, 4096, method="fft").price
        assert fft == pytest.approx(european_price(SPEC), abs=0.02)

    def test_european_leq_american(self):
        eu = price_european(PUT, 256, model="bsm-fd", method="fft").price
        am = price_american(PUT, 256, model="bsm-fd", method="fft").price
        assert eu <= am + 1e-10

    def test_rejects_baseline_methods(self):
        with pytest.raises(ValidationError):
            price_european(SPEC, 16, method="zb")

    @pytest.mark.parametrize("method", ["fft", "loop"])
    def test_records_the_lattice_backend_like_price_many(self, method):
        euro = SPEC.with_style(Style.EUROPEAN)
        lone = price_european(euro, 128, method=method)
        [batched] = price_many([euro], 128, method=method)
        assert lone.meta["backend"] == batched.meta["backend"] == "lattice"
        assert lone.price == batched.price
        assert lone.stats == batched.stats


class TestPriceBermudan:
    def test_fft_matches_loop(self):
        spec = dataclasses.replace(SPEC, right=Right.PUT)
        dates = [16, 32, 48]
        fft = price_bermudan(spec, 64, dates, method="fft").price
        loop = price_bermudan(spec, 64, dates, method="loop").price
        assert fft == pytest.approx(loop, abs=1e-9 * spec.strike)

    def test_rejects_bsm(self):
        with pytest.raises(ValidationError):
            price_bermudan(PUT, 16, [8], model="bsm-fd")


class TestExerciseBoundary:
    def test_loop_dense_curve(self):
        curve = exercise_boundary(SPEC, 128, method="loop")
        assert len(curve.rows) > 0
        assert len(curve.rows) == len(curve.prices) == len(curve.times_years)
        # American call boundary prices must exceed the strike
        assert np.all(curve.prices >= SPEC.strike * 0.99)

    def test_fft_sparse_curve_agrees_with_loop(self):
        dense = exercise_boundary(SPEC, 128, method="loop")
        sparse = exercise_boundary(SPEC, 128, method="fft")
        dense_map = dict(zip(dense.rows.tolist(), dense.indices.tolist()))
        assert len(sparse.rows) > 5
        for row, idx in zip(sparse.rows.tolist(), sparse.indices.tolist()):
            assert dense_map.get(row) == idx, f"row {row}"

    def test_put_boundary_below_strike(self):
        spec = dataclasses.replace(SPEC, right=Right.PUT)
        curve = exercise_boundary(spec, 128, method="loop")
        assert np.all(curve.prices <= spec.strike * 1.01)

    def test_put_fft_matches_loop(self):
        # a high-rate zero-dividend put exercises early over a wide region,
        # giving the divider plenty of rows to compare on
        spec = OptionSpec(
            spot=100.0, strike=110.0, rate=0.06, volatility=0.25, right=Right.PUT
        )
        dense = exercise_boundary(spec, 96, method="loop")
        sparse = exercise_boundary(spec, 96, method="fft")
        dense_map = dict(zip(dense.rows.tolist(), dense.indices.tolist()))
        matched = 0
        for row, idx in zip(sparse.rows.tolist(), sparse.indices.tolist()):
            if row in dense_map:
                assert dense_map[row] == idx, f"row {row}"
                matched += 1
        assert matched > 5

    def test_bsm_boundary_monotone_in_time(self):
        curve = exercise_boundary(PUT, 128, model="bsm-fd", method="loop")
        # Thm 4.2: the boundary decreases with time-to-expiry tau; in
        # calendar order (valuation -> expiry, tau decreasing) the boundary
        # price therefore rises toward the strike
        order = np.argsort(curve.times_years)
        prices = curve.prices[order]
        assert np.all(np.diff(prices) >= -1e-6)
        assert prices[-1] == pytest.approx(PUT.strike, rel=0.05)

    def test_bsm_fft_boundary_agrees(self):
        dense = exercise_boundary(PUT, 96, model="bsm-fd", method="loop")
        sparse = exercise_boundary(PUT, 96, model="bsm-fd", method="fft")
        dense_map = dict(zip(dense.rows.tolist(), dense.indices.tolist()))
        for row, idx in zip(sparse.rows.tolist(), sparse.indices.tolist()):
            if row in dense_map:
                assert dense_map[row] == idx, f"row {row}"

    def test_rejects_baseline_method(self):
        with pytest.raises(ValidationError):
            exercise_boundary(SPEC, 16, method="zb")


class TestPriceManyDedup:
    """Bit-identical (spec, params) requests are solved once and fanned out."""

    def test_american_duplicates_solved_once(self, monkeypatch):
        from repro.core import api as api_module
        from repro.core.api import price_many

        solved = []
        real = api_module.solve_tree_fft

        def counting(params, **kwargs):
            solved.append(params)
            return real(params, **kwargs)

        monkeypatch.setattr(api_module, "solve_tree_fft", counting)
        other = dataclasses.replace(SPEC, strike=120.0)
        specs = [SPEC, other, SPEC, SPEC, other]
        results = price_many(specs, 64)
        assert len(solved) == 2  # one solve per distinct contract
        singles = [api_module.price_american(s, 64).price for s in specs[:2]]
        assert [r.price for r in results] == [
            singles[0], singles[1], singles[0], singles[0], singles[1],
        ]
        assert "deduplicated_of" not in results[0].meta
        assert "deduplicated_of" not in results[1].meta
        assert results[2].meta["deduplicated_of"] == 0
        assert results[3].meta["deduplicated_of"] == 0
        assert results[4].meta["deduplicated_of"] == 1

    def test_european_duplicates_batch_once(self, monkeypatch):
        from repro.core.api import price_many
        from repro.core.fftstencil import AdvanceEngine

        calls = []
        real = AdvanceEngine.advance

        def counting(self, x, taps, h, **kwargs):
            calls.append(h)
            return real(self, x, taps, h, **kwargs)

        monkeypatch.setattr(AdvanceEngine, "advance", counting)
        euro = SPEC.with_style(Style.EUROPEAN)
        results = price_many([euro, euro, euro], 64)
        assert calls == [64]  # three requests, one expiry-to-root jump
        assert results[0].price == results[1].price == results[2].price

    def test_duplicate_results_do_not_alias(self):
        from repro.core.api import price_many

        results = price_many([SPEC, SPEC], 64)
        assert results[1].price == results[0].price
        results[1].stats["fft_calls"] = -999
        results[1].meta["tampered"] = True
        assert results[0].stats["fft_calls"] != -999
        assert "tampered" not in results[0].meta

    def test_mixed_styles_keep_input_order(self):
        from repro.core.api import price_many

        euro = SPEC.with_style(Style.EUROPEAN)
        put = dataclasses.replace(SPEC, right=Right.PUT)
        specs = [euro, SPEC, euro, put, SPEC, put]
        results = price_many(specs, 64)
        reference = [price_many([s], 64)[0].price for s in specs]
        assert [r.price for r in results] == reference
