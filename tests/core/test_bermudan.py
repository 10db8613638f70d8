"""Tests for the FFT European/Bermudan jump-chain solvers."""

import dataclasses

import pytest

from repro.core.api import price_european
from repro.core.bermudan import price_tree_bermudan_fft
from repro.lattice.binomial import price_binomial
from repro.lattice.blackscholes_fd import price_bsm_fd
from repro.lattice.trinomial import price_trinomial
from repro.options.analytic import european_price
from repro.options.contract import OptionSpec, Right, Style, paper_benchmark_spec
from repro.options.params import BinomialParams, BSMGridParams, TrinomialParams
from repro.util.validation import ValidationError

SPEC = paper_benchmark_spec()


def make(**kw):
    defaults = dict(
        spot=100.0, strike=100.0, rate=0.04, volatility=0.25, dividend_yield=0.02
    )
    defaults.update(kw)
    return OptionSpec(**defaults)


class TestEuropeanTree:
    @pytest.mark.parametrize("right", [Right.CALL, Right.PUT])
    @pytest.mark.parametrize("T", [1, 2, 7, 64, 500])
    def test_matches_lattice_european(self, right, T):
        spec = make(right=right, style=Style.EUROPEAN)
        fft = price_european(spec, T, model="binomial").price
        loop = price_binomial(spec, T).price
        assert fft == pytest.approx(loop, abs=1e-9 * spec.strike)

    def test_trinomial_matches(self):
        spec = make(style=Style.EUROPEAN)
        fft = price_european(spec, 300, model="trinomial").price
        loop = price_trinomial(spec, 300).price
        assert fft == pytest.approx(loop, abs=1e-9 * spec.strike)

    def test_converges_to_black_scholes(self):
        spec = make(style=Style.EUROPEAN)
        fft = price_european(spec, 4096, model="binomial").price
        assert fft == pytest.approx(european_price(spec), abs=0.01)

    def test_single_jump(self):
        r = price_european(make(), 512, model="binomial")
        assert r.stats["fft_calls"] + r.stats["direct_calls"] == 1
        assert r.meta["style"] == "european"


class TestBermudanTree:
    def test_matches_lattice_bermudan(self):
        spec = make(right=Right.PUT, style=Style.BERMUDAN)
        dates = [16, 32, 48]
        fft = price_tree_bermudan_fft(
            BinomialParams.from_spec(spec, 64), dates
        ).price
        loop = price_binomial(spec, 64, exercise_steps=dates).price
        assert fft == pytest.approx(loop, abs=1e-9 * spec.strike)

    def test_trinomial_matches_lattice(self):
        spec = make(right=Right.PUT, style=Style.BERMUDAN)
        dates = [10, 30]
        fft = price_tree_bermudan_fft(
            TrinomialParams.from_spec(spec, 48), dates
        ).price
        loop = price_trinomial(spec, 48, exercise_steps=dates).price
        assert fft == pytest.approx(loop, abs=1e-9 * spec.strike)

    def test_no_dates_is_european(self):
        spec = make(right=Right.PUT)
        a = price_tree_bermudan_fft(BinomialParams.from_spec(spec, 64), ()).price
        b = price_european(spec, 64, model="binomial").price
        assert a == b

    def test_dense_dates_approach_american(self):
        spec = make(right=Right.PUT, style=Style.BERMUDAN)
        am = price_binomial(make(right=Right.PUT), 64).price
        dense = price_tree_bermudan_fft(
            BinomialParams.from_spec(spec, 64), range(64)
        ).price
        assert dense == pytest.approx(am, abs=1e-9 * spec.strike)

    def test_monotone_in_dates(self):
        spec = make(right=Right.PUT, style=Style.BERMUDAN)
        params = BinomialParams.from_spec(spec, 64)
        few = price_tree_bermudan_fft(params, [32]).price
        more = price_tree_bermudan_fft(params, [16, 32, 48]).price
        assert more >= few - 1e-12

    def test_exercise_at_root_allowed(self):
        spec = make(spot=200.0, strike=100.0, dividend_yield=0.2)
        params = BinomialParams.from_spec(spec, 32)
        with_root = price_tree_bermudan_fft(params, [0]).price
        assert with_root >= spec.intrinsic() - 1e-12

    def test_bad_exercise_step(self):
        with pytest.raises(ValidationError):
            price_tree_bermudan_fft(BinomialParams.from_spec(make(), 16), [17])

    def test_duplicate_steps_deduplicated(self):
        params = BinomialParams.from_spec(make(right=Right.PUT), 32)
        a = price_tree_bermudan_fft(params, [8, 8, 16]).price
        b = price_tree_bermudan_fft(params, [8, 16]).price
        assert a == b


class TestEuropeanBSM:
    @pytest.mark.parametrize("T", [1, 8, 64, 512])
    def test_matches_fd_european(self, T):
        spec = make(right=Right.PUT, dividend_yield=0.0, style=Style.EUROPEAN)
        fft = price_european(spec, T, model="bsm-fd").price
        loop = price_bsm_fd(spec, T).price
        assert fft == pytest.approx(loop, abs=1e-9 * spec.strike)

    def test_rejects_call_grid(self):
        # BSMGridParams itself rejects calls, so the error comes from params
        with pytest.raises(ValidationError):
            BSMGridParams.from_spec(make(right=Right.CALL), 16)
