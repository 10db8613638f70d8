"""Tests for bump-and-reprice American Greeks."""

import dataclasses

import pytest

import repro.core.api
from repro.options.analytic import black_scholes
from repro.options.contract import OptionSpec, Right
from repro.options.greeks import LADDER_SIZE, american_greeks
from repro.util.validation import ValidationError


def make(**kw):
    defaults = dict(
        spot=100.0, strike=100.0, rate=0.05, volatility=0.25, dividend_yield=0.0
    )
    defaults.update(kw)
    return OptionSpec(**defaults)


class TestAgainstClosedForm:
    """Zero-dividend American call == European call, so its Greeks must
    match Black–Scholes to discretisation accuracy."""

    @pytest.fixture(scope="class")
    def pair(self):
        spec = make()
        return american_greeks(spec, 2048), black_scholes(spec)

    def test_price(self, pair):
        g, bs = pair
        assert g.price == pytest.approx(bs.price, abs=0.02)

    def test_delta(self, pair):
        g, bs = pair
        assert g.delta == pytest.approx(bs.delta, abs=0.01)

    def test_gamma(self, pair):
        g, bs = pair
        assert g.gamma == pytest.approx(bs.gamma, rel=0.25)

    def test_vega(self, pair):
        g, bs = pair
        assert g.vega == pytest.approx(bs.vega, rel=0.05)

    def test_rho(self, pair):
        g, bs = pair
        assert g.rho == pytest.approx(bs.rho, rel=0.05)

    def test_theta_sign(self, pair):
        g, bs = pair
        assert g.theta < 0  # long options decay


class TestAmericanStructure:
    def test_put_delta_negative(self):
        g = american_greeks(make(right=Right.PUT), 512)
        assert -1.0 <= g.delta <= 0.0

    def test_call_delta_in_unit_interval(self):
        g = american_greeks(make(dividend_yield=0.03), 512)
        assert 0.0 <= g.delta <= 1.0

    def test_gamma_positive(self):
        g = american_greeks(make(dividend_yield=0.03), 512)
        assert g.gamma > 0.0

    def test_vega_positive(self):
        g = american_greeks(make(right=Right.PUT), 512)
        assert g.vega > 0.0

    def test_american_put_rho_negative(self):
        g = american_greeks(make(right=Right.PUT), 512)
        assert g.rho < 0.0

    def test_methods_agree(self):
        spec = make(dividend_yield=0.02)
        fft = american_greeks(spec, 256, method="fft")
        loop = american_greeks(spec, 256, method="loop")
        assert fft.delta == pytest.approx(loop.delta, abs=1e-9)
        assert fft.vega == pytest.approx(loop.vega, abs=1e-6)

    def test_deep_itm_put_delta_near_minus_one(self):
        g = american_greeks(make(spot=50.0, right=Right.PUT), 256)
        assert g.delta == pytest.approx(-1.0, abs=0.02)


class TestThetaBumpClamp:
    """The half-day theta floor must not push sub-half-day expiries <= 0."""

    def test_sub_half_day_expiry_prices(self):
        g = american_greeks(make(expiry_days=0.4), 64)
        assert g.price > 0.0
        assert g.theta < 0.0  # still decays

    def test_exactly_half_day_expiry(self):
        g = american_greeks(make(expiry_days=0.5), 64)
        assert g.price > 0.0

    def test_normal_expiry_unaffected(self):
        # one-year contract: the clamp must leave the standard ladder alone
        from repro.options.greeks import _bump_ladder

        ladder = _bump_ladder(make(expiry_days=252.0), 1e-3, 2e-2)
        assert ladder.h_days == pytest.approx(0.5)  # floor applies, no clamp
        assert ladder.specs[-1].expiry_days == pytest.approx(251.5)

    def test_tiny_expiry_uses_half_of_expiry_step(self):
        from repro.options.greeks import _bump_ladder

        ladder = _bump_ladder(make(expiry_days=0.4), 1e-3, 2e-2)
        assert ladder.h_days == pytest.approx(0.2)
        assert ladder.specs[-1].expiry_days == pytest.approx(0.2)


class TestRepriceCount:
    def test_ladder_is_nine_reprices_plus_base(self, monkeypatch):
        """The docs promise 9 reprices + 1 base: count the contracts that
        reach the lattice."""
        calls = []
        backend = repro.core.api.LatticeBackend
        real = backend.price_batch

        def counting(self, specs, steps, **kw):
            calls.extend(specs)
            return real(self, specs, steps, **kw)

        monkeypatch.setattr(backend, "price_batch", counting)
        american_greeks(make(), 64)
        assert len(calls) == LADDER_SIZE == 10
        # exactly one unbumped base solve in the ladder
        assert sum(1 for s in calls if s == make()) == 1


class TestValidation:
    def test_huge_bump_rejected(self):
        with pytest.raises(ValidationError):
            american_greeks(make(), 64, rel_bump=0.5)

    def test_zero_bump_rejected(self):
        with pytest.raises(ValidationError):
            american_greeks(make(), 64, rel_bump=0.0)
