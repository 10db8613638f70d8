"""Implied-vol inversion: round trips, fast paths, batching, service cache."""

import dataclasses

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro import QuoteService, implied_vol, implied_vol_many, price_american
from repro.core.fftstencil import AdvanceEngine
from repro.market.implied import (
    VOL_MAX,
    FitReport,
    european_implied_vol,
)
from repro.options.analytic import black_scholes, intrinsic_bounds
from repro.options.contract import Right, Style, paper_benchmark_spec
from repro.util.validation import ValidationError
from tests.conftest import call_specs

SPEC = paper_benchmark_spec()  # vol 0.2, dividend 0.0163
PUT = dataclasses.replace(SPEC, right=Right.PUT)
STEPS = 128


class TestEuropeanInversion:
    def test_round_trip(self):
        for vol in (0.08, 0.2, 0.55):
            spec = dataclasses.replace(SPEC, volatility=vol)
            quote = black_scholes(spec).price
            assert european_implied_vol(quote, spec) == pytest.approx(
                vol, abs=1e-9
            )

    def test_put_round_trip(self):
        quote = black_scholes(PUT).price
        assert european_implied_vol(quote, PUT) == pytest.approx(0.2, abs=1e-9)

    def test_out_of_range_raises(self):
        with pytest.raises(ValidationError):
            european_implied_vol(SPEC.spot, SPEC)  # above the v->inf limit
        with pytest.raises(ValidationError):
            european_implied_vol(0.0, SPEC)  # at the v->0 floor


class TestImpliedVol:
    @pytest.mark.parametrize("true_vol", [0.1, 0.2, 0.4])
    def test_round_trip_call(self, true_vol):
        spec = dataclasses.replace(SPEC, volatility=true_vol)
        quote = price_american(spec, STEPS).price
        r = implied_vol(quote, spec, STEPS)
        assert r.vol == pytest.approx(true_vol, abs=1e-6)
        assert r.residual <= 1e-8 * spec.strike

    def test_round_trip_put(self):
        quote = price_american(PUT, STEPS).price
        r = implied_vol(quote, PUT, STEPS)
        assert r.vol == pytest.approx(0.2, abs=1e-6)
        assert r.residual <= 1e-8 * PUT.strike

    def test_newton_fast_path_engages(self):
        """A clean ATM-ish quote should converge inside Newton, cheaply."""
        quote = price_american(SPEC, STEPS).price
        r = implied_vol(quote, SPEC, STEPS)
        assert r.newton
        assert r.solves <= 6

    def test_naive_brent_agrees_but_costs_more(self):
        quote = price_american(SPEC, STEPS).price
        fast = implied_vol(quote, SPEC, STEPS)
        naive = implied_vol(
            quote, SPEC, STEPS,
            newton=False, deamericanize=False, bracket=(0.05, 2.0),
        )
        assert naive.vol == pytest.approx(fast.vol, abs=1e-6)
        assert not naive.newton
        assert naive.solves > fast.solves

    def test_warm_seed_skips_the_probe(self):
        quote = price_american(SPEC, STEPS).price
        r = implied_vol(quote, SPEC, STEPS, seed=0.21)
        assert r.warm_start
        assert r.seed == 0.21
        assert r.vol == pytest.approx(0.2, abs=1e-6)

    def test_reported_price_matches_vol(self):
        quote = price_american(SPEC, STEPS).price
        r = implied_vol(quote, SPEC, STEPS)
        repriced = price_american(
            dataclasses.replace(SPEC, volatility=r.vol), STEPS
        ).price
        assert r.price == pytest.approx(repriced, abs=1e-12)

    def test_solver_configuration_respected(self):
        quote = price_american(SPEC, STEPS, model="trinomial").price
        r = implied_vol(quote, SPEC, STEPS, model="trinomial")
        assert r.vol == pytest.approx(0.2, abs=1e-6)

    def test_bad_bracket_rejected(self):
        quote = price_american(SPEC, STEPS).price
        with pytest.raises(ValidationError):
            implied_vol(quote, SPEC, STEPS, bracket=(2.0, 0.05))
        with pytest.raises(ValidationError):
            implied_vol(quote, SPEC, STEPS, bracket=(0.0, 2.0))


class TestOutOfBracket:
    def test_below_intrinsic_raises(self):
        itm = dataclasses.replace(SPEC, spot=200.0)
        with pytest.raises(ValidationError, match="below the American"):
            implied_vol(0.5 * (itm.spot - itm.strike), itm, STEPS)

    def test_call_at_or_above_spot_raises(self):
        with pytest.raises(ValidationError, match="at or above the spot"):
            implied_vol(SPEC.spot, SPEC, STEPS)

    def test_put_at_or_above_strike_raises(self):
        with pytest.raises(ValidationError, match="at or above the strike"):
            implied_vol(PUT.strike + 1.0, PUT, STEPS)

    def test_unreachable_at_vol_cap_raises(self):
        # just under the spot: valid by the static bounds, unreachable by
        # any vol in the search domain — detected by the lazy expansion
        with pytest.raises(ValidationError, match="volatility cap"):
            implied_vol(SPEC.spot * 0.999, SPEC, STEPS)

    def test_validation_spends_no_solves(self):
        def exploding(v):  # pragma: no cover — must never be called
            raise AssertionError("objective evaluated for an invalid quote")

        with pytest.raises(ValidationError):
            implied_vol(SPEC.spot + 1.0, SPEC, STEPS, price_fn=exploding)


class TestPropertyRoundTrip:
    """price(implied_vol(price(spec))) == price(spec) within 1e-8·K."""

    @given(spec=call_specs(), right=st.sampled_from([Right.CALL, Right.PUT]))
    def test_both_rights(self, spec, right):
        spec = spec.with_right(right)
        quote = price_american(spec, 64).price
        lower, upper = intrinsic_bounds(spec)
        # quotes pinned to the intrinsic floor (vega ~ 0) carry no vol
        # information — those regimes get the explicit tests above
        assume(quote - lower > 1e-6 * spec.strike)
        assume(upper - quote > 1e-6 * spec.strike)
        r = implied_vol(quote, spec, 64)
        repriced = price_american(
            dataclasses.replace(spec, volatility=r.vol), 64
        ).price
        assert abs(repriced - quote) <= 1e-8 * spec.strike
        assert r.vol <= VOL_MAX


class TestImpliedVolMany:
    def ladder(self, n=8, vol_of=lambda k: 0.2):
        specs, quotes = [], []
        for i in range(n):
            k = 100.0 + 5.0 * i
            s = dataclasses.replace(SPEC, strike=k, volatility=vol_of(k))
            specs.append(s)
            quotes.append(price_american(s, STEPS).price)
        return specs, quotes

    def test_matches_per_quote_inversion(self):
        smile = lambda k: 0.2 + 1e-3 * abs(k - 120.0) / 5.0  # noqa: E731
        specs, quotes = self.ladder(6, smile)
        report = implied_vol_many(specs, quotes, STEPS)
        assert isinstance(report, FitReport)
        for s, q, got in zip(specs, quotes, report.results):
            solo = implied_vol(q, s, STEPS)
            assert got.vol == pytest.approx(solo.vol, abs=1e-7)
            assert got.residual <= 1e-8 * s.strike

    def test_warm_starts_and_batch_economy(self):
        specs, quotes = self.ladder(8)
        report = implied_vol_many(specs, quotes, STEPS)
        assert report.warm_starts == 7  # every quote after the first
        naive_solves = sum(
            implied_vol(
                q, s, STEPS,
                newton=False, deamericanize=False, bracket=(0.05, 2.0),
            ).solves
            for s, q in zip(specs, quotes)
        )
        assert report.solves < naive_solves
        assert report.max_residual <= 1e-8 * SPEC.strike

    def test_expiry_change_restarts_the_seed(self):
        specs, quotes = self.ladder(3)
        other = dataclasses.replace(SPEC, expiry_days=126.0)
        specs.append(other)
        quotes.append(price_american(other, STEPS).price)
        report = implied_vol_many(specs, quotes, STEPS)
        assert [r.warm_start for r in report.results] == [
            False, True, True, False
        ]

    def test_shared_engine_is_shared(self):
        engine = AdvanceEngine()
        specs, quotes = self.ladder(4)
        implied_vol_many(specs, quotes, STEPS, engine=engine)
        assert engine.cache_info()["advances"] > 0

    def test_bad_quote_rejected_before_any_solve(self):
        specs, quotes = self.ladder(3)
        for bad in (specs[1].spot * 2.0, float("nan")):  # above range, NaN
            engine = AdvanceEngine()
            with pytest.raises(ValidationError):
                implied_vol_many(
                    specs, [quotes[0], bad, quotes[2]], STEPS, engine=engine
                )
            assert engine.cache_info()["advances"] == 0

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValidationError, match="pair up"):
            implied_vol_many([SPEC], [1.0, 2.0], STEPS)

    def test_empty_batch(self):
        report = implied_vol_many([], [], STEPS)
        assert report.results == []
        assert report.solves == 0
        assert report.max_residual == 0.0


class TestServiceImpliedVol:
    def test_round_trip_through_service(self):
        svc = QuoteService(steps_default=STEPS)
        quote = price_american(SPEC, STEPS).price
        r = svc.implied_vol(quote, SPEC)
        assert r.vol == pytest.approx(0.2, abs=1e-6)

    def test_repeat_inversion_runs_warm(self):
        svc = QuoteService(steps_default=STEPS)
        quote = price_american(SPEC, STEPS).price
        first = svc.implied_vol(quote, SPEC)
        solves_after_first = svc.stats()["service"]["solves"]
        again = svc.implied_vol(quote, SPEC)
        assert again.vol == first.vol
        assert svc.stats()["service"]["solves"] == solves_after_first
        assert svc.stats()["cache"]["hits"] >= again.solves

    def test_european_style_spec_inverts_the_american_price(self):
        svc = QuoteService(steps_default=STEPS)
        quote = price_american(SPEC, STEPS).price
        r = svc.implied_vol(quote, SPEC.with_style(Style.EUROPEAN))
        assert r.vol == pytest.approx(0.2, abs=1e-6)

    def test_requires_steps(self):
        svc = QuoteService()
        with pytest.raises(ValidationError, match="steps"):
            svc.implied_vol(3.0, SPEC)
