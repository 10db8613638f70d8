"""Lockstep ladder inversion: batched sweeps, per-quote bit-agreement."""

import dataclasses
import math

import pytest

from repro.core.api import price_many
from repro.core.fftstencil import AdvanceEngine
from repro.market.implied import implied_vol, implied_vol_many
from repro.options.contract import OptionSpec, Right
from repro.util.validation import ValidationError

BASE = OptionSpec(
    spot=100.0, strike=100.0, rate=0.03, volatility=0.2,
    dividend_yield=0.02, expiry_days=252.0, right=Right.CALL,
)
STEPS = 96


def build_ladder(n, right=Right.CALL):
    specs = []
    for i in range(n):
        strike = 85.0 + 30.0 * i / max(n - 1, 1)
        k = math.log(strike / BASE.spot)
        specs.append(
            dataclasses.replace(
                BASE, strike=strike, right=right,
                volatility=0.22 - 0.1 * k + 0.25 * k * k,
            )
        )
    quotes = [r.price for r in price_many(specs, STEPS)]
    return specs, quotes


class TestLockstepAgreement:
    @pytest.mark.parametrize("right", [Right.CALL, Right.PUT])
    def test_matches_per_quote_implied_vol(self, right):
        """Lockstep trajectories == independent implied_vol calls, exactly."""
        specs, quotes = build_ladder(6, right)
        serial = [implied_vol(q, s, STEPS) for s, q in zip(specs, quotes)]
        report = implied_vol_many(specs, quotes, STEPS, lockstep=True)
        for a, b in zip(serial, report.results):
            assert b.vol == a.vol
            assert b.solves == a.solves
            assert b.iterations == a.iterations
            assert b.newton == a.newton
            assert not b.warm_start

    def test_rounds_beat_sequential_solves(self):
        """The whole ladder converges in ~per-quote-iteration rounds, far
        fewer pool passes than the total solve count."""
        specs, quotes = build_ladder(8)
        report = implied_vol_many(specs, quotes, STEPS, lockstep=True)
        assert report.meta["lockstep"] is True
        assert 0 < report.meta["rounds"] < report.solves
        assert report.meta["warm_start"] is False

    def test_routes_through_advance_batch(self):
        specs, quotes = build_ladder(6)
        engine = AdvanceEngine()
        implied_vol_many(specs, quotes, STEPS, engine=engine, lockstep=True)
        info = engine.cache_info()
        assert info["batched_inputs"] > info["advances"]  # rounds ran wide

    def test_empty_ladder(self):
        report = implied_vol_many([], [], STEPS, lockstep=True)
        assert report.results == [] and report.solves == 0

    def test_single_quote(self):
        specs, quotes = build_ladder(1)
        report = implied_vol_many(specs, quotes, STEPS, lockstep=True)
        ref = implied_vol(quotes[0], specs[0], STEPS)
        assert report.results[0].vol == ref.vol

    def test_bad_quote_rejected_before_any_solve(self):
        specs, quotes = build_ladder(3)
        quotes[1] = specs[1].spot * 2.0  # above the attainable range
        engine = AdvanceEngine()
        with pytest.raises(ValidationError):
            implied_vol_many(
                specs, quotes, STEPS, engine=engine, lockstep=True
            )
        assert engine.cache_info()["advances"] == 0

    def test_serial_path_unchanged_by_flag(self):
        specs, quotes = build_ladder(4)
        default = implied_vol_many(specs, quotes, STEPS)
        explicit = implied_vol_many(specs, quotes, STEPS, lockstep=False)
        assert default.meta["lockstep"] is False
        assert [r.vol for r in default.results] == [
            r.vol for r in explicit.results
        ]
