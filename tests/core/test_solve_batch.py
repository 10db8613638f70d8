"""Lockstep ``solve_batch`` vs per-option pricing: bit-level agreement.

The batch solver's contract is strict: because a batched real FFT
transforms each row exactly as the standalone 1-D transform does, every
result must equal the per-contract ``price_american`` / ``price_european``
solve **bit for bit** (the tests still allow 1e-12 relative headroom so a
platform with a different pocketfft vectorisation cannot flake them).
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import price_american, price_european, price_many, solve_batch
from repro.core.bsm_solver import solve_bsm_fft, solve_bsm_fft_batch
from repro.core.fftstencil import AdvanceEngine
from repro.core.tree_solver import solve_tree_fft, solve_tree_fft_batch
from repro.options.contract import OptionSpec, Right, Style, paper_benchmark_spec
from repro.options.params import BinomialParams, BSMGridParams

SPEC = paper_benchmark_spec()
REL = 1e-12


def _agree(result, reference):
    assert result.price == pytest.approx(reference.price, rel=REL, abs=0.0)


spec_strategy = st.builds(
    OptionSpec,
    spot=st.just(100.0),
    strike=st.floats(60.0, 150.0),
    rate=st.floats(0.0, 0.08),
    volatility=st.floats(0.12, 0.5),
    dividend_yield=st.floats(0.0, 0.05),
    expiry_days=st.floats(40.0, 504.0),
    right=st.sampled_from([Right.CALL, Right.PUT]),
    style=st.sampled_from([Style.AMERICAN, Style.EUROPEAN]),
)


class TestTreeModels:
    @settings(max_examples=20, deadline=None)
    @given(specs=st.lists(spec_strategy, min_size=1, max_size=5))
    def test_property_mixed_batches_match_per_option(self, specs):
        """Mixed rights/styles/vol/rate/expiry batches == per-option solves."""
        results = solve_batch(specs, 48)
        for spec, r in zip(specs, results):
            if spec.style is Style.EUROPEAN:
                _agree(r, price_european(spec, 48))
            else:
                _agree(r, price_american(spec, 48))

    @pytest.mark.parametrize("model", ["binomial", "trinomial"])
    @pytest.mark.parametrize("right", [Right.CALL, Right.PUT])
    def test_american_ladder_matches_and_batches(self, model, right):
        specs = [
            dataclasses.replace(SPEC, right=right, volatility=v)
            for v in (0.15, 0.2, 0.28, 0.4)
        ]
        engine = AdvanceEngine()
        results = solve_batch(specs, 128, model=model, engine=engine)
        info = engine.cache_info()
        assert info["batched_inputs"] > info["advances"]  # rounds ran wide
        for spec, r in zip(specs, results):
            _agree(r, price_american(spec, 128, model=model))
            assert r.meta["batched"] is True and r.meta["batch_size"] == 4
            if right is Right.PUT:
                assert r.meta["symmetric_dual_of"] == spec.with_style(
                    Style.AMERICAN
                )

    def test_empty_and_single(self):
        assert solve_batch([], 32) == []
        engine = AdvanceEngine()
        [r] = solve_batch([SPEC], 64, engine=engine)
        _agree(r, price_american(SPEC, 64))

    def test_closed_form_calls_skip_the_lattice(self):
        """Zero-dividend American calls keep the analytic shortcut."""
        cf = dataclasses.replace(SPEC, dividend_yield=0.0)
        engine = AdvanceEngine()
        results = solve_batch([cf, SPEC], 64, engine=engine)
        assert results[0].meta.get("closed_form") == "black-scholes"
        assert "closed_form" not in results[1].meta
        _agree(results[0], price_american(cf, 64))

    def test_non_fft_method_falls_back_per_option(self):
        specs = [SPEC, dataclasses.replace(SPEC, strike=110.0)]
        results = solve_batch(specs, 64, method="loop")
        for spec, r in zip(specs, results):
            _agree(r, price_american(spec, 64, method="loop"))
            assert r.method == "loop"


class TestBSMModel:
    def _puts(self, n=3):
        base = OptionSpec(
            spot=100.0, strike=100.0, rate=0.05, volatility=0.2,
            dividend_yield=0.0, expiry_days=252.0, right=Right.PUT,
        )
        return [
            dataclasses.replace(base, volatility=0.15 + 0.07 * i, strike=90.0 + 7.0 * i)
            for i in range(n)
        ]

    def test_american_fd_batch_matches(self):
        specs = self._puts()
        engine = AdvanceEngine()
        results = solve_batch(specs, 200, model="bsm-fd", engine=engine)
        info = engine.cache_info()
        assert info["batched_inputs"] > info["advances"]  # rounds ran wide
        for spec, r in zip(specs, results):
            _agree(r, price_american(spec, 200, model="bsm-fd"))

    def test_european_fd_batch_matches(self):
        specs = [s.with_style(Style.EUROPEAN) for s in self._puts()]
        results = solve_batch(specs, 200, model="bsm-fd")
        for spec, r in zip(specs, results):
            _agree(r, price_european(spec, 200, model="bsm-fd"))
            assert r.meta["batched"] is True

    def test_solver_level_batch_is_bit_identical(self):
        params = [
            BSMGridParams.from_spec(s.with_style(Style.AMERICAN), 300)
            for s in self._puts()
        ]
        serial = [solve_bsm_fft(p) for p in params]
        batch = solve_bsm_fft_batch(params)
        assert [b.price for b in batch] == [s.price for s in serial]


class TestSolverLevelTreeBatch:
    def test_bit_identical_and_boundary_matches(self):
        params = [
            BinomialParams.from_spec(
                dataclasses.replace(SPEC, volatility=v), 500
            )
            for v in (0.18, 0.25, 0.33)
        ]
        serial = [solve_tree_fft(p, record_boundary=True) for p in params]
        batch = solve_tree_fft_batch(params, record_boundary=True)
        assert [b.price for b in batch] == [s.price for s in serial]
        for s, b in zip(serial, batch):
            assert b.boundary.points == s.boundary.points

    def test_mixed_step_counts_desynchronise_cleanly(self):
        p_short = BinomialParams.from_spec(SPEC, 200)
        p_long = BinomialParams.from_spec(SPEC, 700)
        batch = solve_tree_fft_batch([p_short, p_long])
        assert batch[0].price == solve_tree_fft(p_short).price
        assert batch[1].price == solve_tree_fft(p_long).price


class TestGridRouting:
    def test_heterogeneous_grid_routes_through_advance_batch(self):
        """A vol/rate grid (no two cells share a kernel) must still batch."""
        rng = np.random.default_rng(0)
        specs = [
            dataclasses.replace(
                SPEC,
                volatility=float(v),
                rate=float(r),
                style=style,
            )
            for v, r, style in zip(
                rng.uniform(0.12, 0.45, size=24),
                rng.uniform(0.0, 0.08, size=24),
                [Style.AMERICAN, Style.EUROPEAN] * 12,
            )
        ]
        engine = AdvanceEngine()
        results = price_many(specs, 96, engine=engine)
        info = engine.cache_info()
        assert info["batched_inputs"] > info["advances"]  # rounds ran wide
        # the American solves stacked their base rows across solves too
        assert info["base_batch_rows"] > info["base_batch_calls"]
        for spec, r in zip(specs, results):
            ref = (
                price_european(spec, 96)
                if spec.style is Style.EUROPEAN
                else price_american(spec, 96)
            )
            _agree(r, ref)


class TestOneContractPathIdentity:
    """A lone solve runs the same code whichever front door it enters by:
    ``price_american``, a one-contract ``solve_batch`` and a one-contract
    ``price_many`` agree on the price and on every ``stats`` counter."""

    @pytest.mark.parametrize(
        "model, right",
        [
            ("binomial", Right.CALL),
            ("trinomial", Right.CALL),
            ("binomial", Right.PUT),  # priced as its McDonald–Schroder dual
            ("bsm-fd", Right.PUT),
        ],
    )
    def test_front_doors_agree(self, model, right):
        spec = dataclasses.replace(SPEC, right=right)
        if model == "bsm-fd":  # the FD put formulation takes no dividend
            spec = dataclasses.replace(spec, dividend_yield=0.0)
        single = price_american(spec, 96, model=model)
        batched = solve_batch([spec], 96, model=model)[0]
        many = price_many([spec], 96, model=model)[0]
        assert single.price == batched.price == many.price
        assert single.stats == batched.stats == many.stats
        assert single.stats["base_batch_rows"] == 0  # rows ran inline
