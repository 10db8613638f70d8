"""Lockstep ``solve_batch`` vs per-option pricing: bit-level agreement.

The batch solver's contract is strict: because a batched real FFT
transforms each row exactly as the standalone 1-D transform does, every
result must equal the per-contract ``price_american`` / ``price_european``
solve **bit for bit** (the tests still allow 1e-12 relative headroom so a
platform with a different pocketfft vectorisation cannot flake them).
The solver-level classes compare with strict ``==``: prices, divider
sequences and recursion statistics of a batched solve equal its lone
twin's, trees, FD grids and Bermudan jump chains alike.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import price_american, price_european, price_many, solve_batch
from repro.core.bermudan import (
    price_tree_bermudan_fft,
    price_tree_bermudan_fft_batch,
)
from repro.core.bsm_solver import solve_bsm_fft, solve_bsm_fft_batch
from repro.core.fftstencil import AdvanceEngine
from repro.core.tree_solver import solve_tree_fft, solve_tree_fft_batch
from repro.options.contract import OptionSpec, Right, Style, paper_benchmark_spec
from repro.options.params import BinomialParams, BSMGridParams, TrinomialParams

SPEC = paper_benchmark_spec()
REL = 1e-12


def _agree(result, reference):
    assert result.price == pytest.approx(reference.price, rel=REL, abs=0.0)


def _strike(k):
    return dataclasses.replace(SPEC, strike=k)


def _call_spec(strike, vol, rate, dividend):
    return OptionSpec(
        spot=100.0, strike=strike, rate=rate, volatility=vol,
        dividend_yield=dividend, expiry_days=252.0, right=Right.CALL,
    )


tree_param_strategy = st.builds(
    _call_spec,
    strike=st.floats(70.0, 140.0),
    vol=st.floats(0.12, 0.5),
    rate=st.floats(0.0, 0.08),
    dividend=st.floats(0.005, 0.06),
)


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


class TestBatchedStatsEqualLoneStats:
    """A contract's ``stats`` do not depend on the batch it rides in: every
    counter of a B > 1 ``solve_batch`` result equals its lone
    ``price_american`` twin's.  The contracts are distinct — a duplicate
    shares kernel spectra with its twin, so its cache counters differ."""

    @pytest.mark.parametrize(
        "model, right",
        [
            ("binomial", Right.CALL),
            ("binomial", Right.PUT),  # priced as its McDonald–Schroder dual
            ("trinomial", Right.CALL),
            ("bsm-fd", Right.PUT),
        ],
    )
    def test_four_contract_batch(self, model, right):
        specs = [
            dataclasses.replace(
                SPEC, right=right, volatility=0.15 + 0.06 * i,
                strike=90.0 + 7.0 * i,
            )
            for i in range(4)
        ]
        if model == "bsm-fd":  # the FD put formulation takes no dividend
            specs = [dataclasses.replace(s, dividend_yield=0.0) for s in specs]
        batch = solve_batch(specs, 96, model=model)
        for spec, b in zip(specs, batch):
            lone = price_american(spec, 96, model=model)
            assert b.meta["batch_size"] == 4
            assert b.price == lone.price
            assert b.stats == lone.stats


class TestLockstepBitIdentity:
    """Lockstep batching never changes a solve: strict ``==``, no tolerance."""

    @settings(max_examples=15, deadline=None)
    @given(
        specs=st.lists(tree_param_strategy, min_size=1, max_size=5),
        model=st.sampled_from([BinomialParams, TrinomialParams]),
    )
    def test_tree_batches_bit_identical(self, specs, model):
        plist = [model.from_spec(s, 48) for s in specs]
        engine = AdvanceEngine()
        batch = solve_tree_fft_batch(plist, engine=engine)
        for p, b in zip(plist, batch):
            s = solve_tree_fft(p)
            assert b.price == s.price  # bitwise, not approx
            assert b.stats.base_rows == s.stats.base_rows
            assert b.meta["batched"] is True

    @settings(max_examples=10, deadline=None)
    @given(
        vols=st.lists(st.floats(0.12, 0.5), min_size=1, max_size=4),
        rate=st.floats(0.005, 0.08),
    )
    def test_fd_batches_bit_identical(self, vols, rate):
        specs = [
            dataclasses.replace(
                SPEC, right=Right.PUT, dividend_yield=0.0,
                volatility=v, rate=rate,
            )
            for v in vols
        ]
        plist = [BSMGridParams.from_spec(s, 48) for s in specs]
        batch = solve_bsm_fft_batch(plist)
        for p, b in zip(plist, batch):
            s = solve_bsm_fft(p)
            assert b.price == s.price
            assert b.meta["batched"] is True

    def test_mixed_tree_and_fd_rows_share_one_engine(self):
        """Tree and FD batches run through the same engine in one session
        and both stay bit-identical to their lone solves."""
        engine = AdvanceEngine()
        tp = [BinomialParams.from_spec(_call_spec(k, 0.3, 0.04, 0.02), 48)
              for k in (90.0, 110.0)]
        fp = [BSMGridParams.from_spec(
            dataclasses.replace(
                SPEC, right=Right.PUT, dividend_yield=0.0, volatility=v
            ), 48)
            for v in (0.2, 0.35)]
        tb = solve_tree_fft_batch(tp, engine=engine)
        fb = solve_bsm_fft_batch(fp, engine=engine)
        assert [r.price for r in tb] == [solve_tree_fft(p).price for p in tp]
        assert [r.price for r in fb] == [solve_bsm_fft(p).price for p in fp]


class TestDividerSequences:
    """A batched solve reproduces its lone twin's boundary exactly."""

    def test_paper_spec_boundary_pins(self):
        p = BinomialParams.from_spec(SPEC, 64)
        serial = solve_tree_fft(p, record_boundary=True)
        batch, other = solve_tree_fft_batch(
            [p, BinomialParams.from_spec(_strike(120.0), 64)],
            record_boundary=True,
        )
        assert batch.boundary.points == serial.boundary.points
        # literal pins for the paper benchmark contract at T=64: the naive
        # base fills the all-red ramp row-by-row and the deep rows settle
        # on the lattice's exercise column
        pts = serial.boundary.points
        assert {r: pts[r] for r in (0, 1, 2, 5)} == {0: 0, 1: 1, 2: 2, 5: 5}
        assert pts[63] == 32 and pts[64] == 32
        assert serial.price == pytest.approx(
            8.361549456522944, rel=1e-12, abs=0.0
        )
        assert other.boundary.points != serial.boundary.points

    @pytest.mark.parametrize("strikes", [(85.0, 100.0, 130.0)])
    def test_heterogeneous_boundaries_batch_equals_serial(self, strikes):
        plist = [BinomialParams.from_spec(_strike(k), 96)
                 for k in strikes]
        batch = solve_tree_fft_batch(plist, record_boundary=True)
        for p, b in zip(plist, batch):
            s = solve_tree_fft(p, record_boundary=True)
            assert b.boundary.points == s.boundary.points

    def test_divider_exit_rows_in_lockstep(self):
        """A deep-ITM dividend call exercises immediately (the naive strip
        hits the divider-exit path); batching it next to ordinary
        contracts changes nothing."""
        deep = _call_spec(60.0, 0.15, 0.01, 0.08)
        plain = _call_spec(100.0, 0.3, 0.04, 0.02)
        plist = [BinomialParams.from_spec(s, 64) for s in (deep, plain)]
        batch = solve_tree_fft_batch(plist)
        for p, b in zip(plist, batch):
            s = solve_tree_fft(p)
            assert b.price == s.price
            assert b.stats.base_rows == s.stats.base_rows
        assert batch[0].price == pytest.approx(
            deep.spot - deep.strike, rel=1e-10
        )


class TestBermudanBatch:
    def test_shared_schedule_bit_identical(self):
        plist = [BinomialParams.from_spec(_strike(k), 64)
                 for k in (90.0, 100.0, 115.0)]
        schedule = (16, 32, 48)
        batch = price_tree_bermudan_fft_batch(plist, schedule)
        for p, b in zip(plist, batch):
            s = price_tree_bermudan_fft(p, schedule)
            assert b.price == s.price
            assert b.meta["batched"] is True

    def test_per_contract_schedules_bit_identical(self):
        plist = [BinomialParams.from_spec(_strike(k), 64)
                 for k in (95.0, 110.0)]
        schedules = [(8, 24), (16, 32, 48)]
        batch = price_tree_bermudan_fft_batch(plist, schedules)
        for p, sched, b in zip(plist, schedules, batch):
            assert b.price == price_tree_bermudan_fft(p, sched).price
