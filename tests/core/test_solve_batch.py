"""``price_many`` vs per-option pricing: bit-level agreement.

A batch is a loop of lone solves on one shared plan-caching engine, and a
cached kernel spectrum is the same array a fresh engine would compute, so
every result must equal the per-contract ``price_american`` /
``price_european`` solve **bit for bit** (the property tests still allow
1e-12 relative headroom so a platform with a different pocketfft
vectorisation cannot flake them).  The solver-level classes compare with
strict ``==``: prices, divider sequences and recursion statistics of a
solve on a shared engine equal its lone twin's, trees, FD grids and
Bermudan jump chains alike.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import price_american, price_european, price_many
from repro.core.bermudan import price_tree_bermudan_fft
from repro.core.bsm_solver import solve_bsm_fft
from repro.core.fftstencil import AdvanceEngine
from repro.core.tree_solver import solve_tree_fft
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
        results = price_many(specs, 48)
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
        results = price_many(specs, 128, model=model, engine=engine)
        for spec, r in zip(specs, results):
            _agree(r, price_american(spec, 128, model=model))
            if right is Right.PUT:
                assert r.meta["symmetric_dual_of"] == spec.with_style(
                    Style.AMERICAN
                )

    def test_empty_and_single(self):
        assert price_many([], 32) == []
        engine = AdvanceEngine()
        [r] = price_many([SPEC], 64, engine=engine)
        _agree(r, price_american(SPEC, 64))

    def test_closed_form_calls_skip_the_lattice(self):
        """Zero-dividend American calls keep the analytic shortcut."""
        cf = dataclasses.replace(SPEC, dividend_yield=0.0)
        engine = AdvanceEngine()
        results = price_many([cf, SPEC], 64, engine=engine)
        assert results[0].meta.get("closed_form") == "black-scholes"
        assert "closed_form" not in results[1].meta
        _agree(results[0], price_american(cf, 64))

    def test_non_fft_method_falls_back_per_option(self):
        specs = [SPEC, dataclasses.replace(SPEC, strike=110.0)]
        results = price_many(specs, 64, method="loop")
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
        results = price_many(specs, 200, model="bsm-fd", engine=engine)
        for spec, r in zip(specs, results):
            _agree(r, price_american(spec, 200, model="bsm-fd"))

    def test_european_fd_batch_matches(self):
        specs = [s.with_style(Style.EUROPEAN) for s in self._puts()]
        results = price_many(specs, 200, model="bsm-fd")
        for spec, r in zip(specs, results):
            _agree(r, price_european(spec, 200, model="bsm-fd"))
            assert r.meta["style"] == "european"

    def test_solver_level_batch_is_bit_identical(self):
        specs = [s.with_style(Style.AMERICAN) for s in self._puts()]
        lone = [solve_bsm_fft(BSMGridParams.from_spec(s, 300)) for s in specs]
        batch = price_many(specs, 300, model="bsm-fd")
        assert [b.price for b in batch] == [s.price for s in lone]
        assert [b.stats for b in batch] == [s.stats.as_dict() for s in lone]


def _shared_engine_solves(plist, **kwargs):
    """Lone solves one after another on one engine, as ``price_many`` runs
    them; ``record_boundary`` and other solver options pass through."""
    engine = AdvanceEngine()
    return [solve_tree_fft(p, engine=engine, **kwargs) for p in plist]


class TestSolverLevelTreeBatch:
    def test_bit_identical_and_boundary_matches(self):
        specs = [dataclasses.replace(SPEC, volatility=v) for v in (0.18, 0.25, 0.33)]
        params = [BinomialParams.from_spec(s, 500) for s in specs]
        serial = [solve_tree_fft(p, record_boundary=True) for p in params]
        batch = price_many(specs, 500)
        assert [b.price for b in batch] == [s.price for s in serial]
        assert [b.stats for b in batch] == [s.stats.as_dict() for s in serial]
        shared = _shared_engine_solves(params, record_boundary=True)
        for s, b in zip(serial, shared):
            assert b.boundary.points == s.boundary.points


class TestOneContractPathIdentity:
    """A lone solve runs the same code whichever front door it enters by:
    ``price_american`` (or ``price_european``) and a one-contract
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
        batched = price_many([spec], 96, model=model)[0]
        many = price_many([spec], 96, model=model)[0]
        assert single.price == batched.price == many.price
        assert single.stats == batched.stats == many.stats

    @pytest.mark.parametrize(
        "model, right",
        [
            ("binomial", Right.CALL),
            ("trinomial", Right.CALL),
            ("bsm-fd", Right.PUT),
        ],
    )
    def test_lone_european_is_the_one_contract_batch(self, model, right):
        spec = dataclasses.replace(SPEC, right=right, style=Style.EUROPEAN)
        if model == "bsm-fd":  # the FD put formulation takes no dividend
            spec = dataclasses.replace(spec, dividend_yield=0.0)
        lone = price_european(spec, 96, model=model)
        many = price_many([spec], 96, model=model)[0]
        assert lone.price == many.price
        assert lone.stats == many.stats


class TestBatchedStatsEqualLoneStats:
    """A contract's ``stats`` do not depend on the batch it rides in: every
    counter of a B > 1 ``price_many`` result equals its lone
    ``price_american`` twin's.  The contracts are distinct — a contract on
    the same lattice as an earlier one reuses its kernel spectra, so its
    cache counters differ."""

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
        batch = price_many(specs, 96, model=model)
        for spec, b in zip(specs, batch):
            lone = price_american(spec, 96, model=model)
            assert b.price == lone.price
            assert b.stats == lone.stats


class TestLockstepBitIdentity:
    """A batch never changes a solve: ``price_many`` results equal the lone
    solvers' with strict ``==``, no tolerance."""

    @settings(max_examples=15, deadline=None)
    @given(
        specs=st.lists(tree_param_strategy, min_size=1, max_size=5),
        model=st.sampled_from([BinomialParams, TrinomialParams]),
    )
    def test_tree_batches_bit_identical(self, specs, model):
        name = "binomial" if model is BinomialParams else "trinomial"
        batch = price_many(specs, 48, model=name, engine=AdvanceEngine())
        for spec, b in zip(specs, batch):
            s = solve_tree_fft(model.from_spec(spec, 48))
            assert b.price == s.price  # bitwise, not approx
            assert b.stats["base_rows"] == s.stats.base_rows

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
        batch = price_many(specs, 48, model="bsm-fd")
        for spec, b in zip(specs, batch):
            s = solve_bsm_fft(BSMGridParams.from_spec(spec, 48))
            assert b.price == s.price
            assert b.stats == s.stats.as_dict()

    def test_mixed_tree_and_fd_rows_share_one_engine(self):
        """Tree and FD batches run through the same engine in one session
        and both stay bit-identical to their lone solves."""
        engine = AdvanceEngine()
        ts = [_call_spec(k, 0.3, 0.04, 0.02) for k in (90.0, 110.0)]
        fs = [
            dataclasses.replace(
                SPEC, right=Right.PUT, dividend_yield=0.0, volatility=v
            )
            for v in (0.2, 0.35)
        ]
        tb = price_many(ts, 48, engine=engine)
        fb = price_many(fs, 48, model="bsm-fd", engine=engine)
        assert [r.price for r in tb] == [
            solve_tree_fft(BinomialParams.from_spec(s, 48)).price for s in ts
        ]
        assert [r.price for r in fb] == [
            solve_bsm_fft(BSMGridParams.from_spec(s, 48)).price for s in fs
        ]


class TestDividerSequences:
    """A solve on a shared engine reproduces its lone twin's boundary
    exactly."""

    def test_paper_spec_boundary_pins(self):
        p = BinomialParams.from_spec(SPEC, 64)
        serial = solve_tree_fft(p, record_boundary=True)
        batch, other = _shared_engine_solves(
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
        batch = _shared_engine_solves(plist, record_boundary=True)
        for p, b in zip(plist, batch):
            s = solve_tree_fft(p, record_boundary=True)
            assert b.boundary.points == s.boundary.points

    def test_divider_exit_rows_in_lockstep(self):
        """A deep-ITM dividend call exercises immediately (the naive strip
        hits the divider-exit path); batching it next to ordinary
        contracts changes nothing."""
        deep = _call_spec(60.0, 0.15, 0.01, 0.08)
        plain = _call_spec(100.0, 0.3, 0.04, 0.02)
        batch = price_many([deep, plain], 64)
        for spec, b in zip((deep, plain), batch):
            s = solve_tree_fft(BinomialParams.from_spec(spec, 64))
            assert b.price == s.price
            assert b.stats["base_rows"] == s.stats.base_rows
        assert batch[0].price == pytest.approx(
            deep.spot - deep.strike, rel=1e-10
        )


class TestBermudanBatch:
    """Bermudan jump chains on one shared engine equal their lone twins."""

    def test_shared_schedule_bit_identical(self):
        plist = [BinomialParams.from_spec(_strike(k), 64)
                 for k in (90.0, 100.0, 115.0)]
        schedule = (16, 32, 48)
        engine = AdvanceEngine()
        for p in plist:
            b = price_tree_bermudan_fft(p, schedule, engine=engine)
            s = price_tree_bermudan_fft(p, schedule)
            assert b.price == s.price
            assert b.workspan == s.workspan

    def test_per_contract_schedules_bit_identical(self):
        plist = [BinomialParams.from_spec(_strike(k), 64)
                 for k in (95.0, 110.0)]
        schedules = [(8, 24), (16, 32, 48)]
        engine = AdvanceEngine()
        for p, sched in zip(plist, schedules):
            b = price_tree_bermudan_fft(p, sched, engine=engine)
            assert b.price == price_tree_bermudan_fft(p, sched).price
