"""Tests for the kernel-caching AdvanceEngine (docs/DESIGN.md §3)."""

import dataclasses

import numpy as np
import pytest
from scipy import fft as sfft
from scipy.signal import fftconvolve

from repro.core import fftstencil
from repro.core.api import price_american, price_european, price_many
from repro.core.fftstencil import AdvanceEngine, AdvancePolicy, advance
from repro.core.tree_solver import solve_tree_fft
from repro.core.weights import hstep_weights
from repro.lattice import price_binomial, price_trinomial
from repro.options.contract import Style, paper_benchmark_spec
from repro.options.params import BinomialParams, TrinomialParams
from repro.util.validation import ValidationError

SPEC = paper_benchmark_spec()
TAPS_2 = (0.45, 0.52)
TAPS_3 = (0.2, 0.5, 0.25)


def naive_steps(x, taps, h):
    y = np.asarray(x, dtype=np.float64)
    for _ in range(h):
        acc = taps[0] * y[: len(y) - len(taps) + 1]
        for k in range(1, len(taps)):
            acc = acc + taps[k] * y[k : k + len(y) - len(taps) + 1]
        y = acc
    return y


class TestEngineEquivalence:
    @pytest.mark.parametrize("mode", ["auto", "fft", "direct"])
    @pytest.mark.parametrize("taps", [TAPS_2, TAPS_3])
    @pytest.mark.parametrize("h", [2, 7, 33])
    def test_matches_legacy_advance(self, mode, taps, h):
        """Engine output == stateless advance() == fftconvolve reference."""
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 100.0, size=(len(taps) - 1) * h + 41)
        policy = AdvancePolicy(mode=mode)
        engine = AdvanceEngine(policy)
        y_eng, rec_eng = engine.advance(x, taps, h, scale=100.0)
        y_fn, rec_fn = advance(x, taps, h, scale=100.0, policy=policy)
        y_old = fftconvolve(x, hstep_weights(taps, h)[::-1], mode="valid")
        ref = naive_steps(x, taps, h)
        for y in (y_eng, y_fn, y_old):
            np.testing.assert_allclose(y, ref, rtol=1e-9, atol=1e-9)
        assert rec_eng.method == rec_fn.method
        # only the fft path consults the spectrum cache
        assert (rec_eng.spectrum_hit is None) == (rec_eng.method != "fft")

    @pytest.mark.parametrize("taps", [TAPS_2, TAPS_3])
    def test_h0_is_independent_copy(self, taps):
        engine = AdvanceEngine()
        x = np.ones(9)
        y, rec = engine.advance(x, taps, 0)
        y[0] = 5.0
        assert x[0] == 1.0
        assert rec.method == "copy" and rec.h == 0

    @pytest.mark.parametrize("taps", [TAPS_2, TAPS_3])
    def test_h1_matches_single_step(self, taps):
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 10.0, size=25)
        y, _ = AdvanceEngine(AdvancePolicy(mode="fft")).advance(x, taps, 1)
        np.testing.assert_allclose(y, naive_steps(x, taps, 1), rtol=1e-12)

    def test_too_short_input(self):
        with pytest.raises(ValidationError, match="too short"):
            AdvanceEngine().advance(np.ones(5), TAPS_2, 10)

    def test_repeated_same_shape_hits_cache(self):
        engine = AdvanceEngine(AdvancePolicy(mode="fft"))
        x = np.linspace(0.0, 1.0, 200)
        engine.advance(x, TAPS_2, 40)
        assert engine.cache_info()["spectrum_misses"] == 1
        for _ in range(5):
            engine.advance(x, TAPS_2, 40)
        info = engine.cache_info()
        assert info["spectrum_hits"] == 5 and info["spectrum_misses"] == 1


class TestEngineInSolvers:
    def test_solve_tree_fft_reuses_spectra(self):
        """Regression: a T=4096 solve must hit the kernel-spectrum cache."""
        params = BinomialParams.from_spec(SPEC, 4096)
        engine = AdvanceEngine()
        r = solve_tree_fft(params, engine=engine)
        assert engine.cache_info()["spectrum_hits"] > 0
        assert r.stats.spectrum_hits > 0
        assert r.meta["engine"]["spectrum_hits"] == engine.spectrum_hits
        # amortisation: strictly fewer kernel transforms than fft advances
        assert r.stats.spectrum_misses < r.stats.fft_calls

    @pytest.mark.parametrize("T", [512, 1023])
    @pytest.mark.parametrize("cls", [BinomialParams, TrinomialParams])
    def test_engine_price_matches_legacy_solver(self, T, cls):
        """The engine-driven solve prices as the Θ(T²) loop lattice."""
        params = cls.from_spec(SPEC, T)
        new = solve_tree_fft(params, engine=AdvanceEngine())
        loop = price_binomial if cls is BinomialParams else price_trinomial
        assert new.price == pytest.approx(loop(SPEC, T).price, rel=1e-10)

    def test_shared_engine_across_solves(self):
        """A second same-parameter solve starts warm (cross-solve reuse)."""
        params = BinomialParams.from_spec(SPEC, 2048)
        engine = AdvanceEngine()
        solve_tree_fft(params, engine=engine)
        misses_first = engine.spectrum_misses
        solve_tree_fft(params, engine=engine)
        assert engine.spectrum_misses == misses_first

    def test_meta_engine_reports_per_solve_deltas(self):
        """With a shared engine, each result's meta shows its own activity."""
        params = BinomialParams.from_spec(SPEC, 2048)
        engine = AdvanceEngine()
        r1 = solve_tree_fft(params, engine=engine)
        r2 = solve_tree_fft(params, engine=engine)
        assert r1.meta["engine"]["advances"] == r2.meta["engine"]["advances"]
        # warm second solve transforms no kernels at all
        assert r2.meta["engine"]["spectrum_misses"] == 0
        assert r2.meta["engine"]["spectrum_hits"] > 0

    def test_meta_engine_deltas_sum_to_the_shared_engine(self):
        """Every counter of cache_info is per-solve in meta["engine"]: two
        solves on one shared engine account for all of its activity."""
        from repro.core.bsm_solver import solve_bsm_fft
        from repro.options.contract import Right
        from repro.options.params import BSMGridParams

        engine = AdvanceEngine()
        put = dataclasses.replace(SPEC, right=Right.PUT, dividend_yield=0.0)
        r1 = solve_tree_fft(BinomialParams.from_spec(SPEC, 512), engine=engine)
        r2 = solve_bsm_fft(BSMGridParams.from_spec(put, 512), engine=engine)
        info = engine.cache_info()
        counters = [k for k in info if not k.startswith("cached_")]
        assert counters and info["advances"] > 0
        for key in counters:
            assert r1.meta["engine"][key] + r2.meta["engine"][key] == info[key]

    def test_default_engine_is_thread_safe(self):
        """Concurrent stateless advance() calls don't share scratch buffers."""
        import threading

        rng = np.random.default_rng(5)
        xs = [rng.uniform(0, 100.0, size=400) for _ in range(4)]
        refs = [naive_steps(x, TAPS_2, 80) for x in xs]
        errors = []

        def worker(x, ref):
            for _ in range(50):
                y, _ = advance(x, TAPS_2, 80)
                if not np.allclose(y, ref, rtol=1e-9, atol=1e-9):
                    errors.append("corrupted advance output")
                    return

        threads = [
            threading.Thread(target=worker, args=(x, r)) for x, r in zip(xs, refs)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors


class TestPriceMany:
    def test_portfolio_matches_individual_pricing(self):
        specs = [
            dataclasses.replace(SPEC, strike=k, style=Style.EUROPEAN)
            for k in (80.0, 100.0, 120.0)
        ] + [dataclasses.replace(SPEC, strike=k) for k in (95.0, 105.0)]
        results = price_many(specs, 256)
        assert len(results) == len(specs)
        for spec, r in zip(specs, results):
            if spec.style is Style.EUROPEAN:
                ref = price_european(spec, 256).price
                assert r.meta["style"] == "european"
            else:
                ref = price_american(spec, 256).price
            assert r.price == pytest.approx(ref, rel=1e-10)

    def test_bermudan_specs_rejected(self):
        with pytest.raises(ValidationError, match="Bermudan"):
            price_many([dataclasses.replace(SPEC, style=Style.BERMUDAN)], 64)

    def test_batched_group_charges_one_kernel_transform(self):
        """N same-kernel European contracts report one transform total."""
        specs = [
            dataclasses.replace(SPEC, strike=k, style=Style.EUROPEAN)
            for k in (80.0, 90.0, 100.0, 110.0)
        ]
        results = price_many(specs, 512)
        assert sum(r.stats["spectrum_misses"] for r in results) == 1


class TestEngineCache:
    """One cache per engine: kernels and their spectra under one budget."""

    def test_byte_budget_bounds_the_cache_and_changes_no_bits(
        self, monkeypatch
    ):
        budget = 256 * 1024
        monkeypatch.setattr(fftstencil, "MAX_CACHE_BYTES", budget)
        rng = np.random.default_rng(13)
        engine = AdvanceEngine()
        n_fft = 2000
        # the biggest entry this test stores: one spectrum of an n_fft row
        newest = (sfft.next_fast_len(n_fft) // 2 + 1) * 16
        first_fft = None
        for k in range(40):
            taps = (0.2, 0.5 + k * 1e-3, 0.25)
            xs = [
                rng.uniform(0.0, 100.0, size=n_fft),  # two fft advances
                rng.uniform(0.0, 100.0, size=n_fft),
                rng.uniform(0.0, 1e18, size=900),  # guard trips: direct
                rng.uniform(0.0, 100.0, size=60 + k),  # short kernels: direct
                rng.uniform(0.0, 100.0, size=95),
            ]
            kernels = [
                (taps, 300 + k), (TAPS_2, 500 + k), (taps, 100 + k),
                (taps, 4), (TAPS_2, 8),
            ]
            scales = [None, None, 1.0, None, None]
            methods = []
            for x, (t, h), s in zip(xs, kernels, scales):
                y, rec = engine.advance(x, t, h, scale=s)
                methods.append(rec.method)
                assert engine.cache_info()["cached_bytes"] <= budget + newest
                y_ref, _ = AdvanceEngine().advance(x, t, h, scale=s)
                np.testing.assert_array_equal(y, y_ref)
            assert methods == ["fft"] * 2 + ["direct"] * 3
            if first_fft is None:
                first_fft = (xs[0], kernels[0])
        # the first kernel's spectrum was evicted long ago
        x, (taps, h) = first_fft
        _, rec = engine.advance(x, taps, h)
        assert rec.spectrum_hit is False

    def test_bermudan_counts_every_jump_transform(self):
        """Each distinct jump shape transforms its kernel once, inside the
        solve, and shows up in the solve's own stats."""
        from repro.core.bermudan import price_tree_bermudan_fft

        T = 1024
        params = BinomialParams.from_spec(
            dataclasses.replace(SPEC, style=Style.BERMUDAN), T
        )
        rows = (256, 512, 768)
        r = price_tree_bermudan_fft(params, rows, engine=AdvanceEngine())
        shapes = set()
        prev = T
        for row in (*sorted(rows, reverse=True), 0):
            shapes.add((prev - row, sfft.next_fast_len(prev + 1)))
            prev = row
        assert r.stats.fft_calls == 4
        assert r.stats.spectrum_misses == len(shapes)
        assert r.stats.spectrum_hits + r.stats.spectrum_misses == r.stats.fft_calls

    def test_kernel_evaluated_once_across_pad_lengths(self, monkeypatch):
        calls = []

        def counting(taps, h):
            calls.append((tuple(taps), h))
            return hstep_weights(taps, h)

        monkeypatch.setattr(fftstencil, "hstep_weights", counting)
        rng = np.random.default_rng(14)
        engine = AdvanceEngine(AdvancePolicy(mode="fft"))
        engine.advance(rng.uniform(0, 1.0, size=300), TAPS_2, 60)
        engine.advance(rng.uniform(0, 1.0, size=450), TAPS_2, 60)
        assert sfft.next_fast_len(300) != sfft.next_fast_len(450)
        assert engine.cache_info()["spectrum_misses"] == 2
        assert calls == [(TAPS_2, 60)]
