"""Tests for multi-kernel ``AdvanceEngine.advance_batch`` (DESIGN.md §7)."""

import numpy as np
import pytest
from scipy.signal import fftconvolve

from repro.core.fftstencil import (
    MAC_STACK_MAX_KERNEL,
    AdvanceEngine,
    AdvancePolicy,
    engine_delta,
)
from repro.core.weights import hstep_weights
from repro.util.validation import ValidationError

TAPS_A = (0.45, 0.52)
TAPS_B = (0.2, 0.5, 0.25)
TAPS_C = (0.48, 0.50)


def _mixed_batch(rng):
    """Inputs spanning lengths, tap counts, and step counts."""
    xs = [
        rng.uniform(0.0, 100.0, size=n)
        for n in (200, 195, 200, 400, 121, 90)
    ]
    kernels = [
        (TAPS_A, 40),
        (TAPS_B, 35),
        (TAPS_C, 40),
        (TAPS_A, 80),
        (TAPS_B, 30),
        (TAPS_A, 0),
    ]
    return xs, kernels


class TestBitIdentity:
    def test_rows_match_standalone_advances_bitwise(self):
        """Every batch row == the standalone advance of that row, bit for bit."""
        rng = np.random.default_rng(7)
        xs, kernels = _mixed_batch(rng)
        outs, rec = AdvanceEngine().advance_batch(xs, kernels, scales=100.0)
        assert rec.batch == len(xs)
        for x, (taps, h), y, row in zip(xs, kernels, outs, rec.rows):
            y_ref, rec_ref = AdvanceEngine().advance(x, taps, h, scale=100.0)
            np.testing.assert_array_equal(y, y_ref)
            assert row.method == rec_ref.method
            assert row.input_len == rec_ref.input_len and row.h == rec_ref.h

    def test_batch_width_does_not_change_values(self):
        """The same row gives the same bits whatever batch it rides in."""
        rng = np.random.default_rng(3)
        x = rng.uniform(0.0, 50.0, size=300)
        alone, _ = AdvanceEngine().advance_batch([x], [(TAPS_A, 60)])
        for width in (2, 5):
            xs = [x] + [rng.uniform(0.0, 50.0, size=300) for _ in range(width)]
            kernels = [(TAPS_A, 60)] + [(TAPS_B, 50)] * width
            outs, _ = AdvanceEngine().advance_batch(xs, kernels)
            np.testing.assert_array_equal(outs[0], alone[0])

    def test_empty_and_single(self):
        engine = AdvanceEngine()
        outs, rec = engine.advance_batch([], [])
        assert outs == [] and rec.batch == 0 and rec.rows == []
        x = np.linspace(0.0, 1.0, 150)
        outs, rec = engine.advance_batch([x], [(TAPS_A, 30)])
        y_ref, _ = AdvanceEngine().advance(x, TAPS_A, 30)
        np.testing.assert_array_equal(outs[0], y_ref)
        assert rec.batch == 1 and len(rec.rows) == 1

    def test_h0_rows_are_independent_copies(self):
        engine = AdvanceEngine()
        x = np.ones(9)
        outs, rec = engine.advance_batch([x], [(TAPS_A, 0)])
        outs[0][0] = 5.0
        assert x[0] == 1.0
        assert rec.rows[0].method == "copy"


class TestPerRowPolicy:
    def test_outlier_row_goes_direct_others_stay_fft(self):
        """The robustness guard is per row: one huge-magnitude row must not
        force its batch siblings off the FFT fast path."""
        rng = np.random.default_rng(11)
        xs = [rng.uniform(0.0, 100.0, size=300) for _ in range(3)]
        xs.append(rng.uniform(0.0, 1e18, size=300))
        kernels = [(TAPS_A, 60)] * 4
        outs, rec = AdvanceEngine().advance_batch(xs, kernels, scales=100.0)
        assert [r.method for r in rec.rows] == ["fft", "fft", "fft", "direct"]
        assert rec.method == "mixed"
        for x, (taps, h), y in zip(xs, kernels, outs):
            y_ref, _ = AdvanceEngine().advance(x, taps, h, scale=100.0)
            np.testing.assert_array_equal(y, y_ref)

    def test_per_row_scales(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0.0, 1e6, size=300)
        # scale 1.0 trips the guard for this magnitude; scale None disables it
        _, rec = AdvanceEngine(
            AdvancePolicy(max_amplification=1e3)
        ).advance_batch([x, x], [(TAPS_A, 60)] * 2, scales=[1.0, None])
        assert [r.method for r in rec.rows] == ["direct", "fft"]


class TestBlockCache:
    def test_duplicate_kernels_consult_once(self):
        rng = np.random.default_rng(6)
        xs = [rng.uniform(0.0, 10.0, size=250) for _ in range(4)]
        kernels = [(TAPS_A, 50)] * 4
        _, rec = AdvanceEngine().advance_batch(xs, kernels)
        assert rec.spectrum_misses == 1 and rec.spectrum_hits == 0

    def test_engine_counters_and_delta(self):
        rng = np.random.default_rng(8)
        engine = AdvanceEngine()
        before = engine.cache_info()
        xs = [rng.uniform(0.0, 10.0, size=250) for _ in range(3)]
        kernels = [(TAPS_A, 50), (TAPS_B, 40), (TAPS_C, 50)]
        engine.advance_batch(xs, kernels)
        engine.advance_batch(xs, kernels)
        engine.advance_batch(xs, kernels)
        delta = engine_delta(before, engine.cache_info())
        assert delta["advances"] == 3
        assert delta["batched_inputs"] == 9
        assert delta["spectrum_misses"] == 3


class TestLegacyAndValidation:
    def test_rows_match_fftconvolve_reference(self):
        """Each batch row equals the stateless convolution with the
        reversed h-step kernel (the pre-engine reference)."""
        rng = np.random.default_rng(4)
        xs = [rng.uniform(0.0, 10.0, size=260) for _ in range(3)]
        kernels = [(TAPS_A, 50), (TAPS_B, 45), (TAPS_C, 60)]
        outs, rec = AdvanceEngine().advance_batch(xs, kernels)
        assert rec.spectrum_misses == 3  # one kernel transform per kernel
        for x, (taps, h), y in zip(xs, kernels, outs):
            ref = fftconvolve(x, hstep_weights(taps, h)[::-1], mode="valid")
            np.testing.assert_allclose(y, ref, rtol=1e-10, atol=1e-10)

    def test_kernel_count_mismatch(self):
        with pytest.raises(ValidationError, match="one kernel per input"):
            AdvanceEngine().advance_batch([np.ones(50)], [])

    def test_scales_count_mismatch(self):
        with pytest.raises(ValidationError, match="scales"):
            AdvanceEngine().advance_batch(
                [np.ones(50)], [(TAPS_A, 3)], scales=[1.0, 2.0]
            )

    def test_too_short_row_raises(self):
        with pytest.raises(ValidationError, match="too short"):
            AdvanceEngine().advance_batch([np.ones(5)], [(TAPS_A, 10)])


class TestAdvanceManyPerGroup:
    """Same-kernel batches (the portfolio case) through advance_batch:
    the fft-vs-direct choice is per row, so an outlier cannot move its
    siblings off the FFT path."""

    def test_outlier_group_does_not_poison_the_batch(self):
        rng = np.random.default_rng(12)
        normal = [rng.uniform(0.0, 100.0, size=300) for _ in range(3)]
        outlier = rng.uniform(0.0, 1e18, size=450)
        engine = AdvanceEngine()
        ys, rec = engine.advance_batch(
            normal + [outlier], [(TAPS_A, 60)] * 4, scales=100.0
        )
        # the normal rows still consulted the spectrum cache (fft path) …
        assert rec.spectrum_hits + rec.spectrum_misses == 1
        assert rec.method == "mixed"
        # … and its outputs are the FFT outputs, bit for bit
        for x, y in zip(normal, ys[:3]):
            y_fft, _ = AdvanceEngine(AdvancePolicy(mode="fft")).advance(
                x, TAPS_A, 60
            )
            np.testing.assert_array_equal(y, y_fft)
        # the outlier row fell back to exact direct correlation
        y_direct, _ = AdvanceEngine(AdvancePolicy(mode="direct")).advance(
            outlier, TAPS_A, 60
        )
        np.testing.assert_array_equal(ys[3], y_direct)

    def test_uniform_batch_record_unchanged(self):
        rng = np.random.default_rng(13)
        xs = [rng.uniform(0.0, 1.0, size=300) for _ in range(4)]
        _, rec = AdvanceEngine().advance_batch(
            xs, [(TAPS_A, 60)] * 4, scales=1.0
        )
        assert rec.method == "fft" and rec.spectrum_hit is False
        assert rec.batch == 4

    def test_independent_rows_compose_in_parallel(self):
        """Batch workspan: independent rows must not chain spans."""
        rng = np.random.default_rng(14)
        xs = [rng.uniform(0.0, 1.0, size=300) for _ in range(4)]
        engine = AdvanceEngine(AdvancePolicy(mode="direct"))
        _, one = engine.advance_batch(xs[:1], [(TAPS_A, 60)])
        _, four = engine.advance_batch(xs, [(TAPS_A, 60)] * 4)
        assert four.workspan.work == pytest.approx(4.0 * one.workspan.work)
        assert four.workspan.span == pytest.approx(one.workspan.span)


class TestAdvanceBatchMacBoundary:
    """advance_batch's stacked-MAC cutoff: both sides of
    ``MAC_STACK_MAX_KERNEL`` agree bitwise with per-row advances."""

    @pytest.mark.parametrize(
        "h", [MAC_STACK_MAX_KERNEL - 1, MAC_STACK_MAX_KERNEL]
    )
    def test_direct_group_both_sides_of_cutoff(self, h):
        # binomial taps (q=1): kernel_len = h + 1, so h=10 -> 11 (stacked
        # MAC) and h=11 -> 12 (per-row correlate fallback)
        rng = np.random.default_rng(h)
        taps = (0.47, 0.53)
        xs = [rng.uniform(0.0, 90.0, size=L) for L in (20, 25, 31)]
        engine = AdvanceEngine()
        ys, _ = engine.advance_batch(
            [np.asarray(x) for x in xs], [(taps, h)] * 3
        )
        ref = AdvanceEngine()
        for x, y in zip(xs, ys):
            y1, _ = ref.advance(np.asarray(x), taps, h)
            np.testing.assert_array_equal(y, y1)
