"""Tests for h-step stencil kernels (exact vs FFT-power vs brute force)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.weights import (
    binomial_weights,
    convolution_power_weights,
    hstep_weights,
    symbol_power_weights,
    weights_checksum,
)
from repro.util.validation import ValidationError


class TestBinomialWeights:
    def test_h0_identity(self):
        np.testing.assert_allclose(binomial_weights(0.4, 0.5, 0), [1.0])

    def test_h1_is_taps(self):
        np.testing.assert_allclose(binomial_weights(0.4, 0.5, 1), [0.4, 0.5])

    def test_matches_brute_force(self):
        w = binomial_weights(0.45, 0.52, 20)
        ref = convolution_power_weights((0.45, 0.52), 20)
        np.testing.assert_allclose(w, ref, rtol=1e-11)

    def test_rejects_zero_tap(self):
        with pytest.raises(ValidationError):
            binomial_weights(0.0, 0.5, 3)

    def test_large_h_sum(self):
        w = binomial_weights(0.49, 0.505, 100_000)
        assert w.sum() == pytest.approx((0.49 + 0.505) ** 100_000, rel=1e-8)
        assert np.all(w >= 0)


class TestSymbolPowerWeights:
    def test_h0_identity(self):
        np.testing.assert_allclose(symbol_power_weights((0.3, 0.3, 0.3), 0), [1.0])

    def test_matches_brute_force_3tap(self):
        taps = (0.25, 0.40, 0.33)
        w = symbol_power_weights(taps, 15)
        ref = convolution_power_weights(taps, 15)
        np.testing.assert_allclose(w, ref, rtol=0, atol=1e-13)

    def test_matches_binomial_2tap(self):
        w1 = symbol_power_weights((0.45, 0.52), 64)
        w2 = binomial_weights(0.45, 0.52, 64)
        np.testing.assert_allclose(w1, w2, rtol=0, atol=1e-13)

    def test_length(self):
        assert len(symbol_power_weights((0.3, 0.3, 0.3), 7)) == 15  # q*h+1

    def test_nonnegative_clipping(self):
        w = symbol_power_weights((0.5, 0.5), 200)
        assert np.all(w >= 0.0)

    def test_single_tap_rejected(self):
        with pytest.raises(ValidationError):
            symbol_power_weights((1.0,), 2)

    @given(
        h=st.integers(1, 60),
        taps=st.lists(st.floats(0.01, 0.33), min_size=2, max_size=4),
    )
    def test_property_sum_identity(self, h, taps):
        w = symbol_power_weights(tuple(taps), h)
        assert w.sum() == pytest.approx(weights_checksum(taps, h), rel=1e-8)


class TestHstepWeights:
    def test_rejects_negative_taps(self):
        with pytest.raises(ValidationError):
            hstep_weights((-0.1, 0.5), 2)

    def test_rejects_superstochastic(self):
        with pytest.raises(ValidationError):
            hstep_weights((0.7, 0.7), 2)

    def test_three_taps_route_to_symbol_power(self):
        taps = (0.2, 0.5, 0.25)
        w = hstep_weights(taps, 12)
        ref = convolution_power_weights(taps, 12)
        np.testing.assert_allclose(w, ref, atol=1e-13)

    @given(h=st.integers(0, 50))
    def test_property_composition(self, h):
        """W_{h+1} = W_h convolved with the taps (semigroup property)."""
        taps = (0.48, 0.51)
        w_h = hstep_weights(taps, h)
        w_h1 = hstep_weights(taps, h + 1)
        np.testing.assert_allclose(
            w_h1, np.convolve(w_h, taps), rtol=1e-9, atol=1e-15
        )
