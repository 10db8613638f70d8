"""Tests for exact put–call symmetry pricing."""

import dataclasses

import pytest
from hypothesis import given

from repro.core.api import price_american
from repro.lattice.binomial import price_binomial
from repro.lattice.trinomial import price_trinomial
from repro.options.contract import OptionSpec, Right, paper_benchmark_spec
from tests.conftest import put_specs


def make_put(**kw):
    defaults = dict(
        spot=100.0,
        strike=110.0,
        rate=0.04,
        volatility=0.25,
        dividend_yield=0.015,
        right=Right.PUT,
    )
    defaults.update(kw)
    return OptionSpec(**defaults)


class TestBinomialSymmetry:
    @pytest.mark.parametrize("T", [1, 2, 5, 16, 64, 257])
    def test_matches_vanilla_put(self, T):
        """The symmetry is exact on CRR lattices — machine-precision match."""
        spec = make_put()
        sym = price_american(spec, T).price
        direct = price_binomial(spec, T).price
        assert sym == pytest.approx(direct, abs=1e-10 * spec.strike)

    def test_paper_spec_put(self):
        spec = dataclasses.replace(paper_benchmark_spec(), right=Right.PUT)
        sym = price_american(spec, 512).price
        direct = price_binomial(spec, 512).price
        assert sym == pytest.approx(direct, abs=1e-10 * spec.strike)

    def test_zero_rate_put(self):
        """R=0 put maps to a zero-dividend dual call (all-red dual)."""
        spec = make_put(rate=0.0, dividend_yield=0.03)
        sym = price_american(spec, 128).price
        assert sym == pytest.approx(
            price_binomial(spec, 128).price, abs=1e-10 * spec.strike
        )

    @given(spec=put_specs())
    def test_property_exactness(self, spec):
        sym = price_american(spec, 64).price
        direct = price_binomial(spec, 64).price
        assert sym == pytest.approx(direct, abs=1e-9 * spec.strike)


class TestTrinomialSymmetry:
    @pytest.mark.parametrize("T", [1, 2, 5, 16, 64])
    def test_matches_vanilla_put(self, T):
        spec = make_put()
        sym = price_american(spec, T, model="trinomial").price
        direct = price_trinomial(spec, T).price
        assert sym == pytest.approx(direct, abs=1e-10 * spec.strike)


class TestErrors:
    def test_meta_records_dual(self):
        spec = make_put()
        r = price_american(spec, 16)
        assert r.meta["symmetric_dual_of"] == spec
