"""Chebyshev spectral backend: primitives, plans, accuracy vs the lattice.

The accuracy contract is the one the service surfaces as
``meta["tolerance"]``: at the default collocation order the spectral
price agrees with a converged lattice to :data:`SPECTRAL_TOL` relative
error (against ``max(price, 1% of strike)``) across a moneyness x vol x
expiry grid of genuinely-American contracts.  Contracts with exact
closed forms (zero-dividend calls, zero-rate puts, Europeans) are
compared against Black-Scholes instead — there the backend must be
exact, not merely within tolerance.
"""

import dataclasses
import math

import numpy as np
import pytest

from repro.core.api import price_american
from repro.core.backend import backend_names, get_backend
from repro.core.spectral import (
    DEFAULT_ORDER,
    SPECTRAL_TOL,
    SpectralBackend,
    chebyshev_basis,
    chebyshev_coefficients,
    chebyshev_nodes,
    clenshaw,
    tanhsinh_nodes,
)
from repro.options.analytic import black_scholes
from repro.options.contract import OptionSpec, Right, Style, paper_benchmark_spec
from repro.util.validation import ValidationError

BASE = OptionSpec(
    spot=100.0, strike=100.0, rate=0.04, volatility=0.25,
    dividend_yield=0.02, expiry_days=252.0, right=Right.PUT,
    style=Style.AMERICAN,
)


def rel_err(approx: float, exact: float, strike: float) -> float:
    return abs(approx - exact) / max(exact, 0.01 * strike)


class TestChebyshevPrimitives:
    def test_nodes_ascend_from_zero_to_tau_max(self):
        z, x, tau = chebyshev_nodes(8, 2.0)
        assert z[0] == -1.0 and z[-1] == 1.0
        assert tau[0] == 0.0
        assert tau[-1] == pytest.approx(2.0)
        assert np.all(np.diff(tau) > 0)
        assert np.allclose(x * x, tau)

    def test_transform_roundtrip_is_exact_at_the_nodes(self):
        rng = np.random.default_rng(3)
        for order in (2, 5, 12):
            z, _, _ = chebyshev_nodes(order, 1.0)
            values = rng.normal(size=order + 1)
            coeffs = chebyshev_coefficients(values)
            assert np.allclose(clenshaw(z, coeffs), values, atol=1e-12)

    def test_interpolant_tracks_a_smooth_function_off_node(self):
        order = 12
        z, _, _ = chebyshev_nodes(order, 1.0)
        coeffs = chebyshev_coefficients(np.exp(z))
        probe = np.linspace(-1.0, 1.0, 101)
        assert np.max(np.abs(clenshaw(probe, coeffs) - np.exp(probe))) < 1e-6

    def test_basis_matmul_equals_clenshaw(self):
        # the boundary iteration's one-matmul-per-sweep form must agree
        # with the recurrence it replaced, bit-tight
        rng = np.random.default_rng(4)
        coeffs = rng.normal(size=DEFAULT_ORDER + 1)
        probe = np.linspace(-1.0, 1.0, 57).reshape(3, 19)
        basis = chebyshev_basis(probe, DEFAULT_ORDER)
        assert np.allclose(basis @ coeffs, clenshaw(probe, coeffs),
                           atol=1e-13)

    def test_tanhsinh_integrates_smooth_and_endpoint_singular(self):
        y, w = tanhsinh_nodes(41, 0.25)
        assert len(y) == 41
        # tails saturate to the endpoints in double precision, so the
        # node sequence is nondecreasing rather than strictly increasing
        assert np.all(np.diff(y) >= 0)
        # smooth: integral of e^y over [-1, 1]
        assert float(w @ np.exp(y)) == pytest.approx(
            math.e - 1.0 / math.e, abs=1e-10
        )
        # sqrt endpoint derivative singularity: integral of sqrt(1+y)
        assert float(w @ np.sqrt(1.0 + y)) == pytest.approx(
            2.0 ** 1.5 / 1.5, abs=1e-8
        )

    @pytest.mark.parametrize("points, h", [(161, 0.08), (241, 0.06)])
    def test_tanhsinh_fine_rules_drop_overflowed_nodes(self, points, h):
        # at these settings cosh overflows in the far tails; the weights
        # there are exactly 0, and the rule drops them without warning
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y, w = tanhsinh_nodes(points, h)
        assert 0 < len(y) < points and len(w) == len(y)
        assert np.all(np.isfinite(w)) and np.all(w > 0.0)
        assert float(w @ np.exp(y)) == pytest.approx(
            math.e - 1.0 / math.e, abs=1e-12
        )

    def test_tanhsinh_default_rule_unchanged(self):
        # no weight of the default rule underflows, so it keeps every node
        # and every bit of the closed-form rule
        k = np.arange(-20, 21, dtype=np.float64)
        s = 0.5 * np.pi * np.sinh(k * 0.25)
        y, w = tanhsinh_nodes(41, 0.25)
        np.testing.assert_array_equal(y, np.tanh(s))
        np.testing.assert_array_equal(
            w, 0.5 * np.pi * 0.25 * np.cosh(k * 0.25) / np.cosh(s) ** 2
        )


class TestSpectralPlan:
    def test_boundary_starts_at_cap_and_decreases(self):
        plan = SpectralBackend().plan_for(0.04, 0.02, 0.25, 1.0)
        tau = np.linspace(0.0, 1.0, 33)
        bound = plan.boundary(tau)
        assert bound[0] == pytest.approx(plan.x_cap)
        assert np.all(bound > 0.0)
        assert np.all(bound <= plan.x_cap + 1e-12)
        # the put boundary falls as time to expiry grows
        assert np.all(np.diff(bound) <= 1e-10)

    def test_dividend_cap_is_r_over_q(self):
        plan = SpectralBackend().plan_for(0.02, 0.05, 0.25, 1.0)
        assert plan.x_cap == pytest.approx(0.4)
        plan = SpectralBackend().plan_for(0.05, 0.0, 0.25, 1.0)
        assert plan.x_cap == 1.0

    def test_deep_itm_put_prices_at_intrinsic(self):
        plan = SpectralBackend().plan_for(0.06, 0.0, 0.2, 1.0)
        spot = float(plan.boundary(np.asarray(1.0))) * 0.5
        assert plan.price_put(spot) == pytest.approx(1.0 - spot)

    def test_price_dominates_european_and_intrinsic(self):
        backend = SpectralBackend()
        plan = backend.plan_for(0.04, 0.02, 0.25, 1.0)
        for spot in (0.8, 0.95, 1.0, 1.1, 1.3):
            price = plan.price_put(spot)
            assert price >= max(1.0 - spot, 0.0) - 1e-12


class TestBackendContract:
    def test_registered_and_listed(self):
        backend = get_backend("spectral")
        assert backend.name == "spectral"
        assert backend.tolerance == SPECTRAL_TOL
        assert not backend.supports_boundary
        assert not backend.supports_divider
        assert "spectral" in backend_names()

    def test_return_boundary_rejected(self):
        with pytest.raises(ValidationError):
            get_backend("spectral").price_spec(
                BASE, 64, return_boundary=True
            )

    def test_bermudan_rejected(self):
        spec = BASE.with_style(Style.BERMUDAN)
        with pytest.raises(ValidationError):
            get_backend("spectral").price_spec(spec, 64)

    def test_european_is_black_scholes_exact(self):
        spec = BASE.with_style(Style.EUROPEAN)
        result = get_backend("spectral").price_spec(spec, 64)
        assert result.price == black_scholes(spec).price
        assert result.meta["closed_form"] == "black-scholes"
        assert result.meta["backend"] == "spectral"

    def test_no_early_exercise_contracts_are_closed_form(self):
        zero_div_call = dataclasses.replace(
            BASE, right=Right.CALL, dividend_yield=0.0
        )
        zero_rate_put = dataclasses.replace(BASE, rate=0.0)
        for spec in (zero_div_call, zero_rate_put):
            result = get_backend("spectral").price_spec(spec, 64)
            assert result.price == black_scholes(spec).price
            assert result.meta["no_early_exercise"] is True

    def test_meta_carries_tier_contract(self):
        result = get_backend("spectral").price_spec(BASE, 64)
        assert result.meta["backend"] == "spectral"
        assert result.meta["tolerance"] == SPECTRAL_TOL
        assert result.meta["spectral"]["order"] == DEFAULT_ORDER
        assert result.stats["fixed_point_iterations"] >= 1

    def test_price_batch_matches_price_spec(self):
        backend = SpectralBackend()
        specs = [
            dataclasses.replace(BASE, spot=s) for s in (90.0, 100.0, 110.0)
        ]
        batch = backend.price_batch(specs, 64)
        singles = [backend.price_spec(s, 64) for s in specs]
        assert [r.price for r in batch] == [r.price for r in singles]

    def test_api_routes_by_backend_name(self):
        result = price_american(BASE, 64, backend="spectral")
        assert result.meta["backend"] == "spectral"
        lattice = price_american(BASE, 64)
        assert lattice.meta["backend"] == "lattice"
        assert rel_err(result.price, lattice.price, BASE.strike) < 0.01

    @pytest.mark.parametrize("backend", ["lattice", "spectral"])
    def test_price_american_prices_an_american_on_every_backend(
        self, backend
    ):
        spec = paper_benchmark_spec()
        american = price_american(spec, 1024, backend=backend)
        european_styled = price_american(
            spec.with_style(Style.EUROPEAN), 1024, backend=backend
        )
        assert european_styled.price == american.price


class TestPlanCache:
    def test_repeat_and_strike_ladder_share_one_plan(self):
        backend = SpectralBackend()
        for strike in (90.0, 100.0, 110.0):
            backend.price_spec(dataclasses.replace(BASE, strike=strike), 64)
        info = backend.cache_info()
        # strike scaling folds the ladder onto one unit-strike plan; the
        # spot/strike ratio varies but the (r, q, sigma, T) key does not
        assert info["plans"] == 1
        assert info["misses"] == 1
        assert info["hits"] == 2

    def test_cache_evicts_fifo_at_capacity(self):
        backend = SpectralBackend(plan_cache_size=2)
        for vol in (0.2, 0.3, 0.4):
            backend.plan_for(0.04, 0.02, vol, 1.0)
        info = backend.cache_info()
        assert info["plans"] == 2
        assert info["misses"] == 3
        # the first plan was evicted: re-requesting it misses again
        backend.plan_for(0.04, 0.02, 0.2, 1.0)
        assert backend.cache_info()["misses"] == 4


class TestAccuracyVsLattice:
    STEPS_REF = 2048

    @pytest.mark.parametrize("right", [Right.PUT, Right.CALL])
    @pytest.mark.parametrize("moneyness", [0.85, 1.0, 1.15])
    @pytest.mark.parametrize("vol", [0.2, 0.35])
    def test_within_stated_tolerance(self, right, moneyness, vol):
        spec = dataclasses.replace(
            BASE, right=right, spot=100.0 * moneyness, volatility=vol,
        )
        approx = get_backend("spectral").price_spec(spec, self.STEPS_REF)
        exact = price_american(spec, self.STEPS_REF)
        assert rel_err(approx.price, exact.price, spec.strike) <= SPECTRAL_TOL

    def test_long_expiry_within_tolerance(self):
        spec = dataclasses.replace(BASE, expiry_days=504.0, volatility=0.3)
        approx = get_backend("spectral").price_spec(spec, self.STEPS_REF)
        exact = price_american(spec, self.STEPS_REF)
        assert rel_err(approx.price, exact.price, spec.strike) <= SPECTRAL_TOL

    def test_call_dualization_flagged(self):
        spec = dataclasses.replace(BASE, right=Right.CALL)
        result = get_backend("spectral").price_spec(spec, 64)
        assert result.meta["spectral"]["dualized"] is True
        put = get_backend("spectral").price_spec(BASE, 64)
        assert put.meta["spectral"]["dualized"] is False
