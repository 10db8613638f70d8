"""Tests for fft-bopm / fft-topm against the vanilla oracle.

The central correctness contract of the reproduction: the O(T log²T)
trapezoid-decomposition solver must agree with the Θ(T²) sweep to floating-
point noise for *every* parameter regime, including the degenerate ones
(all-red, all-green, divider at row ends, tiny T).
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given

from repro.core.fftstencil import AdvancePolicy
from repro.core.tree_solver import solve_tree_fft
from repro.lattice.binomial import price_binomial
from repro.lattice.trinomial import price_trinomial
from repro.options.contract import OptionSpec, Right, Style, paper_benchmark_spec
from repro.options.params import BinomialParams, TrinomialParams
from repro.util.validation import ValidationError
from tests.conftest import call_specs, small_steps

SPEC = paper_benchmark_spec()


def fft_price(spec, T, model="binomial", **kw):
    params = (
        BinomialParams.from_spec(spec, T)
        if model == "binomial"
        else TrinomialParams.from_spec(spec, T)
    )
    return solve_tree_fft(params, **kw)


def loop_price(spec, T, model="binomial"):
    fn = price_binomial if model == "binomial" else price_trinomial
    return fn(spec, T).price


class TestAgreementBOPM:
    @pytest.mark.parametrize("T", [1, 2, 3, 4, 7, 8, 9, 15, 16, 17, 63, 100, 256, 999])
    def test_paper_spec_all_T(self, T):
        assert fft_price(SPEC, T).price == pytest.approx(
            loop_price(SPEC, T), abs=1e-9 * SPEC.strike
        )

    @pytest.mark.parametrize(
        "kw",
        [
            dict(spot=50.0, strike=150.0),  # deep OTM
            dict(spot=300.0, strike=100.0),  # deep ITM
            dict(spot=300.0, strike=100.0, dividend_yield=0.15),  # huge yield
            dict(dividend_yield=0.0),  # all-red regime (no early exercise)
            dict(rate=0.0, dividend_yield=0.05),  # zero rate
            dict(volatility=0.02, expiry_days=504.0, dividend_yield=0.0),
            dict(volatility=0.9),
        ],
    )
    def test_parameter_extremes(self, kw):
        defaults = dict(
            spot=100.0, strike=100.0, rate=0.02, volatility=0.2, dividend_yield=0.03
        )
        defaults.update(kw)
        spec = OptionSpec(**defaults)
        for T in (5, 64, 257):
            assert fft_price(spec, T).price == pytest.approx(
                loop_price(spec, T), abs=1e-8 * spec.strike
            ), (kw, T)

    @given(spec=call_specs(), T=small_steps())
    def test_property_agreement(self, spec, T):
        assert fft_price(spec, T).price == pytest.approx(
            loop_price(spec, T), abs=1e-8 * spec.strike
        )

    @pytest.mark.parametrize("base", [1, 2, 4, 8, 21, 64])
    def test_base_invariance(self, base):
        """The recursion base-case height must not change the answer."""
        assert fft_price(SPEC, 300, base=base).price == pytest.approx(
            loop_price(SPEC, 300), abs=1e-9 * SPEC.strike
        )

    @pytest.mark.parametrize("tail", [1, 8, 64, 300])
    def test_tail_invariance(self, tail):
        assert fft_price(SPEC, 300, tail=tail).price == pytest.approx(
            loop_price(SPEC, 300), abs=1e-9 * SPEC.strike
        )

    @pytest.mark.parametrize("mode", ["fft", "direct", "auto"])
    def test_policy_invariance(self, mode):
        price = fft_price(SPEC, 300, policy=AdvancePolicy(mode=mode)).price
        assert price == pytest.approx(loop_price(SPEC, 300), abs=1e-9 * SPEC.strike)


class TestAgreementTOPM:
    @pytest.mark.parametrize("T", [1, 2, 3, 5, 8, 13, 16, 33, 100, 256, 500])
    def test_paper_spec_all_T(self, T):
        assert fft_price(SPEC, T, "trinomial").price == pytest.approx(
            loop_price(SPEC, T, "trinomial"), abs=1e-9 * SPEC.strike
        )

    @given(spec=call_specs(), T=small_steps())
    def test_property_agreement(self, spec, T):
        assert fft_price(spec, T, "trinomial").price == pytest.approx(
            loop_price(spec, T, "trinomial"), abs=1e-8 * spec.strike
        )

    def test_zero_dividend_all_red(self):
        spec = dataclasses.replace(SPEC, dividend_yield=0.0)
        assert fft_price(spec, 400, "trinomial").price == pytest.approx(
            loop_price(spec, 400, "trinomial"), abs=1e-8 * spec.strike
        )


class TestStructure:
    def test_uses_fft_at_scale(self):
        r = fft_price(SPEC, 2048)
        assert r.stats.fft_calls > 0
        assert r.stats.trapezoids > 0

    def test_subquadratic_cells(self):
        """The solver must evaluate far fewer cells than the T²/2 grid."""
        T = 4096
        r = fft_price(SPEC, T)
        assert r.stats.cells_evaluated < 0.2 * T * T / 2

    def test_workspan_subquadratic(self):
        w1 = fft_price(SPEC, 1024).workspan.work
        w2 = fft_price(SPEC, 4096).workspan.work
        # quadrupling T must grow work far less than 16x (Θ(T log²T))
        assert w2 / w1 < 8.0

    def test_span_linear(self):
        s1 = fft_price(SPEC, 1024).workspan.span
        s2 = fft_price(SPEC, 4096).workspan.span
        assert s2 / s1 < 6.0  # Θ(T) with log wiggle

    def test_all_red_uses_pure_fft(self):
        """Y=0: no green region, the whole solve is linear jumps."""
        spec = dataclasses.replace(SPEC, dividend_yield=0.0)
        r = fft_price(spec, 1024)
        assert r.stats.base_rows <= 2 * 32 + 64  # only the sqrt(T) tail

    def test_result_metadata(self):
        r = fft_price(SPEC, 100)
        assert r.steps == 100
        assert r.meta["model"] == "binomial"
        assert r.meta["base"] == 8


class TestBoundaryRecorder:
    def test_recorded_rows_match_vanilla(self):
        T = 256
        vanilla = price_binomial(SPEC, T, return_boundary=True).boundary
        r = fft_price(SPEC, T, record_boundary=True)
        assert r.boundary is not None
        assert len(r.boundary.points) > 10
        for row, j in r.boundary.points.items():
            assert j == vanilla[row], f"row {row}: fft divider {j} != {vanilla[row]}"

    def test_trinomial_recorded_rows_match_vanilla(self):
        T = 128
        vanilla = price_trinomial(SPEC, T, return_boundary=True).boundary
        r = fft_price(SPEC, T, "trinomial", record_boundary=True)
        for row, j in r.boundary.points.items():
            assert j == vanilla[row], f"row {row}"

    def test_disabled_by_default(self):
        assert fft_price(SPEC, 64).boundary is None


class TestDividerExit:
    """naive_descend's early exit when the divider leaves the window."""

    def _solver(self, T=16):
        from repro.core.tree_solver import _TreeSolver

        return _TreeSolver(
            BinomialParams.from_spec(SPEC, T), base=8, recorder=None
        )

    def test_early_exit_returns_float64_empty(self):
        solver = self._solver()
        # window start c0=10 lies right of row_end(3)=3, so the divider
        # leaves the window on the first descend step
        vals, jb, ws = solver.naive_descend(
            4, 10, np.zeros(1, dtype=np.float64), 10, 2
        )
        assert vals.shape == (0,)
        assert vals.dtype == np.float64  # PR-1 empty-array dtype convention
        assert jb == 9  # c0 - 1: no red cell remains at or right of c0

    def test_early_exit_counts_remaining_rows(self):
        solver = self._solver()
        solver.naive_descend(4, 10, np.zeros(1, dtype=np.float64), 10, 3)
        assert solver.stats.base_rows == 3  # all rows accounted, none computed


class TestErrors:
    def test_put_rejected_with_pointer(self):
        spec = dataclasses.replace(SPEC, right=Right.PUT)
        params = BinomialParams.from_spec(spec, 16)
        with pytest.raises(ValidationError, match="symmetry"):
            solve_tree_fft(params)

    def test_european_rejected_with_pointer(self):
        spec = SPEC.with_style(Style.EUROPEAN)
        params = BinomialParams.from_spec(spec, 16)
        with pytest.raises(ValidationError, match="bermudan"):
            solve_tree_fft(params)

    def test_bad_base(self):
        params = BinomialParams.from_spec(SPEC, 16)
        with pytest.raises(ValidationError):
            solve_tree_fft(params, base=0)
