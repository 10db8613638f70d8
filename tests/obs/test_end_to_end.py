"""Telemetry threaded through the stack: one quote(), full instrument panel.

These tests pin the acceptance shape of the observability layer: a
cold/warm ``quote()`` pair must yield a valid Prometheus exposition, a
JSON snapshot with distinguishable cold/warm latency histograms, and a
span tree whose solve-phase wall time accounts for the quote wall time —
while the prices stay bit-identical to an uninstrumented service.
"""

import json

import pytest

from repro.core.api import price_many
from repro.core.fftstencil import AdvanceEngine
from repro.obs import Telemetry
from repro.options.contract import OptionSpec, Right
from repro.risk.engine import ScenarioEngine
from repro.risk.grid import ScenarioGrid
from repro.service.service import QuoteService

# American puts: calls without dividends short-circuit to closed form
# and would never exercise the engine (all counters would read zero).
SPEC = OptionSpec(
    spot=100.0, strike=100.0, rate=0.05, volatility=0.2,
    expiry_days=126.0, right=Right.PUT,
)


def bumped(i: int) -> OptionSpec:
    return OptionSpec(
        spot=100.0, strike=95.0 + i, rate=0.05,
        volatility=0.2 + 0.01 * i, expiry_days=126.0, right=Right.PUT,
    )


def make_service(tel):
    return QuoteService(
        model="binomial", method="fft", steps_default=256, telemetry=tel
    )


class TestQuotePipeline:
    def test_cold_warm_pair_full_panel(self):
        tel = Telemetry()
        svc = make_service(tel)
        cold = svc.quote(SPEC)
        warm = svc.quote(SPEC)
        assert cold.meta["cache"] == "miss"
        assert warm.meta["cache"] == "hit"

        # --- bit-identical to an uninstrumented service ---
        plain = make_service(None).quote(SPEC)
        assert cold.price == plain.price
        assert warm.price == cold.price

        # --- JSON snapshot: cold vs warm latency distinguishable ---
        snap = tel.snapshot()
        json.dumps(snap)  # must be JSON-able as-is
        lat = {
            m["labels"]["outcome"]: m["value"]
            for m in snap["metrics"]
            if m["name"] == "service_quote_seconds"
        }
        assert lat["miss"]["count"] == 1
        assert lat["hit"]["count"] == 1
        # a cold solve dwarfs a cache hit
        assert lat["miss"]["sum"] > lat["hit"]["sum"]

        # --- collected counter dialects re-registered, not duplicated ---
        collected = snap["collected"]
        assert collected["cache_hits"] == 1
        assert collected["cache_misses"] == 1
        assert collected["service_quotes"] == 2
        assert collected["service_solves"] == 1
        assert collected["engine_advances"] > 0

        # --- Prometheus exposition ---
        text = tel.to_prometheus()
        assert "# TYPE service_quote_seconds histogram" in text
        assert 'service_quote_seconds_bucket{outcome="miss",le="+Inf"} 1' in text
        assert 'service_quote_seconds_count{outcome="miss"} 1' in text
        assert "engine_advances" in text
        assert "cache_hits 1" in text

    def test_quote_span_tree_shape(self):
        tel = Telemetry()
        svc = make_service(tel)
        svc.quote(SPEC)
        trace = tel.tracer.to_json()["traces"][0]
        assert trace["name"] == "quote"
        child_names = [c["name"] for c in trace["children"]]
        assert child_names[:2] == ["canonicalize", "cache_lookup"]
        assert "bucket_solve" in child_names
        bucket = next(
            c for c in trace["children"] if c["name"] == "bucket_solve"
        )
        assert bucket["attrs"]["size"] == 1
        assert bucket["attrs"]["steps"] == 256

    def test_solve_phase_times_account_for_quote_wall(self):
        tel = Telemetry()
        svc = QuoteService(
            model="binomial", method="fft", steps_default=2048, telemetry=tel
        )
        svc.quote(SPEC)  # cold: solve dominates at this depth
        trace = tel.tracer.to_json()["traces"][0]
        wall = trace["duration"]
        phase_sum = sum(c["duration"] for c in trace["children"])
        assert phase_sum <= wall * (1 + 1e-9)
        assert phase_sum >= 0.9 * wall  # within 10% of measured wall

    def test_warm_quote_has_no_solve_span(self):
        tel = Telemetry()
        svc = make_service(tel)
        svc.quote(SPEC)
        svc.quote(SPEC)
        warm = tel.tracer.to_json()["traces"][-1]
        names = [c["name"] for c in warm["children"]]
        assert "bucket_solve" not in names
        assert names == ["canonicalize", "cache_lookup"]


class TestLockstepSpans:
    def test_batch_solve_records_round_spans_and_widths(self):
        tel = Telemetry()
        svc = make_service(tel)
        results = svc.quote_many([bumped(i) for i in range(6)])
        assert len(results) == 6
        bd = tel.tracer.phase_breakdown()
        assert bd["solve"]["count"] >= 1
        assert bd["lockstep_round"]["count"] > 1
        assert "advance_batch" in bd
        # batch widths landed in the engine histograms
        snap = tel.snapshot()
        widths = {
            m["name"]: m["value"]
            for m in snap["metrics"]
            if m["name"].startswith("engine_")
        }
        assert widths["engine_advance_batch_rows"]["count"] > 0
        assert widths["engine_advance_batch_rows"]["max"] >= 2

    def test_lockstep_results_bit_identical_with_telemetry(self):
        specs = [bumped(i) for i in range(5)]
        engine_plain = AdvanceEngine()
        plain = price_many(specs, 128, engine=engine_plain)
        engine_tel = AdvanceEngine()
        engine_tel.set_telemetry(Telemetry())
        traced = price_many(specs, 128, engine=engine_tel)
        for a, b in zip(plain, traced):
            assert a.price == b.price  # bit-identical, not approx


class TestRiskDispatch:
    def test_serial_grid_spans_and_counters(self):
        tel = Telemetry()
        eng = ScenarioEngine(backend="serial", telemetry=tel)
        grid = ScenarioGrid.cartesian(
            SPEC, vol_bumps=(-0.02, 0.0, 0.02), rate_bumps=(0.0, 0.001)
        )
        result = eng.price_grid(grid, 64)
        assert len(result.results) == 6
        bd = tel.tracer.phase_breakdown()
        assert bd["grid"]["count"] == 1
        assert bd["dispatch"]["count"] == 1
        assert bd["chunk"]["count"] >= 1
        reg_snap = tel.snapshot()
        counters = {
            m["name"]: m["value"]
            for m in reg_snap["metrics"]
            if m["kind"] == "counter"
        }
        assert counters["risk_grids_total"] == 1
        assert counters["risk_cells_total"] == 6
        assert counters["risk_engine_advances"] > 0

    def test_pooled_grid_ships_worker_deltas_back(self):
        tel = Telemetry()
        eng = ScenarioEngine(
            backend="thread", workers=2, chunk_size=2, telemetry=tel
        )
        result = eng.price_grid([bumped(i) for i in range(4)], 64)
        info = result.meta["engine"]
        assert info["advances"] > 0
        snap = tel.snapshot()
        counters = {
            m["name"]: m["value"]
            for m in snap["metrics"]
            if m["kind"] == "counter"
        }
        assert counters["risk_engine_advances"] == info["advances"]
        hists = {
            m["name"]: m["value"]
            for m in snap["metrics"]
            if m["kind"] == "histogram"
        }
        assert hists["risk_chunk_seconds"]["count"] == 2  # one per chunk


class TestBreakerTelemetry:
    def test_transitions_recorded_as_gauge_and_counters(self):
        from repro.resilience.breaker import BreakerPolicy, CircuitBreaker

        tel = Telemetry()
        transitions = []
        gauge = tel.gauge("breaker_state", labels={"bucket": "b"})
        levels = {"closed": 0, "half_open": 1, "open": 2}

        def listener(old, new):
            transitions.append((old, new))
            gauge.set(levels[new])

        clock = [0.0]
        breaker = CircuitBreaker(
            BreakerPolicy(failure_threshold=2, reset_timeout=5.0),
            clock=lambda: clock[0],
            listener=listener,
        )
        breaker.record_failure()
        breaker.record_failure()  # trips open
        assert transitions == [("closed", "open")]
        assert gauge.value == 2
        clock[0] = 6.0
        assert breaker.allow()  # open -> half_open probe admitted
        breaker.record_success()  # closes
        assert transitions[-2:] == [
            ("open", "half_open"), ("half_open", "closed")
        ]
        assert gauge.value == 0

    def test_service_wires_breaker_listener(self):
        from repro.resilience.breaker import BreakerPolicy

        tel = Telemetry()
        svc = QuoteService(
            model="binomial", method="fft", steps_default=64,
            breaker=BreakerPolicy(failure_threshold=1), telemetry=tel,
        )
        bad = OptionSpec(
            spot=100.0, strike=100.0, rate=0.05, volatility=0.2,
            expiry_days=126.0,
        )
        # force a failing solve through a poisoned method override
        with pytest.raises(Exception):
            svc.quote(bad, steps=0)  # invalid steps -> canonicalize error
        # canonicalize failures never reach the breaker; drive a real trip
        breaker = svc._breaker_for(svc._canonicalize(bad, 64, None, None, None, None))
        breaker.record_failure()  # threshold=1: trips
        snap = tel.snapshot()
        trans = [
            m for m in snap["metrics"]
            if m["name"] == "breaker_transitions_total"
        ]
        assert len(trans) == 1
        assert trans[0]["labels"]["to"] == "open"
        states = [
            m for m in snap["metrics"] if m["name"] == "breaker_state"
        ]
        assert states[0]["value"] == 2  # open


class TestHealthSurface:
    def test_health_reports_ok_and_telemetry_flag(self):
        tel = Telemetry()
        svc = make_service(tel)
        svc.quote(SPEC)
        h = svc.health()
        assert h["status"] == "ok"
        assert h["open_breakers"] == []
        assert h["telemetry_enabled"] is True
        assert 0.0 <= h["cache_hit_ratio"] <= 1.0
        json.dumps(h)

    def test_stats_gains_telemetry_section_only_when_enabled(self):
        tel = Telemetry()
        svc = make_service(tel)
        svc.quote(SPEC)
        stats = svc.stats()
        assert "telemetry" in stats
        assert stats["telemetry"] == tel.snapshot()
        assert "telemetry" not in make_service(None).stats()

    def test_disabled_telemetry_handle_means_none_everywhere(self):
        svc = make_service(Telemetry.disabled())
        assert svc.telemetry is None
        r = svc.quote(SPEC)
        assert r.meta["cache"] == "miss"
