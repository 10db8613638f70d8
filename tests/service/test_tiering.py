"""Tiered quotes: fast/exact/auto slots, upgrades, graceful degradation.

The load-bearing invariant is **slot isolation**: the cache key carries
the tier, so a ``tier="fast"`` (spectral, ~1e-3) answer can never be
served from — or upgraded into — an exact lattice slot, under any
:class:`CanonicalPolicy`.  Fast serves are always stamped
``meta["tier"]`` / ``meta["tolerance"]``; the exact slot only warms via
the pending-queue upgrade, which stores the *lattice* solve.
"""

import dataclasses

import pytest

from repro.core.api import price_american
from repro.core.spectral import SPECTRAL_TOL
from repro.obs import Telemetry
from repro.options.contract import (
    OptionSpec, Right, Style, paper_benchmark_spec,
)
from repro.resilience import (
    BreakerPolicy, CircuitOpenError, Deadline, DeadlineExceeded,
)
from repro.service import QuoteService
from repro.service.canonical import CanonicalPolicy
from repro.util.validation import ValidationError

SPEC = paper_benchmark_spec()
PUT = SPEC.with_right(Right.PUT)
# passes canonicalization, dies in the FD solver (Theorem 4.3 violation)
BAD_BSM_PUT = dataclasses.replace(PUT, dividend_yield=0.0, rate=0.9)
GOOD_BSM_PUT = dataclasses.replace(PUT, dividend_yield=0.0)

AMERICAN_PUT = OptionSpec(
    spot=100.0, strike=100.0, rate=0.04, volatility=0.25,
    dividend_yield=0.02, expiry_days=252.0, right=Right.PUT,
    style=Style.AMERICAN,
)


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def make_bsm_service(fake_clock, **kw):
    defaults = dict(
        model="bsm-fd",
        breaker=BreakerPolicy(failure_threshold=2, reset_timeout=30.0),
        clock=fake_clock,
    )
    defaults.update(kw)
    return QuoteService(**defaults)


def trip(svc, n=2):
    for _ in range(n):
        with pytest.raises(Exception):
            svc.quote(BAD_BSM_PUT, 8)


def exact_key(svc, spec, steps):
    return svc._canonicalize(spec, steps, None, None, None, None).key


def lattice_ref(spec, steps):
    """The exact-tier answer on a fresh service — the service's canonical
    (dualized, strike-scaled) solve, which an upgraded slot must match
    bit for bit."""
    return QuoteService().quote(spec, steps).price


class TestTierValidation:
    def test_unknown_tier_rejected(self):
        svc = QuoteService()
        with pytest.raises(ValidationError, match="unknown tier"):
            svc.quote(AMERICAN_PUT, 64, tier="turbo")

    def test_fast_tier_has_no_boundary(self):
        svc = QuoteService()
        with pytest.raises(ValidationError, match="divider"):
            svc.quote(AMERICAN_PUT, 64, tier="fast", return_boundary=True)


class TestFastTier:
    def test_fast_serve_is_marked_and_cached_in_its_own_slot(self):
        svc = QuoteService()
        cold = svc.quote(AMERICAN_PUT, 64, tier="fast")
        assert cold.meta["cache"] == "miss"
        assert cold.meta["tier"] == "fast"
        assert cold.meta["tolerance"] == SPECTRAL_TOL
        assert cold.meta["backend"] == "spectral"
        warm = svc.quote(AMERICAN_PUT, 64, tier="fast")
        assert warm.meta["cache"] == "hit"
        assert warm.meta["tier"] == "fast"
        assert warm.price == cold.price

    def test_fast_price_within_stated_tolerance(self):
        svc = QuoteService()
        fast = svc.quote(AMERICAN_PUT, 64, tier="fast")
        exact = price_american(AMERICAN_PUT, 64)
        rel = abs(fast.price - exact.price) / exact.price
        assert rel <= SPECTRAL_TOL * 10  # 64-step lattice is itself coarse

    def test_upgrade_enqueued_once_and_flush_warms_the_exact_slot(self):
        svc = QuoteService()
        svc.quote(AMERICAN_PUT, 64, tier="fast")
        assert svc.health()["pending"] == 1
        svc.quote(AMERICAN_PUT, 64, tier="fast")
        assert svc.health()["pending"] == 1  # coalesced, not re-queued
        svc.flush()
        upgraded = svc.quote(AMERICAN_PUT, 64)  # exact tier
        assert upgraded.meta["cache"] == "hit"
        assert upgraded.price == lattice_ref(AMERICAN_PUT, 64)

    def test_counters_in_stats(self):
        svc = QuoteService()
        svc.quote(AMERICAN_PUT, 64, tier="fast")
        svc.quote(AMERICAN_PUT, 64, tier="fast")
        service = svc.stats()["service"]
        assert service["fast_quotes"] == 2
        assert service["tier_upgrades"] == 1


class TestSlotIsolation:
    @pytest.mark.parametrize(
        "canonical", [CanonicalPolicy(0.0), CanonicalPolicy(tol=1e-4)],
        ids=["exact-policy", "quantizing-policy"],
    )
    def test_fast_quote_never_warms_the_exact_slot(self, canonical):
        svc = QuoteService(canonical=canonical)
        fast = svc.quote(AMERICAN_PUT, 64, tier="fast")
        assert fast.meta["backend"] == "spectral"
        # the approximate answer landed in the fast slot only
        assert svc.cache.peek(exact_key(svc, AMERICAN_PUT, 64)) is None
        # ...so the exact tier still pays (and stores) the lattice solve
        exact = svc.quote(AMERICAN_PUT, 64)
        assert exact.meta["cache"] != "hit"
        assert exact.meta["backend"] == "lattice"
        assert exact.price == lattice_ref(AMERICAN_PUT, 64)

    @pytest.mark.parametrize(
        "canonical", [CanonicalPolicy(0.0), CanonicalPolicy(tol=1e-4)],
        ids=["exact-policy", "quantizing-policy"],
    )
    def test_exact_hit_never_serves_the_fast_tier(self, canonical):
        svc = QuoteService(canonical=canonical)
        exact = svc.quote(AMERICAN_PUT, 64)
        assert exact.meta["cache"] == "miss"
        fast = svc.quote(AMERICAN_PUT, 64, tier="fast")
        assert fast.meta["cache"] == "miss"  # not served from the exact slot
        assert fast.meta["backend"] == "spectral"
        assert fast.meta["tier"] == "fast"

    def test_quantized_neighbours_share_a_slot_per_tier_only(self):
        # under a quantizing policy two near-identical contracts share one
        # canonical key — the tier prefix must still keep the two slots
        # apart for *both* contracts
        svc = QuoteService(canonical=CanonicalPolicy(tol=1e-4))
        near = dataclasses.replace(
            AMERICAN_PUT, volatility=AMERICAN_PUT.volatility * (1 + 1e-6)
        )
        assert exact_key(svc, AMERICAN_PUT, 64) == exact_key(svc, near, 64)
        svc.quote(AMERICAN_PUT, 64, tier="fast")
        assert svc.quote(near, 64, tier="fast").meta["cache"] == "hit"
        exact = svc.quote(near, 64)
        assert exact.meta["cache"] != "hit"
        assert exact.meta["backend"] == "lattice"

    def test_upgraded_slot_holds_the_lattice_answer(self):
        svc = QuoteService()
        fast = svc.quote(AMERICAN_PUT, 64, tier="fast")
        svc.flush()
        stored = svc.cache.peek(exact_key(svc, AMERICAN_PUT, 64))
        assert stored is not None
        assert stored.meta["backend"] == "lattice"
        assert stored.price != fast.price  # approximation never promoted


class TestAutoTier:
    def test_cold_auto_serves_fast_and_queues_the_upgrade(self):
        svc = QuoteService()
        first = svc.quote(AMERICAN_PUT, 64, tier="auto")
        assert first.meta["tier"] == "fast"
        assert first.meta["tolerance"] == SPECTRAL_TOL
        assert svc.health()["pending"] == 1

    def test_auto_after_flush_serves_exact(self):
        svc = QuoteService()
        fast = svc.quote(AMERICAN_PUT, 64, tier="auto")
        svc.flush()
        upgraded = svc.quote(AMERICAN_PUT, 64, tier="auto")
        assert upgraded.meta["cache"] == "hit"
        assert upgraded.meta["tier"] == "exact"
        assert upgraded.meta["tolerance"] == 0.0
        assert upgraded.price == lattice_ref(AMERICAN_PUT, 64)
        assert upgraded.price != fast.price

    def test_auto_with_boundary_takes_the_exact_path(self):
        svc = QuoteService()
        result = svc.quote(
            AMERICAN_PUT, 64, tier="auto", return_boundary=True
        )
        assert result.boundary is not None
        assert "tier" not in result.meta or result.meta["tier"] != "fast"


class TestDegradation:
    def test_fallback_off_keeps_the_breaker_rejection(self):
        clock = FakeClock()
        svc = make_bsm_service(clock)
        trip(svc)
        with pytest.raises(CircuitOpenError):
            svc.quote(GOOD_BSM_PUT, 8)

    def test_fallback_off_keeps_the_deadline_rejection(self):
        svc = QuoteService()
        with pytest.raises(DeadlineExceeded):
            svc.quote(AMERICAN_PUT, 64, deadline=Deadline(0.0))

    def test_breaker_open_degrades_to_marked_spectral(self):
        clock = FakeClock()
        svc = make_bsm_service(clock, spectral_fallback=True)
        trip(svc)
        result = svc.quote(GOOD_BSM_PUT, 8)
        assert result.meta["cache"] == "degraded"
        assert result.meta["degraded_to"] == "spectral"
        assert result.meta["degrade_reason"] == "breaker_open"
        assert result.meta["tier"] == "fast"
        assert result.meta["tolerance"] == SPECTRAL_TOL
        assert svc.stats()["resilience"]["degraded_spectral"] == 1

    def test_quote_many_degrades_to_marked_spectral(self):
        clock = FakeClock()
        svc = make_bsm_service(clock, spectral_fallback=True)
        trip(svc)
        [open_bucket] = svc.quote_many([GOOD_BSM_PUT], 8)
        [spent] = svc.quote_many([GOOD_BSM_PUT], 64, deadline=Deadline(0.0))
        for result, reason in ((open_bucket, "breaker_open"),
                               (spent, "deadline")):
            assert result.meta["cache"] == "degraded"
            assert result.meta["degraded_to"] == "spectral"
            assert result.meta["degrade_reason"] == reason
            assert result.meta["tier"] == "fast"
            assert result.price > 0.0
        assert svc.stats()["resilience"]["degraded_spectral"] == 2

    def test_spent_deadline_degrades_to_marked_spectral(self):
        svc = QuoteService(spectral_fallback=True)
        result = svc.quote(AMERICAN_PUT, 64, deadline=Deadline(0.0))
        assert result.meta["degraded_to"] == "spectral"
        assert result.meta["degrade_reason"] == "deadline"

    def test_degraded_serve_is_never_cached_anywhere(self):
        svc = QuoteService(spectral_fallback=True)
        svc.quote(AMERICAN_PUT, 64, deadline=Deadline(0.0))
        assert svc.cache.peek(exact_key(svc, AMERICAN_PUT, 64)) is None
        assert svc.cache.stats()["size"] == 0
        # the second degraded quote solves again — still not a cache hit
        again = svc.quote(AMERICAN_PUT, 64, deadline=Deadline(0.0))
        assert again.meta["cache"] == "degraded"

    def test_degraded_serve_enqueues_the_healing_refresh(self):
        svc = QuoteService(spectral_fallback=True)
        svc.quote(AMERICAN_PUT, 64, deadline=Deadline(0.0))
        assert svc.health()["pending"] == 1
        svc.flush()
        healed = svc.quote(AMERICAN_PUT, 64)
        assert healed.meta["cache"] == "hit"
        assert healed.meta["backend"] == "lattice"

    def test_stale_serve_outranks_the_spectral_fallback(self):
        clock = FakeClock()
        svc = make_bsm_service(
            clock, spectral_fallback=True, ttl=10.0, stale_grace=100.0,
        )
        warm = svc.quote(GOOD_BSM_PUT, 8)
        clock.advance(11.0)  # expired, within grace
        trip(svc)
        result = svc.quote(GOOD_BSM_PUT, 8)
        assert result.meta["cache"] == "stale"
        assert "degraded_to" not in result.meta
        assert result.price == warm.price

    def test_spectral_rejection_restores_the_original_error(self):
        # when the spectral backend itself rejects the contract, the
        # fallback bows out and the deadline rejection stands
        svc = QuoteService(spectral_fallback=True)

        class Rejecting:
            tolerance = SPECTRAL_TOL

            def price_spec(self, *args, **kwargs):
                raise ValidationError("no spectral answer")

        svc._spectral_backend = Rejecting()
        with pytest.raises(DeadlineExceeded):
            svc.quote(AMERICAN_PUT, 64, deadline=Deadline(0.0))


class TestHealthAndTelemetry:
    def test_health_reports_breakers_degrades_and_journal_drops(self):
        clock = FakeClock()
        tel = Telemetry(journal_size=2)
        svc = make_bsm_service(clock, spectral_fallback=True, telemetry=tel)
        trip(svc)
        svc.quote(GOOD_BSM_PUT, 8)  # degraded spectral serve
        for i in range(4):  # overflow the 2-event flight-recorder ring
            tel.emit("noise", i=i)
        h = svc.health()
        assert h["open_breakers"] == ["bsm-fd/fft/8"]
        assert h["degraded_spectral"] == 1
        assert h["journal_dropped"] == tel.journal.dropped > 0

    def test_health_without_telemetry_reports_zero_drops(self):
        svc = QuoteService()
        assert svc.health()["journal_dropped"] == 0

    def test_tier_histogram_only_appears_for_tiered_traffic(self):
        tel = Telemetry()
        svc = QuoteService(telemetry=tel)
        svc.quote(AMERICAN_PUT, 64)  # exact-only traffic
        names = {m["name"] for m in tel.snapshot()["metrics"]}
        assert "service_quote_tier_seconds" not in names
        svc.quote(AMERICAN_PUT, 64, tier="fast")
        tiers = {
            m["labels"]["tier"]
            for m in tel.snapshot()["metrics"]
            if m["name"] == "service_quote_tier_seconds"
        }
        assert tiers == {"fast"}

    def test_journal_records_upgrade_and_degradation_events(self):
        tel = Telemetry()
        svc = QuoteService(spectral_fallback=True, telemetry=tel)
        svc.quote(AMERICAN_PUT, 64, tier="fast")
        svc.quote(AMERICAN_PUT, 128, deadline=Deadline(0.0))
        events = {e["type"] for e in tel.journal.slice(0)}
        assert "tier_upgrade" in events
        assert "degraded_spectral" in events
        degraded = [
            e for e in tel.journal.slice(0)
            if e["type"] == "degraded_spectral"
        ]
        assert degraded[0]["fields"]["reason"] == "deadline"
        assert "binomial" in degraded[0]["fields"]["bucket"]
