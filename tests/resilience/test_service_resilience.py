"""QuoteService resilience: deadlines, breakers, stale serves, fault plans."""

import dataclasses
import math

import numpy as np
import pytest

from repro.options.contract import Right, paper_benchmark_spec
from repro.resilience import (
    BreakerPolicy,
    CircuitOpenError,
    Deadline,
    DeadlineExceeded,
    FaultPlan,
    RetryPolicy,
)
from repro.service import QuoteService

SPEC = paper_benchmark_spec()
PUT = SPEC.with_right(Right.PUT)
# passes canonicalization, dies in the FD solver (Theorem 4.3 violation)
BAD_BSM_PUT = dataclasses.replace(PUT, dividend_yield=0.0, rate=0.9)
GOOD_BSM_PUT = dataclasses.replace(PUT, dividend_yield=0.0)


def strikes(n, lo=100.0, hi=160.0):
    return [
        dataclasses.replace(SPEC, strike=k) for k in np.linspace(lo, hi, n)
    ]


def quiet_retry(**kw):
    defaults = dict(
        max_attempts=3, base_delay=0.0, jitter=0.0, seed=1,
        sleep=lambda s: None,
    )
    defaults.update(kw)
    return RetryPolicy(**defaults)


class TestDeadlines:
    def test_warm_hit_ignores_expired_deadline(self, fake_clock):
        svc = QuoteService(clock=fake_clock)
        cold = svc.quote(SPEC, 96)
        r = svc.quote(SPEC, 96, deadline=Deadline(0.0, clock=fake_clock))
        assert r.meta["cache"] == "hit"
        assert r.price == cold.price

    def test_cold_with_spent_budget_raises_without_stale(self, fake_clock):
        svc = QuoteService(clock=fake_clock)
        with pytest.raises(DeadlineExceeded):
            svc.quote(SPEC, 96, deadline=Deadline(0.0, clock=fake_clock))
        assert svc.stats()["resilience"]["deadline_misses"] == 1

    def test_stale_serve_under_deadline_pressure(self, fake_clock):
        svc = QuoteService(ttl=10.0, stale_grace=60.0, clock=fake_clock)
        cold = svc.quote(SPEC, 96)
        fake_clock.advance(20.0)  # expired, inside the grace
        r = svc.quote(SPEC, 96, deadline=Deadline(0.0, clock=fake_clock))
        assert r.meta["cache"] == "stale"
        assert r.meta["stale"] is True
        assert r.meta["stale_reason"] == "deadline"
        assert r.price == cold.price  # exact when stored
        # the background refresh rode the pending queue
        assert svc.pending == 1
        svc.flush()
        assert svc.quote(SPEC, 96).meta["cache"] == "hit"
        stats = svc.stats()["resilience"]
        assert stats["stale_quotes"] == 1 and stats["refreshes"] == 1

    def test_gone_entry_does_not_serve(self, fake_clock):
        svc = QuoteService(ttl=10.0, stale_grace=5.0, clock=fake_clock)
        svc.quote(SPEC, 96)
        fake_clock.advance(20.0)  # past ttl + grace
        with pytest.raises(DeadlineExceeded):
            svc.quote(SPEC, 96, deadline=Deadline(0.0, clock=fake_clock))

    def test_quote_many_partial_deadline(self, fake_clock):
        # a live clock-free variant: the deadline is pre-spent, so every
        # cold key degrades to an explicit timeout marker; warm keys serve
        svc = QuoteService(clock=fake_clock)
        specs = strikes(4)
        warm = svc.quote(specs[0], 96)
        out = svc.quote_many(specs, 96, deadline=Deadline(0.0, clock=fake_clock))
        assert out[0].meta["cache"] == "hit"
        assert out[0].price == warm.price
        for r in out[1:]:
            assert r.meta.get("timeout") and math.isnan(r.price)

    def test_submit_carries_deadline_to_flush(self, fake_clock):
        svc = QuoteService(clock=fake_clock)
        ticket = svc.submit(
            SPEC, 96, deadline=Deadline(0.0, clock=fake_clock)
        )
        with pytest.raises(DeadlineExceeded):
            ticket.result()


class TestDeadlineMidSolve:
    """A deadline that expires *during* a lattice solve, observed by the
    engine's ``checkpoint`` hook between advance rounds.  The fake clock
    moves one second per engine checkpoint, so a 3 s budget passes every
    pre-solve gate and runs out at the solve's third advance round."""

    @staticmethod
    def checkpoint_clock(svc):
        engine = svc._engine
        return lambda: float(engine.checkpoints)

    def test_lone_quote_raises_mid_solve(self):
        ref = QuoteService()
        ref.quote(SPEC, 96)
        assert ref._engine.cache_info()["advances"] > 3  # solve outlasts it
        svc = QuoteService()
        deadline = Deadline(3.0, clock=self.checkpoint_clock(svc))
        with pytest.raises(DeadlineExceeded):
            svc.quote(SPEC, 96, deadline=deadline)
        assert svc._engine.cache_info()["checkpoints"] == 3
        assert len(svc.cache) == 0
        assert svc.stats()["resilience"]["deadline_misses"] == 1

    def test_quote_many_bucket_times_out_mid_solve(self):
        specs = strikes(4)
        ref = QuoteService()
        ref.quote_many(specs[1:], 96)
        assert ref.stats()["service"]["max_batch"] == 3  # one B = 3 bucket
        assert ref._engine.cache_info()["advances"] > 3
        svc = QuoteService()
        warm = svc.quote(specs[0], 96)
        deadline = Deadline(3.0, clock=self.checkpoint_clock(svc))
        out = svc.quote_many(specs, 96, deadline=deadline)
        assert out[0].meta["cache"] == "hit"
        assert out[0].price == warm.price
        for r in out[1:]:
            assert r.meta.get("timeout") and math.isnan(r.price)
        assert svc._engine.cache_info()["checkpoints"] == 3
        assert len(svc.cache) == 1  # only the warm key
        assert svc.stats()["service"]["max_batch"] == 0  # no bucket finished


class TestBreakers:
    def make_service(self, fake_clock, **kw):
        defaults = dict(
            model="bsm-fd",
            breaker=BreakerPolicy(failure_threshold=3, reset_timeout=30.0),
            clock=fake_clock,
        )
        defaults.update(kw)
        return QuoteService(**defaults)

    def trip(self, svc, n=3):
        for _ in range(n):
            with pytest.raises(Exception):
                svc.quote(BAD_BSM_PUT, 8)

    def test_trips_open_and_rejects_fast(self, fake_clock):
        svc = self.make_service(fake_clock)
        self.trip(svc)
        solves_before = svc.stats()["service"]["solves"]
        with pytest.raises(CircuitOpenError) as exc_info:
            svc.quote(BAD_BSM_PUT, 8)
        assert exc_info.value.retry_after == 30.0
        assert exc_info.value.bucket[:3] == ("bsm-fd", "fft", 8)
        # rejected before any engine work
        assert svc.stats()["service"]["solves"] == solves_before

    def test_other_buckets_unaffected(self, fake_clock):
        svc = self.make_service(fake_clock)
        self.trip(svc)
        ok = svc.quote(GOOD_BSM_PUT, 64)  # different steps → own breaker
        assert math.isfinite(ok.price)
        states = {
            k: v["state"]
            for k, v in svc.stats()["resilience"]["breakers"].items()
        }
        assert states["bsm-fd/fft/8"] == "open"
        assert states["bsm-fd/fft/64"] == "closed"

    def test_open_serves_stale_when_graced(self, fake_clock):
        svc = self.make_service(
            fake_clock, ttl=5.0, stale_grace=1000.0,
        )
        warm = svc.quote(GOOD_BSM_PUT, 8)  # seeds the bucket's cache entry
        fake_clock.advance(10.0)  # entry stale
        self.trip(svc)
        r = svc.quote(GOOD_BSM_PUT, 8)
        assert r.meta["cache"] == "stale"
        assert r.meta["stale_reason"] == "breaker_open"
        assert r.price == warm.price

    def test_half_open_probe_closes_on_success(self, fake_clock):
        svc = self.make_service(fake_clock)
        self.trip(svc)
        fake_clock.advance(30.0)
        probe = svc.quote(GOOD_BSM_PUT, 8)  # same bucket, valid contract
        assert math.isfinite(probe.price)
        states = svc.stats()["resilience"]["breakers"]
        assert states["bsm-fd/fft/8"]["state"] == "closed"

    def test_half_open_probe_failure_reopens(self, fake_clock):
        svc = self.make_service(fake_clock)
        self.trip(svc)
        fake_clock.advance(30.0)
        with pytest.raises(Exception):
            svc.quote(BAD_BSM_PUT, 8)  # failed probe
        assert (
            svc.stats()["resilience"]["breakers"]["bsm-fd/fft/8"]["state"]
            == "open"
        )

    def test_pre_solve_deadline_misses_do_not_trip_breaker(self, fake_clock):
        svc = QuoteService(
            breaker=BreakerPolicy(failure_threshold=2, reset_timeout=30.0),
            clock=fake_clock,
        )
        for k in (100.0, 110.0):
            with pytest.raises(DeadlineExceeded):
                svc.quote(
                    dataclasses.replace(SPEC, strike=k), 96,
                    deadline=Deadline(0.0, clock=fake_clock),
                )
        # both misses raised before reaching the solve gate — the breaker
        # only counts *solve* failures, so it must still be closed
        states = svc.stats()["resilience"]["breakers"]
        assert states.get("binomial/fft/96", {"state": "closed"})[
            "state"
        ] == "closed"


class TestFaultPlansThroughService:
    def test_quote_many_chaos_acceptance(self, record_plan):
        """ISSUE acceptance at the service tier: crashes recover, the
        poisoned key fails alone with an explicit marker, everything
        served is bit-identical — zero unhandled exceptions."""
        specs = strikes(6)
        clean = QuoteService().quote_many(specs, 96)
        plan = record_plan(
            FaultPlan(crashes={1: 1, 4: 10**6}, seed=21), "service-chaos"
        )
        svc = QuoteService(retry=quiet_retry(), fault_plan=plan)
        out = svc.quote_many(specs, 96)
        for i, (c, r) in enumerate(zip(clean, out)):
            if i == 4:
                assert r.meta.get("failed") and math.isnan(r.price)
                assert r.meta["cache"] == "failed"
            else:
                assert r.price == c.price, f"cell {i} drifted"
        # the failure marker must not have been cached: key 4 re-solves
        # (now fault-free — its cell index differs) instead of serving NaN
        again = svc.quote_many(specs, 96)
        assert again[0].meta["cache"] == "hit"
        assert again[4].meta["cache"] == "miss"
        assert again[4].price == clean[4].price

    def test_thread_pool_service_recovers(self, record_plan):
        specs = strikes(8)
        clean = QuoteService().quote_many(specs, 96)
        plan = record_plan(
            FaultPlan(crashes={0: 1, 6: 1}, seed=22), "service-pool"
        )
        svc = QuoteService(
            workers=2, backend="thread", workers_min_batch=2,
            retry=quiet_retry(), fault_plan=plan,
        )
        out = svc.quote_many(specs, 96)
        assert [r.price for r in out] == [c.price for c in clean]


class TestBackpressure:
    def test_structured_overload_payload(self):
        from repro.service import ServiceOverloadedError

        svc = QuoteService(max_pending=2)
        a, b, c = strikes(3)
        svc.submit(a, 96)
        svc.submit(b, 96)
        with pytest.raises(ServiceOverloadedError) as exc_info:
            svc.submit(c, 96, block=False)
        err = exc_info.value
        assert err.pending == 2 and err.max_pending == 2
        assert len(err.rejected_keys) == 1
        # the rejected key is c's canonical key — re-submittable verbatim
        from repro.service import canonical_key

        assert err.rejected_keys[0] == canonical_key(c, 96)

    def test_concurrent_submits_one_loser_gets_the_payload(self):
        # n threads race two queue slots; with block=False the losers get
        # the structured error, winners get tickets, and nothing deadlocks
        import threading

        from repro.service import ServiceOverloadedError

        svc = QuoteService(max_pending=2)
        specs = strikes(6)
        tickets, errors = [], []
        lock = threading.Lock()

        def worker(spec):
            try:
                t = svc.submit(spec, 96, block=False)
                with lock:
                    tickets.append(t)
            except ServiceOverloadedError as exc:
                with lock:
                    errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(s,)) for s in specs
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(tickets) + len(errors) == len(specs)
        assert len(tickets) == 2  # the queue bound held
        for err in errors:
            assert err.max_pending == 2
            assert err.rejected_keys
        # the accepted tickets still resolve
        svc.flush()
        for t in tickets:
            assert math.isfinite(t.result().price)
