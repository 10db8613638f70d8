"""QuoteService: hit/miss semantics, coalescer ordering, backpressure."""

import dataclasses
import threading
import time

import numpy as np
import pytest

from repro.core.api import price_american, price_european, price_many
from repro.obs import Telemetry
from repro.options.contract import Right, Style, paper_benchmark_spec
from repro.resilience import Deadline
from repro.service import (
    CanonicalPolicy,
    QuoteCache,
    QuoteService,
    ServiceOverloadedError,
)
from repro.util.validation import ValidationError
from tests.service.test_quote_cache import FakeClock

SPEC = paper_benchmark_spec()
PUT = SPEC.with_right(Right.PUT)
# a put whose explicit-scheme coefficients violate Theorem 4.3 at small
# step counts — passes canonicalize (only the FD solver can reject it)
# but fails at solve time
BAD_BSM_PUT = dataclasses.replace(PUT, dividend_yield=0.0, rate=0.9)


def strikes(n, lo=100.0, hi=160.0):
    return [
        dataclasses.replace(SPEC, strike=k) for k in np.linspace(lo, hi, n)
    ]


class TestQuote:
    def test_miss_then_hit_bitwise_identical(self):
        svc = QuoteService()
        cold = svc.quote(SPEC, 128)
        warm = svc.quote(SPEC, 128)
        assert cold.meta["cache"] == "miss"
        assert warm.meta["cache"] == "hit"
        assert warm.price == cold.price  # bit-identical at tolerance 0
        stats = svc.stats()["service"]
        assert stats["quotes"] == 2 and stats["solves"] == 1

    def test_agrees_with_direct_pricing(self):
        svc = QuoteService()
        for spec in (SPEC, PUT, SPEC.with_style(Style.EUROPEAN)):
            direct = (
                price_european(spec, 96)
                if spec.style is Style.EUROPEAN
                else price_american(spec, 96)
            ).price
            assert svc.quote(spec, 96).price == pytest.approx(direct, rel=1e-12)

    def test_scaled_clone_is_a_hit(self):
        svc = QuoteService()
        svc.quote(SPEC, 96)
        clone = dataclasses.replace(
            SPEC, spot=SPEC.spot * 2.0, strike=SPEC.strike * 2.0
        )
        r = svc.quote(clone, 96)
        assert r.meta["cache"] == "hit"
        assert r.price == pytest.approx(
            2.0 * price_american(SPEC, 96).price, rel=1e-12
        )

    def test_steps_default(self):
        svc = QuoteService(steps_default=64)
        assert svc.quote(SPEC).steps == 64
        with pytest.raises(ValidationError, match="steps"):
            QuoteService().quote(SPEC)

    def test_quantized_service_merges_nearby_requests(self):
        svc = QuoteService(canonical=CanonicalPolicy(tol=1e-4))
        svc.quote(SPEC, 96)
        near = dataclasses.replace(SPEC, volatility=SPEC.volatility + 1e-5)
        r = svc.quote(near, 96)
        assert r.meta["cache"] == "hit"
        assert r.meta["canonical"]["quantized"]
        direct = price_american(near, 96).price
        assert r.price == pytest.approx(direct, rel=1e-2)

    def test_ttl_expiry_resolves(self):
        clock = FakeClock()
        svc = QuoteService(ttl=30.0, clock=clock)
        svc.quote(SPEC, 96)
        clock.advance(29.0)
        assert svc.quote(SPEC, 96).meta["cache"] == "hit"
        clock.advance(1.0)
        assert svc.quote(SPEC, 96).meta["cache"] == "miss"
        assert svc.stats()["cache"]["expirations"] == 1

    def test_boundary_upgrade(self):
        svc = QuoteService()
        plain = svc.quote(SPEC, 96)
        assert plain.boundary is None
        upgraded = svc.quote(SPEC, 96, return_boundary=True)
        assert upgraded.meta["cache"] == "miss"
        assert upgraded.boundary is not None
        warm = svc.quote(SPEC, 96, return_boundary=True)
        assert warm.meta["cache"] == "hit"
        assert warm.boundary == upgraded.boundary
        assert svc.stats()["service"]["boundary_upgrades"] == 1

    def test_loop_put_boundary_matches_direct(self):
        # loop puts are not dual-folded, so the served divider is the put's
        # own dense boundary exactly as price_american reports it
        svc = QuoteService(method="loop")
        served = svc.quote(PUT, 64, return_boundary=True)
        direct = price_american(PUT, 64, method="loop", return_boundary=True)
        assert np.array_equal(served.boundary, direct.boundary)
        assert served.price == pytest.approx(direct.price, rel=1e-12)

    def test_european_boundary_request_stays_warm(self):
        # Europeans have no divider; the flag must not defeat the cache.
        svc = QuoteService()
        euro = SPEC.with_style(Style.EUROPEAN)
        svc.quote(euro, 96, return_boundary=True)
        warm = svc.quote(euro, 96, return_boundary=True)
        assert warm.meta["cache"] == "hit"
        assert warm.boundary is None
        stats = svc.stats()["service"]
        assert stats["solves"] == 1 and stats["boundary_upgrades"] == 0


class TestQuoteMany:
    def test_submission_order_and_merge_tags(self):
        svc = QuoteService()
        specs = strikes(4)
        batch = [specs[0], specs[1], specs[0], specs[2], specs[1], specs[3]]
        results = svc.quote_many(batch, 96)
        assert [r.meta["cache"] for r in results] == [
            "miss", "miss", "merged", "miss", "merged", "miss",
        ]
        for spec, r in zip(batch, results):
            assert r.price == pytest.approx(
                price_american(spec, 96).price, rel=1e-12
            )
        stats = svc.stats()["service"]
        assert stats["solves"] == 4
        assert stats["merged_requests"] == 2
        assert stats["batches"] == 1 and stats["max_batch"] == 4

    def test_warm_batch_is_all_hits(self):
        svc = QuoteService()
        specs = strikes(3)
        svc.quote_many(specs, 96)
        again = svc.quote_many(list(reversed(specs)), 96)
        assert all(r.meta["cache"] == "hit" for r in again)

    def test_matches_price_many(self):
        svc = QuoteService()
        specs = strikes(3) + [PUT, SPEC.with_style(Style.EUROPEAN)]
        direct = price_many(specs, 96)
        served = svc.quote_many(specs, 96)
        for d, s in zip(direct, served):
            assert s.price == pytest.approx(d.price, rel=1e-12)

    def test_mixed_style_batch_respects_per_key_base(self):
        # canonicalization erases base for Europeans but keeps it for
        # Americans, so one call can span two solve configurations; the
        # American must be solved (and cached) with its own base, not the
        # European's erased one
        euro = SPEC.with_style(Style.EUROPEAN)
        svc = QuoteService()
        batch = svc.quote_many([euro, SPEC], 96, base=16)
        reference = QuoteService().quote(SPEC, 96, base=16)
        assert batch[1].price == reference.price  # bit-identical contract
        warm = svc.quote(SPEC, 96, base=16)
        assert warm.meta["cache"] == "hit"
        assert warm.price == reference.price

    def test_empty(self):
        assert QuoteService().quote_many([], 96) == []

    def test_workers_delegates_to_scenario_engine(self):
        # serial backend keeps the test deterministic on any host while
        # still exercising the ScenarioEngine delegation path.
        svc = QuoteService(workers=2, backend="serial", workers_min_batch=2)
        specs = strikes(5) + [PUT]
        served = svc.quote_many(specs, 96)
        direct = price_many(specs, 96)
        for d, s in zip(direct, served):
            assert s.price == pytest.approx(d.price, rel=1e-12)
        assert svc.stats()["service"]["batches"] == 1


class TestSubmitFlush:
    def test_inflight_dedup_single_solve(self):
        svc = QuoteService()
        tickets = [svc.submit(SPEC, 96) for _ in range(3)]
        assert svc.pending == 1
        assert svc.flush() == 1
        prices = {t.result().price for t in tickets}
        assert len(prices) == 1
        stats = svc.stats()["service"]
        assert stats["solves"] == 1
        assert stats["merged_requests"] == 2
        assert [t.result().meta["cache"] for t in tickets] == [
            "miss", "merged", "merged",
        ]

    def test_coalescer_resolves_in_submission_order(self):
        svc = QuoteService()
        specs = strikes(6)
        tickets = [svc.submit(s, 96) for s in specs]
        assert svc.pending == 6
        assert svc.flush() == 6
        for spec, t in zip(specs, tickets):
            assert t.done()
            assert t.result().price == pytest.approx(
                price_american(spec, 96).price, rel=1e-12
            )
        stats = svc.stats()["service"]
        assert stats["batches"] == 1 and stats["max_batch"] == 6

    def test_buckets_by_steps(self):
        svc = QuoteService()
        t64 = [svc.submit(s, 64) for s in strikes(2)]
        t128 = [svc.submit(s, 128) for s in strikes(2)]
        svc.flush()
        assert {t.result().steps for t in t64} == {64}
        assert {t.result().steps for t in t128} == {128}
        assert svc.stats()["service"]["batches"] == 2

    def test_submit_warm_key_resolves_immediately(self):
        svc = QuoteService()
        svc.quote(SPEC, 96)
        ticket = svc.submit(SPEC, 96)
        assert ticket.done()
        assert ticket.result().meta["cache"] == "hit"
        assert svc.pending == 0

    def test_ticket_result_autoflushes(self):
        svc = QuoteService()
        ticket = svc.submit(SPEC, 96)
        assert not ticket.done()
        assert ticket.result().price == pytest.approx(
            price_american(SPEC, 96).price, rel=1e-12
        )
        assert svc.pending == 0

    def test_backpressure_nonblocking_raises(self):
        svc = QuoteService(max_pending=2)
        svc.submit(strikes(3)[0], 96, block=False)
        svc.submit(strikes(3)[1], 96, block=False)
        with pytest.raises(ServiceOverloadedError):
            svc.submit(strikes(3)[2], 96, block=False)
        assert svc.stats()["service"]["overloads"] == 1

    def test_backpressure_blocking_drains(self):
        svc = QuoteService(max_pending=1)
        specs = strikes(3)
        tickets = [svc.submit(s, 96) for s in specs]
        assert svc.pending == 1  # first two were drained by backpressure
        svc.flush()
        for spec, t in zip(specs, tickets):
            assert t.result().price == pytest.approx(
                price_american(spec, 96).price, rel=1e-12
            )
        assert svc.stats()["service"]["overloads"] == 2

    def test_flush_empty_queue(self):
        assert QuoteService().flush() == 0

    def test_blocking_submit_survives_failing_drain(self):
        svc = QuoteService(model="bsm-fd", max_pending=1)
        bad = svc.submit(BAD_BSM_PUT, 8)  # fails only inside the solver
        good_spec = dataclasses.replace(PUT, dividend_yield=0.0)
        # the forced drain hits the bad bucket's error; this submit must
        # survive it and still enqueue its own request
        good = svc.submit(good_spec, 128, block=True)
        assert svc.pending == 1
        with pytest.raises(ValidationError):
            bad.result()
        assert good.result().price > 0.0

    def test_boundary_upgrade_probe_not_counted_as_hit(self):
        svc = QuoteService()
        svc.quote(SPEC, 96)  # plain entry, no divider (one real miss)
        svc.quote(SPEC, 96, return_boundary=True)  # upgrade probe + re-solve
        assert svc.stats()["cache"]["hits"] == 0
        assert svc.stats()["cache"]["misses"] == 1  # probe is counter-neutral
        warm = svc.quote(SPEC, 96, return_boundary=True)
        assert warm.meta["cache"] == "hit"
        assert svc.stats()["cache"]["hits"] == 1

    def test_cold_boundary_quote_counts_a_miss(self):
        svc = QuoteService()
        svc.quote(SPEC, 96, return_boundary=True)
        stats = svc.stats()["cache"]
        assert stats["misses"] == 1 and stats["hits"] == 0

    def test_solve_error_propagates_to_tickets(self):
        svc = QuoteService(model="bsm-fd")
        # different steps -> different buckets: the bad solve must not
        # poison the good one, and both tickets must resolve
        good = svc.submit(dataclasses.replace(PUT, dividend_yield=0.0), 96)
        bad = svc.submit(BAD_BSM_PUT, 8)  # fails only inside the solver
        with pytest.raises(ValidationError):
            svc.flush()
        assert good.result().price > 0.0
        with pytest.raises(ValidationError):
            bad.result()
        assert svc.pending == 0

    def test_ticket_result_unaffected_by_other_buckets_error(self):
        svc = QuoteService(model="bsm-fd")
        good = svc.submit(dataclasses.replace(PUT, dividend_yield=0.0), 96)
        bad = svc.submit(BAD_BSM_PUT, 8)  # separate bucket; must fail alone
        # result() flushes internally; the bad bucket's error belongs to
        # the bad ticket, never to this one
        assert good.result().price > 0.0
        with pytest.raises(ValidationError):
            bad.result()

    def test_quote_rides_inflight_submit(self):
        svc = QuoteService()
        ticket = svc.submit(SPEC, 96)
        served = svc.quote(SPEC, 96)  # must not double-solve the key
        assert served.meta["cache"] == "merged"
        assert ticket.result().price == served.price
        assert svc.stats()["service"]["solves"] == 1
        assert svc.stats()["service"]["merged_requests"] == 1

    def test_quote_many_adopts_overlapping_submits(self):
        svc = QuoteService()
        specs = strikes(3)
        ticket = svc.submit(specs[0], 96)
        results = svc.quote_many(specs, 96)
        assert svc.pending == 0
        assert svc.stats()["service"]["solves"] == 3  # no double solve
        assert ticket.done()  # the adopted pending resolved this ticket
        # the adopted solve is a merge with the queued submit, not a cache
        # hit — the hit ratio keeps meaning "served from cache", and the
        # adopted key's lookup still counts its miss like any other merge
        assert [r.meta["cache"] for r in results] == ["merged", "miss", "miss"]
        assert svc.stats()["cache"]["hits"] == 0
        # 4 counted misses: the submit's own lookup plus this call's three
        assert svc.stats()["cache"]["misses"] == 4
        for spec, r in zip(specs, results):
            assert r.price == pytest.approx(
                price_american(spec, 96).price, rel=1e-12
            )

    def test_quote_does_not_drain_unrelated_pendings(self):
        svc = QuoteService()
        a, b, c = strikes(3)
        svc.submit(a, 96)
        svc.submit(b, 96)
        svc.submit(c, 96)
        served = svc.quote(c, 96)  # claims only its own key
        assert served.meta["cache"] == "merged"
        assert svc.pending == 2  # a and b still queued, unpaid for
        assert svc.stats()["service"]["solves"] == 1

    def test_submit_rejects_invalid_style_method_combo(self):
        svc = QuoteService()
        euro = SPEC.with_style(Style.EUROPEAN)
        with pytest.raises(ValidationError, match="European"):
            svc.submit(euro, 96, method="zb")
        assert svc.pending == 0

    def test_served_boundary_mutation_does_not_corrupt_cache(self):
        svc = QuoteService()
        first = svc.quote(SPEC, 96, return_boundary=True)
        assert first.boundary
        first.boundary.clear()
        first.stats["fft_calls"] = -1
        warm = svc.quote(SPEC, 96, return_boundary=True)
        assert warm.meta["cache"] == "hit"
        assert warm.boundary  # the cached divider survived the mutation
        assert warm.stats["fft_calls"] != -1

    def test_bucket_isolates_poisoned_member(self):
        svc = QuoteService(model="bsm-fd")
        good_spec = dataclasses.replace(PUT, dividend_yield=0.0)
        rider = svc.submit(good_spec, 8)
        bad = svc.submit(BAD_BSM_PUT, 8)  # same bucket as the rider
        with pytest.raises(ValidationError):
            svc.flush()
        # the poisoned request must not starve its valid bucket sibling
        assert rider.result().price > 0.0
        with pytest.raises(ValidationError):
            bad.result()
        assert svc.pending == 0

    def test_invalid_combos_rejected_at_submission(self):
        with pytest.raises(ValidationError, match="American-call"):
            QuoteService(method="zb").submit(PUT, 96)
        with pytest.raises(ValidationError, match="puts"):
            QuoteService(model="bsm-fd").submit(SPEC, 96)

    def test_boundary_quote_claims_pending_submit(self):
        svc = QuoteService()
        ticket = svc.submit(SPEC, 96)
        served = svc.quote(SPEC, 96, return_boundary=True)
        assert served.boundary
        # one divider-recording solve served both; nothing left to flush
        assert svc.pending == 0
        assert svc.stats()["service"]["solves"] == 1
        assert ticket.result().price == served.price
        warm = svc.quote(SPEC, 96, return_boundary=True)
        assert warm.meta["cache"] == "hit" and warm.boundary


class TestConcurrency:
    def _gated_service(self, monkeypatch):
        """A service whose solves block until the test releases the gate."""
        import repro.service.service as svc_mod

        entered, gate = threading.Event(), threading.Event()
        real = svc_mod.price_many

        def gated(*args, **kwargs):
            entered.set()
            assert gate.wait(10)
            return real(*args, **kwargs)

        monkeypatch.setattr(svc_mod, "price_many", gated)
        return QuoteService(), entered, gate

    def test_concurrent_cold_quotes_merge(self, monkeypatch):
        svc, entered, gate = self._gated_service(monkeypatch)
        out = {}
        t1 = threading.Thread(target=lambda: out.update(a=svc.quote(SPEC, 64)))
        t1.start()
        assert entered.wait(10)  # t1 registered its solve in-flight
        t2 = threading.Thread(target=lambda: out.update(b=svc.quote(SPEC, 64)))
        t2.start()
        gate.set()
        t1.join(10), t2.join(10)
        assert out["a"].price == out["b"].price
        assert svc.stats()["service"]["solves"] == 1  # merged, not re-solved
        tags = {out["a"].meta["cache"], out["b"].meta["cache"]}
        assert tags <= {"miss", "merged", "hit"} and "miss" in tags

    def test_submit_merges_onto_inflight_quote_many_solve(self, monkeypatch):
        svc, entered, gate = self._gated_service(monkeypatch)
        out = {}
        t = threading.Thread(
            target=lambda: out.update(r=svc.quote_many([SPEC], 64))
        )
        t.start()
        assert entered.wait(10)  # quote_many registered its solve in-flight
        ticket = svc.submit(SPEC, 64)  # must merge, not enqueue a new solve
        assert svc.pending == 0
        gate.set()
        t.join(10)
        assert ticket.done()
        assert len(svc._inflight) == 0
        assert svc.stats()["service"]["solves"] == 1
        assert ticket.result().price == out["r"][0].price

    def test_quote_many_rides_a_concurrent_flush(self, monkeypatch):
        svc, entered, gate = self._gated_service(monkeypatch)
        ticket = svc.submit(SPEC, 64)
        flusher = threading.Thread(target=svc.flush)
        flusher.start()
        assert entered.wait(10)  # the flush holds the key mid-solve
        out = {}
        t = threading.Thread(
            target=lambda: out.update(r=svc.quote_many([SPEC], 64))
        )
        t.start()
        for _ in range(500):  # until quote_many has joined that solve
            if svc.stats()["service"]["merged_requests"]:
                break
            time.sleep(0.01)
        gate.set()
        flusher.join(10), t.join(10)
        assert not flusher.is_alive() and not t.is_alive()
        assert out["r"][0].meta["cache"] == "merged"
        assert svc.stats()["service"]["solves"] == 1
        assert out["r"][0].price == ticket.result().price

    def test_drop_inflight_is_identity_checked(self):
        # a blind pop-by-key would evict a concurrent submit's live pending
        from repro.service.canonical import canonicalize
        from repro.service.service import _Pending

        svc = QuoteService()
        req = canonicalize(SPEC, 64)
        mine, other = _Pending(req), _Pending(req)
        svc._inflight[req.key] = other
        svc._drop_inflight(mine)  # not registered: must be a no-op
        assert svc._inflight[req.key] is other
        svc._drop_inflight(other)
        assert req.key not in svc._inflight


class TestStats:
    def test_snapshot_shape(self):
        svc = QuoteService()
        svc.quote(SPEC, 64)
        stats = svc.stats()
        assert set(stats) == {"cache", "service", "resilience"}
        assert stats["cache"]["stores"] == 1
        for key in (
            "quotes", "solves", "batches", "batched_requests", "max_batch",
            "merged_requests", "boundary_upgrades", "overloads", "pending",
            "max_pending", "workers", "backend",
        ):
            assert key in stats["service"]

    def test_counters_equal_the_registry_collector(self):
        clock = FakeClock()
        tel = Telemetry()
        svc = QuoteService(
            max_pending=1, ttl=10.0, stale_grace=60.0, clock=clock,
            telemetry=tel,
        )
        a, b, c = strikes(3)
        svc.quote(a, 64)
        assert svc.quote(a, 64).meta["cache"] == "hit"
        svc.submit(b, 64)
        svc.submit(b, 64)  # merges onto the queued solve
        with pytest.raises(ServiceOverloadedError):
            svc.submit(c, 64, block=False)
        clock.advance(20.0)  # a's entry expired, inside the grace
        stale = svc.quote(a, 64, deadline=Deadline(0.0, clock=clock))
        assert stale.meta["cache"] == "stale"
        stats = svc.stats()
        reported = {**stats["service"], **stats["resilience"]}
        for key in ("max_pending", "workers", "backend", "breakers"):
            del reported[key]  # configuration, not counters
        collected = tel.snapshot()["collected"]
        for name, value in reported.items():
            assert collected[f"service_{name}"] == value, name
        for name in ("merged_requests", "overloads", "stale_quotes"):
            assert reported[name] > 0, name

    def test_injected_cache(self):
        cache = QuoteCache(maxsize=2, clock=FakeClock())
        svc = QuoteService(cache=cache)
        for spec in strikes(3):
            svc.quote(spec, 64)
        assert svc.stats()["cache"]["evictions"] == 1

    def test_adopted_key_served_from_shared_cache(self):
        # another service sharing the cache can solve a key after this one
        # queued it; the adoption must then serve the warm result and
        # resolve the queued ticket without any solve
        cache = QuoteCache(clock=FakeClock())
        a = QuoteService(cache=cache)
        b = QuoteService(cache=cache)
        ticket = b.submit(SPEC, 96)
        a.quote(SPEC, 96)
        res = b.quote_many([SPEC], 96)
        assert res[0].meta["cache"] == "hit"
        assert b.stats()["service"]["solves"] == 0
        assert ticket.done()
        assert ticket.result().price == res[0].price
        assert b.pending == 0


@pytest.mark.slow
class TestZipfStress:
    """Opt-in (-m slow): a Zipf-distributed stream against a small cache."""

    def test_stream_correct_under_eviction_pressure(self):
        rng = np.random.default_rng(7)
        population = [
            dataclasses.replace(
                SPEC,
                strike=float(k),
                right=Right.PUT if i % 3 == 0 else Right.CALL,
            )
            for i, k in enumerate(np.linspace(90.0, 170.0, 50))
        ]
        svc = QuoteService(cache_size=16)  # forces evictions mid-stream
        ranks = (rng.zipf(1.3, size=500) - 1) % len(population)
        reference = {}
        for r in ranks:
            spec = population[r]
            served = svc.quote(spec, 64)
            if r not in reference:
                reference[r] = price_american(spec, 64).price
            assert served.price == pytest.approx(reference[r], rel=1e-12)
        stats = svc.stats()
        assert stats["cache"]["evictions"] > 0
        assert stats["cache"]["hit_ratio"] > 0.5
        assert stats["service"]["solves"] < len(ranks)
