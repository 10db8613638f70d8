"""ScenarioEngine resilient dispatch under injected faults.

The acceptance contract: under a seeded FaultPlan injecting worker
crashes, per-solve delays past the deadline, and poisoned cells,
``price_grid`` returns *correct* results — bit-identical to the clean run
for every served cell, explicitly-marked timeouts/failures elsewhere —
with zero unhandled exceptions.
"""

import dataclasses
import math

import numpy as np
import pytest

from repro.options.contract import paper_benchmark_spec
from repro.resilience import Deadline, FaultPlan, RetryPolicy
from repro.resilience.faults import CorruptedResult
from repro.resilience.markers import is_served, is_timeout
from repro.risk.engine import ScenarioEngine

SPEC = paper_benchmark_spec()


def strikes(n, lo=100.0, hi=160.0):
    return [
        dataclasses.replace(SPEC, strike=k) for k in np.linspace(lo, hi, n)
    ]


def quiet_retry(**kw):
    """Instant, jitter-free policy so tests never actually sleep."""
    defaults = dict(
        max_attempts=3, base_delay=0.0, jitter=0.0, seed=1,
        sleep=lambda s: None,
    )
    defaults.update(kw)
    return RetryPolicy(**defaults)


@pytest.fixture(scope="module")
def baseline():
    specs = strikes(8)
    return specs, ScenarioEngine(backend="serial").price_grid(specs, 128)


class TestBitIdenticalRecovery:
    @pytest.mark.parametrize("backend,workers", [("serial", 1), ("thread", 2)])
    def test_crashes_recover_bit_identical(
        self, baseline, backend, workers, record_plan
    ):
        specs, clean = baseline
        plan = record_plan(
            FaultPlan(crashes={0: 1, 3: 2, 7: 1}, seed=11), "crash-recovery"
        )
        eng = ScenarioEngine(backend=backend, workers=workers, chunk_size=2)
        res = eng.price_grid(specs, 128, retry=quiet_retry(), fault_plan=plan)
        assert [r.price for r in res.results] == [
            r.price for r in clean.results
        ]
        assert res.meta["resilience"]["retries"] >= 3
        assert res.meta["resilience"]["failed"] == {}

    def test_corruption_detected_and_repriced(self, baseline, record_plan):
        specs, clean = baseline
        plan = record_plan(
            FaultPlan(corrupt={2: 1, 5: 1}, seed=12), "corruption"
        )
        eng = ScenarioEngine(backend="thread", workers=2, chunk_size=3)
        res = eng.price_grid(specs, 128, retry=quiet_retry(), fault_plan=plan)
        assert [r.price for r in res.results] == [
            r.price for r in clean.results
        ]
        assert res.meta["resilience"]["corrupt_detected"] == 2

    @pytest.mark.parametrize("chunk_size", [1, 2, 4])
    def test_same_plan_same_counters_across_backends(
        self, baseline, record_plan, chunk_size
    ):
        # determinism: the fault schedule keys on (cell, attempt) and both
        # executors walk one recovery ladder, so the serial and threaded
        # runs see the identical failure sequence at any chunking
        specs, _ = baseline
        plan = FaultPlan.random(99, len(specs), crash_rate=0.4, attempts=1)
        plan = record_plan(
            dataclasses.replace(plan, crashes={**plan.crashes, 5: 10**6}),
            "cross-backend",
        )
        counters = []
        for backend, workers in (("serial", 1), ("thread", 2)):
            eng = ScenarioEngine(
                backend=backend, workers=workers, chunk_size=chunk_size
            )
            res = eng.price_grid(
                specs, 64, retry=quiet_retry(), fault_plan=plan
            )
            rmeta = res.meta["resilience"]
            counters.append(
                (
                    rmeta["retries"], rmeta["isolated"],
                    rmeta["corrupt_detected"], rmeta["failed"],
                )
            )
        assert counters[0] == counters[1]
        assert list(counters[0][3]) == [5]  # the poisoned cell fails alone


class TestPoisonIsolation:
    def test_poisoned_cell_fails_alone(self, baseline, record_plan):
        specs, clean = baseline
        # cell 4 crashes on every attempt — a permanently poisoned request
        plan = record_plan(FaultPlan(crashes={4: 10**6}, seed=13), "poison")
        eng = ScenarioEngine(backend="thread", workers=2, chunk_size=4)
        res = eng.price_grid(specs, 128, retry=quiet_retry(), fault_plan=plan)
        for i, (r, c) in enumerate(zip(res.results, clean.results)):
            if i == 4:
                assert math.isnan(r.price)
                assert r.meta["failed"]
                assert "InjectedCrash" in r.meta["error"]
            else:
                assert r.price == c.price
        assert 4 in res.meta["resilience"]["failed"]
        assert res.meta["resilience"]["isolated"] >= 1

    def test_without_retry_policy_failures_still_raise(self, baseline):
        # back-compat: resilience off (no retry) keeps the raise-through
        # contract even when a deadline made the dispatch resilient
        specs, _ = baseline
        plan = FaultPlan(crashes={1: 10**6}, seed=14)
        eng = ScenarioEngine(backend="serial")
        with pytest.raises(Exception):
            eng.price_grid(specs, 64, fault_plan=plan)


class TestOneDispatcher:
    """Plain and resilient grids run one loop, so each gains what the
    other had: resilient pool grids report engine counters, and plain
    grids validate the rows they serve."""

    def test_resilient_pool_grid_reports_engine_counters(self, baseline):
        specs, _ = baseline
        eng = ScenarioEngine(backend="thread", workers=2, chunk_size=2)
        plain = eng.price_grid(specs, 128)
        resilient = eng.price_grid(
            specs, 128, deadline=Deadline(3600.0), retry=quiet_retry()
        )
        info = resilient.meta["engine"]
        assert set(info) == set(plain.meta["engine"])
        assert info["advances"] == plain.meta["engine"]["advances"]

    def test_plain_grid_rejects_a_corrupted_row(self, baseline, monkeypatch):
        import repro.risk.engine as engine_mod

        specs, _ = baseline
        real_price_many = engine_mod.price_many

        def nan_first_row(*args, **kwargs):
            rows = real_price_many(*args, **kwargs)
            bad = rows[0].scaled(1.0)
            bad.price = float("nan")
            return [bad, *rows[1:]]

        monkeypatch.setattr(engine_mod, "price_many", nan_first_row)
        with pytest.raises(CorruptedResult):
            ScenarioEngine(backend="serial").price_grid(specs, 64)


class TestDeadlines:
    def test_serial_preemption_marks_remaining_cells(self, fake_clock, baseline):
        specs, clean = baseline
        # the fake clock only moves when the injected delay "sleeps" on it,
        # so exactly the cells before the delayed one are served
        plan = FaultPlan(delays={3: 5.0}, sleep=fake_clock.advance, seed=15)
        deadline = Deadline(1.0, clock=fake_clock)
        eng = ScenarioEngine(backend="serial", chunk_size=1)
        res = eng.price_grid(
            specs, 128, deadline=deadline, retry=quiet_retry(),
            fault_plan=plan,
        )
        for i, (r, c) in enumerate(zip(res.results, clean.results)):
            if i < 3:
                assert r.price == c.price  # served before the budget blew
            else:
                assert is_timeout(r)
        assert res.meta["resilience"]["timeouts"] == [3, 4, 5, 6, 7]

    def test_serial_preemption_is_chunk_granular(self, fake_clock, baseline):
        specs, clean = baseline
        # the delayed cell 3 shares chunk [2, 4) with cell 2: the chunk's
        # one price_many call is preempted mid-solve and returns nothing,
        # so the chunk times out together
        plan = FaultPlan(delays={3: 5.0}, sleep=fake_clock.advance, seed=15)
        deadline = Deadline(1.0, clock=fake_clock)
        eng = ScenarioEngine(backend="serial", chunk_size=2)
        res = eng.price_grid(
            specs, 128, deadline=deadline, retry=quiet_retry(),
            fault_plan=plan,
        )
        for i, (r, c) in enumerate(zip(res.results, clean.results)):
            if i < 2:
                assert r.price == c.price  # earlier chunk stays bit-exact
            else:
                assert is_timeout(r)
        assert res.meta["resilience"]["timeouts"] == [2, 3, 4, 5, 6, 7]
        assert res.results[2].meta["detail"] == "preempted mid-solve"

    def test_expired_deadline_marks_everything(self, fake_clock):
        specs = strikes(4)
        fake_clock.advance(100.0)
        deadline = Deadline(1.0, clock=fake_clock)
        fake_clock.advance(2.0)
        eng = ScenarioEngine(backend="serial")
        res = eng.price_grid(specs, 64, deadline=deadline)
        assert all(is_timeout(r) for r in res.results)
        assert res.meta["resilience"]["timeouts"] == [0, 1, 2, 3]

    def test_pooled_partial_results_on_real_clock(self, baseline, record_plan):
        # wall-clock version of the same contract: slow cells miss the
        # budget and come back marked; fast cells keep bit-exact prices
        specs, clean = baseline
        plan = record_plan(
            FaultPlan(delays={6: 2.0, 7: 2.0}, seed=16), "pooled-deadline"
        )
        eng = ScenarioEngine(backend="thread", workers=2, chunk_size=1)
        res = eng.price_grid(
            specs, 128, deadline=Deadline(0.8), retry=quiet_retry(),
            fault_plan=plan,
        )
        served = [
            i for i, r in enumerate(res.results) if is_served(r)
        ]
        for i in served:
            assert res.results[i].price == clean.results[i].price
        for i, r in enumerate(res.results):
            if i not in served:
                assert is_timeout(r)
        assert not is_served(res.results[7])  # 2 s delay vs 0.8 s budget


class TestChaosAcceptance:
    def test_crashes_delays_and_poison_together(self, baseline, record_plan):
        """The ISSUE acceptance scenario in one grid: a worker crash
        (recovers), a delay past the deadline (times out), and a poisoned
        cell (fails alone) — zero unhandled exceptions, every cell
        accounted for."""
        specs, clean = baseline
        plan = record_plan(
            FaultPlan(
                crashes={1: 1, 5: 10**6}, delays={6: 3.0}, seed=17
            ),
            "chaos",
        )
        eng = ScenarioEngine(backend="thread", workers=2, chunk_size=1)
        res = eng.price_grid(
            specs, 128, deadline=Deadline(1.0), retry=quiet_retry(),
            fault_plan=plan,
        )
        rmeta = res.meta["resilience"]
        for i, (r, c) in enumerate(zip(res.results, clean.results)):
            if is_served(r):
                assert r.price == c.price, f"cell {i} drifted"
            else:
                assert is_timeout(r) or r.meta.get("failed")
        assert not is_served(res.results[6])  # delayed past budget
        assert not is_served(res.results[5])  # poisoned
        assert rmeta["retries"] >= 1  # cell 1 recovered
        assert res.results[1].price == clean.results[1].price


class TestSerialFallback:
    def test_pool_unavailable_warns_once_and_records_reason(
        self, baseline, monkeypatch
    ):
        import repro.risk.engine as engine_mod

        specs, clean = baseline

        def broken_pool(self):
            raise OSError("no semaphores on this host")

        monkeypatch.setattr(
            engine_mod.ScenarioEngine, "_make_pool", broken_pool
        )
        monkeypatch.setattr(engine_mod, "_POOL_FALLBACK_WARNED", False)
        eng = ScenarioEngine(backend="thread", workers=4, chunk_size=2)
        with pytest.warns(RuntimeWarning, match="fell back"):
            res = eng.price_grid(specs, 128)
        assert res.meta["backend"] == "serial"
        assert res.meta["fallback_reason"].startswith("pool_unavailable")
        assert "no semaphores" in res.meta["fallback_reason"]
        # identical results on the fallback path
        assert [r.price for r in res.results] == [
            r.price for r in clean.results
        ]
        # second fallback: meta only, no second warning
        import warnings as _w

        with _w.catch_warnings():
            _w.simplefilter("error")
            res2 = eng.price_grid(specs, 128)
        assert res2.meta["fallback_reason"].startswith("pool_unavailable")

    def test_benign_serial_reasons_recorded_without_warning(self):
        import warnings as _w

        specs = strikes(4)
        eng = ScenarioEngine(backend="thread", workers=1)
        with _w.catch_warnings():
            _w.simplefilter("error")
            res = eng.price_grid(specs, 64)
        assert res.meta["fallback_reason"] == "workers=1"
        eng2 = ScenarioEngine(backend="thread", workers=2, chunk_size=100)
        with _w.catch_warnings():
            _w.simplefilter("error")
            res2 = eng2.price_grid(specs, 64)
        assert res2.meta["fallback_reason"] == "single_chunk"

    def test_requested_serial_is_not_a_fallback(self):
        res = ScenarioEngine(backend="serial").price_grid(strikes(4), 64)
        assert "fallback_reason" not in res.meta


class TestProcessPoolRebuild:
    def test_exit_crash_rebuilds_pool_bit_identical(self, baseline, record_plan):
        # a REAL dead worker: os._exit in the child drives
        # BrokenProcessPool; the dispatcher rebuilds and re-prices only
        # the dead worker's chunks
        specs, clean = baseline
        plan = record_plan(
            FaultPlan(crashes={2: 1}, crash_style="exit", seed=18),
            "exit-crash",
        )
        eng = ScenarioEngine(backend="process", workers=2, chunk_size=2)
        res = eng.price_grid(specs, 64, retry=quiet_retry(), fault_plan=plan)
        assert res.meta["resilience"]["pool_rebuilds"] >= 1
        clean64 = ScenarioEngine(backend="serial").price_grid(specs, 64)
        assert [r.price for r in res.results] == [
            r.price for r in clean64.results
        ]
