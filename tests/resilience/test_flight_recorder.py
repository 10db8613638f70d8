"""Flight recorder: the journal reconstructs every recovery story.

The contract mirrors ``res.meta["resilience"]``: each incident the
dispatcher handles (retry, pool rebuild, chunk isolation, corruption,
timeout marker, terminal failure) appears in the journal exactly once,
stamped with the span id of the dispatch span it happened under — so a
trace tree and a journal slice can be correlated after the fact.  The
recorder itself must never perturb prices: every chaos grid is
bit-compared against the same plan replayed without telemetry.
"""

import dataclasses
import warnings

import numpy as np
import pytest

from repro.obs import Telemetry
from repro.options.contract import Right, paper_benchmark_spec
from repro.resilience import BreakerPolicy, Deadline, FaultPlan, RetryPolicy
from repro.resilience.markers import is_served, is_timeout
from repro.risk.engine import ScenarioEngine
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


def journal_counts(tel):
    return tel.journal.counts()


def assert_journal_matches_rmeta(tel, rmeta):
    """Every incident counter in the resilience meta has exactly one
    journal event per increment — the recovery story is complete."""
    counts = journal_counts(tel)
    assert counts.get("retry", 0) == rmeta["retries"]
    assert counts.get("pool_rebuild", 0) == rmeta["pool_rebuilds"]
    assert counts.get("isolate", 0) == rmeta["isolated"]
    assert counts.get("corrupt_detected", 0) == rmeta["corrupt_detected"]
    assert counts.get("timeout_marker", 0) == len(rmeta["timeouts"])
    assert counts.get("cell_failed", 0) == len(rmeta["failed"])


def dispatch_span_id(tel):
    root = tel.tracer.last_trace()
    assert root["name"] == "grid"
    (dispatch,) = [c for c in root["children"] if c["name"] == "dispatch"]
    return dispatch["id"]


@pytest.fixture(scope="module")
def baseline():
    specs = strikes(8)
    return specs, ScenarioEngine(backend="serial").price_grid(specs, 128)


class TestChaosRecoveryStory:
    def test_journal_reconstructs_thread_chaos_exactly_once(
        self, baseline, record_plan
    ):
        """The ISSUE acceptance scenario: crash (recovers), poison
        (isolated, fails alone), delay past the deadline (times out) —
        and the journal tells the whole story, one event per incident."""
        specs, clean = baseline

        def run(telemetry):
            plan = record_plan(
                FaultPlan(
                    crashes={1: 1, 5: 10**6}, delays={6: 3.0}, seed=21
                ),
                "flight-recorder-chaos",
            )
            eng = ScenarioEngine(
                backend="thread", workers=2, chunk_size=1,
                telemetry=telemetry,
            )
            return eng.price_grid(
                specs, 128, deadline=Deadline(1.0), retry=quiet_retry(),
                fault_plan=plan,
            )

        tel = Telemetry()
        res = run(tel)
        rmeta = res.meta["resilience"]
        assert rmeta["retries"] >= 1  # cell 1 recovered
        assert not is_served(res.results[5])  # poisoned
        assert_journal_matches_rmeta(tel, rmeta)

        # when anything timed out, the budget blew exactly once
        deadlines = tel.journal.events("deadline_expired")
        assert len(deadlines) == (1 if rmeta["timeouts"] else 0)

        # every incident happened under the dispatch span of this grid
        did = dispatch_span_id(tel)
        incidents = [
            e for e in tel.journal.events()
            if e.type in (
                "retry", "isolate", "cell_failed", "timeout_marker",
                "deadline_expired", "corrupt_detected",
            )
        ]
        assert incidents, "chaos run produced no journal events"
        assert all(e.span_id == did for e in incidents)

        # each timeout marker names its cell, matching rmeta
        marked = sorted(
            e.fields["cell"] for e in tel.journal.events("timeout_marker")
        )
        assert marked == rmeta["timeouts"]

        # served cells stay bit-exact despite the recorder
        for i, (r, c) in enumerate(zip(res.results, clean.results)):
            if is_served(r):
                assert r.price == c.price, f"cell {i} drifted"

    def test_recorder_never_changes_prices(self, baseline, record_plan):
        specs, _ = baseline
        with_tel = ScenarioEngine(
            backend="thread", workers=2, chunk_size=2, telemetry=Telemetry()
        ).price_grid(
            specs, 96, retry=quiet_retry(),
            fault_plan=record_plan(
                FaultPlan(crashes={0: 1, 4: 2}, corrupt={6: 1}, seed=22),
                "recorder-on",
            ),
        )
        without = ScenarioEngine(
            backend="thread", workers=2, chunk_size=2
        ).price_grid(
            specs, 96, retry=quiet_retry(),
            fault_plan=FaultPlan(crashes={0: 1, 4: 2}, corrupt={6: 1}, seed=22),
        )
        assert [r.price for r in with_tel.results] == [
            r.price for r in without.results
        ]
        assert with_tel.meta["resilience"] == without.meta["resilience"]


class TestSerialIncidents:
    def test_retry_corruption_and_failure_events(
        self, baseline, record_plan
    ):
        specs, clean = baseline
        tel = Telemetry()
        plan = record_plan(
            FaultPlan(
                crashes={1: 1, 3: 10**6}, corrupt={5: 1}, seed=23
            ),
            "serial-incidents",
        )
        eng = ScenarioEngine(backend="serial", telemetry=tel)
        res = eng.price_grid(
            specs, 128, retry=quiet_retry(), fault_plan=plan
        )
        rmeta = res.meta["resilience"]
        assert rmeta["corrupt_detected"] == 1
        assert list(rmeta["failed"]) == [3]
        assert_journal_matches_rmeta(tel, rmeta)
        # the event fields name the cells, not just the counts
        assert [e.fields["cell"] for e in tel.journal.events("cell_failed")] \
            == [3]
        corrupt = tel.journal.events("corrupt_detected")
        assert [e.fields["cell"] for e in corrupt] == [5]
        retried = {
            cell
            for e in tel.journal.events("retry")
            for cell in range(e.fields["lo"], e.fields["hi"])
        }
        assert {1, 5}.issubset(retried) or {1}.issubset(retried)
        # cell 3's exhausted attempts also appear as retries
        assert journal_counts(tel)["retry"] == rmeta["retries"]
        for i, r in enumerate(res.results):
            if is_served(r):
                assert r.price == clean.results[i].price

    def test_deadline_expiry_announced_once_with_markers(
        self, fake_clock, record_plan
    ):
        specs = strikes(8)
        tel = Telemetry()
        plan = record_plan(
            FaultPlan(delays={3: 5.0}, sleep=fake_clock.advance, seed=24),
            "serial-deadline",
        )
        eng = ScenarioEngine(backend="serial", chunk_size=1, telemetry=tel)
        res = eng.price_grid(
            specs, 96, deadline=Deadline(1.0, clock=fake_clock),
            retry=quiet_retry(), fault_plan=plan,
        )
        rmeta = res.meta["resilience"]
        assert rmeta["timeouts"] == [3, 4, 5, 6, 7]
        (expired,) = tel.journal.events("deadline_expired")
        assert expired.fields == {"budget_s": 1.0, "first_cell": 3}
        markers = tel.journal.events("timeout_marker")
        assert [e.fields["cell"] for e in markers] == [3, 4, 5, 6, 7]
        # the mid-solve preemption reads differently from the pre-checks
        assert markers[0].fields["detail"] == "preempted mid-solve"
        assert all(
            m.fields["detail"] == "budget spent before solve"
            for m in markers[1:]
        )
        assert_journal_matches_rmeta(tel, rmeta)

    def test_deadline_preempts_a_whole_chunk(self, fake_clock, record_plan):
        # a chunk is one price_many call: the chunk holding the delayed
        # cell times out whole, earlier chunks keep their bit-exact prices
        specs = strikes(8)
        clean = ScenarioEngine(backend="serial").price_grid(specs, 96)
        tel = Telemetry()
        plan = record_plan(
            FaultPlan(delays={3: 5.0}, sleep=fake_clock.advance, seed=24),
            "serial-deadline-chunked",
        )
        eng = ScenarioEngine(backend="serial", chunk_size=2, telemetry=tel)
        res = eng.price_grid(
            specs, 96, deadline=Deadline(1.0, clock=fake_clock),
            retry=quiet_retry(), fault_plan=plan,
        )
        rmeta = res.meta["resilience"]
        assert [r.price for r in res.results[:2]] == [
            r.price for r in clean.results[:2]
        ]
        assert rmeta["timeouts"] == [2, 3, 4, 5, 6, 7]
        (expired,) = tel.journal.events("deadline_expired")
        assert expired.fields == {"budget_s": 1.0, "first_cell": 2}
        markers = tel.journal.events("timeout_marker")
        assert [e.fields["cell"] for e in markers] == [2, 3, 4, 5, 6, 7]
        assert [m.fields["detail"] for m in markers[:2]] == [
            "preempted mid-solve"
        ] * 2
        assert all(
            m.fields["detail"] == "budget spent before solve"
            for m in markers[2:]
        )
        assert_journal_matches_rmeta(tel, rmeta)


class TestProcessPoolRebuild:
    def test_rebuild_event_correlates_with_rmeta(
        self, baseline, record_plan
    ):
        specs, _ = baseline
        tel = Telemetry()
        plan = record_plan(
            FaultPlan(crashes={2: 1}, crash_style="exit", seed=25),
            "recorded-exit-crash",
        )
        eng = ScenarioEngine(
            backend="process", workers=2, chunk_size=2, telemetry=tel
        )
        res = eng.price_grid(
            specs, 64, retry=quiet_retry(), fault_plan=plan
        )
        rmeta = res.meta["resilience"]
        assert rmeta["pool_rebuilds"] >= 1
        assert_journal_matches_rmeta(tel, rmeta)
        rebuilds = tel.journal.events("pool_rebuild")
        assert [e.fields["generation"] for e in rebuilds] == list(
            range(1, len(rebuilds) + 1)
        )
        did = dispatch_span_id(tel)
        assert all(e.span_id == did for e in rebuilds)
        clean64 = ScenarioEngine(backend="serial").price_grid(specs, 64)
        assert [r.price for r in res.results] == [
            r.price for r in clean64.results
        ]


class TestPoolFallbackCoverage:
    def _fallback_count(self, tel, reason):
        sample = f'risk_pool_fallbacks_total{{reason="{reason}"}}'
        for line in tel.registry.to_prometheus().splitlines():
            if line.startswith(sample):
                return float(line.rsplit(" ", 1)[1])
        return 0.0

    def test_benign_workers_1_counted_and_journalled_silently(self):
        tel = Telemetry()
        eng = ScenarioEngine(backend="thread", workers=1, telemetry=tel)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = eng.price_grid(strikes(4), 64)
        assert res.meta["fallback_reason"] == "workers=1"
        assert self._fallback_count(tel, "workers=1") == 1.0
        (ev,) = tel.journal.events("pool_fallback")
        assert ev.fields["reason"] == "workers=1"
        assert ev.fields["backend"] == "thread"
        assert ev.fields["cells"] == 4

    def test_benign_single_chunk_counted_and_journalled_silently(self):
        tel = Telemetry()
        eng = ScenarioEngine(
            backend="thread", workers=2, chunk_size=100, telemetry=tel
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = eng.price_grid(strikes(4), 64)
        assert res.meta["fallback_reason"] == "single_chunk"
        assert self._fallback_count(tel, "single_chunk") == 1.0
        (ev,) = tel.journal.events("pool_fallback")
        assert ev.fields["reason"] == "single_chunk"

    def test_pool_unavailable_still_warns_and_is_counted(self, monkeypatch):
        import repro.risk.engine as engine_mod

        def broken_pool(self):
            raise OSError("no semaphores on this host")

        monkeypatch.setattr(
            engine_mod.ScenarioEngine, "_make_pool", broken_pool
        )
        monkeypatch.setattr(engine_mod, "_POOL_FALLBACK_WARNED", False)
        tel = Telemetry()
        eng = ScenarioEngine(
            backend="thread", workers=4, chunk_size=2, telemetry=tel
        )
        with pytest.warns(RuntimeWarning, match="fell back"):
            eng.price_grid(strikes(4), 64)
        assert self._fallback_count(tel, "pool_unavailable") == 1.0
        (ev,) = tel.journal.events("pool_fallback")
        assert ev.fields["reason"].startswith("pool_unavailable")
        assert "no semaphores" in ev.fields["reason"]

    def test_requested_serial_emits_nothing(self):
        tel = Telemetry()
        ScenarioEngine(backend="serial", telemetry=tel).price_grid(
            strikes(4), 64
        )
        assert tel.journal.events("pool_fallback") == []
        assert self._fallback_count(tel, "workers=1") == 0.0

    def test_every_grid_repeats_the_event(self):
        # fallbacks are per-grid facts: two degraded grids, two events
        tel = Telemetry()
        eng = ScenarioEngine(backend="thread", workers=1, telemetry=tel)
        eng.price_grid(strikes(2), 64)
        eng.price_grid(strikes(2), 64)
        assert len(tel.journal.events("pool_fallback")) == 2
        assert self._fallback_count(tel, "workers=1") == 2.0


class TestBreakerTransitions:
    def test_trip_probe_and_close_are_journalled(self, fake_clock):
        tel = Telemetry()
        svc = QuoteService(
            model="bsm-fd", telemetry=tel, clock=fake_clock,
            breaker=BreakerPolicy(failure_threshold=2, reset_timeout=30.0),
        )
        for _ in range(2):
            with pytest.raises(Exception):
                svc.quote(BAD_BSM_PUT, 8)
        trans = [
            (e.fields["old"], e.fields["new"])
            for e in tel.journal.events("breaker_transition")
        ]
        assert trans == [("closed", "open")]
        fake_clock.advance(30.0)
        svc.quote(GOOD_BSM_PUT, 8)  # half-open probe succeeds
        trans = [
            (e.fields["old"], e.fields["new"])
            for e in tel.journal.events("breaker_transition")
        ]
        assert trans == [
            ("closed", "open"),
            ("open", "half_open"),
            ("half_open", "closed"),
        ]
        assert all(
            e.fields["bucket"] == "bsm-fd/fft/8"
            for e in tel.journal.events("breaker_transition")
        )
