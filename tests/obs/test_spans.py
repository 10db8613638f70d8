"""Span tracing: nesting, attributes, breakdown math, null fast path."""

import sys

import pytest

from repro.obs import NULL_SPAN, NULL_TRACER, Telemetry, Tracer


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


class TestNesting:
    def test_children_attach_to_the_open_parent(self):
        clock = FakeClock()
        tr = Tracer(clock=clock)
        with tr.span("solve"):
            with tr.span("round"):
                with tr.span("advance"):
                    clock.advance(1.0)
            with tr.span("round"):
                clock.advance(2.0)
        root = tr.last_trace()
        assert root["name"] == "solve"
        names = [c["name"] for c in root["children"]]
        assert names == ["round", "round"]
        assert root["children"][0]["children"][0]["name"] == "advance"

    def test_attributes_at_open_and_via_set(self):
        tr = Tracer(clock=FakeClock())
        with tr.span("quote", steps=256) as sp:
            sp.set(outcome="miss", rows=7)
        trace = tr.last_trace()
        assert trace["attrs"] == {"steps": 256, "outcome": "miss", "rows": 7}

    def test_exception_is_recorded_and_reraised(self):
        tr = Tracer(clock=FakeClock())
        with pytest.raises(ValueError):
            with tr.span("solve"):
                raise ValueError("boom")
        assert tr.last_trace()["attrs"]["error"] == "ValueError"

    def test_sequential_roots_are_retained_up_to_cap(self):
        tr = Tracer(clock=FakeClock(), max_traces=2)
        for i in range(4):
            with tr.span(f"r{i}"):
                pass
        names = [t["name"] for t in tr.to_json()["traces"]]
        assert names == ["r2", "r3"]

    def test_child_retention_cap_counts_drops(self):
        tr = Tracer(clock=FakeClock(), max_children=2)
        with tr.span("solve"):
            for _ in range(5):
                with tr.span("round"):
                    pass
        root = tr.last_trace()
        assert len(root["children"]) == 2
        assert root["dropped_children"] == 3
        # the aggregate still saw every round
        assert tr.phase_breakdown()["round"]["count"] == 5


class TestBreakdown:
    def test_total_and_self_time_partition_the_wall(self):
        clock = FakeClock()
        tr = Tracer(clock=clock)
        with tr.span("solve"):
            clock.advance(1.0)  # solve self time
            with tr.span("advance"):
                clock.advance(3.0)
            clock.advance(0.5)  # more solve self time
        bd = tr.phase_breakdown()
        assert bd["solve"]["total_s"] == pytest.approx(4.5)
        assert bd["solve"]["self_s"] == pytest.approx(1.5)
        assert bd["advance"]["total_s"] == pytest.approx(3.0)
        # self times over all phases sum exactly to the root wall time
        total_self = sum(v["self_s"] for v in bd.values())
        assert total_self == pytest.approx(4.5)

    def test_breakdown_aggregates_across_traces(self):
        clock = FakeClock()
        tr = Tracer(clock=clock)
        for _ in range(3):
            with tr.span("quote"):
                clock.advance(2.0)
        bd = tr.phase_breakdown()
        assert bd["quote"]["count"] == 3
        assert bd["quote"]["total_s"] == pytest.approx(6.0)

    def test_reset_clears_traces_and_aggregates(self):
        tr = Tracer(clock=FakeClock())
        with tr.span("x"):
            pass
        tr.reset()
        assert tr.last_trace() is None
        assert tr.phase_breakdown() == {}


class TestNullTracer:
    def test_null_span_is_one_shared_reentrant_object(self):
        a = NULL_TRACER.span("solve")
        b = NULL_TRACER.span("quote", steps=9)
        assert a is b is NULL_SPAN
        with NULL_SPAN as outer:
            with NULL_SPAN as inner:
                inner.set(rows=3)
            assert outer is NULL_SPAN
        assert NULL_TRACER.last_trace() is None
        assert NULL_TRACER.phase_breakdown() == {}
        assert NULL_TRACER.to_json() == {"traces": [], "breakdown": {}}

    def test_null_span_usage_does_not_allocate(self):
        span = NULL_TRACER.span("warm")
        for _ in range(100):
            with span:
                span.set(a=1)
        before = sys.getallocatedblocks()
        for _ in range(1000):
            with span:
                span.set(a=1)
        after = sys.getallocatedblocks()
        assert after - before <= 2


class TestSpanIds:
    def test_ids_are_unique_and_stable_in_as_dict(self):
        tr = Tracer(clock=FakeClock())
        with tr.span("grid") as g:
            with tr.span("dispatch") as d:
                pass
        assert g.id != d.id
        root = tr.last_trace()
        assert root["id"] == g.id
        assert root["children"][0]["id"] == d.id

    def test_ids_count_per_tracer(self):
        a, b = Tracer(clock=FakeClock()), Tracer(clock=FakeClock())
        assert a.span("x").id == 1
        assert a.span("y").id == 2
        assert b.span("z").id == 1  # independent sequence per tracer

    def test_null_span_id_is_none(self):
        assert NULL_SPAN.id is None


class TestTelemetryCaps:
    """Retention caps are reachable through the Telemetry facade."""

    def test_constructor_caps_reach_the_tracer(self):
        tel = Telemetry(clock=FakeClock(), max_traces=3, max_children=2)
        assert tel.tracer.max_traces == 3
        assert tel.tracer.max_children == 2
        for i in range(5):
            with tel.span(f"r{i}"):
                for child in ("a", "b", "c"):
                    with tel.span(child):
                        pass
        forest = tel.tracer.to_json()["traces"]
        assert [t["name"] for t in forest] == ["r2", "r3", "r4"]
        assert all(t["dropped_children"] == 1 for t in forest)

    def test_defaults_match_the_pre_parameterised_behaviour(self):
        tel = Telemetry(clock=FakeClock())
        assert tel.tracer.max_traces == 16
        assert tel.tracer.max_children == 256
