"""Span tracing: nested wall-time spans with attributes.

The span taxonomy (docs/DESIGN.md §9) mirrors the call structure of the
stack rather than inventing a new vocabulary::

    quote  -> canonicalize | cache_lookup | bucket_solve
    solve  -> lockstep_round -> advance_batch
    grid   -> dispatch -> chunk

Spans are deliberately coarse — one per *round* or *phase*, never one per
row — so tracing stays affordable on the hot solve path.  A
:class:`Tracer` keeps a per-thread stack of open spans, retains the last
few finished root traces for :meth:`Tracer.to_json`, and aggregates
``(count, total, self)`` wall time per span name continuously so
:meth:`Tracer.phase_breakdown` answers "where did the time go?" without
replaying traces.

Disabled tracing goes through :data:`NULL_TRACER`, whose ``span()``
returns one shared, reentrant, do-nothing context manager — no
allocation, no clock read.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Callable, Optional

Clock = Callable[[], float]


class Span:
    """One timed region.  Use as a context manager::

        with tracer.span("advance_batch", rows=12) as sp:
            ...
            sp.set(points=n)

    ``set()`` adds attributes after entry; nesting happens automatically —
    a span opened while another is running on the same thread becomes its
    child.  ``id`` is unique within the owning tracer; the event journal
    stamps it on every event emitted while the span is current, so journal
    lines correlate with trace trees (docs/DESIGN.md §9).
    """

    __slots__ = (
        "id", "name", "attrs", "start", "end", "children", "dropped",
        "child_time", "_tracer",
    )

    def __init__(self, tracer: "Tracer", name: str, attrs: dict, id: int = 0):
        self.id = id
        self.name = name
        self.attrs = attrs
        self.start = 0.0
        self.end = 0.0
        self.children: list[Span] = []
        self.dropped = 0  # children beyond the retention cap
        self.child_time = 0.0
        self._tracer = tracer

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """Wall time not attributed to child spans (includes dropped
        children's time only when they were never opened as spans)."""
        return self.duration - self.child_time

    def set(self, **attrs) -> None:
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        self._tracer._push(self)
        self.start = self._tracer.clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.end = self._tracer.clock()
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        self._tracer._pop(self)

    def as_dict(self) -> dict:
        d = {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
        }
        if self.attrs:
            d["attrs"] = dict(self.attrs)
        if self.children:
            d["children"] = [c.as_dict() for c in self.children]
        if self.dropped:
            d["dropped_children"] = self.dropped
        return d


class _TraceLocal(threading.local):
    def __init__(self):
        self.stack: list[Span] = []


class Tracer:
    """Factory and sink for :class:`Span`.

    ``max_children`` bounds retained children per span and
    ``max_traces`` bounds retained root traces, so a long-lived service
    cannot grow an unbounded trace tree; the per-name aggregate is updated
    for *every* span regardless of retention.  Both caps are constructor
    parameters (reachable through :class:`repro.obs.Telemetry` too) —
    exemplar capture of deep solves (``steps=2048`` means thousands of
    lockstep rounds) raises ``max_children`` above the service default.
    """

    def __init__(
        self,
        clock: Clock = time.perf_counter,
        max_children: int = 256,
        max_traces: int = 16,
    ):
        self.clock = clock
        self.max_children = max_children
        self.max_traces = max_traces
        self._local = _TraceLocal()
        self._lock = threading.Lock()
        self._roots: list[Span] = []
        self._ids = itertools.count(1)
        # name -> [count, total_s, self_s]
        self._agg: dict[str, list] = {}

    def span(self, name: str, **attrs) -> Span:
        return Span(self, name, attrs, id=next(self._ids))

    # ------------------------------------------------------------------ #
    def _push(self, span: Span) -> None:
        self._local.stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = self._local.stack
        # tolerate exotic exits (generators finalised out of order): pop
        # back to this span instead of asserting strict nesting
        while stack and stack[-1] is not span:
            stack.pop()
        if stack:
            stack.pop()
        parent = stack[-1] if stack else None
        with self._lock:
            a = self._agg.get(span.name)
            if a is None:
                a = self._agg[span.name] = [0, 0.0, 0.0]
            a[0] += 1
            a[1] += span.duration
            a[2] += span.self_time
            if parent is not None:
                parent.child_time += span.duration
                if len(parent.children) < self.max_children:
                    parent.children.append(span)
                else:
                    parent.dropped += 1
            else:
                self._roots.append(span)
                if len(self._roots) > self.max_traces:
                    del self._roots[0]

    # ------------------------------------------------------------------ #
    def current(self) -> Optional[Span]:
        stack = self._local.stack
        return stack[-1] if stack else None

    def last_trace(self) -> Optional[dict]:
        with self._lock:
            return self._roots[-1].as_dict() if self._roots else None

    def to_json(self) -> dict:
        """All retained root traces plus the per-name breakdown."""
        with self._lock:
            return {
                "traces": [r.as_dict() for r in self._roots],
                "breakdown": self._breakdown_locked(),
            }

    def phase_breakdown(self) -> dict:
        """``{name: {count, total_s, self_s}}`` over *all* spans ever
        finished (not just retained traces)."""
        with self._lock:
            return self._breakdown_locked()

    def _breakdown_locked(self) -> dict:
        return {
            name: {"count": a[0], "total_s": a[1], "self_s": a[2]}
            for name, a in sorted(self._agg.items())
        }

    def reset(self) -> None:
        with self._lock:
            self._roots.clear()
            self._agg.clear()


class _NullSpan:
    """Shared reentrant no-op span."""

    __slots__ = ()

    id = None
    name = ""
    attrs: dict = {}
    duration = 0.0

    def set(self, **attrs) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


NULL_SPAN = _NullSpan()


class NullTracer:
    """Do-nothing tracer for disabled telemetry."""

    clock = staticmethod(time.perf_counter)

    def span(self, name: str, **attrs) -> _NullSpan:
        return NULL_SPAN

    def current(self) -> None:
        return None

    def last_trace(self) -> None:
        return None

    def to_json(self) -> dict:
        return {"traces": [], "breakdown": {}}

    def phase_breakdown(self) -> dict:
        return {}

    def reset(self) -> None:
        pass


NULL_TRACER = NullTracer()
