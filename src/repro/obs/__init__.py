"""Unified telemetry layer: metrics registry, span tracing, exporters.

One :class:`Telemetry` object carries a :class:`MetricsRegistry` and a
:class:`Tracer` through the whole stack — engine, lattice dispatcher, risk
dispatch, quote service, breakers.  Construction::

    from repro.obs import Telemetry

    tel = Telemetry()                      # enabled, perf_counter clock
    svc = QuoteService("bs", "fft", telemetry=tel)
    ... serve traffic ...
    print(tel.registry.to_prometheus())
    print(tel.tracer.phase_breakdown())

**The disabled convention.**  Components accept ``telemetry=None`` *or*
a disabled handle and normalise both to plain ``None`` via
:func:`active`; hot loops then guard with ``if tel is not None`` and pay
a single attribute test when telemetry is off — this is what keeps the
disabled-mode overhead inside the ≤2% budget gated by
``benchmarks/bench_obs.py``.  :meth:`Telemetry.disabled` exists for call
sites that want a real object with null instruments (tests, optional
wiring) rather than ``None``.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from .events import (  # noqa: F401  (re-exported)
    Event,
    EventJournal,
    NULL_JOURNAL,
    NullJournal,
)
from .registry import (  # noqa: F401  (re-exported)
    BUCKET_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_INSTRUMENT,
    NULL_REGISTRY,
    NullRegistry,
    bucket_index,
)
from .spans import (  # noqa: F401  (re-exported)
    NULL_SPAN,
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
)
from .traceexport import (  # noqa: F401  (re-exported)
    chrome_trace,
    merge_chrome_traces,
    validate_chrome_trace,
    write_chrome_trace,
)

Clock = Callable[[], float]


class Telemetry:
    """Registry + tracer + event journal sharing one injectable clock.

    ``max_traces`` / ``max_children`` bound the tracer's retention
    (:class:`~repro.obs.spans.Tracer`); ``journal_size`` bounds the
    flight recorder's ring buffer (:class:`~repro.obs.events.EventJournal`).
    Defaults match the pre-flight-recorder behaviour.
    """

    def __init__(
        self,
        enabled: bool = True,
        clock: Clock = time.perf_counter,
        max_traces: int = 16,
        max_children: int = 256,
        journal_size: int = 1024,
    ):
        self.enabled = enabled
        self.clock = clock
        if enabled:
            self.registry = MetricsRegistry(clock=clock)
            self.tracer = Tracer(
                clock=clock, max_traces=max_traces, max_children=max_children
            )
            self.journal = EventJournal(
                maxlen=journal_size, clock=clock, tracer=self.tracer
            )
        else:
            self.registry = NULL_REGISTRY
            self.tracer = NULL_TRACER
            self.journal = NULL_JOURNAL

    @classmethod
    def disabled(cls) -> "Telemetry":
        return cls(enabled=False)

    # Convenience passthroughs — the facade is what components receive,
    # so the common verbs live here too.
    def counter(self, name, labels=None, help=None):
        return self.registry.counter(name, labels, help)

    def gauge(self, name, labels=None, help=None):
        return self.registry.gauge(name, labels, help)

    def histogram(self, name, labels=None, help=None):
        return self.registry.histogram(name, labels, help)

    def span(self, name, **attrs):
        return self.tracer.span(name, **attrs)

    def emit(self, etype, **fields):
        return self.journal.emit(etype, **fields)

    def snapshot(self) -> dict:
        return self.registry.snapshot()

    def to_prometheus(self) -> str:
        return self.registry.to_prometheus()


def active(telemetry: Optional[Telemetry]) -> Optional[Telemetry]:
    """Normalise a telemetry argument: a disabled handle becomes ``None``
    so hot paths test one reference instead of calling null methods."""
    if telemetry is not None and telemetry.enabled:
        return telemetry
    return None


__all__ = [
    "Telemetry",
    "active",
    "Event",
    "EventJournal",
    "NullJournal",
    "NULL_JOURNAL",
    "chrome_trace",
    "merge_chrome_traces",
    "validate_chrome_trace",
    "write_chrome_trace",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "NULL_INSTRUMENT",
    "Counter",
    "Gauge",
    "Histogram",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    "NULL_SPAN",
    "BUCKET_BOUNDS",
    "bucket_index",
]
