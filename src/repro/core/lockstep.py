"""The solver driver for generator-style solvers (docs/DESIGN.md §7).

The trapezoid solvers are data-dependent: each linear advance's window
depends on the divider the previous advance revealed, so one solve is an
inherently *sequential* chain of advances.  Different solves, however, are
independent — and a scenario grid, a Greek bump grid or a coalesced
service bucket is exactly B such chains.  This module turns those B
Python-level chains into a handful of wide vectorized transforms:

* each solver is written as a **generator** that ``yield``s
  :class:`AdvanceRequest` objects (the linear advance it needs next) and
  receives the values back — the solver never touches an engine.  Its
  naive base-case rows run inline between advances (docs/DESIGN.md §7.6);
* :func:`drive_lockstep` services B generators *in rounds*: every round it
  answers the one advance each live solver is blocked on with a single
  :meth:`~repro.core.fftstencil.AdvanceEngine.advance_batch` (one batched
  ``rfft``/row-multiply/``irfft`` per round) instead of B Python-level
  calls.  A lone solve is the B = 1 case of the same rounds.

Because a batched real FFT transforms each row exactly as the 1-D
transform would (verified by the bit-agreement tests), a solve's answer
never depends on the batch it rides in: same pads, same spectra, same
dividers, same recursion shape.  Batching changes the wall-clock, never
the answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional, Sequence, Tuple

import numpy as np

from repro.core.fftstencil import AdvanceEngine
from repro.obs import NULL_TRACER

#: What a solver generator yields: one linear advance it cannot proceed
#: without.  ``scale`` feeds the engine's FFT-vs-direct robustness guard.
@dataclass
class AdvanceRequest:
    x: np.ndarray
    taps: Tuple[float, ...]
    h: int
    scale: Optional[float] = None


#: A solver generator: yields advance requests, receives ``(values,
#: record)`` for each, returns its solve result via ``StopIteration.value``.
SolverGen = Generator[AdvanceRequest, Tuple[np.ndarray, object], object]


def drive_lockstep(gens: Sequence[SolverGen], engine: AdvanceEngine) -> list:
    """Run B solver generators to completion in lockstep rounds on ``engine``.

    The one solver driver; a lone solve is B = 1.  Every round gathers the
    single advance each unfinished generator is blocked on and services
    them with one :meth:`AdvanceEngine.advance_batch` call.  Generators
    finish at their own pace (their recursion shapes differ with the
    divider data); the batches simply narrow as they do.  Results come
    back in input order.

    Telemetry rides on the engine (one handle instruments every solve):
    with ``engine.telemetry`` set, the drive opens a ``solve`` span, each
    round a ``lockstep_round`` span with an ``advance_batch`` child
    recording its batch width, and the round width feeds a histogram.
    The spans are per *round*, never per row, and the engine calls are the
    same either way, so answers are bit-identical with telemetry on.
    """
    tel = engine.telemetry
    span = NULL_TRACER.span if tel is None else tel.span
    h_round = (
        None
        if tel is None
        else tel.histogram(
            "lockstep_round_width", help="live solvers per lockstep round"
        )
    )
    results: list = [None] * len(gens)
    with span("solve", solvers=len(gens)) as solve_span:
        sends = [gen.send for gen in gens]  # bound once: ~rounds x sends later
        live: dict[int, AdvanceRequest] = {}
        for i, gen in enumerate(gens):
            try:
                live[i] = next(gen)
            except StopIteration as stop:  # solved without a single request
                results[i] = stop.value
        rounds = 0
        while live:
            rounds += 1
            if h_round is not None:
                h_round.observe(len(live))
            with span("lockstep_round", live=len(live)):
                reqs = list(live.values())
                with span("advance_batch", rows=len(reqs)):
                    ys, rec = engine.advance_batch(
                        [r.x for r in reqs],
                        [(r.taps, r.h) for r in reqs],
                        scales=[r.scale for r in reqs],
                    )
                for i, y, row in zip(list(live), ys, rec.rows):
                    try:
                        live[i] = sends[i]((y, row))
                    except StopIteration as stop:
                        results[i] = stop.value
                        del live[i]
        solve_span.set(rounds=rounds)
    return results
