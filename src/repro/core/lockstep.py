"""The solver driver for generator-style solvers (docs/DESIGN.md §7).

The trapezoid solvers are data-dependent: each linear advance's window
depends on the divider the previous advance revealed, so one solve is an
inherently *sequential* chain of advances.  Different solves, however, are
independent — and a scenario grid, an implied-vol ladder or a coalesced
service bucket is exactly B such chains.  This module turns those B
Python-level chains into a handful of wide vectorized transforms:

* each solver is written as a **generator** that ``yield``s
  :class:`AdvanceRequest` objects (the linear advance it needs next) or
  :class:`BaseRowRequest` objects (one naive base-case row) and receives
  the values back — the solver never touches an engine;
* :func:`drive_lockstep` services B generators *in rounds*: every round it
  partitions the one request each live solver is blocked on by kind and
  answers the linear advances with a single
  :meth:`~repro.core.fftstencil.AdvanceEngine.advance_batch` (one batched
  ``rfft``/row-multiply/``irfft`` per round) and the naive base rows with a
  single :meth:`~repro.core.fftstencil.AdvanceEngine.base_rows_batch` (one
  stacked multiply-accumulate + green-table gather + divider scan per
  round) — instead of B Python-level calls of either kind.  A lone solve
  is the B = 1 case of the same rounds.

Because a batched real FFT transforms each row exactly as the 1-D
transform would, and the stacked base-row kernel accumulates its taps in
the same left-to-right order as an inline ``np.correlate`` row (both
verified by the bit-agreement tests), a solve's answer never depends on
the batch it rides in: same pads, same spectra, same dividers, same
recursion shape.  Batching changes the wall-clock, never the answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional, Sequence, Tuple, Union

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


class BaseRowRequest:
    """One naive base-case row a solver cannot proceed without.

    Describes the max-rule update of a single backward step over the
    solver's current red window (docs/DESIGN.md §7.6):

    * ``values`` — the live window values (the red prefix / cone interior);
    * ``taps`` — the one-step stencil coefficients as an ``ndarray``
      (empty array = identity: no stencil, the row is a pure max against
      green, e.g. a Bermudan exercise date);
    * ``table``/``g_start``/``g_stride`` — the *green-row slice spec*: the
      closed-form comparison row is ``table[g_start + g_stride*j]`` for
      ``j = 0..n-1`` where ``n = len(values) + e_len - (len(taps) - 1)``.
      The engine registers each per-solver table once and gathers all B
      live rows' green values from one flat block.  ``table=None`` passes
      the row materialised in ``green`` instead;
    * ``e_start``/``e_len`` — the extension columns appended to ``values``
      before the stencil (green cells the dependency cone reads past the
      divider), as a slice of the same table (``e_len = 0``: none);
    * ``keep`` — what the reply's values are: ``"prefix"`` keeps the red
      prefix ``cont[:divider+1]`` (tree call rows), ``"max"`` keeps
      ``maximum(cont, green)`` over the whole row (FD put / exercise rows);
    * ``scan`` — ``False`` skips the divider scan (reply divider is ``-1``).

    The reply is ``(values, divider)`` with ``divider`` the 0-based window
    offset from :func:`~repro.core.boundary.scan_prefix_boundary` of the
    row's red mask (``cont >= green`` for ``"prefix"``, ``green >= cont``
    for ``"max"``).  Requests are consumed within the round they are
    yielded, so a solver may reuse (mutate) one request object per row.
    """

    __slots__ = (
        "values",
        "taps",
        "table",
        "g_start",
        "g_stride",
        "e_start",
        "e_len",
        "green",
        "keep",
        "scan",
        # engine-private: cached flat-block offset of ``table`` plus the
        # engine epoch it belongs to (requests are per-solver and reused,
        # so the cache saves one dict lookup per row)
        "boff",
        "bkey",
        # precomputed from (taps, keep, scan, g_stride) — those are fixed
        # for the request's lifetime (solvers mutate only the per-row
        # window fields), so the engine's grouping sweep reads two ints
        # instead of re-deriving them for every row, and every group the
        # sweep builds is stride-uniform by construction
        "kcode",
        "noff",
    )

    def __init__(
        self,
        values: Optional[np.ndarray] = None,
        taps: Optional[np.ndarray] = None,
        table: Optional[np.ndarray] = None,
        g_start: int = 0,
        g_stride: int = 1,
        e_start: int = 0,
        e_len: int = 0,
        green: Optional[np.ndarray] = None,
        keep: str = "prefix",
        scan: bool = True,
    ):
        self.values = values
        self.taps = taps
        self.table = table
        self.g_start = g_start
        self.g_stride = g_stride
        self.e_start = e_start
        self.e_len = e_len
        self.green = green
        self.keep = keep
        self.scan = scan
        self.boff = 0
        self.bkey = None
        nt = taps.shape[0] if taps is not None else 0
        self.kcode = (
            (g_stride << 20)
            | (nt << 3)
            | (4 if keep == "prefix" else 0)
            | (1 if scan else 0)
        )
        self.noff = 1 - nt if nt else 0


SolverRequest = Union[AdvanceRequest, BaseRowRequest]

#: A solver generator: yields requests, receives ``(values, record)`` for
#: advances and ``(values, divider)`` for base rows, returns its solve
#: result via ``StopIteration.value``.
SolverGen = Generator[SolverRequest, Tuple[np.ndarray, object], object]


def drive_lockstep(gens: Sequence[SolverGen], engine: AdvanceEngine) -> list:
    """Run B solver generators to completion in lockstep rounds on ``engine``.

    The one solver driver; a lone solve is B = 1.  Every round gathers the
    single request each unfinished generator is blocked on, partitions the
    requests by kind, and services each kind with one batched engine call
    (:meth:`AdvanceEngine.advance_batch` for linear advances,
    :meth:`AdvanceEngine.base_rows_batch` for naive base rows).
    Generators finish at their own pace (their recursion shapes differ
    with the divider data); the batches simply narrow as they do.
    Results come back in input order.

    Telemetry rides on the engine (one handle instruments every solve):
    with ``engine.telemetry`` set, the drive opens a ``solve`` span, each
    round a ``lockstep_round`` span with ``advance_batch`` /
    ``base_rows_batch`` children recording batch widths, and the round
    width feeds a histogram.  The spans are per *round*, never per row,
    and the engine calls are the same either way, so answers are
    bit-identical with telemetry on.
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
        sends = [gen.send for gen in gens]  # bound once: ~rows x sends later
        live: dict[int, SolverRequest] = {}
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
                base_is: list[int] = []
                base_reqs: list[BaseRowRequest] = []
                adv_is: list[int] = []
                adv_xs: list[np.ndarray] = []
                adv_kers: list[Tuple[Tuple[float, ...], int]] = []
                adv_scales: list[Optional[float]] = []
                for i, req in live.items():
                    if type(req) is BaseRowRequest:
                        base_is.append(i)
                        base_reqs.append(req)
                    else:
                        adv_is.append(i)
                        adv_xs.append(req.x)
                        adv_kers.append((req.taps, req.h))
                        adv_scales.append(req.scale)
                if base_is:
                    with span("base_rows_batch", rows=len(base_is)):
                        outs, divs, _ = engine.base_rows_batch(base_reqs)
                    for i, y, d in zip(base_is, outs, divs):
                        try:
                            live[i] = sends[i]((y, d))
                        except StopIteration as stop:
                            results[i] = stop.value
                            del live[i]
                if adv_is:
                    with span("advance_batch", rows=len(adv_is)):
                        ys, rec = engine.advance_batch(
                            adv_xs, adv_kers, scales=adv_scales
                        )
                    for i, y, row in zip(adv_is, ys, rec.rows):
                        try:
                            live[i] = sends[i]((y, row))
                        except StopIteration as stop:
                            results[i] = stop.value
                            del live[i]
        solve_span.set(rounds=rounds)
    return results
