"""ScenarioEngine: executed-parallel pricing of scenario grids.

This is the library's real-concurrency layer — where
:mod:`repro.parallel` *models* the paper's 48-core OpenMP runtime
(work–span counts, Brent bounds, greedy-schedule simulation), the
``ScenarioEngine`` actually runs grid cells across a
:mod:`concurrent.futures` worker pool and reports the measured wall-clock
speedup next to the model's prediction, closing the loop between the two.

Execution model
---------------
A grid's cells are split into contiguous chunks (deterministic: chunk
boundaries depend only on the cell count and the chunk size, never on
completion order) and each chunk is priced by one worker through
:func:`repro.core.api.price_many`, so every chunk's solves share one
plan-caching :class:`~repro.core.fftstencil.AdvanceEngine`.  Three backends
share the same API and produce identical results:

``process``
    ``ProcessPoolExecutor`` — real multicore, the default.  Each worker
    process owns one long-lived ``AdvanceEngine`` (created by the pool
    initializer), so kernel spectra amortise across every chunk the worker
    prices, exactly as they do in a serial batch.
``thread``
    ``ThreadPoolExecutor`` — one engine per worker *thread* (the engine's
    cache and counters update without a lock).  Useful when the solve releases
    the GIL (large FFTs) or for debugging without process overhead.
``serial``
    Same chunking, same code path, no pool — the reference every parallel
    backend must agree with bit-for-bit, and the fallback on one-core
    hosts.

Every grid, on every backend, runs through one dispatch loop
(:meth:`ScenarioEngine._dispatch`): each chunk is one batched
``price_many`` call, and only a failed chunk walks the recovery ladder
(retry, isolate, mark), so resilient grids keep the chunking and the
shared engine plain ones get.  Result ordering is always the flat grid order regardless
of backend or completion order.
"""

from __future__ import annotations

import os
import sys
import threading
import time
import warnings
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.core.api import PricingResult, price_many
from repro.core.fftstencil import (
    DEFAULT_POLICY,
    AdvanceEngine,
    AdvancePolicy,
    engine_delta,
)
from repro.obs import NULL_JOURNAL, NULL_SPAN
from repro.obs import active as _tel_active
from repro.options.contract import OptionSpec
from repro.parallel.workspan import WorkSpan
from repro.resilience.deadline import Deadline, DeadlineExceeded
from repro.resilience.faults import CorruptedResult, FaultPlan, validate_row
from repro.resilience.markers import failure_result, timeout_result
from repro.resilience.retry import RetryPolicy
from repro.risk.grid import ScenarioGrid
from repro.util.validation import ValidationError, check_integer

BACKENDS = ("process", "thread", "serial")

#: One process-wide warning when a parallel backend silently degrades to
#: the serial path because its pool could not be built at all.
_POOL_FALLBACK_WARNED = False


def _warn_pool_fallback(reason: str) -> None:
    global _POOL_FALLBACK_WARNED
    if not _POOL_FALLBACK_WARNED:
        _POOL_FALLBACK_WARNED = True
        warnings.warn(
            "ScenarioEngine could not build its worker pool and fell back "
            f"to serial execution ({reason}); results are identical but no "
            "parallel speedup applies.  Further fallbacks in this process "
            "are recorded in result meta['fallback_reason'] without "
            "warning again.",
            RuntimeWarning,
            stacklevel=3,
        )


def available_workers() -> int:
    """CPUs actually available to this process, not the host's core count.

    ``os.cpu_count()`` reports every logical core on the machine; a pinned
    or containerized process (``taskset``, cgroup cpusets, k8s CPU limits)
    may be allowed far fewer, and sizing a pool to the host count
    oversubscribes the allowance — workers time-slice instead of running
    concurrently.  ``os.sched_getaffinity(0)`` reflects the real allowance
    where the platform provides it (Linux); elsewhere — or if the probe
    fails — fall back to ``os.cpu_count()``.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            mask = getaffinity(0)
        except OSError:  # pragma: no cover — platform-specific failure
            mask = None
        if mask:
            return len(mask)
    return os.cpu_count() or 1


# --------------------------------------------------------------------- #
# Worker-side state
# --------------------------------------------------------------------- #
#: One plan-caching AdvanceEngine per worker (thread-local covers both
#: pool kinds: a process worker's main thread, or each thread of a
#: thread pool), reused across every chunk the worker prices.
_WORKER_STATE = threading.local()


def _worker_init(path_entries: Sequence[str], policy: AdvancePolicy) -> None:
    """Pool initializer: make ``repro`` importable and build the engine.

    ``path_entries`` is the parent's ``sys.path`` — required under the
    ``spawn`` start method when the parent put ``src/`` on the path via
    ``sys.path.insert`` rather than ``PYTHONPATH`` (the benchmark scripts
    do); harmless under ``fork``.
    """
    for p in reversed([p for p in path_entries if p not in sys.path]):
        sys.path.insert(0, p)
    _WORKER_STATE.engine = AdvanceEngine(policy)
    _WORKER_STATE.policy = policy


def _worker_engine(policy: AdvancePolicy) -> AdvanceEngine:
    # Value comparison, not identity: each pickled chunk payload carries its
    # own AdvancePolicy copy, and the whole point is to keep one engine's
    # plan cache alive across every chunk a worker prices.
    engine = getattr(_WORKER_STATE, "engine", None)
    if engine is None or getattr(_WORKER_STATE, "policy", None) != policy:
        engine = AdvanceEngine(policy)
        _WORKER_STATE.engine = engine
        _WORKER_STATE.policy = policy
    return engine


def _rebase_dedup_indices(
    chunk_results: Sequence[PricingResult], lo: int
) -> None:
    """Lift ``price_many``'s chunk-local dedup indices into grid order.

    Each chunk prices through its own ``price_many`` call, whose
    ``meta["deduplicated_of"]`` indexes are relative to the chunk — add the
    chunk offset so consumers can resolve them against the flat grid.
    """
    if lo:
        for r in chunk_results:
            if "deduplicated_of" in r.meta:
                r.meta["deduplicated_of"] += lo


def _merge_engine_deltas(deltas: Sequence[dict]) -> Optional[dict]:
    """Fold per-chunk worker engine deltas into one grid-wide view.

    Counter deltas add; the ``cached_*`` keys are absolute descriptions
    of each worker's engine, so the merged view keeps the max (the
    ``cached_bytes`` of the biggest cache any worker grew), mirroring
    what a single shared engine would report.
    """
    if not deltas:
        return None
    merged = dict(deltas[0])
    for d in deltas[1:]:
        for k, v in d.items():
            if k.startswith("cached_"):
                merged[k] = max(merged.get(k, 0), v)
            else:
                merged[k] = merged.get(k, 0) + v
    return merged


def _price_chunk(
    engine: AdvanceEngine,
    lo: int,
    specs: Sequence[OptionSpec],
    steps: int,
    kwargs: dict,
    attempt: int,
    plan: Optional[FaultPlan],
    pricers: Sequence[str],
) -> tuple[list[PricingResult], float]:
    """Price grid cells ``[lo, lo + len(specs))`` as one batch on
    ``engine``; returns (results, in-worker seconds).

    ``pricers`` names the pricer backend per cell: the chunk is split into
    contiguous runs of equal backend, each run batch-priced on its
    backend, so a uniform chunk is one run — a single ``price_many`` call
    with full-chunk dedup.  Mixed chunks dedup within each run.
    ``deduplicated_of`` indexes come back rebased to flat grid order.

    A fault ``plan`` fires its ``before`` hook for every cell, keyed on
    the **flat grid index and attempt number**, before the batch runs — so
    an injected crash wastes no solve work — and its ``after`` hook per
    cell on the batch's rows.  The same ``(cell, attempt)`` replays the
    same fault on any backend and any chunking, which is what makes fault
    runs deterministic.
    """
    t0 = time.perf_counter()
    if plan is not None:
        for cell in range(lo, lo + len(specs)):
            plan.before(cell, attempt)
    results = []
    start = 0
    n = len(specs)
    while start < n:
        stop = start + 1
        while stop < n and pricers[stop] == pricers[start]:
            stop += 1
        run = price_many(
            specs[start:stop], steps, engine=engine,
            backend=pricers[start], **kwargs,
        )
        _rebase_dedup_indices(run, start)
        results.extend(run)
        start = stop
    if plan is not None:
        results = [
            plan.after(cell, attempt, r) for cell, r in enumerate(results, lo)
        ]
    _rebase_dedup_indices(results, lo)
    return results, time.perf_counter() - t0


def _worker_track(lo: int, hi: int, t0: float, t1: float) -> dict:
    """In-worker wall interval of one chunk, tagged with the worker's
    identity — the raw material for the Perfetto worker tracks
    (:func:`repro.obs.traceexport.chrome_trace`).  ``perf_counter`` is
    CLOCK_MONOTONIC on Linux, shared across processes, so child intervals
    are directly comparable with the parent's dispatch span."""
    return {
        "pid": os.getpid(),
        "tid": threading.get_ident(),
        "lo": lo,
        "hi": hi,
        "t0": t0,
        "t1": t1,
    }


def _pool_chunk(
    payload: tuple[int, list[OptionSpec], int, dict, AdvancePolicy, int,
                   Optional[FaultPlan], list],
) -> tuple[list[PricingResult], float, dict, dict]:
    """Executor task: :func:`_price_chunk` on this worker's persistent
    engine.

    Ships the chunk's engine-counter *delta* back alongside the results —
    the worker's engine is long-lived, so the parent cannot read its
    cumulative :meth:`~repro.core.fftstencil.AdvanceEngine.cache_info`
    directly; per-chunk deltas add associatively in any completion order,
    which is what lets the parent merge pooled-run engine telemetry
    exactly as an inline run reports its own.  The last element is the
    chunk's :func:`_worker_track` for trace export.
    """
    lo, specs, steps, kwargs, policy, attempt, plan, pricers = payload
    engine = _worker_engine(policy)
    before = engine.cache_info()
    t0 = time.perf_counter()
    results, seconds = _price_chunk(
        engine, lo, specs, steps, kwargs, attempt, plan, pricers
    )
    t1 = time.perf_counter()
    delta = engine_delta(before, engine.cache_info())
    return results, seconds, delta, _worker_track(
        lo, lo + len(specs), t0, t1
    )


def _map_chunk(payload: tuple) -> tuple[int, list]:
    """Executor task: run a caller task on this worker's persistent engine."""
    start, items, task, policy = payload
    return start, task(_worker_engine(policy), items)


# --------------------------------------------------------------------- #
# Results
# --------------------------------------------------------------------- #
@dataclass
class ScenarioResult:
    """Priced scenario grid: per-cell results in flat grid order.

    ``workspan`` is the parallel (``beside``) composition of every cell's
    instrumented work/span — the quantity the Brent bound converts into the
    modeled speedup recorded in ``meta`` alongside the *measured* one:

    ``meta["wall_s"]``
        pool wall-clock for the whole grid (chunking + transport included).
    ``meta["cells_wall_s"]``
        sum of in-worker per-chunk solve times — the grid's serial-
        equivalent cost measured on this run's actual solves.
    ``meta["measured_speedup"]``
        ``cells_wall_s / wall_s`` — executed concurrency.  Equal to the
        true wall-clock speedup when every worker owns a core; on an
        oversubscribed host (more workers than CPUs) the per-chunk
        in-worker clocks stretch with time-slicing, so this reports the
        concurrency achieved rather than a throughput gain — compare
        against a separate serial run (as ``bench_scenario_engine.py``
        does) for hardware-limited hosts.
    ``meta["predicted_speedup"]``
        ``brent_time(1) / brent_time(workers)`` of ``workspan`` — what the
        work–span model (paper §1/Table 2) predicts for this worker count
        on ideal hardware.
    """

    grid: ScenarioGrid
    results: list[PricingResult]
    workspan: WorkSpan
    meta: dict = field(default_factory=dict)

    @property
    def prices(self) -> np.ndarray:
        """Cell prices in flat grid order (``reshape(grid.shape)`` to grid)."""
        return np.array([r.price for r in self.results], dtype=np.float64)

    def prices_grid(self) -> np.ndarray:
        """Cell prices reshaped to the grid's axis shape."""
        return self.prices.reshape(self.grid.shape)


# --------------------------------------------------------------------- #
# Engine
# --------------------------------------------------------------------- #
class ScenarioEngine:
    """Prices :class:`~repro.risk.grid.ScenarioGrid` across a worker pool.

    Parameters
    ----------
    workers:
        Worker count for the parallel backends (default:
        :func:`available_workers` — the CPUs this process may actually
        use, which on pinned/containerized hosts is fewer than
        ``os.cpu_count()``).  ``workers=1`` runs serially whatever the
        backend.
    backend:
        ``"process"`` (default) | ``"thread"`` | ``"serial"`` — see the
        module docstring.
    chunk_size:
        Cells per work unit.  Default splits the grid into ~4 chunks per
        worker — small enough to load-balance, large enough to amortise
        task transport and keep the batched European fast path effective.
    model, method, base, lam, policy:
        Default pricing configuration, per :func:`repro.core.api.price_many`;
        each can be overridden per :meth:`price_grid` call.
    retry, fault_plan:
        Default resilience configuration (overridable per call):
        a :class:`~repro.resilience.retry.RetryPolicy` for transient
        worker failures, and a :class:`~repro.resilience.faults.FaultPlan`
        for deterministic fault injection (tests/benchmarks only).
    telemetry:
        Optional :class:`repro.obs.Telemetry`.  Grids record
        ``grid → dispatch → chunk`` spans, cell/grid counters, a per-chunk
        wall-seconds histogram, and the engine-counter deltas each worker
        ships back (folded as ``risk_engine_*``); resilience recoveries
        (retries, pool rebuilds, isolations, timeouts) land as ``risk_*``
        counters.

    The engine itself holds no mutable pricing state — pools are created
    per :meth:`price_grid` call and per-worker ``AdvanceEngine`` instances
    live in the workers — so one ``ScenarioEngine`` may be shared freely.

    Resilient dispatch
    ------------------
    :meth:`price_grid` accepts ``deadline`` / ``retry`` / ``fault_plan``.
    They configure the one dispatch loop every grid runs through: each
    chunk is still priced as one batch, and only a failed chunk is
    re-dispatched with jittered backoff, split into single cells to
    isolate a poisoned request, or re-priced on a rebuilt process pool
    (once per break, re-pricing only the chunks the dead worker held).
    When the deadline expires the grid returns *partial results*: every
    finished cell keeps its bit-exact price, unfinished cells carry an
    explicit timeout marker
    (:func:`repro.resilience.markers.timeout_result`).  Preemption is per
    chunk on every backend — a chunk is one ``price_many`` call, which
    returns all of its results or none, so a chunk preempted mid-solve
    times out whole.  With all three unset a failure,
    a corrupted row included, propagates at once.
    """

    def __init__(
        self,
        *,
        workers: Optional[int] = None,
        backend: str = "process",
        chunk_size: Optional[int] = None,
        model: str = "binomial",
        method: str = "fft",
        base: Optional[int] = None,
        lam: Optional[float] = None,
        policy: AdvancePolicy = DEFAULT_POLICY,
        retry: Optional[RetryPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
        telemetry=None,
    ):
        if backend not in BACKENDS:
            raise ValidationError(
                f"unknown backend {backend!r}; choose one of {BACKENDS}"
            )
        self.workers = check_integer(
            "workers",
            workers if workers is not None else available_workers(),
            minimum=1,
        )
        self.backend = backend
        if chunk_size is not None:
            chunk_size = check_integer("chunk_size", chunk_size, minimum=1)
        self.chunk_size = chunk_size
        self.model = model
        self.method = method
        self.base = base
        self.lam = lam
        self.policy = policy
        self.retry = retry
        self.fault_plan = fault_plan
        # Normalised handle (None when disabled); the pool workers never
        # see it — they ship engine-counter deltas back instead, and the
        # parent folds those into the registry here.
        self.telemetry = _tel_active(telemetry)

    # ------------------------------------------------------------------ #
    def _chunks(self, n: int) -> list[tuple[int, int]]:
        """Deterministic contiguous ``[start, stop)`` chunk bounds."""
        size = self.chunk_size
        if size is None:
            size = max(1, -(-n // (self.workers * 4)))
        return [(lo, min(lo + size, n)) for lo in range(0, n, size)]

    def _make_pool(self) -> Executor:
        init_args = (list(sys.path), self.policy)
        if self.backend == "process":
            return ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_worker_init,
                initargs=init_args,
            )
        return ThreadPoolExecutor(
            max_workers=self.workers,
            initializer=_worker_init,
            initargs=init_args,
        )

    def price_specs(
        self,
        specs: Sequence[OptionSpec],
        steps: int,
        *,
        model: Optional[str] = None,
        method: Optional[str] = None,
        base: Optional[int] = None,
        lam: Optional[float] = None,
        deadline: Optional[Deadline] = None,
        retry: Optional[RetryPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> list[PricingResult]:
        """Price a flat contract list; results in input order.

        The parallel twin of :func:`repro.core.api.price_many`, for callers
        that already hold a plain spec sequence (the
        :class:`~repro.service.service.QuoteService` coalescer among
        them): equivalent to pricing ``ScenarioGrid.explicit(specs)`` and
        keeping only the per-cell results, with the grid's chunks fanned
        across this engine's worker pool.  An empty list prices to an
        empty list, matching every other batch entry point.
        """
        if not specs:
            return []
        return self.price_grid(
            ScenarioGrid.explicit(list(specs)), steps,
            model=model, method=method, base=base, lam=lam,
            deadline=deadline, retry=retry, fault_plan=fault_plan,
        ).results

    def map_chunks(self, items: Sequence, task) -> list:
        """Generic engine-backed fan-out: ``task(engine, chunk) -> results``.

        ``items`` is chunked exactly like a scenario grid
        (:meth:`_chunks`: deterministic contiguous bounds) and each chunk is
        handed to ``task`` together with the worker's persistent
        plan-caching :class:`~repro.core.fftstencil.AdvanceEngine` — the
        same amortisation pricing chunks enjoy, for workloads that are not
        plain ``price_many`` calls (the market calibrator runs whole
        implied-vol ladders this way,
        :func:`repro.market.calibrate.calibrate_surface`).

        ``task`` must return one result per item, in chunk order, and — for
        the ``process`` backend — be a picklable module-level callable.
        Results concatenate in input order; the serial backend (or
        ``workers=1``, or a single chunk) runs inline on one fresh engine,
        bit-identical to the pooled run.
        """
        if not items:
            return []
        items = list(items)
        chunks = self._chunks(len(items))
        results: list = [None] * len(items)
        serial = (
            self.backend == "serial" or self.workers == 1 or len(chunks) == 1
        )
        if serial:
            engine = AdvanceEngine(self.policy)
            for lo, hi in chunks:
                results[lo:hi] = task(engine, items[lo:hi])
        else:
            with self._make_pool() as pool:
                payloads = [
                    (lo, items[lo:hi], task, self.policy) for lo, hi in chunks
                ]
                for lo, chunk_results in pool.map(_map_chunk, payloads):
                    results[lo : lo + len(chunk_results)] = chunk_results
        return results

    def price_grid(
        self,
        grid: ScenarioGrid | Sequence[OptionSpec],
        steps: int,
        *,
        model: Optional[str] = None,
        method: Optional[str] = None,
        base: Optional[int] = None,
        lam: Optional[float] = None,
        deadline: Optional[Deadline] = None,
        retry: Optional[RetryPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> ScenarioResult:
        """Price every grid cell; results come back in flat grid order.

        ``grid`` may be a :class:`ScenarioGrid` or a plain contract
        sequence (wrapped via :meth:`ScenarioGrid.explicit`).

        ``deadline`` / ``retry`` / ``fault_plan`` configure the recovery
        loop every grid runs through (class docstring); ``retry`` and
        ``fault_plan`` default to the engine's own.  Without ``retry``, a
        cell failure propagates — a served row with a non-finite price as
        :class:`~repro.resilience.faults.CorruptedResult`; with it,
        exhausted/non-transient failures become per-cell markers.  Any of
        the three adds ``meta["resilience"]`` with the recovery counters.

        A cell's ``ScenarioCell.backend`` names the
        :class:`~repro.core.backend.PricerBackend` that prices it (``None``:
        the exact lattice); a grid may mix exact and approximate cells
        freely (each result records its server as ``meta["backend"]``).
        """
        if not isinstance(grid, ScenarioGrid):
            grid = ScenarioGrid.explicit(list(grid))
        steps = check_integer("steps", steps, minimum=1)
        kwargs = {
            "model": self.model if model is None else model,
            "method": self.method if method is None else method,
            "base": self.base if base is None else base,
            "lam": self.lam if lam is None else lam,
            "policy": self.policy,
        }
        # Per-cell pricer backends (``None``: the lattice); _price_chunk
        # prices each contiguous run of one backend as one batch.
        pricers = [c.backend or "lattice" for c in grid.cells]
        if retry is None:
            retry = self.retry
        if fault_plan is None:
            fault_plan = self.fault_plan
        resilient = (
            deadline is not None or retry is not None or fault_plan is not None
        )

        specs = grid.specs
        chunks = self._chunks(len(specs))
        results: list[Optional[PricingResult]] = [None] * len(specs)
        serial = self.backend == "serial" or self.workers == 1 or len(chunks) == 1
        fallback_reason: Optional[str] = None
        if serial and self.backend != "serial":
            # parallel was configured but this run cannot use it — benign,
            # recorded for observability, no warning
            fallback_reason = "workers=1" if self.workers == 1 else "single_chunk"

        pool: Optional[Executor] = None
        if not serial:
            try:
                pool = self._make_pool()
            except (OSError, RuntimeError) as exc:
                # pool construction itself failed (sandboxed host, fd/sem
                # exhaustion, missing multiprocessing primitives): degrade
                # to the bit-identical serial path instead of failing the
                # whole grid, and say so — once loudly, then via meta.
                serial = True
                fallback_reason = (
                    f"pool_unavailable: {type(exc).__name__}: {exc}"
                )
                _warn_pool_fallback(fallback_reason)

        tel = self.telemetry
        grid_span = (
            NULL_SPAN
            if tel is None
            else tel.span(
                "grid",
                cells=len(specs),
                backend="serial" if serial else self.backend,
            )
        )
        with grid_span:
            if tel is not None and fallback_reason is not None:
                # every degradation to serial — benign (workers=1, one
                # chunk) or not (pool unavailable) — is counted by reason
                # and journalled; only pool_unavailable also warns (once).
                reason_label = fallback_reason.split(":", 1)[0]
                tel.counter(
                    "risk_pool_fallbacks_total",
                    labels={"reason": reason_label},
                    help="parallel grids that degraded to serial dispatch",
                ).inc()
                tel.emit(
                    "pool_fallback",
                    reason=fallback_reason,
                    backend=self.backend,
                    workers=self.workers,
                    cells=len(specs),
                )
            t0 = time.perf_counter()
            dispatch_span = (
                NULL_SPAN
                if tel is None
                else tel.span(
                    "dispatch", chunks=len(chunks), resilient=resilient
                )
            )
            with dispatch_span:
                cells_wall, rmeta, engine_info, worker_tracks = self._dispatch(
                    pool, results, specs, steps, kwargs, chunks,
                    deadline, retry, fault_plan, pricers,
                )
            wall = time.perf_counter() - t0
        if tel is not None:
            reg = tel.registry
            reg.counter("risk_grids_total", help="grids priced").inc()
            reg.counter("risk_cells_total", help="cells priced").inc(
                len(specs)
            )
            if engine_info is not None:
                reg.count_dict("risk_engine", engine_info)
            if resilient:
                reg.count_dict(
                    "risk",
                    {
                        "retries": rmeta["retries"],
                        "pool_rebuilds": rmeta["pool_rebuilds"],
                        "isolated": rmeta["isolated"],
                        "corrupt_detected": rmeta["corrupt_detected"],
                        "timeouts": len(rmeta["timeouts"]),
                        "failed": len(rmeta["failed"]),
                    },
                )

        workspan = WorkSpan.ZERO
        for r in results:
            workspan = workspan.beside(r.workspan)  # type: ignore[union-attr]
        p = 1 if serial else self.workers
        t1 = workspan.brent_time(1)
        # an all-closed-form grid (zero-dividend calls) has zero modeled
        # work — report a neutral 1.0 rather than dividing 0/0
        tp = workspan.brent_time(p)
        meta = {
            "backend": "serial" if serial else self.backend,
            "workers": p,
            "chunk_size": chunks[0][1] - chunks[0][0],
            "n_chunks": len(chunks),
            "n_cells": len(specs),
            "steps": steps,
            "wall_s": wall,
            "cells_wall_s": cells_wall,
            "measured_speedup": cells_wall / wall if wall > 0.0 else 1.0,
            "predicted_speedup": t1 / tp if tp > 0.0 else 1.0,
            "parallelism": workspan.parallelism,
        }
        if fallback_reason is not None:
            meta["fallback_reason"] = fallback_reason
        if tel is not None and worker_tracks:
            # raw material for Perfetto worker tracks (traceexport);
            # only attached when telemetry is on so disabled-mode meta is
            # byte-identical to the pre-flight-recorder layout
            meta["worker_tracks"] = worker_tracks
        if resilient:
            rmeta["timeouts"].sort()  # pool completions land in any order
            meta["resilience"] = rmeta
        if engine_info is not None:
            # inline runs share one engine; pooled runs merge the per-chunk
            # deltas the workers ship back — either way callers can verify
            # the grid rode the batched advance path
            meta["engine"] = engine_info
        return ScenarioResult(
            grid=grid,
            results=results,  # type: ignore[arg-type]
            workspan=workspan,
            meta=meta,
        )

    # ------------------------------------------------------------------ #
    # The dispatch loop
    # ------------------------------------------------------------------ #
    def _dispatch(
        self,
        pool: Optional[Executor],
        results: "list[Optional[PricingResult]]",
        specs: Sequence[OptionSpec],
        steps: int,
        kwargs: dict,
        chunks: "list[tuple[int, int]]",
        deadline: Optional[Deadline],
        retry: Optional[RetryPolicy],
        plan: Optional[FaultPlan],
        pricers: list,
    ) -> tuple[float, dict, Optional[dict], list]:
        """Price ``chunks`` into ``results`` in place; returns
        ``(cells_wall, rmeta, engine_info, worker_tracks)``.

        Every dispatch prices one ``[lo, hi)`` span as one batch
        (:func:`_price_chunk`).  With ``pool=None`` the spans run inline on
        one fresh engine carrying the telemetry and the deadline's
        checkpoint, and each span settles — its retries and isolated cells
        included — before the next one starts.  Otherwise they run on the
        pool through ``submit`` + ``wait(FIRST_COMPLETED)``.  A failed
        dispatch walks one ladder on either executor:

        1. ``BrokenExecutor`` (pool only) — the pool died under the span.
           The first future of the current pool *generation* to observe
           the break rebuilds the pool (once); the failure then continues
           down the ladder, so only the dead worker's chunks re-price.
        2. no retry policy → the failure propagates at once (no isolation,
           no rebuild first).
        3. transient + attempts left → jittered backoff (clamped to the
           deadline) and re-dispatch of the whole span at ``attempt + 1``.
        4. exhausted or non-transient multi-cell span → single-cell
           dispatches (same attempt): the poisoned request fails alone,
           its chunk siblings are served.
        5. single cell, exhausted or non-transient → failure marker.

        Every served row passes :func:`validate_row`; a corrupted row
        re-enters the ladder as a single-cell failure.  A deadline never
        reaches the ladder (``DeadlineExceeded`` is an ``OSError``, which
        a retry policy counts as transient): a span dispatched after the
        budget is spent, preempted mid-solve by the inline checkpoint, or
        still outstanding when the pool's ``wait`` times out comes back as
        timeout markers — finished cells always keep their bit-exact
        prices.
        """
        tel = self.telemetry
        journal = NULL_JOURNAL if tel is None else tel.journal
        h_chunk = None if tel is None else tel.histogram(
            "risk_chunk_seconds", help="in-worker wall seconds per chunk"
        )
        rmeta: dict = {
            "retries": 0,
            "pool_rebuilds": 0,
            "isolated": 0,
            "corrupt_detected": 0,
            "timeouts": [],
            "failed": {},
        }
        if deadline is not None:
            rmeta["deadline_budget_s"] = deadline.budget
        if plan is not None and plan.seed is not None:
            rmeta["fault_seed"] = plan.seed
        rng = retry.rng() if retry is not None else None
        mm = (kwargs["model"], kwargs["method"])
        cells_wall = 0.0
        deltas: list[dict] = []
        worker_tracks: list[dict] = []

        def expire(lo: int, hi: int, detail: str) -> None:
            if not rmeta["timeouts"]:
                journal.emit(
                    "deadline_expired", budget_s=deadline.budget,
                    first_cell=lo,
                )
            for cell in range(lo, hi):
                results[cell] = timeout_result(steps, *mm, detail=detail)
                rmeta["timeouts"].append(cell)
                journal.emit("timeout_marker", cell=cell, detail=detail)

        def fail(lo: int, hi: int, attempt: int, exc: Exception) -> list:
            """Walk the ladder; returns the follow-up dispatches."""
            if deadline is not None and isinstance(exc, DeadlineExceeded):
                # the inline checkpoint fired inside the span's one
                # price_many call, which returns nothing, so the whole
                # span times out
                expire(lo, hi, "preempted mid-solve")
                return []
            if retry is None:
                raise exc
            if retry.is_transient(exc) and attempt + 1 < retry.max_attempts:
                rmeta["retries"] += 1
                delay = retry.delay(attempt, rng)
                if deadline is not None:
                    delay = deadline.sleep_budget(delay)
                journal.emit(
                    "retry", lo=lo, hi=hi, attempt=attempt,
                    delay_s=delay, error=type(exc).__name__,
                )
                if delay > 0.0:
                    retry.sleep(delay)
                return [(lo, hi, attempt + 1)]
            if hi - lo > 1:
                # a poisoned request must fail alone, not take its chunk
                # siblings down with it
                rmeta["isolated"] += 1
                journal.emit(
                    "isolate", lo=lo, hi=hi, error=type(exc).__name__,
                )
                return [(cell, cell + 1, attempt) for cell in range(lo, hi)]
            results[lo] = failure_result(steps, *mm, exc)
            rmeta["failed"][lo] = f"{type(exc).__name__}: {exc}"
            journal.emit("cell_failed", cell=lo, error=type(exc).__name__)
            return []

        def serve(lo: int, attempt: int, rows: list, seconds: float) -> list:
            """Accept a finished span's rows; returns the follow-ups."""
            nonlocal cells_wall
            cells_wall += seconds
            if h_chunk is not None:
                h_chunk.observe(seconds)
            follow: list = []
            for cell, r in enumerate(rows, lo):
                try:
                    validate_row(r)
                except CorruptedResult as exc:
                    rmeta["corrupt_detected"] += 1
                    journal.emit(
                        "corrupt_detected", cell=cell, attempt=attempt,
                    )
                    follow += fail(cell, cell + 1, attempt, exc)
                else:
                    results[cell] = r
            return follow

        if pool is None:
            engine = AdvanceEngine(self.policy)
            if tel is not None:
                engine.set_telemetry(tel, register=False)
            if deadline is not None:
                engine.checkpoint = deadline.checkpoint
            todo = [(lo, hi, 0) for lo, hi in reversed(chunks)]  # LIFO
            while todo:
                lo, hi, attempt = todo.pop()
                if deadline is not None and deadline.expired:
                    expire(lo, hi, "budget spent before solve")
                    continue
                try:
                    with (
                        NULL_SPAN
                        if tel is None
                        else tel.span("chunk", lo=lo, hi=hi)
                    ):
                        rows, seconds = _price_chunk(
                            engine, lo, specs[lo:hi], steps, kwargs,
                            attempt, plan, pricers[lo:hi],
                        )
                except Exception as exc:
                    follow = fail(lo, hi, attempt, exc)
                else:
                    follow = serve(lo, attempt, rows, seconds)
                todo.extend(reversed(follow))
            return cells_wall, rmeta, engine.cache_info(), worker_tracks

        generation = 0
        pending: dict = {}  # future -> (lo, hi, attempt, generation)

        def submit(work: list) -> None:
            for lo, hi, attempt in work:
                if deadline is not None and deadline.expired:
                    expire(lo, hi, "budget spent before solve")
                    continue
                payload = (
                    lo, specs[lo:hi], steps, kwargs, self.policy,
                    attempt, plan, pricers[lo:hi],
                )
                pending[pool.submit(_pool_chunk, payload)] = (
                    lo, hi, attempt, generation,
                )

        timed_out = False
        try:
            submit([(lo, hi, 0) for lo, hi in chunks])
            while pending:
                timeout = deadline.remaining() if deadline is not None else None
                done, _ = wait(
                    list(pending), timeout=timeout,
                    return_when=FIRST_COMPLETED,
                )
                if not done:
                    # budget spent with futures outstanding: partial return
                    timed_out = True
                    for fut, (lo, hi, _a, _g) in sorted(
                        pending.items(), key=lambda item: item[1][0]
                    ):
                        fut.cancel()
                        expire(lo, hi, "chunk unfinished")
                    break
                for fut in done:
                    lo, hi, attempt, fut_generation = pending.pop(fut)
                    try:
                        rows, seconds, delta, track = fut.result()
                    except Exception as exc:
                        if (
                            retry is not None
                            and isinstance(exc, BrokenExecutor)
                            and fut_generation == generation
                        ):
                            # first observer of this break rebuilds; sibling
                            # futures from the dead generation fall through
                            # to the ladder without rebuilding again
                            generation += 1
                            rmeta["pool_rebuilds"] += 1
                            journal.emit(
                                "pool_rebuild", generation=generation,
                                lo=lo, hi=hi,
                            )
                            pool.shutdown(wait=False, cancel_futures=True)
                            pool = self._make_pool()
                        submit(fail(lo, hi, attempt, exc))
                        continue
                    deltas.append(delta)
                    worker_tracks.append(track)
                    submit(serve(lo, attempt, rows, seconds))
        finally:
            # a clean return (or a raise) waits for the workers, as
            # ``with pool:`` does; only a deadline abandons running futures
            pool.shutdown(wait=not timed_out, cancel_futures=True)
        return cells_wall, rmeta, _merge_engine_deltas(deltas), worker_tracks
