"""FFT-accelerated multi-step advance of linear 1-D stencils.

This is our implementation of the aperiodic ('valid-mode') form of the
linear-stencil algorithm of Ahmad et al. (SPAA 2021) — reference [1] of the
paper — which the nonlinear solvers invoke on provably-all-red trapezoids:

    ``advance(x, taps, h)[c] = (A^h x)[c] = sum_{k=0}^{q h} W_k x_{c+k}``

where ``A`` is the one-step stencil operator and ``W`` the h-step kernel from
:mod:`repro.core.weights`.  The result covers exactly the cells whose full
dependency cone lies inside ``x`` (output length ``len(x) - q*h``).

Kernel caching (docs/DESIGN.md §3): the trapezoid decomposition requests the
same ``(taps, h)`` kernels at every recursion level — hundreds of
identical-shape advances per solve — so :class:`AdvanceEngine` amortises the
kernel and its forward transform across reuses (as [1] does).  One cache
per engine holds the h-step kernel keyed by ``(taps, h)`` and its
*conjugated rFFT* keyed by ``(taps, h, padded_n)`` under one byte budget,
and one growable staging buffer holds the zero-padded input.  A warm
advance is then one forward rFFT of ``x``, one pointwise multiply, one
inverse — versus a stateless FFT convolution's three transforms of a larger
padded length plus a reversed-kernel copy.

:meth:`AdvanceEngine.advance` is the one linear-advance entry point: one
row, one kernel.  The solvers call it once per linear advance of a solve,
and every batch door (``price_many``, scenario chunks, service buckets) is
a loop of lone solves on one shared engine, so the cache amortises across
them (docs/DESIGN.md §7).  The engine serves linear advances only: the
solvers' naive base-case rows run inline, one :data:`row_correlate` per
row (docs/DESIGN.md §7.2).

Numerical-robustness extension (documented in docs/DESIGN.md §1): FFT
convolution carries an *absolute* error ~``eps * ||x||_2 * ||W||_2``, so when
the input's magnitude dwarfs the caller's meaningful output scale the routine
falls back to direct correlation, whose error is relative to each output's
own positive term sum.  The paper's evaluated regime (bounded red values)
never triggers the fallback; the Y=0 all-red regime does.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Literal, Optional, Sequence

import numpy as np
from scipy import fft as sfft

from repro.core.weights import hstep_weights
from repro.parallel.workspan import WorkSpan, fft_cost
from repro.util.validation import ValidationError, check_integer


@dataclass(frozen=True)
class AdvancePolicy:
    """Controls the FFT-vs-direct decision of :func:`advance`.

    Parameters
    ----------
    mode:
        ``"auto"`` (default) — FFT unless the amplification guard trips;
        ``"fft"`` — always FFT; ``"direct"`` — always direct correlation.
    max_amplification:
        In auto mode, fall back to direct correlation when
        ``max|x| > max_amplification * scale`` (``scale`` is the caller's
        meaningful output magnitude, e.g. the strike).  The default tolerates
        twelve orders of magnitude of headroom above the price scale before
        the ~1e-16 relative FFT noise could reach ~1e-4 of the price.
    min_fft_size:
        Below this many kernel taps direct correlation is faster anyway.
    """

    mode: Literal["auto", "fft", "direct"] = "auto"
    max_amplification: float = 1e12
    min_fft_size: int = 32

    def choose(self, x_max: float, scale: float, kernel_len: int) -> str:
        if self.mode != "auto":
            return self.mode
        if kernel_len < self.min_fft_size:
            return "direct"
        if scale > 0.0 and x_max > self.max_amplification * scale:
            return "direct"
        return "fft"


DEFAULT_POLICY = AdvancePolicy()

#: Byte budget of an engine's cache of kernels and kernel spectra: past
#: it the oldest entries are evicted.  A lone solve stays far below it;
#: only a long-lived engine shared across many solves reaches it.
MAX_CACHE_BYTES = 64 * (1 << 20)

#: dtype singleton for the advance contiguity fast path
_F64 = np.dtype(np.float64)

@dataclass
class AdvanceRecord:
    """Bookkeeping for one advance call (aggregated into solver stats).

    ``spectrum_hit`` is ``True``/``False`` when the engine's cache was
    consulted for the kernel spectrum (hit/miss), ``None`` on paths that
    never consult it (direct correlation and h=0 copies).
    """

    method: str
    input_len: int
    h: int
    workspan: WorkSpan
    spectrum_hit: Optional[bool] = None


def _direct_correlate(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Valid-mode correlation sum_k w_k x_{c+k} via np.correlate (C speed)."""
    return np.correlate(x, w, mode="valid")


#: Public alias for the solvers' naive base rows: one ``np.correlate`` call
#: replaces their former Python per-tap accumulation loop.  np.correlate
#: accumulates each output cell left-to-right over the taps — the same
#: order as the loop — so the swap is bit-identical (the bit-agreement
#: tests pin this).  The q+1-tap kernels sit far below
#: ``AdvancePolicy.min_fft_size``, so this mirrors exactly what the
#: engine's fft-vs-direct guard would choose for a 1-step row.
row_correlate = _direct_correlate


class AdvanceEngine:
    """Stateful, kernel-caching multi-step advance (docs/DESIGN.md §3).

    Each solve runs on one engine — a fresh one per solve, or one shared
    across a batch of solves (:func:`repro.core.api.price_many`).  The
    engine keeps, across calls:

    * one cache of read-only arrays: the h-step kernel ``W`` keyed by
      ``(taps, h)`` and its conjugated spectrum ``conj(rfft(W, n))`` keyed
      by ``(taps, h, n)`` — one kernel evaluation and one forward kernel
      transform per distinct shape, however many advances reuse it.  The
      oldest entries are evicted once the cache holds more than
      :data:`MAX_CACHE_BYTES`;
    * one growable staging buffer: the FFT pad is a view of it, so warm
      advances do not allocate one.

    Correlation uses the conjugate trick: ``irfft(rfft(x, n) * conj(rfft(W,
    n)))[c] = sum_k W_k x_{c+k}`` for ``c <= len(x) - len(W)`` whenever
    ``n >= len(x)`` (no circular wrap can reach the valid prefix), so the pad
    length is ``next_fast_len(len(x))`` — smaller than a linear
    convolution's ``next_fast_len(len(x) + len(W) - 1)`` — and no
    reversed-kernel copy is ever made.

    An engine is **not thread-safe** (its cache, staging buffer and
    counters update without a lock); use one engine per solve/thread.  The
    module-level :func:`advance` wrapper keeps one default engine per
    thread.

    Parameters
    ----------
    policy:
        FFT-vs-direct robustness policy applied per advance.
    """

    def __init__(self, policy: AdvancePolicy = DEFAULT_POLICY):
        self.policy = policy
        #: Optional zero-arg cooperative-interrupt hook, invoked at every
        #: advance entry (see :meth:`_tick`).  The resilience tier binds a
        #: deadline here (``engine.checkpoint = deadline.checkpoint``) so a
        #: long *serial* solve — which nothing can preempt — observes its
        #: budget within one advance and aborts by raising from the hook.
        self.checkpoint: Optional[Callable[[], None]] = None
        # kernels keyed (taps, h) and spectra keyed (taps, h, n), read-only,
        # in insertion order (the oldest is evicted first)
        self._cache: dict[tuple, np.ndarray] = {}
        self._cache_bytes = 0
        self._stage = np.zeros(0)
        # Counters (exposed through SolveStats / cache_info for benchmarks).
        self.spectrum_hits = 0
        self.spectrum_misses = 0
        self.advances = 0
        self.checkpoints = 0
        #: Normalised telemetry handle (``None`` when disabled) — see
        #: :meth:`set_telemetry`.  The advance path never reads it.
        self.telemetry = None

    def set_telemetry(self, telemetry, *, register: bool = True) -> None:
        """Attach (or detach, with ``None``) a telemetry handle.

        The engine's existing counters re-register into the registry as
        an ``engine_*`` collector — the registry reads :meth:`cache_info`
        live at export time, so there is no second set of books.  The
        lattice dispatcher (:func:`repro.core.api.price_many` and its B = 1
        doors) reads ``engine.telemetry`` to open one ``solve`` span per
        call, so attaching here instruments every solve run through this
        engine.

        ``register=False`` skips the collector: the registry keeps a
        strong reference to each collector, so *per-call* engines (one
        grid, one coalesced bucket) must not register — their owner folds
        the counter delta into plain counters instead — while still
        getting spans.
        """
        from .. import obs

        tel = obs.active(telemetry)
        self.telemetry = tel
        if tel is not None and register:
            tel.registry.register_collector("engine", self.cache_info)

    def _tick(self) -> None:
        """Run the cooperative-interrupt hook (if any) and count it.

        Called once per advance entry — frequent enough that a deadline
        bound here fires within one advance of expiring, cheap enough
        (one attribute read when unset) to leave on every path.
        """
        cb = self.checkpoint
        if cb is not None:
            self.checkpoints += 1
            cb()

    def cache_info(self) -> dict:
        """Counters for benchmarks and the engine regression tests.

        ``cached_bytes`` is the cache's size; every other key is a
        cumulative counter (:func:`engine_delta` relies on the ``cached_``
        naming rule).
        """
        return {
            "spectrum_hits": self.spectrum_hits,
            "spectrum_misses": self.spectrum_misses,
            "cached_bytes": self._cache_bytes,
            "advances": self.advances,
            "checkpoints": self.checkpoints,
        }

    # ------------------------------------------------------------------ #
    # The cache and the staging buffer
    # ------------------------------------------------------------------ #
    def _store(self, key: tuple, arr: np.ndarray) -> np.ndarray:
        """Cache ``arr`` read-only under ``key``, then evict oldest first
        while over :data:`MAX_CACHE_BYTES` (the newest entry stays)."""
        arr.setflags(write=False)
        cache = self._cache
        cache[key] = arr
        self._cache_bytes += arr.nbytes
        while self._cache_bytes > MAX_CACHE_BYTES and len(cache) > 1:
            self._cache_bytes -= cache.pop(next(iter(cache))).nbytes
        return arr

    def _kernel(self, taps_t: tuple, h: int) -> np.ndarray:
        """The cached h-step kernel; :func:`hstep_weights` (and its taps
        validation) runs on a miss only."""
        w = self._cache.get((taps_t, h))
        if w is None:
            w = self._store((taps_t, h), hstep_weights(taps_t, h))
        return w

    def _spectrum(self, taps_t: tuple, h: int, n: int) -> tuple[np.ndarray, bool]:
        """Cached ``conj(rfft(W, n))`` and whether it hit; the kernel is
        only looked up on a miss (warm advances never touch it)."""
        key = (taps_t, h, n)
        spec = self._cache.get(key)
        if spec is not None:
            self.spectrum_hits += 1
            return spec, True
        self.spectrum_misses += 1
        spec = np.conj(sfft.rfft(self._kernel(taps_t, h), n=n))
        return self._store(key, spec), False

    def _staged(self, n: int) -> np.ndarray:
        """The first ``n`` slots of the staging buffer, grown on demand;
        they hold stale values until the caller writes them."""
        buf = self._stage
        if buf.shape[0] < n:
            self._stage = buf = np.zeros(max(n, 2 * buf.shape[0]))
        return buf[:n]

    # ------------------------------------------------------------------ #
    # Advances
    # ------------------------------------------------------------------ #
    @staticmethod
    def _validate(x: np.ndarray, q: int, h: int) -> int:
        kernel_len = q * h + 1
        if len(x) < kernel_len:
            raise ValidationError(
                f"input of length {len(x)} too short for h={h} steps of a "
                f"{q + 1}-tap stencil (needs >= {kernel_len})"
            )
        return kernel_len

    def _fft_row(
        self, x: np.ndarray, taps_t: tuple, h: int, kernel_len: int
    ) -> tuple[np.ndarray, AdvanceRecord]:
        """One row through the cached kernel spectrum, padded in the
        staging buffer (the kernel is only looked up on a spectrum miss)."""
        m = len(x)
        n = sfft.next_fast_len(m)
        spec, hit = self._spectrum(taps_t, h, n)
        buf = self._staged(n)
        buf[:m] = x
        buf[m:] = 0.0
        X = sfft.rfft(buf)
        X *= spec
        y = sfft.irfft(X, n=n)[: m - kernel_len + 1]
        one_fft = fft_cost(n)
        transforms = 2.0 if hit else 3.0
        ws = WorkSpan(
            transforms * one_fft.work + 2.0 * n, transforms * one_fft.span + 1.0
        )
        return y, AdvanceRecord("fft", m, h, ws, spectrum_hit=hit)

    def _direct_row(
        self, x: np.ndarray, taps_t: tuple, h: int, kernel_len: int
    ) -> tuple[np.ndarray, AdvanceRecord]:
        """One row by direct correlation against the h-step kernel."""
        m = x.shape[0]
        return _direct_correlate(x, self._kernel(taps_t, h)), AdvanceRecord(
            "direct", m, h,
            WorkSpan(
                2.0 * (m - kernel_len + 1) * kernel_len,
                np.log2(kernel_len + 1.0) + 1.0,
            ),
        )

    def _method(self, a: np.ndarray, scale: float, kernel_len: int) -> str:
        """The policy's fft-vs-direct choice for one advance.

        The stock policy reads ``max|x|`` only for FFT-eligible kernels, so
        the magnitude reduce is skipped for short-kernel advances.
        Decisions are identical to ``policy.choose()``; a subclassed policy
        gets the eager call.
        """
        pol = self.policy
        if type(pol) is not AdvancePolicy or pol.mode != "auto":
            x_max = float(np.max(np.abs(a))) if len(a) else 0.0
            return pol.choose(x_max, scale, kernel_len)
        if kernel_len < pol.min_fft_size:
            return "direct"
        if scale > 0.0 and len(a):
            mx = a.max()
            mn = -a.min()
            if (mx if mx >= mn else mn) > pol.max_amplification * scale:
                return "direct"
        return "fft"

    def advance(
        self,
        x: np.ndarray,
        taps: Sequence[float],
        h: int,
        *,
        scale: float | None = None,
    ) -> tuple[np.ndarray, AdvanceRecord]:
        """Advance ``x`` by ``h`` linear stencil steps; return (values, record).

        The engine's one linear-advance entry point, with the same contract
        as the module-level :func:`advance`: ``y[c'] = (A^h x)[c']`` on the
        ``len(x) - q*h`` left-aligned output columns; ``h = 0`` returns a
        copy.  ``scale`` feeds the robustness guard (see
        :class:`AdvancePolicy`; ``None`` disables it).  Every call runs the
        checkpoint hook first (:meth:`_tick`).
        """
        self._tick()
        if not (
            type(x) is np.ndarray and x.dtype == _F64 and x.flags.c_contiguous
        ):
            x = np.ascontiguousarray(x, dtype=np.float64)
        taps_t = taps if type(taps) is tuple else tuple(float(v) for v in taps)
        if type(h) is not int or h < 0:
            h = check_integer("h", h, minimum=0)
        self.advances += 1
        if h == 0:
            m = x.shape[0]
            return x.copy(), AdvanceRecord("copy", m, 0, WorkSpan(m, 1.0))
        kernel_len = self._validate(x, len(taps_t) - 1, h)
        guard = 0.0 if scale is None else float(scale)
        if self._method(x, guard, kernel_len) == "fft":
            return self._fft_row(x, taps_t, h, kernel_len)
        return self._direct_row(x, taps_t, h, kernel_len)


def engine_delta(before: dict, after: dict) -> dict:
    """Per-solve view of two :meth:`AdvanceEngine.cache_info` snapshots.

    Cumulative counters become this-solve deltas (so results from solves
    sharing one engine report their own activity, not the whole batch's);
    cache sizes — the ``cached_*`` keys — stay absolute: they describe the
    engine, not the solve.
    """
    return {
        k: v if k.startswith("cached_") else v - before[k]
        for k, v in after.items()
    }


#: Default engines behind the module-level compatibility wrapper are
#: per-thread: an engine's cache, staging buffer and counters update
#: without a lock, so a single engine must not serve concurrent advances
#: (each solver creates its own per-solve engine; only this stateless
#: wrapper needs the guard).
_DEFAULT_ENGINES = threading.local()


def _default_engine() -> AdvanceEngine:
    engine = getattr(_DEFAULT_ENGINES, "engine", None)
    if engine is None:
        engine = _DEFAULT_ENGINES.engine = AdvanceEngine()
    return engine


def advance(
    x: np.ndarray,
    taps: Sequence[float],
    h: int,
    *,
    scale: float | None = None,
    policy: AdvancePolicy = DEFAULT_POLICY,
    engine: Optional[AdvanceEngine] = None,
) -> tuple[np.ndarray, AdvanceRecord]:
    """Advance ``x`` by ``h`` linear stencil steps; return (values, record).

    Compatibility wrapper over :class:`AdvanceEngine` — stateless callers get
    a shared default engine (or a fresh one when ``policy`` differs from the
    default, so the policy argument keeps its old per-call meaning).  Solvers
    on the hot path thread an explicit per-solve engine instead.

    Parameters
    ----------
    x:
        Cell values of the base row, covering columns ``[c .. c + len(x) - 1]``
        in the caller's coordinates.
    taps:
        One-step weights at offsets ``0..q``.
    h:
        Number of steps (>= 0).  Requires ``len(x) >= q*h + 1``.
    scale:
        Meaningful output magnitude for the robustness guard (see
        :class:`AdvancePolicy`); ``None`` disables the guard.
    policy:
        FFT-vs-direct decision policy (ignored when ``engine`` is given —
        the engine carries its own).
    engine:
        Explicit engine to advance on (and whose caches to warm).

    Returns
    -------
    (y, record) where ``y[c'] = (A^h x)[c']`` covers the ``len(x) - q*h``
    left-aligned output columns, and ``record`` carries the chosen method and
    the work/span this call contributes (FFT: ``O(n log n)`` work,
    ``O(log n loglog n)`` span; direct: ``O(n * qh)`` work, ``O(log)`` span).
    """
    if engine is None:
        engine = _default_engine() if policy is DEFAULT_POLICY else AdvanceEngine(policy)
    return engine.advance(x, taps, h, scale=scale)

