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

:meth:`AdvanceEngine.advance_batch` is the one linear-advance entry point:
B inputs, each with its own kernel — the lockstep solver driver's
workhorse (docs/DESIGN.md §7).  Rows group by padded length, multiply
row-wise by their cached kernel spectra, and transform in one batched
pair, with per-row robustness decisions and per-row accounting; a
one-row call (every advance of a lone solve) skips the grouping.
:meth:`AdvanceEngine.advance` is that one-row call.  The engine serves
linear advances only: the solvers' naive base-case rows run inline, one
:data:`row_correlate` per row, at every batch width (docs/DESIGN.md §7.6).

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
from typing import Callable, Literal, Optional, Sequence, Tuple

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

#: Longest kernel the stacked direct path may serve with the broadcast
#: multiply-accumulate.  ``np.correlate`` accumulates left-to-right (the
#: MAC's order) only through numpy's ``small_correlate`` fast path, which
#: covers kernels of up to 11 taps; above that it switches to a
#: differently-ordered dot and the stacked result would drift by an ulp.
#: Measured, not documented — the bit-agreement tests re-verify it.
MAC_STACK_MAX_KERNEL = 11

#: dtype singleton for the advance_batch contiguity fast path
_F64 = np.dtype(np.float64)

@dataclass
class AdvanceRecord:
    """Bookkeeping for one advance call (aggregated into solver stats).

    ``spectrum_hit`` is ``True``/``False`` when the engine's cache was
    consulted for the row's kernel spectrum (hit/miss), ``None`` on paths
    that never consult it (direct correlation, h=0 copies, and batch rows
    that share an earlier row's kernel).  For batched records it is
    ``True`` only when every consulted row hit.
    ``spectrum_hits``/``spectrum_misses`` carry the exact per-call counts
    (:meth:`AdvanceEngine.advance_batch` consults the cache once per
    *distinct* per-row kernel in an FFT group).  ``batch`` counts the
    inputs a single batched transform carried (1 for a one-row advance).
    ``method`` is ``"mixed"`` when a batch's rows resolved to different
    methods.  ``rows`` holds per-input sub-records, in input order — each
    row mirrors exactly what a standalone :meth:`AdvanceEngine.advance` of
    that input would have recorded (method, lengths, work/span share), so
    per-solve statistics stay truthful under lockstep batching.
    """

    method: str
    input_len: int
    h: int
    workspan: WorkSpan
    spectrum_hit: Optional[bool] = None
    spectrum_hits: int = 0
    spectrum_misses: int = 0
    batch: int = 1
    rows: Optional[list["AdvanceRecord"]] = None


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
    * one growable staging buffer: the one-row FFT pad and the ragged
      direct stack are views of it, so warm advances do not allocate them.

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
        FFT-vs-direct robustness policy applied per row.
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
        self.batched_inputs = 0
        self.checkpoints = 0
        #: Normalised telemetry handle (``None`` when disabled) — see
        #: :meth:`set_telemetry`.  Hot paths guard on ``is not None`` so
        #: the disabled engine pays one attribute test per *batch* call.
        self.telemetry = None
        self._h_batch_rows = None

    def set_telemetry(self, telemetry, *, register: bool = True) -> None:
        """Attach (or detach, with ``None``) a telemetry handle.

        The engine's existing counters re-register into the registry as
        an ``engine_*`` collector — the registry reads :meth:`cache_info`
        live at export time, so there is no second set of books — and
        :meth:`advance_batch` gains a batch-width histogram.  The lockstep
        driver reads ``engine.telemetry`` to place its round spans, so
        attaching here instruments every solve run through this engine.

        ``register=False`` skips the collector: the registry keeps a
        strong reference to each collector, so *per-call* engines (one
        grid, one coalesced bucket) must not register — their owner folds
        the counter delta into plain counters instead — while still
        getting spans and the batch-width histogram.
        """
        from .. import obs

        tel = obs.active(telemetry)
        self.telemetry = tel
        if tel is None:
            self._h_batch_rows = None
            return
        if register:
            tel.registry.register_collector("engine", self.cache_info)
        self._h_batch_rows = tel.histogram(
            "engine_advance_batch_rows", help="rows per advance_batch call"
        )

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
            "batched_inputs": self.batched_inputs,
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
        return y, AdvanceRecord(
            "fft", m, h, ws,
            spectrum_hit=hit,
            spectrum_hits=int(hit),
            spectrum_misses=int(not hit),
        )

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

    def advance(
        self,
        x: np.ndarray,
        taps: Sequence[float],
        h: int,
        *,
        scale: float | None = None,
    ) -> tuple[np.ndarray, AdvanceRecord]:
        """Advance ``x`` by ``h`` linear stencil steps; return (values, record).

        A one-row :meth:`advance_batch` call, with the same contract as the
        module-level :func:`advance`: ``y[c'] = (A^h x)[c']`` on the
        ``len(x) - q*h`` left-aligned output columns.
        """
        ys, rec = self.advance_batch((x,), ((taps, h),), scales=(scale,))
        return ys[0], rec.rows[0]  # type: ignore[index]

    def _method(self, a: np.ndarray, scale: float, kernel_len: int) -> str:
        """The policy's fft-vs-direct choice for one row.

        The stock policy reads ``max|x|`` only for FFT-eligible kernels, so
        the magnitude reduce (surprisingly the priciest scalar op in a
        trapezoid batch) is skipped for short-kernel rows.  Decisions are
        identical to ``policy.choose()``; a subclassed policy gets the
        eager call.
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

    def _advance_row(
        self, x: np.ndarray, taps: Sequence[float], h: int, scale: float
    ) -> tuple[list[np.ndarray], AdvanceRecord]:
        """The B = 1 path of :meth:`advance_batch`.

        Every advance of a lone solve lands here, so it skips the grouping
        preamble; the decisions, spectra, output bits and row record are
        exactly those of the same row inside a wider batch.
        """
        if not (
            type(x) is np.ndarray and x.dtype == _F64 and x.flags.c_contiguous
        ):
            x = np.ascontiguousarray(x, dtype=np.float64)
        taps_t = taps if type(taps) is tuple else tuple(float(v) for v in taps)
        if type(h) is not int or h < 0:
            h = check_integer("h", h, minimum=0)
        self.advances += 1
        self.batched_inputs += 1
        if self.telemetry is not None:
            self._h_batch_rows.observe(1)
        m = x.shape[0]
        if h == 0:
            y = x.copy()
            row = AdvanceRecord("copy", m, 0, WorkSpan(m, 1.0))
        else:
            kernel_len = self._validate(x, len(taps_t) - 1, h)
            if self._method(x, scale, kernel_len) == "fft":
                y, row = self._fft_row(x, taps_t, h, kernel_len)
            else:
                y, row = self._direct_row(x, taps_t, h, kernel_len)
        return [y], AdvanceRecord(
            row.method, m, h, row.workspan,
            spectrum_hit=row.spectrum_hit,
            spectrum_hits=row.spectrum_hits,
            spectrum_misses=row.spectrum_misses,
            rows=[row],
        )

    def advance_batch(
        self,
        xs: Sequence[np.ndarray],
        kernels: Sequence[Tuple[Sequence[float], int]],
        *,
        scales: object = None,
    ) -> tuple[list[np.ndarray], AdvanceRecord]:
        """Advance B inputs, each by its **own** ``(taps, h)`` kernel, at once.

        The engine's one linear-advance entry point and the workhorse of
        the solver driver (:func:`repro.core.lockstep.drive_lockstep`):
        scenario grids, Greek bump grids and coalesced service buckets
        vary volatility/rate per cell, so every cell carries a *different*
        kernel.  Rows are grouped by padded FFT length, each group is
        stacked into one ``(G, n)`` array, multiplied row-wise by each
        row's cached kernel spectrum (one cache consult per distinct
        kernel in the group), and transformed with a single
        ``rfft``/``irfft`` pair — one batched transform per group instead
        of B Python-level calls.  A one-row call (every advance of a lone
        solve) skips the grouping.

        Robustness and accounting are **per row**: each row makes its own
        FFT-vs-direct choice against its own magnitude and ``scales[i]``,
        and the returned record's ``rows`` list carries one sub-record per
        input mirroring what a one-row call would have recorded.  Every
        row's output is bit-identical to its one-row advance (same pad,
        same spectrum; a batched real FFT transforms each row exactly as
        the 1-D transform does), so a solve's answer never depends on the
        batch it rides in.

        Parameters
        ----------
        xs:
            The B input rows.
        kernels:
            One ``(taps, h)`` pair per input; ``h = 0`` rows are copied.
        scales:
            ``None``, a scalar applied to every row, or one scale per row
            (``None`` entries disable that row's guard).
        """
        self._tick()
        B = len(xs)
        if B != len(kernels):
            raise ValidationError(
                f"advance_batch needs one kernel per input: got {B} "
                f"inputs, {len(kernels)} kernels"
            )
        if not B:
            return [], AdvanceRecord("copy", 0, 0, WorkSpan.ZERO, batch=0, rows=[])
        if scales is None:
            scale_list = [0.0] * B
        elif np.isscalar(scales):
            scale_list = [float(scales)] * B  # type: ignore[arg-type]
        else:
            scale_list = [0.0 if s is None else float(s) for s in scales]  # type: ignore[union-attr]
            if len(scale_list) != B:
                raise ValidationError(
                    f"scales must be a scalar or one per input: got "
                    f"{len(scale_list)} for {B} inputs"
                )
        if B == 1:
            taps, h = kernels[0]
            return self._advance_row(xs[0], taps, h, scale_list[0])
        # lockstep rows are always contiguous float64 (solver windows and
        # batch-output views); skip the per-row ascontiguousarray wrapper
        arrs = [
            x
            if type(x) is np.ndarray
            and x.dtype == _F64
            and x.flags.c_contiguous
            else np.ascontiguousarray(x, dtype=np.float64)
            for x in xs
        ]
        kers = [
            (
                taps if type(taps) is tuple else tuple(float(v) for v in taps),
                h if type(h) is int and h >= 0 else check_integer("h", h, minimum=0),
            )
            for taps, h in kernels
        ]
        self.advances += 1
        self.batched_inputs += B
        if self.telemetry is not None:
            self._h_batch_rows.observe(B)

        rows: list[Optional[AdvanceRecord]] = [None] * B
        outs: list[Optional[np.ndarray]] = [None] * B
        fft_groups: dict[int, list[int]] = {}
        direct_groups: dict[int, list[int]] = {}
        method_of = self._method
        for i, (a, (taps_t, h)) in enumerate(zip(arrs, kers)):
            q = len(taps_t) - 1
            if h == 0:
                outs[i] = a.copy()
                rows[i] = AdvanceRecord("copy", len(a), 0, WorkSpan(len(a), 1.0))
                continue
            kernel_len = q * h + 1
            if len(a) < kernel_len:
                self._validate(a, q, h)  # raises the standard message
            if method_of(a, scale_list[i], kernel_len) == "fft":
                fft_groups.setdefault(sfft.next_fast_len(len(a)), []).append(i)
            else:
                # stacked below — direct rows dominate trapezoid batches
                direct_groups.setdefault(kernel_len, []).append(i)

        # ---- stacked direct rows: same-shape (input, kernel) rows run as
        # one broadcast multiply-accumulate — identical accumulation order
        # to np.correlate, so each row matches its standalone advance
        # bit-for-bit (the bit-agreement tests pin this).  np.correlate
        # only accumulates left-to-right for kernels up to
        # MAC_STACK_MAX_KERNEL taps (numpy's small_correlate cutoff; it
        # switches to a differently-ordered dot above), so longer kernels
        # stay on the per-row path ----
        for kl, d_idxs in direct_groups.items():
            if len(d_idxs) == 1 or kl > MAC_STACK_MAX_KERNEL:
                for i in d_idxs:
                    taps_t, h = kers[i]
                    outs[i], rows[i] = self._direct_row(arrs[i], taps_t, h, kl)
                continue
            # ragged stack: rows share the kernel length but not the input
            # length — pad to the longest row in the staging buffer (junk
            # tails the per-row output slices never read)
            Gd = len(d_idxs)
            d_arrs = [arrs[i] for i in d_idxs]
            d_lens = [a.shape[0] for a in d_arrs]
            la = max(d_lens)
            n_out = la - kl + 1
            ragged_d = min(d_lens) != la
            if not ragged_d:
                Xd = np.concatenate(d_arrs).reshape(Gd, la)
            else:
                lv = np.asarray(d_lens, dtype=np.intp)
                vcat = np.concatenate(d_arrs)
                cum = np.cumsum(lv)
                dst = np.arange(vcat.shape[0]) + np.repeat(
                    np.arange(Gd) * la - (cum - lv), lv
                )
                Xd = self._staged(Gd * la)
                Xd[dst] = vcat
                Xd = Xd.reshape(Gd, la)
            kernel = self._kernel
            Wd = np.concatenate(
                [kernel(kers[i][0], kers[i][1]) for i in d_idxs]
            ).reshape(Gd, kl)
            yd = Wd[:, 0:1] * Xd[:, :n_out]
            for k in range(1, kl):
                yd += Wd[:, k : k + 1] * Xd[:, k : k + n_out]
            ylist = list(yd)  # row views in one C call
            rcache: dict = {}
            lg2 = np.log2(kl + 1.0) + 1.0
            for r, i in enumerate(d_idxs):
                h = kers[i][1]
                lr = d_lens[r]
                if ragged_d:
                    outs[i] = ylist[r][: lr - kl + 1]
                else:
                    outs[i] = ylist[r]
                rkey = (h, lr)
                rec_d = rcache.get(rkey)
                if rec_d is None:
                    # records are immutable once built, so equal-shape
                    # rows of one group share a single instance
                    rcache[rkey] = rec_d = AdvanceRecord(
                        "direct", lr, h,
                        WorkSpan(2.0 * (lr - kl + 1) * kl, lg2),
                    )
                rows[i] = rec_d

        hits = misses = 0
        for n, idxs in fft_groups.items():
            one_fft = fft_cost(n)
            if len(idxs) == 1:
                # A lone row gains nothing from stacking: serve it through
                # the one-row path (same accounting as a one-row call).
                i = idxs[0]
                taps_t, h = kers[i]
                outs[i], rows[i] = self._fft_row(
                    arrs[i], taps_t, h, (len(taps_t) - 1) * h + 1
                )
                hit = rows[i].spectrum_hit
                hits += int(hit)
                misses += int(not hit)
                continue
            # one cache consult per distinct kernel: a repeated kernel
            # shares its first row's spectrum and records no consult
            specs: list[np.ndarray] = []
            consults: list[Optional[bool]] = []
            first: dict[tuple, np.ndarray] = {}
            for i in idxs:
                spec = first.get(kers[i])
                if spec is None:
                    spec, hit = self._spectrum(kers[i][0], kers[i][1], n)
                    first[kers[i]] = spec
                    consults.append(hit)
                    hits += int(hit)
                    misses += int(not hit)
                else:
                    consults.append(None)
                specs.append(spec)
            # one fancy-index scatter into a fresh zero block instead of
            # 2G per-row slice assignments — the pad tails must be exact
            # zeros (the FFT reads them), which np.zeros provides
            Gf = len(idxs)
            f_arrs = [arrs[i] for i in idxs]
            lv = np.asarray([a.shape[0] for a in f_arrs], dtype=np.intp)
            vcat = np.concatenate(f_arrs)
            dst = np.arange(vcat.shape[0]) + np.repeat(
                np.arange(Gf) * n - (np.cumsum(lv) - lv), lv
            )
            flat = np.zeros(Gf * n, dtype=np.float64)
            flat[dst] = vcat
            X = sfft.rfft(flat.reshape(Gf, n), axis=-1)
            for r, spec in enumerate(specs):
                X[r] *= spec
            Y = sfft.irfft(X, n=n, axis=-1)
            rcache_f: dict = {}
            for r, i in enumerate(idxs):
                taps_t, h = kers[i]
                la = int(lv[r])
                out_len = la - (len(taps_t) - 1) * h
                # a view, not a copy: Y is a fresh per-call temporary and
                # every row belongs to a different solver, so views are
                # disjoint and safe to hand out (and to mutate in place)
                outs[i] = Y[r, :out_len]
                row_hit = consults[r]
                t = 3.0 if row_hit is False else 2.0
                rkey = (la, h, row_hit)
                rec_f = rcache_f.get(rkey)
                if rec_f is None:
                    # immutable once built: same-shape rows with the same
                    # consult outcome share one record instance
                    rcache_f[rkey] = rec_f = AdvanceRecord(
                        "fft", la, h,
                        WorkSpan(
                            t * one_fft.work + 2.0 * n,
                            t * one_fft.span + 1.0,
                        ),
                        spectrum_hit=row_hit,
                        spectrum_hits=int(row_hit is True),
                        spectrum_misses=int(row_hit is False),
                    )
                rows[i] = rec_f

        total = sum(len(a) for a in arrs)
        # scalar-accumulated ``beside`` fold: same additions in the same
        # order as repeated WorkSpan.beside, without B frozen-dataclass
        # intermediates
        wk = 0.0
        sp = 0.0
        methods: set[str] = set()
        for rec in rows:
            rw = rec.workspan  # type: ignore[union-attr]
            wk += rw.work
            if rw.span > sp:
                sp = rw.span
            methods.add(rec.method)  # type: ignore[union-attr]
        ws = WorkSpan(wk, sp)
        consulted = hits + misses > 0
        return list(outs), AdvanceRecord(  # type: ignore[arg-type]
            methods.pop() if len(methods) == 1 else "mixed",
            total,
            max(h for _, h in kers),
            ws,
            spectrum_hit=(misses == 0) if consulted else None,
            spectrum_hits=hits,
            spectrum_misses=misses,
            batch=B,
            rows=rows,  # type: ignore[arg-type]
        )


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

