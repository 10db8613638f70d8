"""QuoteService: caching, coalescing front door over the pricing engines.

The serving pipeline (docs/DESIGN.md §5) is

    request --canonicalize--> key --cache--> hit?  serve scaled copy
                                   \\-- miss --> coalesce --> solve --> store

* :func:`~repro.service.canonical.canonicalize` folds each request onto a
  dimensionless key, so a strike strip, both rights (binomial), and
  rescaled clones of one contract all share a single solve.
* :class:`~repro.service.cache.QuoteCache` (LRU+TTL) serves warm keys in
  O(1) — a dict lookup plus one multiply — versus a full O(T log²T) solve.
* Cold keys are **coalesced**: :meth:`QuoteService.quote_many` dedupes keys
  within the call, and :meth:`QuoteService.submit` parks requests in a
  bounded queue whose :meth:`QuoteService.flush` groups compatible pending
  requests (same model/method/steps/base/lam bucket) into one
  :func:`repro.core.api.price_many` batch — sharing the service's
  plan-caching :class:`~repro.core.fftstencil.AdvanceEngine` and
  (``workers > 1``) fanning the batch across a
  :class:`~repro.risk.engine.ScenarioEngine` worker pool.  Since the
  lockstep batch solver landed, a coalesced bucket needs no kernel
  overlap to batch: every bucket marches through the lattice dispatcher's
  multi-kernel ``advance_batch`` transforms, cells with *different*
  vols/rates included (European jumps and American trapezoid recursions
  alike).

Identical in-flight requests are merged: submitting a key that is already
queued attaches the new ticket to the existing pending solve, and a cold
``quote()`` registers its own solve in-flight so concurrent identical
quotes and submits ride it too.  The queue is
bounded (``max_pending``); when it is full a blocking submit pays the drain
itself (backpressure) and a non-blocking one raises
:class:`ServiceOverloadedError`.

Threading: every public method is safe to call from multiple threads.
Cache hits, enqueues and bookkeeping run concurrently; the *cold solves*
themselves serialize on an internal mutex because the shared plan-caching
engine's scratch buffers are not thread-safe — concurrent throughput on a
cold stream comes from ``workers > 1`` (per-worker engines), not from
racing threads into one engine.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.api import (
    PricingResult,
    check_model_method,
    price_american,
    price_many,
)
from repro.core.fftstencil import DEFAULT_POLICY, AdvanceEngine, AdvancePolicy
from repro.obs import active as _tel_active
from repro.options.contract import OptionSpec, Style
from repro.resilience.breaker import (
    CLOSED,
    OPEN,
    BreakerPolicy,
    CircuitBreaker,
    CircuitOpenError,
)
from repro.resilience.deadline import Deadline, DeadlineExceeded, effective_deadline
from repro.resilience.faults import FaultPlan
from repro.resilience.markers import (
    STALE_KEY,
    failure_result,
    is_marker,
    is_timeout,
    timeout_result,
)
from repro.resilience.retry import RetryPolicy
from repro.risk.engine import BACKENDS, ScenarioEngine
from repro.service.cache import Clock, QuoteCache
from repro.service.canonical import (
    EXACT,
    CanonicalPolicy,
    CanonicalRequest,
    canonicalize,
    decanonicalize,
)
from repro.util.validation import ValidationError, check_integer


class ServiceOverloadedError(RuntimeError):
    """Raised by a non-blocking submit when the pending queue is full.

    Structured payload, so a load-shedding caller can act without parsing
    the message: ``rejected_keys`` (the canonical keys this call could not
    enqueue), ``pending`` (queue depth at rejection) and ``max_pending``
    (the configured bound).
    """

    def __init__(
        self,
        message: str,
        *,
        rejected_keys: Sequence = (),
        pending: int = 0,
        max_pending: int = 0,
    ):
        super().__init__(message)
        self.rejected_keys = list(rejected_keys)
        self.pending = pending
        self.max_pending = max_pending


@dataclass
class _Pending:
    """One queued canonical solve, shared by every ticket that merged into it."""

    request: CanonicalRequest
    canonical_result: Optional[PricingResult] = None
    error: Optional[BaseException] = None
    event: threading.Event = field(default_factory=threading.Event)
    #: tightest budget any merged caller carried; the bucket solve honors
    #: the tightest across its members (effective_deadline)
    deadline: Optional[Deadline] = None


class QuoteTicket:
    """Future-like handle returned by :meth:`QuoteService.submit`.

    ``result()`` drains the service queue if the solve has not run yet, so
    a single-threaded caller never deadlocks waiting for a flush that
    nobody issues.  ``meta["cache"]`` on the result records how the quote
    was served: ``"hit"`` (cache), ``"miss"`` (this ticket's solve) or
    ``"merged"`` (rode an identical in-flight request).
    """

    __slots__ = ("_service", "_pending", "_request", "_tag", "_result")

    def __init__(self, service, pending, request, tag, result=None):
        self._service = service
        self._pending = pending
        self._request = request
        self._tag = tag
        self._result = result

    def done(self) -> bool:
        return self._result is not None or self._pending.event.is_set()

    def result(self, timeout: Optional[float] = None) -> PricingResult:
        if self._result is None:
            pending = self._pending
            if not pending.event.is_set():
                try:
                    self._service.flush()
                except Exception:
                    # A *different* bucket's failure must not poison this
                    # ticket; our own bucket's error (if any) is recorded on
                    # the pending entry and re-raised below.  Only propagate
                    # when the flush died before resolving us at all.
                    if not pending.event.is_set():
                        raise
            if not pending.event.wait(timeout):
                raise TimeoutError(
                    "quote still pending after flush — a concurrent flush "
                    f"holds it and did not finish within {timeout} s"
                )
            if pending.error is not None:
                raise pending.error
            self._result = _tagged(
                pending.canonical_result, self._request, self._tag
            )
        return self._result


def _tagged(
    canonical_result: PricingResult, request: CanonicalRequest, tag: str
) -> PricingResult:
    out = decanonicalize(canonical_result, request)
    out.meta["cache"] = tag
    return out


class QuoteService:
    """Caching, coalescing pricing service (see module docstring).

    Parameters
    ----------
    model, method, base, lam:
        Default solve configuration; each may be overridden per call.
    steps_default:
        Optional default step count so callers may omit ``steps``.
    policy:
        :class:`AdvancePolicy` for every solve this service runs.
    canonical:
        :class:`CanonicalPolicy` — quantization tolerance for key merging
        (default :data:`~repro.service.canonical.EXACT`: bit-identical hits
        only).
    cache, cache_size, ttl, clock:
        Either a pre-built :class:`QuoteCache` or the size/TTL/clock to
        build one with.  ``clock`` must be monotonic; tests inject fakes.
    workers, backend:
        ``workers > 1`` fans coalesced batches across a
        :class:`ScenarioEngine` pool of this backend; the default prices
        serially on one shared plan-caching engine.
    max_pending:
        Bound on distinct queued (not yet flushed) solves.
    coalesce:
        ``False`` disables batching — each flush/quote_many miss is solved
        individually (still on the shared engine).  For A/B measurement.
    workers_min_batch:
        Smallest bucket worth a worker-pool fan-out.  A
        :class:`ScenarioEngine` builds its pool per call, so small batches
        would pay pool startup that dwarfs their solve time; buckets below
        this size run on the serial shared engine instead.
    breaker:
        Optional :class:`~repro.resilience.breaker.BreakerPolicy` — one
        :class:`CircuitBreaker` per ``(model, method, steps)`` bucket,
        created lazily on the service's ``clock``.  While a bucket's
        breaker is open, its quotes are served stale (when the cache still
        holds the key within ``stale_grace``) or rejected fast with
        :class:`~repro.resilience.breaker.CircuitOpenError`; healthy
        buckets are unaffected.
    retry, fault_plan:
        Optional :class:`~repro.resilience.retry.RetryPolicy` /
        :class:`~repro.resilience.faults.FaultPlan` forwarded to the
        solve tier.  When either is set, every bucket solve routes
        through the :class:`ScenarioEngine` recovery loop
        (serial-backend when ``workers == 1``): each chunk still prices
        as one batch, transient failures re-dispatch, and exhausted ones
        come back as per-cell markers instead of batch-wide exceptions.
    stale_grace:
        Stale-while-revalidate window (seconds) for the internally-built
        cache: expired entries remain servable — explicitly marked
        ``meta["stale"]`` — for this long under breaker-open or deadline
        pressure, with a refresh enqueued in the background.  Ignored when
        ``cache`` is injected (configure the injected cache directly).
    spectral_fallback:
        Opt-in last rung of the degradation ladder.  When a cold quote
        finds its bucket breaker open — or its deadline already spent —
        and no stale entry is servable, serve an approximate spectral
        price instead of raising: explicitly marked
        (``meta["degraded_to"] == "spectral"``), journalled, refresh
        enqueued, and **never** written to the exact cache slot.  Default
        ``False`` keeps the raise-on-exhaustion contract unchanged.
    telemetry:
        Optional :class:`repro.obs.Telemetry`.  When enabled, the service
        records quote latency histograms per serve outcome
        (hit/miss/merged/stale), breaker state transitions, and
        ``quote → canonicalize / cache_lookup / bucket_solve`` spans; the
        cache, service and engine counter dicts re-register into the
        registry as collectors, and :meth:`stats` gains a ``telemetry``
        section.  ``None`` (or a disabled handle) costs the hot path one
        attribute test.
    exemplars:
        With telemetry enabled, retain this many *slowest* quotes per
        serve outcome (hit/miss/merged/stale) as exemplars: the quote's
        span tree plus the slice of flight-recorder events emitted while
        it ran.  ``stats()["exemplars"]`` exposes them and
        :meth:`explain_slowest` answers "why was the slowest quote
        slow?" without reproducing it.  ``0`` disables capture.
    """

    def __init__(
        self,
        *,
        model: str = "binomial",
        method: str = "fft",
        base: Optional[int] = None,
        lam: Optional[float] = None,
        steps_default: Optional[int] = None,
        policy: AdvancePolicy = DEFAULT_POLICY,
        canonical: CanonicalPolicy = EXACT,
        cache: Optional[QuoteCache] = None,
        cache_size: int = 4096,
        ttl: Optional[float] = None,
        clock: Clock = time.monotonic,
        workers: Optional[int] = None,
        backend: str = "process",
        max_pending: int = 1024,
        coalesce: bool = True,
        workers_min_batch: int = 8,
        breaker: Optional[BreakerPolicy] = None,
        retry: Optional[RetryPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
        stale_grace: float = 0.0,
        spectral_fallback: bool = False,
        telemetry=None,
        exemplars: int = 4,
    ):
        check_model_method(model, method)
        if backend not in BACKENDS:
            raise ValidationError(
                f"unknown backend {backend!r}; choose one of {BACKENDS}"
            )
        self.model = model
        self.method = method
        self.base = base
        self.lam = lam
        if steps_default is not None:
            steps_default = check_integer(
                "steps_default", steps_default, minimum=1
            )
        self.steps_default = steps_default
        self.policy = policy
        self.canonical_policy = canonical
        self.cache = (
            cache
            if cache is not None
            else QuoteCache(
                maxsize=cache_size, ttl=ttl, clock=clock,
                stale_grace=stale_grace,
            )
        )
        self.workers = (
            1 if workers is None else check_integer("workers", workers, minimum=1)
        )
        self.backend = backend
        self.max_pending = check_integer("max_pending", max_pending, minimum=1)
        self.coalesce = coalesce
        self.workers_min_batch = check_integer(
            "workers_min_batch", workers_min_batch, minimum=2
        )
        self.breaker_policy = breaker
        self.retry = retry
        self.fault_plan = fault_plan
        self.spectral_fallback = bool(spectral_fallback)
        #: resolved lazily: the first fast-tier (or degraded) quote pays
        #: the spectral import, not service construction
        self._spectral_backend = None
        self._clock = clock

        self.telemetry = tel = _tel_active(telemetry)
        self._engine = AdvanceEngine(policy)
        # A retry/fault configuration needs the scenario engine's recovery
        # loop even on one worker — a serial-backend engine walks the
        # same ladder inline, without a pool.
        resilient_solves = retry is not None or fault_plan is not None
        self._scenario = (
            ScenarioEngine(
                workers=self.workers,
                backend=backend if self.workers > 1 else "serial",
                model=model, method=method, base=base, lam=lam,
                policy=policy, retry=retry, fault_plan=fault_plan,
                telemetry=tel,
            )
            if self.workers > 1 or resilient_solves
            else None
        )
        self._lock = threading.RLock()
        #: Serializes solves on the shared engine (its scratch buffers are
        #: not thread-safe); never acquired while holding ``_lock``.
        self._solve_mutex = threading.Lock()
        self._queue: list[_Pending] = []
        self._inflight: dict[tuple, _Pending] = {}
        self._breakers: dict[tuple, CircuitBreaker] = {}
        self._quotes = 0
        self._solves = 0
        self._batches = 0
        self._batched_requests = 0
        self._max_batch = 0
        self._merged = 0
        self._boundary_upgrades = 0
        self._overloads = 0
        self._stale_quotes = 0
        self._refreshes = 0
        self._deadline_misses = 0
        self._fast_quotes = 0
        self._tier_upgrades = 0
        self._degraded_spectral = 0
        self._h_quote_lat: dict = {}
        self._h_tier_lat: dict = {}
        self.exemplar_k = check_integer("exemplars", exemplars, minimum=0)
        self._exemplars: dict[str, list] = {}
        self._exemplar_lock = threading.Lock()
        if tel is not None:
            # Re-register the existing counter dialects: the registry reads
            # the live dicts at export time, so nothing counts twice.  The
            # shared engine registers its own cache_info the same way.
            self._engine.set_telemetry(tel)
            tel.registry.register_collector("cache", self.cache.stats)
            tel.registry.register_collector(
                "service", self._service_counters
            )
            # entry evictions/expirations land in the flight recorder
            self.cache.bind_journal(tel.journal)

    def _service_counters(self) -> dict:
        """Flat counter view for the registry collector (numbers only —
        the richer :meth:`stats` nesting stays the human surface)."""
        with self._lock:
            return {
                "quotes": self._quotes,
                "solves": self._solves,
                "batches": self._batches,
                "batched_requests": self._batched_requests,
                "max_batch": self._max_batch,
                "merged_requests": self._merged,
                "boundary_upgrades": self._boundary_upgrades,
                "overloads": self._overloads,
                "queue_depth": len(self._queue),
                "inflight": len(self._inflight),
                "stale_quotes": self._stale_quotes,
                "refreshes": self._refreshes,
                "deadline_misses": self._deadline_misses,
                "fast_quotes": self._fast_quotes,
                "tier_upgrades": self._tier_upgrades,
                "degraded_spectral": self._degraded_spectral,
            }

    def _quote_hist(self, outcome: str):
        """Latency histogram for one serve outcome (hit/miss/merged/stale),
        resolved once per outcome label."""
        h = self._h_quote_lat.get(outcome)
        if h is None:
            h = self.telemetry.histogram(
                "service_quote_seconds",
                labels={"outcome": outcome},
                help="quote() wall seconds by serve outcome",
            )
            self._h_quote_lat[outcome] = h
        return h

    def _tier_hist(self, tier: str):
        """Latency histogram per *served* tier (fast/exact), resolved once
        per label; only tiered serves observe it, so the metric series
        appears exactly when tiering is in use."""
        h = self._h_tier_lat.get(tier)
        if h is None:
            h = self.telemetry.histogram(
                "service_quote_tier_seconds",
                labels={"tier": tier},
                help="tiered quote() wall seconds by served tier",
            )
            self._h_tier_lat[tier] = h
        return h

    # ------------------------------------------------------------------ #
    # Canonicalization / solving
    # ------------------------------------------------------------------ #
    def _canonicalize(
        self, spec: OptionSpec, steps: Optional[int], model, method, base, lam
    ) -> CanonicalRequest:
        if steps is None:
            steps = self.steps_default
        if steps is None:
            raise ValidationError(
                "steps is required (or configure the service's steps_default)"
            )
        return canonicalize(
            spec,
            steps,
            model=self.model if model is None else model,
            method=self.method if method is None else method,
            base=self.base if base is None else base,
            lam=self.lam if lam is None else lam,
            policy=self.canonical_policy,
            advance_policy=self.policy,
        )

    def _solve_one_boundary(self, req: CanonicalRequest) -> PricingResult:
        """Divider-recording solve for ``quote(return_boundary=True)``.

        Only American-style requests reach here — ``wants_boundary``
        excludes European contracts, and every boundary-free path is served
        through the pending machinery — so this is always a
        :func:`price_american` call.
        """
        with self._solve_mutex:
            return price_american(
                req.spec, req.steps, model=req.model, method=req.method,
                base=req.base, lam=req.lam, policy=self.policy,
                engine=self._engine, return_boundary=True,
            )

    def _solve_requests(
        self,
        reqs: Sequence[CanonicalRequest],
        deadline: Optional[Deadline] = None,
    ) -> list[PricingResult]:
        """Solve a bucket of same-configuration canonical requests.

        ``deadline`` is carried into the solve tier: the scenario engine
        waits its chunk futures against it (per-cell timeout markers on
        expiry), and the serial shared engine observes it cooperatively
        through its ``checkpoint`` hook, raising
        :class:`~repro.resilience.deadline.DeadlineExceeded` mid-solve.
        """
        tel = self.telemetry
        if tel is not None:
            with tel.span("bucket_solve", size=len(reqs), steps=reqs[0].steps):
                return self._solve_requests_inner(reqs, deadline)
        return self._solve_requests_inner(reqs, deadline)

    def _solve_requests_inner(
        self,
        reqs: Sequence[CanonicalRequest],
        deadline: Optional[Deadline] = None,
    ) -> list[PricingResult]:
        r0 = reqs[0]
        specs = [r.spec for r in reqs]
        resilient_solves = self.retry is not None or self.fault_plan is not None
        if self._scenario is not None and (
            len(specs) >= self.workers_min_batch or resilient_solves
        ):
            # worker pools build their own per-worker engines (no mutex);
            # the pool is built per call, so only buckets big enough to
            # amortise its startup fan out — or any bucket when a
            # retry/fault configuration wants the scenario engine's
            # recovery ladder — leave the serial shared engine
            results = self._scenario.price_specs(
                specs, r0.steps, model=r0.model, method=r0.method,
                base=r0.base, lam=r0.lam, deadline=deadline,
            )
        else:
            with self._solve_mutex:
                if deadline is not None:
                    deadline.check("bucket solve")
                    self._engine.checkpoint = deadline.checkpoint
                try:
                    results = price_many(
                        specs, r0.steps, model=r0.model, method=r0.method,
                        base=r0.base, lam=r0.lam, policy=self.policy,
                        engine=self._engine,
                    )
                finally:
                    if deadline is not None:
                        self._engine.checkpoint = None
        with self._lock:
            self._solves += len(specs)
            if len(specs) > 1:
                self._batches += 1
                self._batched_requests += len(specs)
                self._max_batch = max(self._max_batch, len(specs))
        return results

    # ------------------------------------------------------------------ #
    # Resilience plumbing
    # ------------------------------------------------------------------ #
    def _breaker_for(self, req: CanonicalRequest) -> Optional[CircuitBreaker]:
        """This request's bucket breaker (lazily created; None when
        breakers are not configured)."""
        if self.breaker_policy is None:
            return None
        key = (req.model, req.method, req.steps)
        with self._lock:
            breaker = self._breakers.get(key)
            if breaker is None:
                breaker = CircuitBreaker(self.breaker_policy, clock=self._clock)
                if self.telemetry is not None:
                    breaker.listener = self._breaker_recorder(key)
                self._breakers[key] = breaker
            return breaker

    #: Numeric breaker-state encoding for the state gauge (ordered by
    #: severity so dashboards can alert on ``> 0``).
    _BREAKER_LEVEL = {CLOSED: 0, "half_open": 1, OPEN: 2}

    def _breaker_recorder(self, key: tuple):
        """Telemetry listener for one bucket's breaker: state as a gauge,
        every transition as a labelled event counter."""
        bucket = "/".join(map(str, key))
        gauge = self.telemetry.gauge(
            "breaker_state",
            labels={"bucket": bucket},
            help="0=closed 1=half_open 2=open",
        )
        registry = self.telemetry.registry

        journal = self.telemetry.journal

        def record(old: str, new: str) -> None:
            gauge.set(self._BREAKER_LEVEL.get(new, -1))
            registry.counter(
                "breaker_transitions_total",
                labels={"bucket": bucket, "from": old, "to": new},
                help="breaker state transitions",
            ).inc()
            journal.emit(
                "breaker_transition", bucket=bucket, old=old, new=new,
            )

        return record

    def _stale_canonical(self, req: CanonicalRequest) -> Optional[PricingResult]:
        """Degradation fetch: the key's stale-but-graced canonical result
        (None if the cache cannot vouch for one), with a refresh enqueued
        so the next flush re-solves it."""
        canonical = self.cache.get_stale(req.key)
        if canonical is not None:
            self._enqueue_refresh(req)
            with self._lock:
                self._stale_quotes += 1
        return canonical

    def _enqueue_refresh(self, req: CanonicalRequest) -> bool:
        """Queue a background re-solve for a stale-served key.

        The refresh rides the ordinary pending queue (drained by the next
        ``flush``/``result``/backpressure drain) rather than a thread of
        its own — deterministic, testable, and automatically coalesced
        with any real traffic on the same bucket.  Skipped when the key is
        already in flight or the queue is full (the stale serve stands on
        its own either way).
        """
        with self._lock:
            if req.key in self._inflight or len(self._queue) >= self.max_pending:
                return False
            pending = _Pending(req)
            self._inflight[req.key] = pending
            self._queue.append(pending)
            self._refreshes += 1
            return True

    def _mark_stale(self, out: PricingResult, reason: str) -> PricingResult:
        out.meta[STALE_KEY] = True
        out.meta["stale_reason"] = reason
        if self.telemetry is not None:
            self.telemetry.emit("stale_serve", reason=reason)
        return out

    # ------------------------------------------------------------------ #
    # Tiered serving (spectral fast tier)
    # ------------------------------------------------------------------ #
    _TIERS = ("exact", "fast", "auto")

    def _spectral(self):
        """The registry's spectral backend, resolved lazily so service
        construction never pays the spectral import."""
        backend = self._spectral_backend
        if backend is None:
            from repro.core.backend import get_backend

            backend = self._spectral_backend = get_backend("spectral")
        return backend

    @staticmethod
    def _fast_key(req: CanonicalRequest) -> tuple:
        """Fast-tier cache slot for a canonical key.

        Disjoint from the exact slot by construction — the tier rides the
        key itself — so an approximate price can never be served as (or
        evict) a bit-exact one, under any :class:`CanonicalPolicy`.
        """
        return ("tier:fast",) + req.key

    def _solve_spectral(self, req: CanonicalRequest) -> PricingResult:
        """One spectral solve of the canonical spec.

        No shared-engine mutex: spectral plans are immutable once built
        and the backend's plan cache carries its own lock, so fast-tier
        serves never queue behind a lattice solve in flight.
        """
        return self._spectral().price_spec(
            req.spec, req.steps, model=req.model, method=req.method,
            base=req.base, lam=req.lam,
        )

    def _enqueue_upgrade(self, req: CanonicalRequest) -> bool:
        """Queue the lattice-exact upgrade behind a fast-tier serve.

        Rides the ordinary pending queue exactly like a stale refresh —
        drained by the next ``flush``/``result``/backpressure drain,
        coalesced with real traffic on the same bucket — so fast traffic
        warms the *exact* slot without a thread of its own.  Skipped when
        the key is already in flight or the queue is full (the fast serve
        stands on its own either way).
        """
        with self._lock:
            if req.key in self._inflight or len(self._queue) >= self.max_pending:
                return False
            pending = _Pending(req)
            self._inflight[req.key] = pending
            self._queue.append(pending)
            self._tier_upgrades += 1
        if self.telemetry is not None:
            self.telemetry.emit(
                "tier_upgrade",
                bucket="/".join(map(str, self._bucket_of(req))),
            )
        return True

    def _serve_fast(self, req: CanonicalRequest) -> PricingResult:
        """Serve one quote from the fast (spectral) tier.

        A warm fast-slot key returns a scaled copy; a cold one pays the
        ~ms spectral solve and is stored under the fast slot only.  Either
        way, when the exact slot is cold an upgrade is enqueued, so the
        cache converges toward lattice-exact under fast traffic and the
        *next* ``tier="auto"`` quote on the key serves exact.
        """
        fkey = self._fast_key(req)
        cached = self.cache.get(fkey)
        if cached is not None:
            with self._lock:
                self._quotes += 1
                self._fast_quotes += 1
            out = _tagged(cached, req, "hit")
        else:
            result = self._solve_spectral(req)
            self.cache.put(fkey, result)
            with self._lock:
                self._quotes += 1
                self._fast_quotes += 1
            out = _tagged(result, req, "miss")
        out.meta["tier"] = "fast"
        out.meta.setdefault("tolerance", self._spectral().tolerance)
        # peek, not get: probing the exact slot to schedule the upgrade
        # must not skew its hit/miss accounting — and must never serve
        # from it on this tier
        if self.cache.peek(req.key) is None:
            self._enqueue_upgrade(req)
        return out

    def _degrade_spectral(
        self, req: CanonicalRequest, reason: str
    ) -> Optional[PricingResult]:
        """Last rung of the degradation ladder (opt-in, see
        ``spectral_fallback``): an approximate spectral serve when no
        stale entry is servable.

        The serve is explicitly marked (``meta["degraded_to"]``) and
        journalled, a refresh is enqueued so the exact slot heals, and
        the result is never written to the exact cache slot.  Returns
        None — fall through to the original rejection — when the fallback
        is disabled or the spectral solve itself rejects the contract.
        """
        if not self.spectral_fallback:
            return None
        try:
            result = self._solve_spectral(req)
        except Exception:
            return None  # e.g. Bermudan: let the original rejection stand
        out = _tagged(result, req, "degraded")
        out.meta["degraded_to"] = "spectral"
        out.meta["degrade_reason"] = reason
        out.meta["tier"] = "fast"
        out.meta.setdefault("tolerance", self._spectral().tolerance)
        with self._lock:
            self._degraded_spectral += 1
        self._enqueue_refresh(req)
        if self.telemetry is not None:
            self.telemetry.emit(
                "degraded_spectral", reason=reason,
                bucket="/".join(map(str, self._bucket_of(req))),
            )
        return out

    def _gate_or_degrade(
        self, req: CanonicalRequest, deadline: Optional[Deadline]
    ) -> Optional[PricingResult]:
        """Pre-solve gate for a cold quote: open breaker or spent deadline
        short-circuits to a stale serve, then — with ``spectral_fallback``
        — an approximate spectral serve, then a structured rejection.

        Returns the decanonicalized degraded result, or None to proceed
        with the solve.  Checks ``state`` — not ``allow()`` — so a
        half-open probe slot is only consumed by the actual solve attempt
        in :meth:`_resolve_group`, never burned twice per quote.
        """
        breaker = self._breaker_for(req)
        if breaker is not None and breaker.state == OPEN:
            canonical = self._stale_canonical(req)
            if canonical is not None:
                return self._mark_stale(
                    _tagged(canonical, req, "stale"), "breaker_open"
                )
            degraded = self._degrade_spectral(req, "breaker_open")
            if degraded is not None:
                return degraded
            raise breaker.reject(self._bucket_of(req))
        if deadline is not None and deadline.expired:
            with self._lock:
                self._deadline_misses += 1
            canonical = self._stale_canonical(req)
            if canonical is not None:
                return self._mark_stale(
                    _tagged(canonical, req, "stale"), "deadline"
                )
            degraded = self._degrade_spectral(req, "deadline")
            if degraded is not None:
                return degraded
            raise DeadlineExceeded(
                f"deadline of {deadline.budget:g}s spent before the "
                "solve could start and no stale entry is servable"
            )
        return None

    # ------------------------------------------------------------------ #
    # Synchronous quoting
    # ------------------------------------------------------------------ #
    def quote(
        self,
        spec: OptionSpec,
        steps: Optional[int] = None,
        *,
        model: Optional[str] = None,
        method: Optional[str] = None,
        base: Optional[int] = None,
        lam: Optional[float] = None,
        return_boundary: bool = False,
        deadline: Optional[Deadline] = None,
        tier: str = "exact",
    ) -> PricingResult:
        """Price one contract through the cache.

        ``tier`` picks the accuracy/latency trade per call:

        * ``"exact"`` (default) — the lattice pipeline below, unchanged.
        * ``"fast"`` — serve the spectral tier immediately: a warm
          fast-slot key is a cache hit, a cold one pays the ~ms spectral
          solve.  The result carries ``meta["tier"] == "fast"`` and
          ``meta["tolerance"]`` (the backend's stated bound), is cached
          under a *fast-tier* slot disjoint from the exact slot, and a
          lattice-exact upgrade is enqueued on the pending queue so the
          exact slot warms behind the serve.  Never reads or writes the
          exact slot.
        * ``"auto"`` — serve the exact slot when it is warm
          (``meta["tier"] == "exact"``, ``meta["tolerance"] == 0.0``),
          otherwise fall back to the fast tier exactly as above.  With
          ``return_boundary=True`` the exact pipeline always runs (the
          spectral tier records no divider).

        A warm key returns a scaled copy of the stored canonical result —
        bit-identical to the cold solve at quantization tolerance 0.  With
        ``return_boundary=True`` a warm *American* entry that was stored
        without a divider is upgraded: the contract is re-solved once with
        boundary recording and the richer entry replaces the old one, so
        subsequent boundary queries on the key are warm too (European
        contracts have no exercise boundary; the flag is ignored for them).
        A key already queued via :meth:`submit` is ridden, not re-solved.

        ``deadline`` bounds a cold solve: when the budget is already spent
        (or runs out mid-solve) the quote is served stale — explicitly
        marked ``meta["stale"]``, refresh enqueued — if the cache still
        holds the key within its stale grace, and raises
        :class:`~repro.resilience.deadline.DeadlineExceeded` otherwise.
        The same degradation applies when the bucket's circuit breaker is
        open (and, with ``spectral_fallback``, degrades one rung further
        to a marked spectral serve before rejecting).  Warm keys are
        always served; a deadline never costs a cache hit anything.
        """
        if tier not in self._TIERS:
            raise ValidationError(
                f"unknown tier {tier!r}; choose one of {self._TIERS}"
            )
        tel = self.telemetry
        if tel is None:
            return self._quote_impl(
                spec, steps, model, method, base, lam,
                return_boundary, deadline, tier,
            )
        t0 = tel.clock()
        seq0 = tel.journal.seq
        sp = tel.span("quote")
        with sp:
            result = self._quote_impl(
                spec, steps, model, method, base, lam,
                return_boundary, deadline, tier,
            )
        dur = tel.clock() - t0
        # outcome label comes from the serve tag quote already records
        outcome = result.meta.get("cache", "miss")
        self._quote_hist(outcome).observe(dur)
        # tiered (and degraded-spectral) serves stamp meta["tier"]; only
        # those observe the per-tier histogram, so exact-only traffic's
        # metric surface is unchanged
        tier_served = result.meta.get("tier")
        if tier_served is not None:
            self._tier_hist(tier_served).observe(dur)
        self._record_exemplar(outcome, dur, sp, seq0)
        return result

    def _record_exemplar(
        self, outcome: str, dur: float, span, seq0: int
    ) -> None:
        """Keep this quote if it ranks among the K slowest of its outcome.

        Top-K check first — the span tree is serialised and the journal
        sliced only for quotes that actually qualify, so steady-state
        traffic pays one lock + one float compare per quote.
        """
        k = self.exemplar_k
        if k == 0:
            return
        with self._exemplar_lock:
            bucket = self._exemplars.setdefault(outcome, [])
            if len(bucket) >= k and dur <= bucket[-1]["duration_s"]:
                return
            seq1 = self.telemetry.journal.seq
            bucket.append(
                {
                    "outcome": outcome,
                    "duration_s": dur,
                    "trace": span.as_dict(),
                    "seq_range": [seq0, seq1],
                    "journal": self.telemetry.journal.slice(seq0, seq1),
                }
            )
            bucket.sort(key=lambda e: e["duration_s"], reverse=True)
            del bucket[k:]

    def explain_slowest(
        self, outcome: Optional[str] = None, n: int = 1
    ) -> list:
        """The ``n`` slowest retained quote exemplars, slowest first.

        Each exemplar carries the quote's full span tree (``trace``) and
        the flight-recorder events emitted while it ran (``journal``,
        sliced by sequence number and correlated by span id) — enough to
        answer "why was the slowest quote slow?" from a live service,
        without reproducing the traffic.  ``outcome`` restricts to one
        serve label (hit/miss/merged/stale); default ranks across all.
        Returns ``[]`` when telemetry is disabled or nothing is retained.
        """
        with self._exemplar_lock:
            if outcome is not None:
                pool = list(self._exemplars.get(outcome, ()))
            else:
                pool = [e for b in self._exemplars.values() for e in b]
        pool.sort(key=lambda e: e["duration_s"], reverse=True)
        return pool[: check_integer("n", n, minimum=1)]

    def _exemplar_snapshot(self) -> dict:
        with self._exemplar_lock:
            return {
                outcome: list(bucket)
                for outcome, bucket in sorted(self._exemplars.items())
            }

    def _lookup_cached(
        self, req: CanonicalRequest, wants_boundary: bool
    ) -> Optional[PricingResult]:
        if wants_boundary:
            # Peek first: an entry without a divider gets re-solved below,
            # and that probe must not count as a cache hit (or refresh
            # recency) — only a servable entry registers the real hit, and
            # a genuinely absent key still registers its miss.
            cached = self.cache.peek(req.key)
            if cached is None or cached.boundary is not None:
                cached = self.cache.get(req.key)
            return cached
        return self.cache.get(req.key)

    def _quote_impl(
        self,
        spec: OptionSpec,
        steps: Optional[int],
        model: Optional[str],
        method: Optional[str],
        base: Optional[int],
        lam: Optional[float],
        return_boundary: bool,
        deadline: Optional[Deadline],
        tier: str = "exact",
    ) -> PricingResult:
        tel = self.telemetry
        if tel is not None:
            with tel.span("canonicalize"):
                req = self._canonicalize(
                    spec, steps, model, method, base, lam
                )
        else:
            req = self._canonicalize(spec, steps, model, method, base, lam)
        # European contracts have no divider to record — never re-solve a
        # warm European entry chasing one.
        wants_boundary = (
            return_boundary and req.spec.style is not Style.EUROPEAN
        )
        if tier == "fast":
            if wants_boundary:
                raise ValidationError(
                    "tier='fast' prices off the spectral backend, which "
                    "records no exercise divider; use tier='exact' (or "
                    "'auto') for return_boundary=True"
                )
            return self._serve_fast(req)
        if tier == "auto" and not wants_boundary:
            # exact first: a warm exact slot beats any approximation —
            # and a cold one is served fast *now* with the exact upgrade
            # queued behind it
            cached = self.cache.get(req.key)
            if cached is not None:
                with self._lock:
                    self._quotes += 1
                out = _tagged(cached, req, "hit")
                out.meta["tier"] = "exact"
                out.meta["tolerance"] = 0.0
                return out
            return self._serve_fast(req)
        if tel is not None:
            with tel.span("cache_lookup"):
                cached = self._lookup_cached(req, wants_boundary)
        else:
            cached = self._lookup_cached(req, wants_boundary)
        if cached is not None and (
            not wants_boundary or cached.boundary is not None
        ):
            with self._lock:
                self._quotes += 1
            return _tagged(cached, req, "hit")
        # Cold: an open breaker or spent budget degrades to a stale serve
        # (or a structured rejection) before any solve is attempted.
        degraded = self._gate_or_degrade(req, deadline)
        if degraded is not None:
            with self._lock:
                self._quotes += 1
            return degraded
        # An identical submit may be queued: claim it — only *this* key,
        # never the rest of the queue, so a latency-sensitive single quote
        # cannot be taxed with a batch — or, when a concurrent flush already
        # holds it mid-solve, ride that result.  Otherwise register our own
        # solve in-flight so concurrent identical quotes and submits merge
        # onto it instead of re-solving.  Divider requests always run their
        # own boundary-recording solve (a queued solve records none) and
        # resolve any claimed/registered pending from it.
        claimed = waiting = own = None
        with self._lock:
            pending = self._inflight.get(req.key)
            if pending is not None:
                try:
                    self._queue.remove(pending)
                    claimed = pending
                    self._merged += 1
                except ValueError:
                    waiting = pending  # a concurrent flush is solving it
            else:
                own = _Pending(req, deadline=deadline)
                self._inflight[req.key] = own
        if claimed is not None and claimed.deadline is None:
            claimed.deadline = deadline  # our budget now bounds its solve
        if waiting is not None and not wants_boundary:
            with self._lock:
                self._quotes += 1
                self._merged += 1
            waiting.event.wait()
            if waiting.error is not None:
                raise waiting.error
            return _tagged(waiting.canonical_result, req, "merged")
        mine = claimed if claimed is not None else own
        if mine is not None and not wants_boundary:
            with self._lock:
                self._quotes += 1
            try:
                self._resolve_group([mine])  # solve errors propagate
            except (DeadlineExceeded, CircuitOpenError) as exc:
                # the solve itself missed the budget (or hit an opening
                # breaker): same degradation ladder as the pre-solve gate
                with self._lock:
                    self._deadline_misses += 1
                canonical = self._stale_canonical(req)
                if canonical is None:
                    degraded = self._degrade_spectral(
                        req,
                        "breaker_open"
                        if isinstance(exc, CircuitOpenError)
                        else "deadline",
                    )
                    if degraded is not None:
                        return degraded
                    raise
                return self._mark_stale(
                    _tagged(canonical, req, "stale"), "deadline"
                )
            result = mine.canonical_result
            if is_timeout(result):
                # resilient solve tiers report budget misses as markers,
                # not exceptions — degrade those identically
                canonical = self._stale_canonical(req)
                if canonical is not None:
                    return self._mark_stale(
                        _tagged(canonical, req, "stale"), "deadline"
                    )
                degraded = self._degrade_spectral(req, "deadline")
                if degraded is not None:
                    return degraded
            return _tagged(
                result, req,
                "merged" if claimed is not None else "miss",
            )
        try:
            result = self._solve_one_boundary(req)
        except BaseException as exc:
            if mine is not None:  # claimed/registered tickets must not hang
                self._fail_pendings([mine], exc)
            raise
        self.cache.put(req.key, result)
        if mine is not None:
            mine.canonical_result = result
            self._drop_inflight(mine)
            mine.event.set()
        with self._lock:
            self._quotes += 1
            self._solves += 1
            if cached is not None:
                self._boundary_upgrades += 1
        return _tagged(result, req, "miss")

    def quote_many(
        self,
        specs: Sequence[OptionSpec],
        steps: Optional[int] = None,
        *,
        model: Optional[str] = None,
        method: Optional[str] = None,
        base: Optional[int] = None,
        lam: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ) -> list[PricingResult]:
        """Price a batch through the cache; results in submission order.

        Requests are canonicalized, deduped by key, looked up, and the
        distinct misses solved in one coalesced batch (``coalesce=False``:
        one at a time).  Every duplicate of a solved key is served from that
        single solve (``meta["cache"] == "merged"``).

        ``deadline`` bounds the whole batch.  Keys whose solve misses the
        budget — or whose bucket breaker is open — are degraded per key,
        never per batch: served stale (``meta["stale"]``) when the cache
        still holds them, or returned as explicit NaN-priced markers
        (``meta["timeout"]`` / ``meta["failed"]``) otherwise; every other
        key keeps its bit-exact price.  The batch keeps submission order
        and raises nothing for these degradable outcomes.
        """
        reqs = [
            self._canonicalize(s, steps, model, method, base, lam)
            for s in specs
        ]
        if not reqs:
            return []
        # counted up front so a failing solve cannot leave the quote/solve
        # bookkeeping inconsistent
        with self._lock:
            self._quotes += len(reqs)
        # Keys already queued via submit() are adopted — claimed out of the
        # pending queue and solved as one bucket here (a key embeds the
        # whole solve configuration, so adoptees are always compatible) —
        # rather than solved twice or paid for with a full-queue drain.
        with self._lock:
            adopted: list[_Pending] = []
            for key in dict.fromkeys(r.key for r in reqs):
                pending = self._inflight.get(key)
                if pending is not None:
                    try:
                        self._queue.remove(pending)
                    except ValueError:
                        continue  # mid-flush elsewhere; re-solved as a miss
                    adopted.append(pending)
        resolved: dict[tuple, PricingResult] = {}
        tags: dict[tuple, str] = {}
        adopted_by_key = {p.request.key: p for p in adopted}
        own: list[_Pending] = []
        for req in reqs:
            if req.key in tags:
                continue
            pending = adopted_by_key.get(req.key)
            if pending is not None:
                cached = self.cache.get(req.key)
                if cached is not None:
                    # a *shared* injected cache can hold a key another
                    # service solved after this one queued it: serve the
                    # warm result and resolve the adopted ticket from it —
                    # no solve at all
                    del adopted_by_key[req.key]
                    pending.canonical_result = cached
                    self._drop_inflight(pending)
                    pending.event.set()
                    resolved[req.key] = cached
                    tags[req.key] = "hit"
                else:
                    # this call pays the adopted solve — a merge with a
                    # queued submit, not a cache hit (the lookup above
                    # recorded the miss, matching quote()/submit() merges)
                    tags[req.key] = "merged"
                continue
            cached = self.cache.get(req.key)
            if cached is not None:
                resolved[req.key] = cached
                tags[req.key] = "hit"
            else:
                # ephemeral pending: never queued, but registered in-flight
                # (when the key is free) so concurrent identical quotes and
                # submits merge onto this call's solve; it rides the same
                # resolution machinery (bucketing, poison isolation, cache
                # stores) as the adopted submits
                pending = _Pending(req, deadline=deadline)
                with self._lock:
                    if req.key not in self._inflight:
                        self._inflight[req.key] = pending
                own.append(pending)
                tags[req.key] = "miss"
        if deadline is not None:
            for pending in adopted_by_key.values():
                if pending.deadline is None:
                    pending.deadline = deadline
        to_resolve = list(adopted_by_key.values()) + own
        if to_resolve:
            # one bucketed resolution for adopted submits and this call's
            # misses together: overlapping traffic coalesces into the same
            # batched solves, and — since canonicalization normalizes
            # base/lam per style — every result is cached under the key it
            # was actually solved with
            try:
                self._resolve_pendings(to_resolve)
            finally:
                # mirror flush(): even a BaseException mid-retry must not
                # leave a pending wedged (adoptees live in _inflight)
                self._abandon_unresolved(to_resolve)
            # Degradable outcomes — the budget ran out, or the bucket's
            # breaker rejected — become per-key stale serves or explicit
            # markers; anything else (a genuinely poisoned solve with no
            # retry policy to marker-ize it) still raises as before.
            first_error: Optional[BaseException] = None
            for pending in to_resolve:
                err = pending.error
                if err is None:
                    result = pending.canonical_result
                    resolved[pending.request.key] = result
                    # resilient solve tiers report per-cell budget misses
                    # and exhausted failures as markers, not exceptions —
                    # degrade a timeout marker to a stale serve when one
                    # is available, and tag markers for what they are
                    if is_timeout(result):
                        canonical = self._stale_canonical(pending.request)
                        if canonical is not None:
                            resolved[pending.request.key] = canonical
                            tags[pending.request.key] = "stale"
                        else:
                            tags[pending.request.key] = "timeout"
                    elif is_marker(result):
                        tags[pending.request.key] = "failed"
                    continue
                if isinstance(err, (DeadlineExceeded, CircuitOpenError)):
                    preq = pending.request
                    with self._lock:
                        self._deadline_misses += isinstance(
                            err, DeadlineExceeded
                        )
                    canonical = self._stale_canonical(preq)
                    if canonical is not None:
                        resolved[preq.key] = canonical
                        tags[preq.key] = "stale"
                    elif isinstance(err, DeadlineExceeded):
                        resolved[preq.key] = timeout_result(
                            preq.steps, preq.model, preq.method,
                            detail=str(err),
                        )
                        tags[preq.key] = "timeout"
                    else:
                        resolved[preq.key] = failure_result(
                            preq.steps, preq.model, preq.method, err
                        )
                        tags[preq.key] = "failed"
                elif first_error is None:
                    first_error = err
            if first_error is not None:
                raise first_error
        out: list[PricingResult] = []
        served_keys: set = set()
        merged = 0
        for req in reqs:
            tag = tags[req.key]
            if req.key in served_keys and tag == "miss":
                tag = "merged"
            served_keys.add(req.key)
            if tag == "merged":
                merged += 1
            served = _tagged(resolved[req.key], req, tag)
            if tag == "stale":
                self._mark_stale(served, "degraded")
            out.append(served)
        with self._lock:
            self._merged += merged
        return out

    def implied_vol(
        self,
        quote: float,
        spec: OptionSpec,
        steps: Optional[int] = None,
        *,
        model: Optional[str] = None,
        method: Optional[str] = None,
        base: Optional[int] = None,
        lam: Optional[float] = None,
        seed: Optional[float] = None,
        price_tol: Optional[float] = None,
    ):
        """Invert one quoted price to an implied volatility through the cache.

        Each objective evaluation of the root find is a :meth:`quote` call,
        so it canonicalizes (strike scaling, put→call fold) and consults the
        cache: re-inverting the same quote — or any quote whose evaluations
        land on already-served canonical keys, e.g. rescaled clones of a
        contract this service priced before — runs entirely warm, and every
        cold evaluation seeds the cache for future traffic.  Returns the
        :class:`~repro.market.implied.ImpliedVolResult` (its ``solves``
        counts *evaluations*; compare the service's ``stats()`` before and
        after to see how many were cache hits).  Meaningful at the exact
        canonical policy; a quantizing policy (``tol > 0``) plateaus the
        objective and degrades the root find's accuracy to ``O(tol)``.
        """
        # Imported lazily: repro.market sits above the risk tier this
        # module already imports — resolving at call time keeps the
        # package import order acyclic-by-construction.
        from repro.market.implied import implied_vol as _implied_vol

        if steps is None:
            steps = self.steps_default
        if steps is None:
            raise ValidationError(
                "steps is required (or configure the service's steps_default)"
            )
        spec = spec.with_style(Style.AMERICAN)  # match price_american

        def price_at(v: float) -> float:
            return self.quote(
                dataclasses.replace(spec, volatility=v), steps,
                model=model, method=method, base=base, lam=lam,
            ).price

        return _implied_vol(
            quote, spec, steps, price_fn=price_at, seed=seed,
            price_tol=price_tol,
        )

    # ------------------------------------------------------------------ #
    # Asynchronous submit / coalescing flush
    # ------------------------------------------------------------------ #
    def submit(
        self,
        spec: OptionSpec,
        steps: Optional[int] = None,
        *,
        model: Optional[str] = None,
        method: Optional[str] = None,
        base: Optional[int] = None,
        lam: Optional[float] = None,
        block: bool = True,
        deadline: Optional[Deadline] = None,
    ) -> QuoteTicket:
        """Enqueue a request; returns a :class:`QuoteTicket`.

        Warm keys resolve immediately.  A key already pending merges onto
        the in-flight solve.  A new key joins the bounded queue; when the
        queue is full, ``block=True`` drains it synchronously (backpressure:
        the submitter pays for the flush) and ``block=False`` raises
        :class:`ServiceOverloadedError` with a structured payload naming
        the rejected canonical key and the queue bound, so a shedding
        caller can retry or re-route without string parsing.  ``deadline``
        is carried on the pending entry; the flush that solves its bucket
        honors the tightest deadline across the bucket's members.
        """
        req = self._canonicalize(spec, steps, model, method, base, lam)
        while True:
            tag: Optional[str] = None
            pending = None
            with self._lock:
                cached = self.cache.get(req.key)
                if cached is not None:
                    self._quotes += 1
                    tag = "hit"
                elif (pending := self._inflight.get(req.key)) is not None:
                    self._quotes += 1
                    self._merged += 1
                    if deadline is not None and pending.deadline is None:
                        pending.deadline = deadline
                    tag = "merged"
                elif len(self._queue) < self.max_pending:
                    pending = _Pending(req, deadline=deadline)
                    self._inflight[req.key] = pending
                    self._queue.append(pending)
                    self._quotes += 1
                    tag = "miss"
                else:
                    self._overloads += 1
                    if not block:
                        raise ServiceOverloadedError(
                            f"pending queue full ({self.max_pending} solves "
                            "queued); flush() or submit with block=True",
                            rejected_keys=[req.key],
                            pending=len(self._queue),
                            max_pending=self.max_pending,
                        )
            if tag == "hit":
                # built outside the lock: the envelope copy work of a warm
                # hit must not serialize concurrent submitters
                return QuoteTicket(
                    self, None, req, "hit", result=_tagged(cached, req, "hit")
                )
            if tag is not None:
                return QuoteTicket(self, pending, req, tag)
            # Full and blocking: drain outside the lock, then retry.  A
            # failing bucket reports to its own tickets — this submit only
            # needs the queue space, so it must survive the drain and keep
            # its request.
            try:
                self.flush()
            except Exception:
                pass

    def flush(self) -> int:
        """Drain the pending queue; returns the distinct solves drained
        (merged submits share their pending, so this can undercount the
        requests served — track ``stats()`` for request-level counts).

        Pending requests are grouped into compatible buckets — identical
        ``(model, method, steps, base, lam)`` — and each bucket is solved as
        one coalesced batch in submission order.  Tickets resolve as their
        bucket completes.  If a bucket's solve raises, its tickets re-raise
        that error from ``result()``, remaining buckets still run, and the
        first error propagates from ``flush`` itself.
        """
        with self._lock:
            batch, self._queue = self._queue, []
        if not batch:
            return 0
        try:
            first_error = self._resolve_pendings(batch)
        finally:
            # Even if a bucket dies with a BaseException (KeyboardInterrupt,
            # worker-pool teardown), no ticket from this batch may hang.
            self._abandon_unresolved(batch)
        if first_error is not None:
            raise first_error
        return len(batch)

    @staticmethod
    def _bucket_of(req: CanonicalRequest) -> tuple:
        """The coalescing bucket: requests solvable as one batch."""
        return (req.model, req.method, req.steps, req.base, req.lam)

    def _bucket_groups(
        self, reqs: Sequence[CanonicalRequest]
    ) -> "list[list[CanonicalRequest]]":
        """Split requests into solve groups, honoring ``coalesce``."""
        if not self.coalesce:
            return [[r] for r in reqs]
        buckets: "OrderedDict[tuple, list[CanonicalRequest]]" = OrderedDict()
        for r in reqs:
            buckets.setdefault(self._bucket_of(r), []).append(r)
        return list(buckets.values())

    def _resolve_pendings(
        self, pendings: Sequence[_Pending]
    ) -> Optional[BaseException]:
        """Resolve pendings in coalescing buckets; returns the first group
        error (each error already reached its own tickets)."""
        by_request = {id(p.request): p for p in pendings}
        first_error: Optional[BaseException] = None
        for group in self._bucket_groups([p.request for p in pendings]):
            try:
                self._resolve_group([by_request[id(r)] for r in group])
            except Exception as exc:  # noqa: BLE001 — kept for tickets
                if first_error is None:
                    first_error = exc
        return first_error

    def _resolve_group(self, group: Sequence[_Pending]) -> None:
        """Solve one compatible pending group; resolve its tickets either way.

        On success every pending gets its canonical result (and the cache a
        fresh entry) *before* its event is set, so a racing submit either
        sees the in-flight entry or the cached result, never a gap.  When a
        *batch* solve fails, each member is retried alone — one poisoned
        request (a spec only the solver can reject) must not starve its
        valid bucket siblings — and the first per-member error propagates.

        Resilience hooks: the group's breaker must admit the solve
        (half-open probe accounting happens here, exactly once per solve
        attempt) and records its outcome — ``DeadlineExceeded`` and
        timeout markers count as failures, so a bucket that keeps missing
        its budget trips open like any other failing bucket.  The tightest
        deadline across the group's members bounds the solve.  Marker
        results resolve their tickets but are never cached.
        """
        breaker = self._breaker_for(group[0].request)
        if breaker is not None and not breaker.allow():
            exc = breaker.reject(self._bucket_of(group[0].request))
            self._fail_pendings(group, exc)
            raise exc
        deadline = effective_deadline([p.deadline for p in group])
        try:
            results = self._solve_requests(
                [p.request for p in group], deadline=deadline
            )
        except Exception as exc:
            if breaker is not None:
                breaker.record_failure()
            if len(group) == 1:
                self._fail_pendings(group, exc)
                raise
            first_error: Optional[BaseException] = None
            for pending in group:
                try:
                    self._resolve_group([pending])
                except Exception as member_exc:  # noqa: BLE001 — per ticket
                    if first_error is None:
                        first_error = member_exc
            if first_error is not None:
                raise first_error
            return
        except BaseException as exc:  # interrupts: fail fast, never hang
            if breaker is not None:
                breaker.record_failure()
            self._fail_pendings(group, exc)
            raise
        if breaker is not None:
            if any(is_timeout(r) for r in results):
                breaker.record_failure()
            else:
                breaker.record_success()
        for pending, result in zip(group, results):
            if not is_marker(result):
                self.cache.put(pending.request.key, result)
            pending.canonical_result = result
            self._drop_inflight(pending)
            pending.event.set()

    def _drop_inflight(self, pending: _Pending) -> None:
        """De-register exactly this pending (identity-checked).

        quote_many's ephemeral pendings are never registered, and a
        concurrent submit may have registered a *new* pending under the
        same key — a blind ``pop(key)`` would evict that live entry and
        break its merging.
        """
        with self._lock:
            if self._inflight.get(pending.request.key) is pending:
                del self._inflight[pending.request.key]

    def _fail_pendings(
        self, group: Sequence[_Pending], exc: BaseException
    ) -> None:
        for pending in group:
            pending.error = exc
            self._drop_inflight(pending)
            pending.event.set()

    def _abandon_unresolved(self, batch: Sequence[_Pending]) -> None:
        for pending in batch:
            if not pending.event.is_set():
                pending.error = RuntimeError(
                    "flush aborted before this request's bucket was solved"
                )
                self._drop_inflight(pending)
                pending.event.set()

    # ------------------------------------------------------------------ #
    @property
    def pending(self) -> int:
        """Distinct solves currently queued (merged requests not counted)."""
        with self._lock:
            return len(self._queue)

    def stats(self) -> dict:
        """Snapshot: cache counters plus service-level serving counters.

        With telemetry attached the snapshot also carries a ``telemetry``
        section — the registry's stable JSON export
        (:meth:`repro.obs.MetricsRegistry.snapshot`), latency histograms
        and all.
        """
        with self._lock:
            breakers = {
                "/".join(map(str, key)): breaker.stats()
                for key, breaker in self._breakers.items()
            }
            out = {
                "cache": self.cache.stats(),
                "service": {
                    "quotes": self._quotes,
                    "solves": self._solves,
                    "batches": self._batches,
                    "batched_requests": self._batched_requests,
                    "max_batch": self._max_batch,
                    "merged_requests": self._merged,
                    "boundary_upgrades": self._boundary_upgrades,
                    "overloads": self._overloads,
                    "pending": len(self._queue),
                    "max_pending": self.max_pending,
                    "workers": self.workers,
                    "backend": self.backend if self.workers > 1 else "serial",
                    "coalesce": self.coalesce,
                    "fast_quotes": self._fast_quotes,
                    "tier_upgrades": self._tier_upgrades,
                },
                "resilience": {
                    "breakers": breakers,
                    "stale_quotes": self._stale_quotes,
                    "refreshes": self._refreshes,
                    "deadline_misses": self._deadline_misses,
                    "degraded_spectral": self._degraded_spectral,
                },
            }
        if self.telemetry is not None:
            out["telemetry"] = self.telemetry.snapshot()
            out["exemplars"] = self._exemplar_snapshot()
        return out

    def health(self) -> dict:
        """Cheap liveness/readiness summary for probes and dashboards.

        ``status`` is ``"ok"``, ``"degraded"`` (any bucket breaker not
        closed — requests on those buckets are being served stale or
        rejected fast) or ``"overloaded"`` (the pending queue is full, so
        non-blocking submits are shedding load).  ``open_breakers`` names
        every bucket whose breaker is not closed, and ``journal_dropped``
        counts flight-recorder events lost to ring overflow (0 without
        telemetry) — a growing number means the journal window is too
        small for the incident being debugged.  The rest is the handful
        of levels a probe acts on; :meth:`stats` remains the full
        snapshot.
        """
        with self._lock:
            breakers = list(self._breakers.items())
            pending = len(self._queue)
            inflight = len(self._inflight)
        open_buckets = sorted(
            "/".join(map(str, key))
            for key, breaker in breakers
            if breaker.state != CLOSED
        )
        if pending >= self.max_pending:
            status = "overloaded"
        elif open_buckets:
            status = "degraded"
        else:
            status = "ok"
        cache = self.cache.stats()
        return {
            "status": status,
            "open_breakers": open_buckets,
            "pending": pending,
            "max_pending": self.max_pending,
            "inflight": inflight,
            "cache_hit_ratio": cache["hit_ratio"],
            "cache_size": cache["size"],
            "stale_quotes": self._stale_quotes,
            "degraded_spectral": self._degraded_spectral,
            "journal_dropped": (
                self.telemetry.journal.dropped
                if self.telemetry is not None
                else 0
            ),
            "telemetry_enabled": self.telemetry is not None,
        }
