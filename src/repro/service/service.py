"""QuoteService: caching, coalescing front door over the pricing engines.

The serving pipeline (docs/DESIGN.md §5) is

    request --canonicalize--> key --cache--> hit?  serve scaled copy
                                   \\-- miss --> gate --> adopt --> solve --> degrade

* :func:`~repro.service.canonical.canonicalize` folds each request onto a
  dimensionless key, so a strike strip, both rights (binomial), and
  rescaled clones of one contract all share a single solve.
* :class:`~repro.service.cache.QuoteCache` (LRU+TTL) serves warm keys in
  O(1) — a dict lookup plus one multiply — versus a full O(T log²T) solve.
* Cold keys go through **one pipeline**: a pre-solve gate (bucket
  breaker open or budget spent), in-flight adoption, one bucketed
  resolve, and one degradation ladder (stale, opt-in spectral, refusal).
  :meth:`QuoteService.quote` is its B = 1 call behind a warm-hit
  shortcut and raises a refusal; :meth:`QuoteService.quote_many` is its
  batch call and returns timeout/failure markers instead.
* :meth:`QuoteService.submit` parks requests in a bounded queue whose
  :meth:`QuoteService.flush` feeds the same resolver: compatible pending
  requests (same model/method/steps/base/lam bucket) share one
  :func:`repro.core.api.price_many` batch — on the service's
  plan-caching :class:`~repro.core.fftstencil.AdvanceEngine`, or
  (``workers > 1``) fanned across a
  :class:`~repro.risk.engine.ScenarioEngine` worker pool.  A bucket is a
  loop of lone solves on that one engine, so cells on the same lattice
  reuse each other's kernel spectra and cells with *different* vols/rates
  simply solve one after another.

Identical in-flight requests are merged: a cold key claims its queued
submit, rides a solve of it already running elsewhere, or registers its
own pending so concurrent identical quotes and submits ride it too.  The
queue is bounded (``max_pending``); when it is full a blocking submit pays
the drain itself (backpressure) and a non-blocking one raises
:class:`ServiceOverloadedError`.

Threading: every public method is safe to call from multiple threads.
Cache hits, enqueues and bookkeeping run concurrently; the *cold solves*
themselves serialize on an internal mutex because the shared engine's
cache and counters update without a lock — concurrent throughput on a
cold stream comes from ``workers > 1`` (per-worker engines), not from
racing threads into one engine.
"""

from __future__ import annotations

import dataclasses
import threading
import time
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

#: Serving counters by the :meth:`QuoteService.stats` section that reports
#: them; the registry collector exports all of them under the same names.
_SERVICE_COUNTERS = (
    "quotes", "solves", "batches", "batched_requests", "max_batch",
    "merged_requests", "boundary_upgrades", "overloads", "fast_quotes",
    "tier_upgrades",
)
_RESILIENCE_COUNTERS = (
    "stale_quotes", "refreshes", "deadline_misses", "degraded_spectral",
)


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


@dataclass(eq=False)  # identity: a queue claim must not compare fields
class _Pending:
    """One queued canonical solve, shared by every ticket that merged into it."""

    request: CanonicalRequest
    canonical_result: Optional[PricingResult] = None
    error: Optional[BaseException] = None
    event: threading.Event = field(default_factory=threading.Event)
    #: tightest budget any merged caller carried; the bucket solve honors
    #: the tightest across its members (effective_deadline)
    deadline: Optional[Deadline] = None
    #: record the exercise divider (``quote(return_boundary=True)``); such
    #: a pending solves in a bucket of its own
    boundary: bool = False


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


def _spent(deadline: Deadline) -> DeadlineExceeded:
    """The refusal for a budget already spent when its solve would start."""
    return DeadlineExceeded(
        f"deadline of {deadline.budget:g}s spent before the solve could "
        "start"
    )


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
        Opt-in last rung of the degradation ladder.  When a cold key's
        solve is refused — its bucket breaker open, or its deadline spent
        before or during the solve — and no stale entry is servable,
        serve an approximate spectral price instead of raising
        (:meth:`quote`) or returning a marker (:meth:`quote_many`):
        explicitly marked (``meta["degraded_to"] == "spectral"``),
        journalled, refresh enqueued, and **never** written to the exact
        cache slot.  Default ``False`` keeps the refusal.
    telemetry:
        Optional :class:`repro.obs.Telemetry`.  When enabled, the service
        records quote latency histograms per serve outcome
        (hit/miss/merged/stale), breaker state transitions, and
        ``quote → canonicalize / cache_lookup / bucket_solve → solve``
        spans; the cache, service and engine counter dicts re-register
        into the registry as collectors, and :meth:`stats` gains a
        ``telemetry`` section.  ``None`` (or a disabled handle) costs the
        hot path one attribute test.
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
        #: Serializes solves on the shared engine (its cache and counters
        #: update without a lock); never acquired while holding ``_lock``.
        self._solve_mutex = threading.Lock()
        self._queue: list[_Pending] = []
        self._inflight: dict[tuple, _Pending] = {}
        self._breakers: dict[tuple, CircuitBreaker] = {}
        #: serving counters: :meth:`stats` and the registry collector
        #: both read this one dict
        self._counts = dict.fromkeys(
            _SERVICE_COUNTERS + _RESILIENCE_COUNTERS, 0
        )
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
                **self._counts,
                "pending": len(self._queue),
                "inflight": len(self._inflight),
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

    def _solve_requests(
        self,
        reqs: Sequence[CanonicalRequest],
        deadline: Optional[Deadline] = None,
        boundary: bool = False,
    ) -> list[PricingResult]:
        """Solve a bucket of same-configuration canonical requests.

        ``deadline`` is carried into the solve tier: the scenario engine
        waits its chunk futures against it (per-cell timeout markers on
        expiry), and the serial shared engine observes it cooperatively
        through its ``checkpoint`` hook, raising
        :class:`~repro.resilience.deadline.DeadlineExceeded` mid-solve.
        ``boundary`` records each (American) request's exercise divider,
        which only the shared engine's :func:`price_american` records.
        """
        tel = self.telemetry
        if tel is not None:
            with tel.span("bucket_solve", size=len(reqs), steps=reqs[0].steps):
                return self._solve_requests_inner(reqs, deadline, boundary)
        return self._solve_requests_inner(reqs, deadline, boundary)

    def _solve_requests_inner(
        self,
        reqs: Sequence[CanonicalRequest],
        deadline: Optional[Deadline],
        boundary: bool,
    ) -> list[PricingResult]:
        r0 = reqs[0]
        specs = [r.spec for r in reqs]
        resilient_solves = self.retry is not None or self.fault_plan is not None
        if self._scenario is not None and not boundary and (
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
            config = dict(
                model=r0.model, method=r0.method, base=r0.base, lam=r0.lam,
                policy=self.policy, engine=self._engine,
            )
            with self._solve_mutex:
                if deadline is not None:
                    deadline.check("bucket solve")
                    self._engine.checkpoint = deadline.checkpoint
                try:
                    if boundary:
                        results = [
                            price_american(
                                spec, r0.steps, return_boundary=True, **config
                            )
                            for spec in specs
                        ]
                    else:
                        results = price_many(specs, r0.steps, **config)
                finally:
                    if deadline is not None:
                        self._engine.checkpoint = None
        with self._lock:
            self._counts["solves"] += len(specs)
            if len(specs) > 1:
                self._counts["batches"] += 1
                self._counts["batched_requests"] += len(specs)
                self._counts["max_batch"] = max(
                    self._counts["max_batch"], len(specs)
                )
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

    def _serve_stale(
        self, req: CanonicalRequest, reason: str
    ) -> Optional[tuple]:
        """First rung of the degradation ladder: a marked copy of the
        key's stale-but-graced canonical result, tagged ``"stale"``, with a
        refresh enqueued so the next flush re-solves it (None if the cache
        cannot vouch for one)."""
        canonical = self.cache.get_stale(req.key)
        if canonical is None:
            return None
        self._enqueue_refresh(req)
        with self._lock:
            self._counts["stale_quotes"] += 1
        if self.telemetry is not None:
            self.telemetry.emit("stale_serve", reason=reason)
        out = canonical.scaled(1.0)
        out.meta[STALE_KEY] = True
        out.meta["stale_reason"] = reason
        return out, "stale"

    def _enqueue_refresh(
        self, req: CanonicalRequest, upgrade: bool = False
    ) -> None:
        """Queue a background lattice re-solve of ``req``: the refresh
        behind a stale or spectral-degraded serve, or (``upgrade``) the
        exact-slot upgrade behind a fast-tier serve.

        It rides the ordinary pending queue (drained by the next
        ``flush``/``result``/backpressure drain) rather than a thread of
        its own — deterministic, testable, and automatically coalesced
        with any real traffic on the same bucket.  Skipped when the key is
        already in flight or the queue is full (the serve that asked for
        it stands on its own either way).
        """
        with self._lock:
            if req.key in self._inflight or len(self._queue) >= self.max_pending:
                return
            pending = _Pending(req)
            self._inflight[req.key] = pending
            self._queue.append(pending)
            if upgrade:
                self._counts["tier_upgrades"] += 1
            else:
                self._counts["refreshes"] += 1
        if upgrade and self.telemetry is not None:
            self.telemetry.emit(
                "tier_upgrade",
                bucket="/".join(map(str, self._bucket_of(req))),
            )

    def _gate(
        self, req: CanonicalRequest, deadline: Optional[Deadline]
    ) -> Optional[BaseException]:
        """The pre-solve gate: a cold key's refusal — its bucket breaker
        open, or its budget spent — or None to proceed.

        Checks ``state`` — not ``allow()`` — so a half-open probe slot is
        only consumed by the actual solve attempt in
        :meth:`_resolve_group`, never burned twice per quote.
        """
        breaker = self._breaker_for(req)
        if breaker is not None and breaker.state == OPEN:
            return breaker.reject(self._bucket_of(req))
        if deadline is not None and deadline.expired:
            return _spent(deadline)
        return None

    def _degrade(self, req: CanonicalRequest, refusal):
        """The one degradation ladder for a refused cold key: a stale
        serve, then the opt-in spectral serve, then the refusal itself.

        ``refusal`` is a :class:`DeadlineExceeded` or
        :class:`CircuitOpenError` from the gate or the solve, or a timeout
        marker from a resilient solve tier (handed back tagged
        ``"timeout"``).
        """
        if isinstance(refusal, DeadlineExceeded):
            with self._lock:
                self._counts["deadline_misses"] += 1
        reason = (
            "breaker_open" if isinstance(refusal, CircuitOpenError)
            else "deadline"
        )
        return (
            self._serve_stale(req, reason)
            or self._degrade_spectral(req, reason)
            or (refusal if isinstance(refusal, BaseException)
                else (refusal, "timeout"))
        )

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
                self._counts["quotes"] += 1
                self._counts["fast_quotes"] += 1
            out = _tagged(cached, req, "hit")
        else:
            result = self._solve_spectral(req)
            self.cache.put(fkey, result)
            with self._lock:
                self._counts["quotes"] += 1
                self._counts["fast_quotes"] += 1
            out = _tagged(result, req, "miss")
        out.meta["tier"] = "fast"
        out.meta.setdefault("tolerance", self._spectral().tolerance)
        # peek, not get: probing the exact slot to schedule the upgrade
        # must not skew its hit/miss accounting — and must never serve
        # from it on this tier
        if self.cache.peek(req.key) is None:
            self._enqueue_refresh(req, upgrade=True)
        return out

    def _degrade_spectral(
        self, req: CanonicalRequest, reason: str
    ) -> Optional[tuple]:
        """Last rung of the degradation ladder (opt-in, see
        ``spectral_fallback``): an approximate spectral serve,
        ``(result, "degraded")``, when no stale entry is servable.

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
        result.meta["degraded_to"] = "spectral"
        result.meta["degrade_reason"] = reason
        result.meta["tier"] = "fast"
        result.meta.setdefault("tolerance", self._spectral().tolerance)
        with self._lock:
            self._counts["degraded_spectral"] += 1
        self._enqueue_refresh(req)
        if self.telemetry is not None:
            self.telemetry.emit(
                "degraded_spectral", reason=reason,
                bucket="/".join(map(str, self._bucket_of(req))),
            )
        return result, "degraded"

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
        The same degradation applies when the bucket's circuit breaker
        refuses the solve (and, with ``spectral_fallback``, degrades one
        rung further to a marked spectral serve before rejecting); markers
        from a resilient solve tier are tagged ``"timeout"``/``"failed"``.
        Warm keys are always served; a deadline never costs a hit a thing.
        """
        if tier not in self._TIERS:
            raise ValidationError(
                f"unknown tier {tier!r}; choose one of {self._TIERS}"
            )
        tel = self.telemetry
        if tel is None:
            return self._quote_one(
                spec, steps, model, method, base, lam,
                return_boundary, deadline, tier,
            )
        t0 = tel.clock()
        seq0 = tel.journal.seq
        sp = tel.span("quote")
        with sp:
            result = self._quote_one(
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

    def _quote_one(
        self,
        spec: OptionSpec,
        steps: Optional[int],
        model: Optional[str],
        method: Optional[str],
        base: Optional[int],
        lam: Optional[float],
        return_boundary: bool,
        deadline: Optional[Deadline],
        tier: str,
    ) -> PricingResult:
        """:meth:`quote` without its telemetry wrapper: the warm-hit
        shortcut and the tiers in front of the B = 1 pipeline call."""
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
        auto = tier == "auto" and not wants_boundary
        if tel is not None:
            with tel.span("cache_lookup"):
                cached = self._lookup_cached(req, wants_boundary)
        else:
            cached = self._lookup_cached(req, wants_boundary)
        if cached is not None and (
            not wants_boundary or cached.boundary is not None
        ):
            with self._lock:
                self._counts["quotes"] += 1
            out = _tagged(cached, req, "hit")
            if auto:
                out.meta["tier"] = "exact"
                out.meta["tolerance"] = 0.0
            return out
        if auto:
            # exact first: a warm exact slot beats any approximation —
            # and a cold one is served fast *now* with the exact upgrade
            # queued behind it
            return self._serve_fast(req)
        outcome = self._serve(
            [req], deadline, boundary=wants_boundary, looked_up=True
        )[req.key]
        if isinstance(outcome, BaseException):
            raise outcome
        result, tag = outcome
        if cached is not None and tag == "miss":
            # this call's own solve re-recorded a divider-less entry
            with self._lock:
                self._counts["boundary_upgrades"] += 1
        return _tagged(result, req, tag)

    def _serve(
        self,
        reqs: Sequence[CanonicalRequest],
        deadline: Optional[Deadline],
        *,
        boundary: bool = False,
        looked_up: bool = False,
    ) -> dict:
        """The one quote pipeline (:meth:`quote` is its B = 1 call,
        :meth:`quote_many` its batch call): counts every request, then per
        distinct key runs

        1. the cache lookup, unless the caller ``looked_up`` and missed;
        2. the pre-solve gate (:meth:`_gate`);
        3. in-flight adoption: claim a queued submit of the key (only this
           key — a latency-sensitive call is never taxed with unrelated
           queued work), ride a solve of it running elsewhere, or register
           its own pending for concurrent identical requests to ride;
        4. one :meth:`_resolve_pendings` call for every key it solves;
        5. the degradation ladder (:meth:`_degrade`) for every refusal.

        ``boundary`` records the exercise divider; such a key never rides
        a solve that records none.  Returns ``{key: (canonical result,
        tag) or the key's exception}``.
        """
        with self._lock:
            self._counts["quotes"] += len(reqs)
        outcomes: dict = {}
        hits: dict = {}
        cold: list[CanonicalRequest] = []
        for key, req in {r.key: r for r in reqs}.items():
            cached = None if looked_up else self.cache.get(key)
            if cached is not None:
                hits[key] = cached
                outcomes[key] = (cached, "hit")
                continue
            refusal = self._gate(req, deadline)
            if refusal is None:
                cold.append(req)
            else:
                outcomes[key] = self._degrade(req, refusal)
        mine: list[tuple] = []  # (request, pending, tag) this call solves
        rides: list[tuple] = []  # (request, pending, tag) solved elsewhere
        with self._lock:
            for key, cached in hits.items():
                # a *shared* injected cache can hold a key this service
                # still has queued: the hit resolves that ticket too
                pending = self._inflight.get(key)
                if pending is None:
                    continue
                try:
                    self._queue.remove(pending)
                except ValueError:
                    continue  # mid-solve elsewhere: it resolves itself
                pending.canonical_result = cached
                del self._inflight[key]
                pending.event.set()
            for req in cold:
                pending = self._inflight.get(req.key)
                if pending is None:
                    pending = _Pending(req, deadline=deadline, boundary=boundary)
                    self._inflight[req.key] = pending
                    mine.append((req, pending, "miss"))
                    continue
                try:
                    self._queue.remove(pending)
                except ValueError:
                    # a concurrent flush or call is solving it
                    if boundary and not pending.boundary:
                        # ...without the divider: solve our own, unregistered
                        pending = _Pending(req, deadline=deadline, boundary=True)
                        mine.append((req, pending, "miss"))
                    else:
                        rides.append((req, pending, "merged"))
                        self._counts["merged_requests"] += 1
                    continue
                # our budget bounds it too: the tightest wins
                pending.deadline = effective_deadline(
                    [pending.deadline, deadline]
                )
                pending.boundary = boundary
                mine.append((req, pending, "merged"))
                self._counts["merged_requests"] += 1
        solving = [pending for _, pending, _ in mine]
        try:
            self._resolve_pendings(solving)
        finally:
            # even a BaseException mid-solve must not leave a pending
            # wedged for the calls that ride it
            self._abandon_unresolved(solving)
        for req, pending, tag in mine + rides:
            pending.event.wait()
            result, error = pending.canonical_result, pending.error
            if isinstance(error, (DeadlineExceeded, CircuitOpenError)) or (
                error is None and is_timeout(result)
            ):
                outcomes[req.key] = self._degrade(req, error or result)
            elif error is not None:
                outcomes[req.key] = error
            else:
                outcomes[req.key] = (
                    result, "failed" if is_marker(result) else tag
                )
        return outcomes

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

        The batch call of the quote pipeline: requests are canonicalized,
        deduped by key, looked up, and the distinct misses solved in
        coalesced bucket batches (a key queued via :meth:`submit` or in
        flight elsewhere is ridden, not re-solved).  Every duplicate of a
        solved key is served from that single solve
        (``meta["cache"] == "merged"``).

        ``deadline`` bounds the whole batch.  A key whose solve is refused
        (budget spent, or bucket breaker open) walks :meth:`quote`'s
        degradation ladder per key, never per batch — stale
        (``meta["stale"]``), then the opt-in spectral serve — and where
        :meth:`quote` would raise, returns an explicit NaN-priced marker
        (``meta["timeout"]`` / ``meta["failed"]``); every other key keeps
        its bit-exact price.  Submission order holds, and any other solve
        error raises once the whole batch has resolved.
        """
        reqs = [
            self._canonicalize(s, steps, model, method, base, lam)
            for s in specs
        ]
        if not reqs:
            return []
        outcomes = self._serve(reqs, deadline)
        out: list[PricingResult] = []
        first_error: Optional[BaseException] = None
        seen: set = set()
        merged = 0
        for req in reqs:
            outcome = outcomes[req.key]
            if isinstance(outcome, DeadlineExceeded):
                outcome = timeout_result(
                    req.steps, req.model, req.method, detail=str(outcome)
                ), "timeout"
            elif isinstance(outcome, CircuitOpenError):
                outcome = failure_result(
                    req.steps, req.model, req.method, outcome
                ), "failed"
            elif isinstance(outcome, BaseException):
                if first_error is None:
                    first_error = outcome
                continue
            result, tag = outcome
            if req.key in seen and tag in ("miss", "merged"):
                tag = "merged"  # a duplicate rides the key's one solve
                merged += 1
            seen.add(req.key)
            out.append(_tagged(result, req, tag))
        if first_error is not None:
            raise first_error
        with self._lock:
            self._counts["merged_requests"] += merged
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
                    self._counts["quotes"] += 1
                    tag = "hit"
                elif (pending := self._inflight.get(req.key)) is not None:
                    self._counts["quotes"] += 1
                    self._counts["merged_requests"] += 1
                    pending.deadline = effective_deadline(
                        [pending.deadline, deadline]
                    )
                    tag = "merged"
                elif len(self._queue) < self.max_pending:
                    pending = _Pending(req, deadline=deadline)
                    self._inflight[req.key] = pending
                    self._queue.append(pending)
                    self._counts["quotes"] += 1
                    tag = "miss"
                else:
                    self._counts["overloads"] += 1
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

    def _resolve_pendings(
        self, pendings: Sequence[_Pending]
    ) -> Optional[BaseException]:
        """Resolve pendings in coalescing buckets; returns the first group
        error (each error already reached its own tickets).

        A pending whose budget is already spent fails alone, before any
        breaker can count it, while its bucket siblings still solve.
        """
        first_error: Optional[BaseException] = None
        buckets: dict[tuple, list[_Pending]] = {}
        for p in pendings:
            if p.deadline is not None and p.deadline.expired:
                exc = _spent(p.deadline)
                self._fail_pendings([p], exc)
                if first_error is None:
                    first_error = exc
            else:
                bucket = (self._bucket_of(p.request), p.boundary)
                buckets.setdefault(bucket, []).append(p)
        for group in buckets.values():
            try:
                self._resolve_group(group)
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
                [p.request for p in group], deadline, group[0].boundary
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

        A divider solve that could not ride a plain one is never
        registered, and a concurrent submit may have registered a *new*
        pending under the same key — a blind ``pop(key)`` would evict that
        live entry and break its merging.
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
        self._fail_pendings(
            [p for p in batch if not p.event.is_set()],
            RuntimeError("aborted before this request's bucket was solved"),
        )

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
                    **{k: self._counts[k] for k in _SERVICE_COUNTERS},
                    "pending": len(self._queue),
                    "max_pending": self.max_pending,
                    "workers": self.workers,
                    "backend": self.backend if self.workers > 1 else "serial",
                },
                "resilience": {
                    "breakers": breakers,
                    **{k: self._counts[k] for k in _RESILIENCE_COUNTERS},
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
            "stale_quotes": self._counts["stale_quotes"],
            "degraded_spectral": self._counts["degraded_spectral"],
            "journal_dropped": (
                self.telemetry.journal.dropped
                if self.telemetry is not None
                else 0
            ),
            "telemetry_enabled": self.telemetry is not None,
        }
