"""Seeded concurrency invariants for QuoteService's shared state.

Four client threads issue mixed ``quote`` (exact/auto/fast),
``quote_many`` (batches may repeat a contract), ``submit`` + ``result()``
and ``flush`` traffic over 12 contracts at two step counts against an
8-entry cache, so in-flight adoption, tier upgrades, evictions and
concurrent flushes all interleave.
Each thread's operations come from its own seeded stream; the
interleaving is whatever the scheduler makes of them, so the assertions
are invariants that must hold under every interleaving:

* no thread hangs;
* after a final flush every ticket is done and nothing is left in flight
  or queued;
* fast-slot cache entries are spectral and exact-slot entries are
  lattice results, never markers;
* ``stats()["service"]["quotes"]`` counts every request issued exactly
  once;
* every served price that is not a marker is bit-equal to a
  single-threaded replay of the same request on a fresh service.

Three variants: plain traffic; ``Deadline(0.0)`` on some ``quote_many``
and ``submit`` calls; a ``RetryPolicy`` plus a crash-only
``FaultPlan``.  A call that merges onto a pending carrying a spent budget
may raise ``DeadlineExceeded`` although it set no deadline itself: the
tightest merged budget wins (docs/DESIGN.md §8.1), so that is tolerated
in the deadline variant.
"""

import dataclasses
import random
import sys
import threading

import numpy as np
import pytest

from repro.options.contract import Right, paper_benchmark_spec
from repro.resilience import Deadline, DeadlineExceeded, FaultPlan, RetryPolicy
from repro.resilience.markers import is_marker
from repro.service import QuoteService

N_THREADS = 4
OPS_PER_THREAD = 48
STEPS = (32, 48)
TIERS = ("exact", "exact", "auto", "fast")
CONTRACTS = [
    dataclasses.replace(
        paper_benchmark_spec(),
        strike=float(k),
        right=Right.PUT if i % 2 else Right.CALL,
    )
    for i, k in enumerate(np.linspace(90.0, 150.0, 12))
]
JOIN_TIMEOUT = 60.0


def quiet_retry():
    return RetryPolicy(
        max_attempts=3, base_delay=0.0, jitter=0.0, seed=1,
        sleep=lambda s: None,
    )


def make_service(variant: str, seed: int) -> QuoteService:
    if variant == "faults":
        return QuoteService(
            cache_size=8, retry=quiet_retry(),
            fault_plan=FaultPlan.random(seed, 8, crash_rate=0.3),
        )
    return QuoteService(cache_size=8)


class Client:
    """One thread's seeded traffic and everything it was served."""

    def __init__(self, svc: QuoteService, variant: str, seed: int, tid: int):
        self.svc = svc
        self.variant = variant
        self.rng = random.Random(seed * 1009 + tid)
        #: (spec, steps, served result or the exception raised)
        self.served: list = []
        self.tickets: list = []
        self.requests = 0
        self.crash = None

    def deadline(self):
        if self.variant == "deadlines" and self.rng.random() < 0.3:
            return Deadline(0.0)
        return None

    def call(self, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except DeadlineExceeded as exc:
            if self.variant != "deadlines":
                raise
            return exc

    def step(self) -> None:
        rng, svc = self.rng, self.svc
        steps = rng.choice(STEPS)
        kind = rng.random()
        if kind < 0.45:
            spec = rng.choice(CONTRACTS)
            self.requests += 1
            out = self.call(svc.quote, spec, steps, tier=rng.choice(TIERS))
            self.served.append((spec, steps, out))
        elif kind < 0.65:
            specs = rng.choices(CONTRACTS, k=rng.randint(2, 5))
            self.requests += len(specs)
            out = self.call(
                svc.quote_many, specs, steps, deadline=self.deadline()
            )
            if isinstance(out, BaseException):
                self.served += [(s, steps, out) for s in specs]
            else:
                self.served += list(zip(specs, [steps] * len(specs), out))
        elif kind < 0.9:
            spec = rng.choice(CONTRACTS)
            self.requests += 1
            ticket = svc.submit(spec, steps, deadline=self.deadline())
            self.tickets.append((spec, steps, ticket))
            if rng.random() < 0.5:
                out = self.call(ticket.result, timeout=JOIN_TIMEOUT)
                self.served.append((spec, steps, out))
        else:
            self.call(svc.flush)

    def run(self) -> None:
        try:
            for _ in range(OPS_PER_THREAD):
                self.step()
        except BaseException as exc:  # reported by the main thread
            self.crash = exc


def run_traffic(variant: str, seed: int):
    svc = make_service(variant, seed)
    clients = [Client(svc, variant, seed, tid) for tid in range(N_THREADS)]
    threads = [threading.Thread(target=c.run, daemon=True) for c in clients]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # interleave threads far more often
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(JOIN_TIMEOUT)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads), "a client thread hung"
    for c in clients:
        if c.crash is not None:
            raise c.crash
    return svc, clients


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("variant", ["plain", "deadlines", "faults"])
def test_concurrent_traffic_keeps_invariants(variant, seed):
    svc, clients = run_traffic(variant, seed)
    try:
        svc.flush()
    except DeadlineExceeded:
        assert variant == "deadlines"

    # every ticket resolved; nothing left in flight or queued
    served = [s for c in clients for s in c.served]
    for c in clients:
        for spec, steps, ticket in c.tickets:
            assert ticket.done()
            served.append((spec, steps, c.call(ticket.result, timeout=0)))
    assert svc._inflight == {}
    assert svc.pending == 0

    # slot isolation: no approximation or marker in an exact slot
    for key, entry in svc.cache._entries.items():
        backend = entry.result.meta.get("backend")
        if key[0] == "tier:fast":
            assert backend == "spectral"
        else:
            assert backend == "lattice"
            assert not is_marker(entry.result)

    # every request issued counted exactly once
    assert svc.stats()["service"]["quotes"] == sum(c.requests for c in clients)

    # served prices replay bit for bit, single-threaded
    replay = QuoteService()
    for spec, steps, out in served:
        if isinstance(out, BaseException):
            assert isinstance(out, DeadlineExceeded)
            continue
        if is_marker(out):
            continue
        tier = "fast" if out.meta.get("tier") == "fast" else "exact"
        assert out.price == replay.quote(spec, steps, tier=tier).price
