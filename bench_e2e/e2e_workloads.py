"""Seeded inputs, operations and correctness checks of the five workloads.

Every workload is a closed loop with one client thread: the loop issues an
operation, waits for its answer, records it, and issues the next.  Inputs
come from ``numpy.random.default_rng`` seeded with ``[seed, stream]``, so
one seed always gives the same contracts, draws and grids, and the program
only ever sees the generated contracts.  Inputs a run needs in bulk are
built lazily, outside the timed region; the set-up time (see ``run.py``)
covers imports, the fixed input tables, construction and one throwaway
solve per step count on a contract outside every population.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import time
import traceback
from dataclasses import dataclass

import numpy as np

from repro.core.api import price_american, price_many
from repro.core.backend import get_backend, register_backend
from repro.core.spectral import SpectralBackend
from repro.experiments.calibration import fit_power_law
from repro.market.implied import implied_vol_many
from repro.options.contract import OptionSpec, Right
from repro.resilience.markers import is_served
from repro.risk.engine import ScenarioEngine
from repro.service.service import QuoteService

STEPS = 256
SPOT = 100.0
CACHE_SIZE = 256
SURFACE_STRIKES = tuple(np.linspace(70.0, 130.0, 32))
#: one week to two years on the 252-day count
SURFACE_DAYS = (5.0, 21.0, 42.0, 63.0, 126.0, 252.0, 378.0, 504.0)
TIERS = ("exact", "auto", "fast")
TIER_MIX = (0.7, 0.2, 0.1)
FLUSH_EVERY = 64
CHAIN = 8
DEEP_MODELS = ("binomial", "trinomial", "bsm-fd")
#: three months to two years: shorter ladders' far wings have too little
#: vega for a 1e-6 vol check at the solver's default price tolerance
LADDER_DAYS = (63.0, 126.0, 189.0, 252.0, 315.0, 378.0, 441.0, 504.0)
LADDER_SMILES = 3
#: pre-drawn operations per run; a run that gets through them all
#: starts over from the first
STREAM_LEN = 200_000

#: a contract outside every population, for the set-up's throwaway solves
OFF_POPULATION = OptionSpec(
    spot=100.0, strike=100.0, rate=0.09, volatility=0.95,
    dividend_yield=0.05, expiry_days=300.0,
)

EXACT_TOL = 1e-12
LOOP_TOL = 1e-10
VOL_TOL = 1e-6


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; :data:`FULL` for measurement, :data:`SMOKE` for the
    quick pass that checks the benchmark itself."""

    deep_steps: int
    sweep_steps: tuple
    loop_check_steps: int
    fast_ref_steps: int
    fast_checks: int
    grid_cells: int
    ladder_strikes: int


FULL = Sizes(
    deep_steps=8192,
    sweep_steps=(512, 1024, 2048, 4096, 8192, 16384),
    loop_check_steps=2048,
    fast_ref_steps=4096,
    fast_checks=16,
    grid_cells=1024,
    ladder_strikes=64,
)
SMOKE = Sizes(
    deep_steps=1024,
    sweep_steps=(128, 256, 512, 1024),
    loop_check_steps=512,
    fast_ref_steps=2048,
    fast_checks=4,
    grid_cells=128,
    ladder_strikes=16,
)


def rel_err(value: float, ref: float, strike: float) -> float:
    """Error relative to max(|ref|, 1% of strike): deep out-of-the-money
    prices are too small for a plain relative error to mean anything."""
    return abs(value - ref) / max(abs(ref), 0.01 * strike)


def smile(rng: np.random.Generator):
    """A seeded volatility smile ``vol(log-moneyness, years)``."""
    atm = rng.uniform(0.18, 0.28)
    term = rng.uniform(-0.04, 0.04)
    skew = rng.uniform(-0.25, -0.05)
    curve = rng.uniform(0.2, 0.6)

    def vol(m: float, years: float) -> float:
        v = atm + term * math.sqrt(years) + skew * m + curve * m * m
        return float(min(max(v, 0.08), 0.8))

    return vol


def surface(rng: np.random.Generator) -> list:
    """The 512-contract American surface: 8 expiries x 32 strikes x
    call/put, indexed ``(expiry * 32 + strike) * 2 + right``."""
    vol = smile(rng)
    specs = []
    for days in SURFACE_DAYS:
        for strike in SURFACE_STRIKES:
            v = vol(math.log(strike / SPOT), days / 252.0)
            for right in (Right.CALL, Right.PUT):
                specs.append(OptionSpec(
                    spot=SPOT, strike=float(strike), rate=0.03,
                    volatility=v, dividend_yield=0.01, expiry_days=days,
                    right=right,
                ))
    return specs


def zipf_draws(rng: np.random.Generator, n_items: int, n_draws: int,
               s: float = 1.1) -> list:
    """``n_draws`` item indices drawn Zipf(``s``) over a seed-shuffled
    rank order."""
    ranked = rng.permutation(n_items)
    weights = 1.0 / np.arange(1, n_items + 1) ** s
    return ranked[rng.choice(n_items, size=n_draws,
                             p=weights / weights.sum())].tolist()


@dataclass
class Check:
    """One correctness check over a run's answers."""

    name: str
    tolerance: float
    checked: int = 0
    failed: int = 0
    max_err: float = 0.0

    def add(self, err: float) -> None:
        self.checked += 1
        if not err <= self.tolerance:  # NaN fails too
            self.failed += 1
        if not err <= self.max_err:
            self.max_err = err


@dataclass
class PassResult:
    """What one timed pass over a workload's operations produced."""

    ops: int
    failed: int
    items: int
    wall_s: float
    latencies_s: list
    flushes_s: list
    records: list
    counters: dict


class Workload:
    """One workload: fixed inputs built at construction, fresh program
    objects per pass (:meth:`new_pass`), one callable per operation
    (:meth:`prepare`), and the checks run after timing (:meth:`checks`)."""

    name = ""
    #: what ``items_per_s`` counts
    items = ""
    #: one operation's wall time at full size on the reference host (see
    #: ``run.py``); sets how many operations a traced run performs
    nominal_op_s = 1.0

    def __init__(self, seed: int, sizes: Sizes):
        self.seed = seed
        self.sizes = sizes

    def rng(self, *stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *stream])

    def warm(self) -> None:
        """Throwaway solves on :data:`OFF_POPULATION`, one per step count."""

    def new_pass(self) -> None:
        """Fresh program objects, so every pass starts cold."""

    def prepare(self, i: int):
        """The zero-argument callable that performs operation ``i``."""
        raise NotImplementedError

    def record(self, i: int, result, records: list) -> tuple:
        """Keep what the checks need; returns ``(ok, items served)``."""
        raise NotImplementedError

    def background(self, i: int):
        """Work the client owes after operation ``i`` (a flush), or None."""
        return None

    def counters(self) -> dict:
        return {}

    def checks(self, records: list) -> list:
        raise NotImplementedError


class _QuoteWorkload(Workload):
    """Shared by the two QuoteService workloads: the surface, the service
    counters and the exact-tier check."""

    def __init__(self, seed: int, sizes: Sizes):
        super().__init__(seed, sizes)
        self.surface = surface(self.rng(1))

    def warm(self) -> None:
        svc = QuoteService(cache_size=CACHE_SIZE)
        svc.quote(OFF_POPULATION, STEPS)
        svc.quote(OFF_POPULATION, STEPS, tier="fast")

    def new_pass(self) -> None:
        self.svc = QuoteService(cache_size=CACHE_SIZE)

    def counters(self) -> dict:
        stats = self.svc.stats()
        plans = get_backend("spectral").cache_info()
        lookups = plans["hits"] + plans["misses"]
        service, cache = stats["service"], stats["cache"]
        return {
            "service.solves": service.get("solves", 0),
            "service.merged": service.get("merged_requests", 0),
            "service.tier_upgrades": service.get("tier_upgrades", 0),
            "cache.hit_ratio": cache.get("hit_ratio", 0.0),
            "cache.evictions": cache.get("evictions", 0),
            "spectral.plan_hit_ratio": (
                plans["hits"] / lookups if lookups else 0.0
            ),
        }

    def _exact_check(self, served: list) -> Check:
        check = Check("exact_vs_price_american", EXACT_TOL)
        sample = self.rng(90).permutation(len(served))[:64]
        for k in sample:
            spec, price = served[k]
            check.add(rel_err(price, price_american(spec, STEPS).price,
                              spec.strike))
        return check


class QuoteStream(_QuoteWorkload):
    """Single quotes, Zipf over the surface, tiers 70/20/10
    exact/auto/fast, ``flush()`` every 64 quotes."""

    name = "quote_stream"
    items = "quotes"
    nominal_op_s = 0.0007

    def __init__(self, seed: int, sizes: Sizes):
        super().__init__(seed, sizes)
        rng = self.rng(2)
        self.contracts = zipf_draws(rng, len(self.surface), STREAM_LEN)
        self.tiers = rng.choice(TIERS, size=STREAM_LEN, p=TIER_MIX).tolist()

    def prepare(self, i: int):
        j = i % STREAM_LEN
        return functools.partial(
            self.svc.quote, self.surface[self.contracts[j]], STEPS,
            tier=self.tiers[j],
        )

    def record(self, i: int, result, records: list) -> tuple:
        if isinstance(result, Exception) or not is_served(result):
            return False, 0
        spec = self.surface[self.contracts[i % STREAM_LEN]]
        records.append((spec, result.price, result.meta.get("tier")))
        return True, 1

    def background(self, i: int):
        return self.svc.flush if (i + 1) % FLUSH_EVERY == 0 else None

    def checks(self, records: list) -> list:
        exact = [(s, p) for s, p, tier in records if tier != "fast"]
        fast = [(s, p) for s, p, tier in records if tier == "fast"]
        tol = get_backend("spectral").tolerance
        fast_check = Check("fast_vs_lattice", tol)
        sample = self.rng(91).permutation(len(fast))[: self.sizes.fast_checks]
        for k in sample:
            spec, price = fast[k]
            ref = price_american(spec, self.sizes.fast_ref_steps).price
            fast_check.add(rel_err(price, ref, spec.strike))
        return [self._exact_check(exact), fast_check]


class QuoteBatch(_QuoteWorkload):
    """``quote_many`` over 8-strike chains (contiguous strikes, one expiry
    and right), chains drawn Zipf.

    Chains are the surface's 64 disjoint strike blocks.  With overlapping
    chains the hit ratio would hinge on whether the seed happens to rank
    neighbouring chains together, which moved throughput by about 10% from
    seed to seed in simulation.
    """

    name = "quote_batch"
    items = "contracts"
    nominal_op_s = 0.008

    def __init__(self, seed: int, sizes: Sizes):
        super().__init__(seed, sizes)
        n_strikes = len(SURFACE_STRIKES)
        self.chains = [
            [self.surface[(e * n_strikes + k0 + k) * 2 + right]
             for k in range(CHAIN)]
            for e in range(len(SURFACE_DAYS))
            for right in (0, 1)
            for k0 in range(0, n_strikes, CHAIN)
        ]
        self.draws = zipf_draws(self.rng(2), len(self.chains), STREAM_LEN)

    def prepare(self, i: int):
        return functools.partial(
            self.svc.quote_many, self.chains[self.draws[i % STREAM_LEN]],
            STEPS,
        )

    def record(self, i: int, result, records: list) -> tuple:
        if isinstance(result, Exception):
            return False, 0
        chain = self.chains[self.draws[i % STREAM_LEN]]
        ok = all(is_served(r) for r in result)
        records.extend((s, r.price) for s, r in zip(chain, result))
        return ok, len(result)

    def checks(self, records: list) -> list:
        return [self._exact_check(records)]


class RiskGrid(Workload):
    """``ScenarioEngine(workers=1, backend="serial").price_grid`` on fresh
    heterogeneous American call grids."""

    name = "risk_grid"
    items = "cells"
    nominal_op_s = 2.0

    def grid(self, i: int) -> list:
        """Grid ``i``: a Latin hypercube over spot, vol and rate, so every
        grid spans the ranges evenly and grids differ in cost by a few
        percent rather than by their extreme cells."""
        rng = self.rng(3, i)
        n = self.sizes.grid_cells

        def spread(lo: float, hi: float) -> np.ndarray:
            return lo + (hi - lo) * (rng.permutation(n) + rng.random(n)) / n

        spots = spread(90.0, 110.0)
        vols = spread(0.12, 0.45)
        rates = spread(0.0, 0.08)
        return [
            OptionSpec(spot=float(s), strike=100.0, rate=float(r),
                       volatility=float(v), dividend_yield=0.02,
                       expiry_days=252.0, right=Right.CALL)
            for s, v, r in zip(spots, vols, rates)
        ]

    def warm(self) -> None:
        ScenarioEngine(workers=1, backend="serial").price_grid(
            [OFF_POPULATION] * 2, STEPS
        )

    def new_pass(self) -> None:
        self.engine = ScenarioEngine(workers=1, backend="serial")

    def prepare(self, i: int):
        self._specs = self.grid(i)
        return functools.partial(self.engine.price_grid, self._specs, STEPS)

    def record(self, i: int, result, records: list) -> tuple:
        if isinstance(result, Exception):
            return False, 0
        records.append((self._specs, result.prices))
        ok = all(is_served(r) for r in result.results)
        return ok, len(result.results)

    def checks(self, records: list) -> list:
        check = Check("cell_vs_price_american", EXACT_TOL)
        cells = [(g, c) for g in range(len(records))
                 for c in range(len(records[g][0]))]
        for k in self.rng(92).permutation(len(cells))[:32]:
            g, c = cells[k]
            specs, prices = records[g]
            ref = price_american(specs[c], STEPS).price
            check.add(rel_err(prices[c], ref, specs[c].strike))
        return [check]


class DeepSolve(Workload):
    """Cold exact quotes at T = 8192 on distinct contracts, cycling
    binomial, trinomial and bsm-fd (puts with q = 0)."""

    name = "deep_solve"
    items = "quotes"
    nominal_op_s = 0.2

    def contract(self, i: int) -> tuple:
        rng = self.rng(4, i)
        model = DEEP_MODELS[i % len(DEEP_MODELS)]
        strike = rng.uniform(80.0, 120.0)
        vol = rng.uniform(0.15, 0.45)
        rate = rng.uniform(0.01, 0.06)
        days = rng.uniform(63.0, 504.0)
        if model == "bsm-fd":
            right, q = Right.PUT, 0.0
        else:
            right = Right.CALL if rng.random() < 0.5 else Right.PUT
            q = rng.uniform(0.01, 0.04)
        spec = OptionSpec(spot=SPOT, strike=strike, rate=rate,
                          volatility=vol, dividend_yield=q,
                          expiry_days=days, right=right)
        return model, spec

    def warm(self) -> None:
        svc = QuoteService()
        fd_put = dataclasses.replace(
            OFF_POPULATION, right=Right.PUT, dividend_yield=0.0
        )
        for model in DEEP_MODELS:
            spec = fd_put if model == "bsm-fd" else OFF_POPULATION
            svc.quote(spec, self.sizes.deep_steps, model=model)

    def new_pass(self) -> None:
        self.svc = QuoteService()

    def prepare(self, i: int):
        self._contract = self.contract(i)
        model, spec = self._contract
        return functools.partial(
            self.svc.quote, spec, self.sizes.deep_steps, model=model
        )

    def record(self, i: int, result, records: list) -> tuple:
        if isinstance(result, Exception) or not is_served(result):
            return False, 0
        if len(records) < len(DEEP_MODELS):
            records.append((*self._contract, result.price))
        return True, 1

    def checks(self, records: list) -> list:
        served = Check("quote_vs_price_american", EXACT_TOL)
        for model, spec, price in records:
            ref = price_american(spec, self.sizes.deep_steps, model=model)
            served.add(rel_err(price, ref.price, spec.strike))
        loop = Check("fft_vs_loop", LOOP_TOL)
        steps = self.sizes.loop_check_steps
        for i in range(len(DEEP_MODELS)):
            model, spec = self.contract(i)
            fft = price_american(spec, steps, model=model, method="fft")
            ref = price_american(spec, steps, model=model, method="loop")
            loop.add(rel_err(fft.price, ref.price, spec.strike))
        return [served, loop]

    def sweep(self) -> dict:
        """The paper's law: work and wall time per solve against ``T``,
        fitted as power laws over the first contract of each model."""
        ts, works, walls = [], [], []
        contracts = [self.contract(i) for i in range(len(DEEP_MODELS))]
        for steps in self.sizes.sweep_steps:
            work = wall = 0.0
            for model, spec in contracts:
                t0 = time.perf_counter()
                result = price_american(spec, steps, model=model)
                wall += time.perf_counter() - t0
                work += result.workspan.work
            ts.append(steps)
            works.append(work)
            walls.append(wall)
        return {
            "solver.work_exponent": fit_power_law(ts, works)[0],
            "solver.wall_exponent": fit_power_law(ts, walls)[0],
        }


class Calibration(Workload):
    """``implied_vol_many`` in its default warm-start mode over 64-strike
    call ladders whose quotes come from known vols."""

    name = "calibration"
    items = "vols"
    nominal_op_s = 0.5

    def __init__(self, seed: int, sizes: Sizes):
        super().__init__(seed, sizes)
        rng = self.rng(5)
        self.smiles = [smile(rng) for _ in range(LADDER_SMILES)]
        self.strikes = np.linspace(80.0, 120.0, sizes.ladder_strikes).tolist()
        self._ladders: dict = {}

    def ladder(self, j: int) -> tuple:
        """Ladder ``j`` (cycling over 3 smiles x 8 expiries): its specs,
        which carry the vols that generate its quotes, and the quotes."""
        j %= LADDER_SMILES * len(LADDER_DAYS)
        if j not in self._ladders:
            vol = self.smiles[j // len(LADDER_DAYS)]
            days = LADDER_DAYS[j % len(LADDER_DAYS)]
            specs = [
                OptionSpec(spot=SPOT, strike=k, rate=0.03,
                           volatility=vol(math.log(k / SPOT), days / 252.0),
                           dividend_yield=0.02, expiry_days=days,
                           right=Right.CALL)
                for k in self.strikes
            ]
            quotes = [r.price for r in price_many(specs, STEPS)]
            self._ladders[j] = (specs, quotes)
        return self._ladders[j]

    def warm(self) -> None:
        quote = price_american(OFF_POPULATION, STEPS).price
        implied_vol_many([OFF_POPULATION], [quote], STEPS)

    def prepare(self, i: int):
        self._ladder = self.ladder(i)
        specs, quotes = self._ladder
        return functools.partial(implied_vol_many, specs, quotes, STEPS)

    def record(self, i: int, result, records: list) -> tuple:
        if isinstance(result, Exception):
            return False, 0
        specs, _ = self._ladder
        errs = [abs(fit.vol - spec.volatility)
                for fit, spec in zip(result.results, specs)]
        records.append((i, errs))
        return all(e <= VOL_TOL for e in errs), len(errs)

    def checks(self, records: list) -> list:
        vols = Check("recovered_vol", VOL_TOL)
        for _, errs in records:
            for err in errs:
                vols.add(err)
        loop = Check("quote_vs_loop", LOOP_TOL)
        rng = self.rng(93)
        for i, _ in records[:4]:
            specs, quotes = self.ladder(i)
            k = int(rng.integers(len(specs)))
            ref = price_american(specs[k], STEPS, method="loop").price
            loop.add(rel_err(quotes[k], ref, specs[k].strike))
        return [vols, loop]


WORKLOADS = {
    cls.name: cls
    for cls in (QuoteStream, QuoteBatch, RiskGrid, DeepSolve, Calibration)
}


def run_pass(wl: Workload, *, seconds: float = None, n_ops: int = None
             ) -> PassResult:
    """Run operations until their timed wall reaches ``seconds`` (or
    exactly ``n_ops`` of them) on fresh program objects.

    Only the operations and the client's flushes are timed; preparing an
    operation's inputs and recording its answer are not.  Each pass starts
    with an empty spectral plan cache, so a second pass in the same process
    is as cold as the first.
    """
    spectral = get_backend("spectral")
    register_backend(SpectralBackend())
    try:
        wl.new_pass()
        clock = time.perf_counter
        latencies, flushes, records = [], [], []
        wall = 0.0
        items = failed = i = 0
        while (i < n_ops) if n_ops is not None else (wall < seconds):
            call = wl.prepare(i)
            t0 = clock()
            try:
                result = call()
            except Exception as exc:  # a failed operation: counted, shown
                result = exc
            dt = clock() - t0
            if isinstance(result, Exception):
                traceback.print_exception(result)
            wall += dt
            latencies.append(dt)
            ok, served = wl.record(i, result, records)
            failed += not ok
            items += served
            flush = wl.background(i)
            if flush is not None:
                t0 = clock()
                error = None
                try:
                    flush()
                except Exception as exc:  # its tickets' operations fail
                    error = exc
                dt = clock() - t0
                if error is not None:
                    traceback.print_exception(error)
                    failed += 1
                wall += dt
                flushes.append(dt)
            i += 1
        counters = wl.counters()
    finally:
        register_backend(spectral)
    return PassResult(i, failed, items, wall, latencies, flushes, records,
                      counters)
