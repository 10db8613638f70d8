"""Resilience layer: dispatch overhead, fault-recovery cost, degraded serving.

Writes ``BENCH_resilience.json`` (repo root by default) with three
measurements:

1. **Resilient-dispatch overhead** — the same American scenario grid
   through the :class:`~repro.risk.engine.ScenarioEngine` serial path
   plain, and again with a never-firing resilience configuration (a
   generous :class:`~repro.resilience.deadline.Deadline` plus a
   :class:`~repro.resilience.retry.RetryPolicy` that never triggers).
   Both run the one dispatch loop and price each chunk as one
   ``price_many`` call, so the resilient run must stay bit-identical and
   differ only by bookkeeping: the deadline checkpoint at every advance and
   the recovery counters.
2. **Fault-recovery cost** — a seeded
   :class:`~repro.resilience.faults.FaultPlan` crashes ~25% of cells once
   each; the retrying dispatch must converge to the clean run's prices
   exactly, with one retry per chunk holding a crashed cell (crashes fire
   before the solve, so each such chunk fails once and re-prices whole),
   and the report records what the re-solves cost relative to a
   fault-free resilient run.
3. **Degraded serving** — a :class:`~repro.service.QuoteService` with a
   stale grace on an expired cache under deadline pressure: a stale serve
   is a dict lookup plus a copy, so it must be orders of magnitude
   cheaper than the cold solve it stands in for.

Run ``python benchmarks/bench_resilience.py`` for the full sizes or
``--smoke`` for the CI pass (wall-clock ratio gates are skipped at smoke
sizes — a busy CI host makes them meaningless; the bit-identity and
recovery-counter gates are asserted at every size).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402

from conftest import bench_report, write_bench_report  # noqa: E402

from repro.options.contract import OptionSpec, Right, Style  # noqa: E402
from repro.resilience import (  # noqa: E402
    Deadline,
    FaultPlan,
    RetryPolicy,
)
from repro.risk.engine import ScenarioEngine  # noqa: E402
from repro.service import QuoteService  # noqa: E402


def build_grid(n_cells: int) -> list[OptionSpec]:
    base = OptionSpec(
        spot=100.0, strike=100.0, rate=0.03, volatility=0.2,
        dividend_yield=0.02, expiry_days=252.0, right=Right.CALL,
        style=Style.AMERICAN,
    )
    rng = np.random.default_rng(7)
    return [
        dataclasses.replace(
            base, spot=float(s), volatility=float(v), rate=float(r)
        )
        for s, v, r in zip(
            rng.uniform(90.0, 110.0, size=n_cells),
            rng.uniform(0.12, 0.45, size=n_cells),
            rng.uniform(0.0, 0.08, size=n_cells),
        )
    ]


def _best_of(repeats, fn):
    best, out = math.inf, None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def _quiet_retry(attempts: int = 3) -> RetryPolicy:
    return RetryPolicy(
        max_attempts=attempts, base_delay=0.0, jitter=0.0, seed=1,
        sleep=lambda s: None,
    )


def bench_dispatch_overhead(n_cells: int, steps: int, repeats: int) -> dict:
    specs = build_grid(n_cells)
    eng = ScenarioEngine(backend="serial")

    def run_plain():
        return eng.price_grid(specs, steps)

    def run_resilient():
        # a budget no solve will ever miss and a policy no solve will ever
        # invoke: pure dispatch overhead
        return eng.price_grid(
            specs, steps, deadline=Deadline(3600.0), retry=_quiet_retry()
        )

    plain_wall, plain = _best_of(repeats, run_plain)
    resilient_wall, resilient = _best_of(repeats, run_resilient)
    max_abs = max(
        abs(a.price - b.price)
        for a, b in zip(plain.results, resilient.results)
    )
    rmeta = resilient.meta["resilience"]
    return {
        "n_cells": n_cells,
        "steps": steps,
        "plain_wall_s": plain_wall,
        "resilient_wall_s": resilient_wall,
        "overhead_ratio": resilient_wall / plain_wall,
        "max_abs_diff": max_abs,
        "retries": rmeta["retries"],
        "timeouts": len(rmeta["timeouts"]),
    }


def bench_fault_recovery(n_cells: int, steps: int, repeats: int) -> dict:
    specs = build_grid(n_cells)
    eng = ScenarioEngine(backend="serial")
    clean = eng.price_grid(specs, steps)
    plan = FaultPlan.random(42, n_cells, crash_rate=0.25, attempts=1)

    def run_clean_resilient():
        return eng.price_grid(specs, steps, retry=_quiet_retry())

    def run_faulted():
        return eng.price_grid(
            specs, steps, retry=_quiet_retry(), fault_plan=plan
        )

    base_wall, _ = _best_of(repeats, run_clean_resilient)
    fault_wall, faulted = _best_of(repeats, run_faulted)
    max_abs = max(
        abs(a.price - b.price)
        for a, b in zip(clean.results, faulted.results)
    )
    rmeta = faulted.meta["resilience"]
    chunk = faulted.meta["chunk_size"]
    return {
        "n_cells": n_cells,
        "steps": steps,
        "crashed_cells": len(plan.crashes),
        "crashed_chunks": len({cell // chunk for cell in plan.crashes}),
        "fault_free_wall_s": base_wall,
        "faulted_wall_s": fault_wall,
        "recovery_cost_ratio": fault_wall / base_wall,
        "max_abs_diff_vs_clean": max_abs,
        "retries": rmeta["retries"],
        "failed_cells": len(rmeta["failed"]),
    }


def bench_degraded_serving(n_quotes: int, steps: int) -> dict:
    class _Clock:
        now = 0.0

        def __call__(self):
            return self.now

    clock = _Clock()
    svc = QuoteService(ttl=10.0, stale_grace=3600.0, clock=clock)
    specs = build_grid(n_quotes)

    t0 = time.perf_counter()
    for s in specs:
        svc.quote(s, steps)
    cold_wall = time.perf_counter() - t0

    clock.now += 20.0  # every entry expired into its grace
    spent = Deadline(0.0, clock=clock)
    t0 = time.perf_counter()
    stale = [svc.quote(s, steps, deadline=spent) for s in specs]
    stale_wall = time.perf_counter() - t0

    assert all(r.meta.get("stale") for r in stale)
    return {
        "n_quotes": n_quotes,
        "steps": steps,
        "cold_wall_s": cold_wall,
        "stale_wall_s": stale_wall,
        "stale_speedup_vs_cold": cold_wall / stale_wall,
        "stale_qps": n_quotes / stale_wall,
        "refreshes_enqueued": svc.stats()["resilience"]["refreshes"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", "--quick", action="store_true", dest="smoke",
        help="tiny sizes for the CI smoke pass",
    )
    parser.add_argument("--steps", type=int, default=None)
    parser.add_argument(
        "--out",
        default=os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "BENCH_resilience.json",
        ),
    )
    args = parser.parse_args()

    steps = args.steps or (64 if args.smoke else 256)
    n_cells = 16 if args.smoke else 128
    repeats = 2 if args.smoke else 3

    report = bench_report("resilience", smoke=args.smoke, steps=steps)

    ov = bench_dispatch_overhead(n_cells, steps, repeats)
    report["dispatch_overhead"] = ov
    print(
        f"dispatch: plain {ov['plain_wall_s']*1e3:7.1f} ms   resilient "
        f"{ov['resilient_wall_s']*1e3:7.1f} ms "
        f"({ov['overhead_ratio']:.3f}x)   max |diff| {ov['max_abs_diff']:.2e}"
    )
    assert ov["max_abs_diff"] == 0.0, "resilient dispatch drifted"
    assert ov["retries"] == 0 and ov["timeouts"] == 0
    if not args.smoke:
        # both runs batch every chunk through the same loop; the resilient
        # one adds only a deadline checkpoint per advance and its recovery
        # bookkeeping — past 1.6x means work beyond that leaked in
        assert ov["overhead_ratio"] <= 1.6, "resilient dispatch overhead"

    fr = bench_fault_recovery(n_cells, steps, repeats)
    report["fault_recovery"] = fr
    print(
        f"recovery: {fr['crashed_cells']}/{fr['n_cells']} cells crashed in "
        f"{fr['crashed_chunks']} chunks   "
        f"{fr['fault_free_wall_s']*1e3:7.1f} -> {fr['faulted_wall_s']*1e3:7.1f} ms "
        f"({fr['recovery_cost_ratio']:.2f}x)   retries {fr['retries']}"
    )
    assert fr["max_abs_diff_vs_clean"] == 0.0, "recovered prices drifted"
    assert fr["retries"] == fr["crashed_chunks"]
    assert fr["failed_cells"] == 0

    dg = bench_degraded_serving(8 if args.smoke else 32, steps)
    report["degraded_serving"] = dg
    print(
        f"degraded: cold {dg['cold_wall_s']*1e3:7.1f} ms   stale "
        f"{dg['stale_wall_s']*1e3:7.1f} ms "
        f"({dg['stale_speedup_vs_cold']:.0f}x, {dg['stale_qps']:.0f} q/s)"
    )
    if not args.smoke:
        assert dg["stale_speedup_vs_cold"] >= 10.0, "stale serve too slow"

    report["summary"] = {
        "dispatch_overhead_ratio": ov["overhead_ratio"],
        "bit_identical_resilient_dispatch": ov["max_abs_diff"] == 0.0,
        "recovery_cost_ratio": fr["recovery_cost_ratio"],
        "bit_identical_after_recovery": fr["max_abs_diff_vs_clean"] == 0.0,
        "stale_speedup_vs_cold": dg["stale_speedup_vs_cold"],
    }
    write_bench_report(
        args.out,
        report,
        speedup=dg["stale_speedup_vs_cold"],
        drift=max(ov["max_abs_diff"], fr["max_abs_diff_vs_clean"]),
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
