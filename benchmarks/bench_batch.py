"""Lockstep BatchSolver: multi-kernel batched grids and ladders vs serial.

Writes ``BENCH_batch.json`` (repo root by default) with three measurements:

1. **American scenario grid** — a 1024-cell vol × rate × spot grid (every
   cell a *different* kernel) priced through the
   :class:`~repro.risk.engine.ScenarioEngine` serial path, which now rides
   ``price_many`` -> ``solve_batch`` -> lockstep ``advance_batch``, against
   the per-cell ``price_american`` loop on one shared engine (the pre-batch
   behaviour).  Acceptance gates: bit-level agreement (≤ 1e-12 relative),
   the grid's engine counters showing ``advance_batch`` rounds, and the
   Python-level transform-call consolidation (one batched call per lockstep
   round instead of one per cell-advance).
2. **European scenario grid** — the same cells European: the whole grid
   collapses into a single multi-kernel jump.
3. **64-quote implied-vol ladder** — ``implied_vol_many(lockstep=True)``
   against the per-quote serial ``implied_vol`` loop (identical algorithm,
   batched evaluations; fitted vols must agree to ≤ 1e-12) with the
   warm-start ladder timed alongside for context.

Run ``python benchmarks/bench_batch.py`` for the full sizes or ``--smoke``
for the CI pass (timing gates are skipped at smoke sizes — a busy CI host
makes wall-clock ratios meaningless; the counter and agreement gates are
asserted at every size).
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

from conftest import bench_report, telemetry_section, write_bench_report  # noqa: E402

from repro.core.api import price_american, price_european, price_many  # noqa: E402
from repro.core.fftstencil import AdvanceEngine  # noqa: E402
from repro.market.implied import implied_vol, implied_vol_many  # noqa: E402
from repro.options.contract import OptionSpec, Right, Style  # noqa: E402
from repro.risk.engine import ScenarioEngine  # noqa: E402


def build_grid(n_cells: int, style: Style) -> list[OptionSpec]:
    """``n_cells`` contracts, every one with its own vol/rate/spot kernel."""
    base = OptionSpec(
        spot=100.0, strike=100.0, rate=0.03, volatility=0.2,
        dividend_yield=0.02, expiry_days=252.0, right=Right.CALL, style=style,
    )
    rng = np.random.default_rng(7)
    return [
        dataclasses.replace(
            base,
            spot=float(s),
            volatility=float(v),
            rate=float(r),
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


def _best_of_interleaved(repeats, *fns):
    """Best-of timings with the contenders alternated round-robin.

    Timing all of A's repeats before any of B's hands B the hotter,
    throttled core on small hosts; alternating A,B,A,B gives every
    contender the same thermal conditions.
    """
    bests = [math.inf] * len(fns)
    outs = [None] * len(fns)
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            outs[i] = fn()
            bests[i] = min(bests[i], time.perf_counter() - t0)
    return [(b, o) for b, o in zip(bests, outs)]


def bench_american_grid(n_cells: int, steps: int, repeats: int) -> dict:
    specs = build_grid(n_cells, Style.AMERICAN)

    def run_serial():
        engine = AdvanceEngine()
        return [price_american(s, steps, engine=engine) for s in specs]

    def run_batch():
        scenario = ScenarioEngine(
            workers=1, backend="serial", chunk_size=len(specs)
        )
        return scenario.price_grid(specs, steps)

    (serial_wall, serial_results), (batch_wall, batch_result) = (
        _best_of_interleaved(repeats, run_serial, run_batch)
    )

    max_rel = max(
        abs(a.price - b.price) / s.strike
        for a, b, s in zip(serial_results, batch_result.results, specs)
    )
    info = batch_result.meta["engine"]
    serial_engine = AdvanceEngine()
    for s in specs[: min(8, n_cells)]:
        price_american(s, steps, engine=serial_engine)
    return {
        "n_cells": n_cells,
        "steps": steps,
        "serial_wall_s": serial_wall,
        "batch_wall_s": batch_wall,
        "batch_speedup": serial_wall / batch_wall,
        "max_rel_diff": max_rel,
        "batch_rounds": info["advances"],
        "batched_rows": info["batched_inputs"],
        # Python-level transform calls: one per lockstep round vs one per
        # cell-advance — the consolidation advance_batch buys
        "transform_calls_batched": info["advances"],
        "transform_calls_serial_equiv": info["batched_inputs"],
        "call_consolidation": (
            info["batched_inputs"] / info["advances"]
            if info["advances"]
            else 1.0
        ),
    }


def bench_european_grid(n_cells: int, steps: int, repeats: int) -> dict:
    specs = build_grid(n_cells, Style.EUROPEAN)

    def run_serial():
        engine = AdvanceEngine()
        return [price_european(s, steps, engine=engine) for s in specs]

    def run_batch():
        engine = AdvanceEngine()
        results = price_many(specs, steps, engine=engine)
        return results, engine.cache_info()

    (serial_wall, serial_results), (batch_wall, (batch_results, info)) = (
        _best_of_interleaved(repeats, run_serial, run_batch)
    )
    max_rel = max(
        abs(a.price - b.price) / s.strike
        for a, b, s in zip(serial_results, batch_results, specs)
    )
    return {
        "n_cells": n_cells,
        "steps": steps,
        "serial_wall_s": serial_wall,
        "batch_wall_s": batch_wall,
        "batch_speedup": serial_wall / batch_wall,
        "max_rel_diff": max_rel,
        "batch_rounds": info["advances"],
    }


def smile_vol(strike: float, spot: float, years: float) -> float:
    k = math.log(strike / spot)
    return 0.22 - 0.10 * k + 0.25 * k * k + 0.02 * years


def bench_ladder(n_quotes: int, steps: int, repeats: int) -> dict:
    base = OptionSpec(
        spot=100.0, strike=100.0, rate=0.03, volatility=0.2,
        dividend_yield=0.02, expiry_days=252.0, right=Right.CALL,
    )
    specs = []
    for i in range(n_quotes):
        strike = 80.0 + 40.0 * i / max(n_quotes - 1, 1)
        specs.append(
            dataclasses.replace(
                base, strike=strike,
                volatility=smile_vol(strike, base.spot, base.years),
            )
        )
    quotes = [r.price for r in price_many(specs, steps)]

    def run_serial():
        engine = AdvanceEngine()
        return [
            implied_vol(q, s, steps, engine=engine)
            for s, q in zip(specs, quotes)
        ]

    def run_warm():
        return implied_vol_many(specs, quotes, steps, engine=AdvanceEngine())

    def run_lockstep():
        engine = AdvanceEngine()
        report = implied_vol_many(
            specs, quotes, steps, engine=engine, lockstep=True
        )
        return report, engine.cache_info()

    (
        (serial_wall, serial_results),
        (warm_wall, warm_report),
        (lockstep_wall, (lockstep_report, info)),
    ) = _best_of_interleaved(repeats, run_serial, run_warm, run_lockstep)

    max_vol_diff = max(
        abs(a.vol - b.vol)
        for a, b in zip(serial_results, lockstep_report.results)
    )
    return {
        "n_quotes": n_quotes,
        "steps": steps,
        "serial_wall_s": serial_wall,
        "warm_start_wall_s": warm_wall,
        "lockstep_wall_s": lockstep_wall,
        "lockstep_speedup_vs_serial": serial_wall / lockstep_wall,
        "lockstep_speedup_vs_warm_start": warm_wall / lockstep_wall,
        "lockstep_rounds": lockstep_report.meta["rounds"],
        "lockstep_solves_per_quote": lockstep_report.solves / n_quotes,
        "warm_start_solves_per_quote": warm_report.solves / n_quotes,
        "max_abs_vol_diff_vs_serial": max_vol_diff,
        "batch_rounds": info["advances"],
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
            "BENCH_batch.json",
        ),
    )
    args = parser.parse_args()

    steps = args.steps or (64 if args.smoke else 256)
    n_cells = 64 if args.smoke else 1024
    n_quotes = 12 if args.smoke else 64
    repeats = 1 if args.smoke else 2
    report = bench_report("batch_solver", smoke=args.smoke, steps=steps)

    am = bench_american_grid(n_cells, steps, repeats)
    report["american_grid"] = am
    print(
        f"american grid ({am['n_cells']} cells, {am['steps']} steps): "
        f"{am['batch_speedup']:.2f}x wall, "
        f"{am['call_consolidation']:.1f}x fewer transform calls, "
        f"max rel diff {am['max_rel_diff']:.1e}"
    )
    assert am["max_rel_diff"] <= 1e-12, "batched grid drifted past 1e-12"
    assert am["batch_rounds"] > 0, "grid did not route through advance_batch"
    assert am["call_consolidation"] > 4.0, (
        "lockstep rounds did not consolidate the per-cell advance calls"
    )

    eu = bench_european_grid(n_cells, steps, repeats)
    report["european_grid"] = eu
    print(
        f"european grid ({eu['n_cells']} cells): {eu['batch_speedup']:.2f}x "
        f"wall, max rel diff {eu['max_rel_diff']:.1e}"
    )
    assert eu["max_rel_diff"] <= 1e-12, "batched European grid drifted"
    assert eu["batch_rounds"] > 0, "European grid skipped advance_batch"

    lad = bench_ladder(n_quotes, steps, repeats)
    report["ladder"] = lad
    print(
        f"ladder ({lad['n_quotes']} quotes): lockstep "
        f"{lad['lockstep_speedup_vs_serial']:.2f}x vs serial "
        f"({lad['lockstep_rounds']} rounds, "
        f"{lad['lockstep_solves_per_quote']:.2f} solves/quote), "
        f"{lad['lockstep_speedup_vs_warm_start']:.2f}x vs warm-start, "
        f"vol diff {lad['max_abs_vol_diff_vs_serial']:.1e}"
    )
    assert lad["max_abs_vol_diff_vs_serial"] <= 1e-12, (
        "lockstep ladder vols drifted from the serial path"
    )
    assert lad["batch_rounds"] > 0, "ladder did not route through advance_batch"
    assert lad["lockstep_rounds"] < lad["n_quotes"] * max(
        lad["lockstep_solves_per_quote"], 1.0
    ), "lockstep made as many pool passes as serial solves"

    if not args.smoke:
        # Wall gates only at full size on a quiet host; the counter gates
        # above are the machine-independent half of the speedup.  The
        # grid's gain is the lockstep advances alone: each solve runs its
        # naive base rows inline (DESIGN.md §7.6), and three full-size runs
        # on a shared 2-vCPU host read 1.09-1.33x serial wall.
        assert am["batch_speedup"] >= 1.2, (
            f"American grid batching regressed: {am['batch_speedup']:.2f}x "
            "(needs >= 1.2x serial wall on a quiet host)"
        )
        assert eu["batch_speedup"] >= 1.3, (
            f"European grid batching under 1.3x: {eu['batch_speedup']:.2f}x"
        )
        # Like the American grid, the ladder's lattice solves spend much
        # of their wall in inline base rows, so lockstep lands at 1.0-1.15x
        # serial wall depending on host noise; the rounds/consolidation
        # gates above are the stable evidence.
        assert lad["lockstep_speedup_vs_serial"] >= 0.9, (
            f"lockstep ladder regressed: "
            f"{lad['lockstep_speedup_vs_serial']:.2f}x"
        )

    report["summary"] = {
        "american_grid_speedup": am["batch_speedup"],
        "american_grid_call_consolidation": am["call_consolidation"],
        "european_grid_speedup": eu["batch_speedup"],
        "ladder_lockstep_speedup_vs_serial": lad["lockstep_speedup_vs_serial"],
        "ladder_lockstep_rounds": lad["lockstep_rounds"],
        "bit_agreement_within_1e12": True,
    }
    report["telemetry"] = telemetry_section(
        cells_per_sec=am["n_cells"] / am["batch_wall_s"],
    )
    write_bench_report(
        args.out,
        report,
        speedup=am["batch_speedup"],
        drift=max(
            am["max_rel_diff"],
            eu["max_rel_diff"],
            lad["max_abs_vol_diff_vs_serial"],
        ),
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
