"""QuoteService throughput: cold vs warm, coalesced vs per-request, Zipf.

Writes ``BENCH_service.json`` (repo root by default) with four measurements:

1. **Cold vs warm** — a strike/right book quoted cold (every request a
   canonical solve) and again warm (every request an LRU hit), in
   quotes/sec.  The acceptance gates: warm ≥ 10x faster per quote than the
   cold solve, and warm prices *bit-identical* to cold at quantization
   tolerance 0.
2. **Coalescing** — the same unique book through ``quote_many``
   (coalesced), a loop of lone ``quote`` calls on a fresh service
   (per-request solves), and direct ``price_many`` (no service layer).
   Gate: the coalesced path is no slower than direct ``price_many``: the
   median of the direct/coalesced wall ratios over alternating pairs is
   at least 0.90 (a measurement-noise allowance).
3. **Symmetry fold** — N calls plus their N McDonald–Schroder dual puts:
   2N requests, N canonical solves.
4. **Zipf stream** — a synthetic heavy-traffic tail (rank-frequency
   exponent 1.2) against the cache; reports hit ratio and the speedup over
   pricing every request from scratch.

Run ``python benchmarks/bench_service.py`` for the full sizes or
``--smoke`` for the CI pass.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time

import numpy as np

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from conftest import bench_report, telemetry_section, write_bench_report  # noqa: E402
from repro.core.api import price_many  # noqa: E402
from repro.options.contract import Right, paper_benchmark_spec  # noqa: E402
from repro.service import QuoteService  # noqa: E402

SPEC = paper_benchmark_spec()


def build_book(n: int) -> list:
    """``n`` distinct contracts: a strike ladder alternating call/put."""
    return [
        dataclasses.replace(
            SPEC,
            strike=float(k),
            right=Right.PUT if i % 2 else Right.CALL,
        )
        for i, k in enumerate(np.linspace(100.0, 170.0, n))
    ]


def best_of(repeats: int, fn) -> tuple[float, object]:
    """(min wall seconds, last return value) over ``repeats`` runs of ``fn``."""
    best = float("inf")
    value = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - t0)
    return best, value


def bench_cold_warm(book: list, steps: int, repeats: int) -> dict:
    svc = QuoteService()
    t_cold = time.perf_counter()
    cold = svc.quote_many(book, steps)
    t_cold = time.perf_counter() - t_cold
    t_warm, warm = best_of(repeats, lambda: svc.quote_many(book, steps))
    t_warm_single, _ = best_of(
        repeats, lambda: [svc.quote(s, steps) for s in book]
    )
    max_abs_diff = max(
        abs(w.price - c.price) for w, c in zip(warm, cold)
    )
    return {
        "n_quotes": len(book),
        "cold_wall_s": t_cold,
        "warm_wall_s": t_warm,
        "warm_single_wall_s": t_warm_single,
        "cold_qps": len(book) / t_cold,
        "warm_qps": len(book) / t_warm,
        "warm_single_qps": len(book) / t_warm_single,
        "warm_speedup_vs_cold": t_cold / t_warm,
        "warm_max_abs_diff_vs_cold": max_abs_diff,
    }


def per_request(book: list, steps: int) -> list:
    """The book as lone ``quote`` calls on a fresh service: one solve per
    contract, nothing coalesced."""
    svc = QuoteService()
    return [svc.quote(spec, steps) for spec in book]


def bench_coalescing(book: list, steps: int, repeats: int, pairs: int) -> dict:
    """Coalesced ``quote_many`` against direct ``price_many``, in pairs.

    Each pair times both contenders back to back, and the first runner
    alternates from pair to pair, so a host whose speed drifts over
    seconds moves both walls of a pair together; the gate reads the
    median of the per-pair ratios.
    """
    contenders = {
        "direct": lambda: price_many(book, steps),
        "coalesced": lambda: QuoteService().quote_many(book, steps),
    }
    walls: dict = {name: [] for name in contenders}
    out: dict = {}
    for i in range(pairs):
        order = sorted(contenders, reverse=bool(i % 2))
        for name in order:
            wall, out[name] = best_of(1, contenders[name])
            walls[name].append(wall)
    ratios = [d / c for d, c in zip(walls["direct"], walls["coalesced"])]
    t_per_request, _ = best_of(repeats, lambda: per_request(book, steps))
    max_rel = max(
        abs(s.price - d.price) / abs(d.price)
        for s, d in zip(out["coalesced"], out["direct"])
    )
    return {
        "n_unique": len(book),
        "direct_price_many_wall_s": min(walls["direct"]),
        "coalesced_wall_s": min(walls["coalesced"]),
        "per_request_wall_s": t_per_request,
        "pair_ratios": ratios,
        "coalesced_vs_direct": float(np.median(ratios)),
        "coalesced_vs_per_request": t_per_request / min(walls["coalesced"]),
        "max_rel_diff_vs_direct": max_rel,
    }


def bench_symmetry_fold(n: int, steps: int) -> dict:
    calls = [
        dataclasses.replace(SPEC, strike=float(k))
        for k in np.linspace(105.0, 155.0, n)
    ]
    traffic = calls + [c.symmetric_dual() for c in calls]
    svc = QuoteService()
    t0 = time.perf_counter()
    svc.quote_many(traffic, steps)
    wall = time.perf_counter() - t0
    stats = svc.stats()["service"]
    return {
        "n_requests": len(traffic),
        "n_solves": stats["solves"],
        "wall_s": wall,
        "fold_ratio": len(traffic) / stats["solves"],
    }


def bench_zipf(
    population_n: int, n_requests: int, steps: int, seed: int = 7
) -> dict:
    rng = np.random.default_rng(seed)
    population = build_book(population_n)
    ranks = (rng.zipf(1.2, size=n_requests) - 1) % population_n
    svc = QuoteService()
    t0 = time.perf_counter()
    for r in ranks:
        svc.quote(population[r], steps)
    wall = time.perf_counter() - t0
    stats = svc.stats()
    solves = stats["service"]["solves"]
    # what the same stream would cost with no cache: every request at the
    # measured per-contract cost of solving the whole population once
    t_population, _ = best_of(1, lambda: price_many(population, steps))
    per_solve = t_population / population_n
    return {
        "population": population_n,
        "n_requests": n_requests,
        "wall_s": wall,
        "qps": n_requests / wall,
        "hit_ratio": stats["cache"]["hit_ratio"],
        "solves": solves,
        "estimated_uncached_wall_s": per_solve * n_requests,
        "speedup_vs_uncached_estimate": per_solve * n_requests / wall,
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
            "BENCH_service.json",
        ),
    )
    args = parser.parse_args()

    steps = args.steps or (64 if args.smoke else 512)
    book = build_book(6 if args.smoke else 24)
    repeats = 2 if args.smoke else 5

    report = bench_report("quote_service", smoke=args.smoke, steps=steps)

    cw = bench_cold_warm(book, steps, repeats)
    report["cold_vs_warm"] = cw
    print(
        f"cold {cw['cold_qps']:9.1f} q/s   warm {cw['warm_qps']:9.1f} q/s "
        f"({cw['warm_speedup_vs_cold']:.0f}x)   "
        f"warm-vs-cold max |diff| {cw['warm_max_abs_diff_vs_cold']:.2e}"
    )
    # Accuracy gates always hold; wall-clock ratio gates only on the full
    # run — at smoke sizes a single scheduling hiccup on a busy CI host can
    # swing a ~4 ms measurement past any reasonable threshold.
    assert cw["warm_max_abs_diff_vs_cold"] == 0.0, (
        "tol-0 cache hits must be bit-identical"
    )
    if not args.smoke:
        assert cw["warm_speedup_vs_cold"] >= 10.0, "warm cache under 10x"

    co = bench_coalescing(book, steps, repeats, 3 if args.smoke else 11)
    report["coalescing"] = co
    print(
        f"direct {co['direct_price_many_wall_s']*1e3:7.1f} ms   coalesced "
        f"{co['coalesced_wall_s']*1e3:7.1f} ms "
        f"(median pair {co['coalesced_vs_direct']:.2f}x)   per-request "
        f"{co['per_request_wall_s']*1e3:7.1f} ms   rel-diff "
        f"{co['max_rel_diff_vs_direct']:.2e}"
    )
    assert co["max_rel_diff_vs_direct"] <= 1e-12, "service prices drifted"
    if not args.smoke:
        # the two paths are at parity; on a shared 2-vCPU host the median
        # of alternating pair ratios read 0.95-1.08, while one min-of-5 per
        # side, timed seconds apart, read 0.78-1.79
        assert co["coalesced_vs_direct"] >= 0.90, (
            "coalesced quote_many slower than direct price_many beyond noise"
        )

    sf = bench_symmetry_fold(4 if args.smoke else 12, steps)
    report["symmetry_fold"] = sf
    print(
        f"symmetry fold: {sf['n_requests']} requests -> {sf['n_solves']} "
        f"solves ({sf['fold_ratio']:.1f}x)"
    )
    assert sf["fold_ratio"] >= 2.0, "dual puts failed to fold onto calls"

    zipf = bench_zipf(
        12 if args.smoke else 64,
        100 if args.smoke else 1500,
        64 if args.smoke else 256,
    )
    report["zipf_stream"] = zipf
    print(
        f"zipf: {zipf['n_requests']} reqs over {zipf['population']} names   "
        f"{zipf['qps']:9.1f} q/s   hit ratio {zipf['hit_ratio']:.3f}   "
        f"~{zipf['speedup_vs_uncached_estimate']:.1f}x vs uncached"
    )

    report["summary"] = {
        "warm_speedup_vs_cold": cw["warm_speedup_vs_cold"],
        "warm_qps": cw["warm_qps"],
        "bit_identical_at_tol0": cw["warm_max_abs_diff_vs_cold"] == 0.0,
        "coalesced_vs_direct": co["coalesced_vs_direct"],
        "symmetry_fold_ratio": sf["fold_ratio"],
        "zipf_hit_ratio": zipf["hit_ratio"],
        "zipf_speedup_vs_uncached": zipf["speedup_vs_uncached_estimate"],
    }
    report["telemetry"] = telemetry_section(
        quotes_per_sec=zipf["qps"],
        hit_rate=zipf["hit_ratio"],
    )
    write_bench_report(
        args.out,
        report,
        speedup=cw["warm_speedup_vs_cold"],
        drift=cw["warm_max_abs_diff_vs_cold"],
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
