"""Advance throughput of the plan-caching AdvanceEngine against a
stateless FFT convolution.

Measures repeated same-height advances across ``T in {2^10 .. 2^17}`` and
writes ``BENCH_advance_engine.json`` (repo root by default): the
kernel-spectrum cache-hit path (one rFFT + pointwise multiply + irFFT
against a cached conjugated kernel spectrum) versus
``scipy.signal.fftconvolve`` with the reversed h-step kernel (three
transforms of a larger pad plus a reversed-kernel copy per call), the
pre-engine advance, rebuilt here as the baseline.  This is the access
pattern of the trapezoid recursion, which requests the same ``(taps, h)``
kernel at every level.  The headline (``max_advance_speedup``) is the
best speedup, and the recorded drift the largest relative output
difference.

There is no full-solve row: a solve has no stateless-convolution mode to
compare against.

Run ``python benchmarks/bench_advance_engine.py`` for the full sweep or
``--quick`` for a CI smoke pass (not a substitute for the pytest suite).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np
from scipy.signal import fftconvolve

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from conftest import bench_report, write_bench_report  # noqa: E402
from repro.core.fftstencil import AdvanceEngine  # noqa: E402
from repro.core.weights import hstep_weights  # noqa: E402
from repro.options.contract import paper_benchmark_spec  # noqa: E402
from repro.options.params import BinomialParams  # noqa: E402

SPEC = paper_benchmark_spec()


def _best_of(fn, repeats: int) -> float:
    """Best wall-clock of ``repeats`` timed calls (seconds)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def fftconvolve_advance(x: np.ndarray, w_rev: np.ndarray) -> np.ndarray:
    """The stateless baseline: valid-mode convolution with the reversed
    h-step kernel ``w_rev``, transforming the kernel again on every call."""
    return fftconvolve(x, w_rev, mode="valid")


def bench_repeated_advance(T: int, inner: int, repeats: int) -> dict:
    """Same-height advance issued ``inner`` times: baseline vs warm engine."""
    params = BinomialParams.from_spec(SPEC, T)
    h = T // 2
    rng = np.random.default_rng(0)
    x = rng.uniform(0.0, 100.0, size=T + 1)

    warm = AdvanceEngine()
    warm.advance(x, params.taps, h, scale=SPEC.strike)  # materialise the plan
    # the baseline's kernel is evaluated once, outside the timed loop
    w_rev = hstep_weights(params.taps, h)[::-1]

    def run_legacy():
        for _ in range(inner):
            fftconvolve_advance(x, w_rev)

    def run_cached():
        for _ in range(inner):
            warm.advance(x, params.taps, h, scale=SPEC.strike)

    t_legacy = _best_of(run_legacy, repeats) / inner
    t_cached = _best_of(run_cached, repeats) / inner
    y_old = fftconvolve_advance(x, w_rev)
    y_new, _ = warm.advance(x, params.taps, h)
    rel_err = float(np.max(np.abs(y_new - y_old)) / np.max(np.abs(y_old)))
    return {
        "T": T,
        "h": h,
        "input_len": len(x),
        "legacy_s": t_legacy,
        "cached_s": t_cached,
        "speedup": t_legacy / t_cached,
        "max_rel_err": rel_err,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small sweep for CI smoke runs"
    )
    parser.add_argument(
        "--out",
        default=os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "BENCH_advance_engine.json",
        ),
    )
    args = parser.parse_args()

    if args.quick:
        sizes = [2**10, 2**12]
        repeats, inner = 2, 4
    else:
        sizes = [2**k for k in range(10, 18)]
        repeats, inner = 3, 8

    report = bench_report(
        "advance_engine",
        smoke=args.quick,
        quick=args.quick,
        sizes=sizes,
        repeated_advance=[],
    )
    for T in sizes:
        row = bench_repeated_advance(T, inner, repeats)
        report["repeated_advance"].append(row)
        print(
            f"advance  T={T:>7} h={row['h']:>6}  legacy {row['legacy_s']*1e3:8.3f} ms"
            f"  cached {row['cached_s']*1e3:8.3f} ms  speedup {row['speedup']:5.2f}x"
        )

    report["summary"] = {
        "max_advance_speedup": max(
            r["speedup"] for r in report["repeated_advance"]
        ),
        "max_advance_rel_err": max(
            r["max_rel_err"] for r in report["repeated_advance"]
        ),
    }
    assert report["summary"]["max_advance_rel_err"] <= 1e-10, (
        "engine advance drifted from the fftconvolve baseline"
    )
    write_bench_report(
        args.out,
        report,
        speedup=report["summary"]["max_advance_speedup"],
        drift=report["summary"]["max_advance_rel_err"],
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
