"""Telemetry overhead: the instrument panel must not slow the solves.

Writes ``BENCH_obs.json`` (repo root by default) timing a 1024-cell
heterogeneous American grid (every cell its own vol/rate/spot kernel)
through the :class:`~repro.risk.engine.ScenarioEngine` serial path under
three telemetry configurations:

1. **off** — no telemetry handle at all (the pre-instrumentation hot path:
   every call site takes its ``telemetry is None`` branch).
2. **disabled** — a :meth:`~repro.obs.Telemetry.disabled` handle passed in.
   ``active()`` normalises it to ``None`` at construction, so this must be
   indistinguishable from *off*; the gate pins the no-op fast path at
   <= 2% overhead.
3. **enabled** — a live :class:`~repro.obs.Telemetry`: grid, dispatch,
   chunk and solve spans, chunk timings, counter folds, and the
   flight-recorder journal armed (its emit sites are cold-path
   only, so a clean run journals nothing — that *is* the design being
   gated).  Gate: <= 10% overhead over *off*.

Prices must be bit-identical across all three runs (telemetry observes,
never perturbs).  Run ``python benchmarks/bench_obs.py`` for the full
sizes or ``--smoke`` for the CI pass (wall-clock ratio gates are skipped
at smoke sizes — a busy CI host makes a 2% bound meaningless on a ~10 ms
measurement; the agreement and instrumentation-fired gates always hold).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402

from conftest import bench_report, telemetry_section, write_bench_report  # noqa: E402

from repro.obs import Telemetry, chrome_trace, validate_chrome_trace  # noqa: E402
from repro.options.contract import OptionSpec, Right  # noqa: E402
from repro.risk.engine import ScenarioEngine  # noqa: E402


def build_grid(n_cells: int) -> list[OptionSpec]:
    """``n_cells`` American calls, each with its own vol/rate/spot kernel."""
    base = OptionSpec(
        spot=100.0, strike=100.0, rate=0.03, volatility=0.2,
        dividend_yield=0.02, expiry_days=252.0, right=Right.CALL,
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


def _run_grid(specs, steps, telemetry):
    scenario = ScenarioEngine(
        workers=1, backend="serial", chunk_size=len(specs),
        telemetry=telemetry,
    )
    return scenario.price_grid(specs, steps)


def bench_overhead(n_cells: int, steps: int, repeats: int) -> dict:
    specs = build_grid(n_cells)
    modes = [
        ("off", lambda: None),
        ("disabled", Telemetry.disabled),
        ("enabled", Telemetry),
    ]
    walls = {name: float("inf") for name, _ in modes}
    prices = {}
    last_tel = None
    # interleave the modes within each repeat so drift in host load hits
    # all three configurations evenly, and keep per-mode best-of walls
    for _ in range(repeats):
        for name, make_tel in modes:
            tel = make_tel()
            t0 = time.perf_counter()
            result = _run_grid(specs, steps, tel)
            walls[name] = min(walls[name], time.perf_counter() - t0)
            prices[name] = [r.price for r in result.results]
            if name == "enabled":
                last_tel = tel
    snap = last_tel.snapshot()
    return {
        "n_cells": n_cells,
        "steps": steps,
        "wall_off_s": walls["off"],
        "wall_disabled_s": walls["disabled"],
        "wall_enabled_s": walls["enabled"],
        "disabled_overhead": walls["disabled"] / walls["off"] - 1.0,
        "enabled_overhead": walls["enabled"] / walls["off"] - 1.0,
        "max_abs_diff_disabled": max(
            abs(a - b) for a, b in zip(prices["off"], prices["disabled"])
        ),
        "max_abs_diff_enabled": max(
            abs(a - b) for a, b in zip(prices["off"], prices["enabled"])
        ),
        # proof the enabled run actually instrumented the solves
        "enabled_metric_series": len(snap["metrics"]),
        "enabled_collected_advances": sum(
            m["value"]
            for m in snap["metrics"]
            if m["name"] == "risk_engine_advances"
        ),
        "enabled_solve_spans": last_tel.tracer.phase_breakdown()
        .get("solve", {})
        .get("count", 0),
        # the journal is armed but must stay silent on a clean run —
        # its emit sites are recovery/degradation paths only
        "enabled_journal_events": last_tel.journal.stats()["emitted"],
        "trace_events": _validated_trace_events(last_tel),
    }


def _validated_trace_events(tel: Telemetry) -> int:
    """Perfetto-export the run's trace forest through the format gate."""
    trace = chrome_trace(tel.tracer)
    validate_chrome_trace(trace)
    return len(trace["traceEvents"])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="CI sizes")
    parser.add_argument("--steps", type=int, default=None)
    parser.add_argument(
        "--out",
        default=os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "BENCH_obs.json",
        ),
    )
    args = parser.parse_args()

    steps = args.steps or (64 if args.smoke else 256)
    n_cells = 64 if args.smoke else 1024
    repeats = 2 if args.smoke else 3
    report = bench_report("telemetry_overhead", smoke=args.smoke, steps=steps)

    ov = bench_overhead(n_cells, steps, repeats)
    report["overhead"] = ov
    print(
        f"grid ({ov['n_cells']} cells, {ov['steps']} steps): "
        f"off {ov['wall_off_s']*1e3:7.1f} ms   "
        f"disabled {ov['disabled_overhead']*100:+5.1f}%   "
        f"enabled {ov['enabled_overhead']*100:+5.1f}%"
    )

    # Telemetry observes, never perturbs: bit-identical at every size.
    assert ov["max_abs_diff_disabled"] == 0.0, (
        "disabled telemetry changed solve results"
    )
    assert ov["max_abs_diff_enabled"] == 0.0, (
        "enabled telemetry changed solve results"
    )
    # The enabled run must actually have measured something.
    assert ov["enabled_metric_series"] > 0, "no metric series recorded"
    assert ov["enabled_collected_advances"] > 0, (
        "engine counters were not folded into the registry"
    )
    assert ov["enabled_solve_spans"] > 0, "no solve spans recorded"
    # Clean runs never touch the flight recorder's cold paths.
    assert ov["enabled_journal_events"] == 0, (
        "journal events emitted on a fault-free run — an emit site leaked "
        "onto the hot path"
    )
    # The Perfetto export of the run's trace forest must validate.
    assert ov["trace_events"] > 0, "trace export produced no events"

    if not args.smoke:
        # Wall gates only at full size on a quiet host: the disabled path
        # must be free (<= 2%), the enabled path — flight recorder armed —
        # cheap (<= 10%).
        assert ov["disabled_overhead"] <= 0.02, (
            f"disabled telemetry costs {ov['disabled_overhead']*100:.1f}% "
            "(gate: 2%)"
        )
        assert ov["enabled_overhead"] <= 0.10, (
            f"enabled telemetry costs {ov['enabled_overhead']*100:.1f}% "
            "(gate: 10%)"
        )

    report["summary"] = {
        "disabled_overhead": ov["disabled_overhead"],
        "enabled_overhead": ov["enabled_overhead"],
        "bit_identical": True,
    }
    report["telemetry"] = telemetry_section(
        cells_per_sec=ov["n_cells"] / ov["wall_enabled_s"],
    )
    write_bench_report(
        args.out,
        report,
        speedup=1.0 / max(1.0 + ov["enabled_overhead"], 1e-12),
        drift=max(ov["max_abs_diff_disabled"], ov["max_abs_diff_enabled"]),
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
