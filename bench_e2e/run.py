"""End-to-end benchmark: five seeded workloads through the public entry points.

Usage::

    python3 bench_e2e/run.py --seed 11             # all workloads, report
    python3 bench_e2e/run.py --seed 11 --smoke     # same at smoke sizes
    python3 bench_e2e/run.py --workload quote_stream --seed 11 \\
        --seconds 12 --trace 0                     # one run, one JSON line
    python3 bench_e2e/run.py --compare A.json [A2.json ...] -- B.json [...]

Without ``--workload`` every workload runs twice with the same seed, each
run in its own fresh process: first **untraced**, giving the end-to-end
metrics, then **traced**, giving the per-layer metrics.  The report prints
every metric by name with its unit, the correctness checks, and each
workload's slowest layer, and is written to
``bench_e2e/results/e2e-<seed>.json``.  The dev seed is 11; 29 is held out
for confirming a claimed gain.  The command exits nonzero when any
correctness check fails.

Load model
----------
QuoteService, ScenarioEngine and the implied-vol solver are in-process,
synchronous libraries whose callers block on every call, so each workload
is a closed loop with one client thread in one process: no worker pools,
no extra threads.  A run issues operations until their timed wall reaches
``--seconds``; preparing inputs and recording answers are not timed.

Workloads (lattice model ``binomial``, method ``fft`` unless stated)
-------------------------------------------------------------------
``quote_stream``
    ``QuoteService(cache_size=256).quote`` at 256 steps over a
    512-contract American surface (32 strikes 70-130 x 8 expiries from one
    week to two years x call/put, vols from a seeded smile).  Contracts
    are drawn Zipf(1.1) over a seed-shuffled rank order; tiers are exact
    70%, auto 20%, fast 10%; ``flush()`` runs every 64 quotes.  The
    working set is twice the cache, so LRU evictions keep misses coming:
    about 80% of quotes are warm hits (p50), 11% exact misses solved alone
    (p95 and p99) and 7% fast-tier misses.  The only workload that runs the
    spectral tier and the submit/flush upgrade path.
``quote_batch``
    ``quote_many`` of 8-strike chains (contiguous strikes, one expiry and
    right, chains drawn Zipf) from the same surface at 256 steps with
    ``cache_size=256``: misses coalesce into one lockstep solve with
    B <= 8.  A change to ``quote_many`` or to small-batch lockstep shows
    here and not in ``quote_stream``.
``risk_grid``
    ``ScenarioEngine(workers=1, backend="serial").price_grid`` on a fresh
    seeded 1024-cell heterogeneous American call grid (spot 90-110,
    vol 0.12-0.45, r 0-0.08, q 0.02, one year) at 256 steps: lockstep at
    full chunk width, where ``fftstencil`` and the solver drivers do almost
    all the work and the service layer none.
``deep_solve``
    Cold exact ``quote`` calls at T = 8192 on distinct contracts, cycling
    binomial, trinomial and bsm-fd (puts with q = 0): the paper's regime,
    long transforms and all three of its models, with service and
    per-solve fixed costs amortised away.  Traced runs add a T-sweep over
    {512, ..., 16384} x 3 contracts for the exponent fit.
``calibration``
    ``implied_vol_many`` in its default warm-start mode on 64-strike call
    ladders (8 expiries x 3 seeded smiles) at 256 steps, with quotes
    generated from known vols: sequential B = 1 solves with neighbour warm
    starts and no cache.  Ladders run from three months to two years.

Resilient and pooled grid dispatch are out of scope: the reference host
has 2 shared CPUs, and ``bench_resilience`` still covers the resilient
path.  Numbers quoted here come from that host, a shared VM with two
2.0 GHz Intel Xeon vCPUs running Python 3.11.

End-to-end metrics (untraced runs; bounds in ``BENCHMARK.json``)
----------------------------------------------------------------
``p50_ms``
    median latency of one operation (a quote, a ``quote_many`` call, a
    grid, a ladder).
``items_per_s``
    quotes, requested contracts, grid cells or fitted vols per second of
    timed wall, flushes included.  On ``quote_stream`` the misses dominate
    it: a warm hit costs about 0.03 ms, an exact miss about 5 ms.
``setup_s``
    wall time from process start to the first timed operation: imports,
    input tables, construction and one throwaway solve per step count on a
    contract outside the population.  Measured in fresh processes started
    after this one (so bytecode caches are warm); the median of three.

Every bound is 25%.  On the reference host, ten runs of one commit on ten
seeds spread by 6% to 19% of their median (quartile distance over
median), and runs of one seed spread as much: the shared host's speed
drifts by 10% to 30% over minutes, which no run length this benchmark can
afford averages away.

The report also prints p95 and p99 latency with the number of samples
beyond each.  They are not bounded metrics: only ``quote_stream`` and
``quote_batch`` have ten samples beyond p99, the other workloads' tails
are their slowest few operations, and on the reference host the tails'
run-to-run spread (0.2 to 0.3 of the median, against about 0.1 for p50
and throughput) was wider than any bound a regression gate could use.

Failures and answer errors are not metrics either, because they are zero
on a healthy run: ``failed`` in the result line counts operations that
raised or came back as NaN markers plus failed check samples, and a run
with any is not ``correct``.  The checks run outside the timed region,
every error relative to max(|reference|, 1% of strike):

* quote workloads: 64 sampled exact-tier serves equal a direct
  ``price_american`` within 1e-12, and sampled fast-tier serves lie
  within the spectral backend's ``tolerance`` of a 4096-step lattice;
* ``risk_grid``: 32 sampled cells equal ``price_american`` within 1e-12;
* ``deep_solve``: the first quote of each model equals ``price_american``
  within 1e-12, and each model's ``fft`` price equals its ``loop`` price
  at T = 2048 within 1e-10;
* ``calibration``: every recovered vol is within 1e-6 of the vol that
  generated its quote, and sampled quotes equal the ``loop`` lattice
  within 1e-10.

Per-layer metrics (traced runs)
-------------------------------
A traced run performs a fixed number of operations (a third of
``--seconds`` over the workload's nominal operation time on the
reference host) three times: untraced, traced with :mod:`e2e_layers`
wrappers installed, and untraced again.  The count is fixed so that layer
counts repeat exactly between runs of one seed and between commits.
``<layer>.calls`` and ``<layer>.share`` (self time over the traced wall,
``trace.wall_s``) come from the wrappers; layer counters come from the
program's own stats; ``trace.overhead_ratio`` is the traced wall over the
mean of the two untraced walls for the same operations.  Self time in
seconds is in the run record and the report but is not a published
metric, because a layer a workload never reaches would read exactly 0 s
on every run.  Every traced run reports every per-layer metric; one its
workload never reaches reads 0 (the service counters outside the quote
workloads, the exponents outside ``deep_solve``).  repro's own
``Telemetry`` stays off in every pass because its per-round spans double
the work being measured.

On the reference host the overhead ratio was 1.085 on ``quote_stream``
(many short calls), 1.04 on ``quote_batch`` and 1.06 on ``deep_solve``;
the grid and ladder passes hold only a few operations each, so their
ratio carries the host's own run-to-run noise of about 10% and read 0.90
to 1.19.  ``solver.work_exponent`` and ``solver.wall_exponent`` are the
deep-solve sweep's power-law fits of counted work and of wall time
against T.  The paper's O(T log^2 T) law reads as an exponent above 1
that shrinks toward 1 as T grows; the reference host fitted 1.39 for work
and 0.92 for wall time, because up to T = 16384 fixed per-solve costs
still outweigh the log factors in the wall clock.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RESULTS_DIR = os.path.join(BENCH_DIR, "results")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
DEFAULT_SEED = 11
DEFAULT_SECONDS = 12.0
SMOKE_SECONDS = 0.5
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 600

#: per-layer metrics the program's own counters supply, beside the tracer's
COUNTER_METRICS = (
    "service.solves", "service.merged",
    "service.tier_upgrades", "cache.hit_ratio", "cache.evictions",
    "spectral.plan_hit_ratio", "solver.work_exponent",
    "solver.wall_exponent", "trace.overhead_ratio", "trace.wall_s",
)
END_TO_END = ("p50_ms", "items_per_s", "setup_s")
#: latency percentiles the report prints beside the bounded metrics
TAILS = (95, 99)

_UNITS = {
    "p50_ms": "ms", "items_per_s": "1/s", "setup_s": "s", "wall_s": "s",
    "share": "ratio", "hit_ratio": "ratio", "plan_hit_ratio": "ratio",
    "overhead_ratio": "ratio", "work_exponent": "exponent",
    "wall_exponent": "exponent",
}


def unit_of(metric: str) -> str:
    """A metric's unit, read off its last name component."""
    return _UNITS.get(metric.rsplit(".", 1)[-1], "count")


def load_program():
    """Put the checkout's ``src/`` on the path and import the workloads;
    exits with status 2 when the program is not there to measure."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"bench_e2e: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        raise SystemExit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    if BENCH_DIR not in sys.path:
        sys.path.insert(0, BENCH_DIR)
    import e2e_layers
    import e2e_workloads

    return e2e_workloads, e2e_layers


# --------------------------------------------------------------------- #
# One run
# --------------------------------------------------------------------- #
def _setup(name: str, seed: int, smoke: bool):
    wl_mod, _ = load_program()
    sizes = wl_mod.SMOKE if smoke else wl_mod.FULL
    wl = wl_mod.WORKLOADS[name](seed, sizes)
    wl.warm()
    wl.new_pass()
    return wl


def probe_setup(name: str, seed: int, smoke: bool) -> float:
    """Set-up time of one fresh process, from spawn to ready."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    if smoke:
        cmd.append("--smoke")
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1]) - t0


def tails(latencies: list) -> dict:
    """``{"p95": [ms, samples beyond], "p99": [...]}`` of one pass."""
    import numpy as np

    out = {}
    for q in TAILS:
        cut = float(np.percentile(latencies, q))
        out[f"p{q}"] = [cut * 1e3, sum(1 for x in latencies if x > cut)]
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False, setup_probes: int = 0) -> dict:
    """One benchmark run in this process; returns its full record.

    Untraced runs give the end-to-end metrics; ``setup_probes`` fresh
    processes measure ``setup_s`` (0: this process's own set-up after
    imports).  Traced runs give the per-layer metrics.
    """
    wl_mod, layers = load_program()
    t0 = time.perf_counter()
    wl = _setup(name, seed, smoke)
    own_setup = time.perf_counter() - t0
    detail: dict = {}
    if not trace:
        samples = [probe_setup(name, seed, smoke)
                   for _ in range(setup_probes)] or [own_setup]
        res = wl_mod.run_pass(wl, seconds=seconds)
        metrics = {
            "p50_ms": statistics.median(res.latencies_s) * 1e3,
            "items_per_s": res.items / res.wall_s,
            "setup_s": statistics.median(samples),
        }
        detail["setup_samples_s"] = samples
        attempted, op_failed = res.ops, res.failed
    else:
        # untraced, traced, untraced: the first pass also warms the
        # process-wide caches (kernel weights, FFT plans) the traced pass
        # would otherwise warm, and averaging the two untraced walls
        # cancels a steady drift of the host's speed
        n_ops = max(1, round(seconds / 3 / wl.nominal_op_s))
        before = wl_mod.run_pass(wl, n_ops=n_ops)
        tracer = layers.LayerTracer()
        with tracer.installed():
            res = wl_mod.run_pass(wl, n_ops=n_ops)
        after = wl_mod.run_pass(wl, n_ops=n_ops)
        metrics = tracer.metrics(res.wall_s)
        metrics.update({m: 0 for m in COUNTER_METRICS})
        metrics.update(res.counters)
        untraced_s = (before.wall_s + after.wall_s) / 2
        metrics["trace.overhead_ratio"] = res.wall_s / untraced_s
        metrics["trace.wall_s"] = res.wall_s
        if hasattr(wl, "sweep"):
            metrics.update(wl.sweep())
        detail.update(
            self_s=tracer.self_times(),
            slowest_layer=tracer.slowest(),
            untraced_wall_s=untraced_s,
            flush_ms=(statistics.fmean(res.flushes_s) * 1e3
                      if res.flushes_s else None),
        )
        passes = (before, res, after)
        attempted = sum(p.ops for p in passes)
        op_failed = sum(p.failed for p in passes)
    checks = [dataclasses.asdict(c) for c in wl.checks(res.records)]
    failed = op_failed + sum(c["failed"] for c in checks)
    detail.update(
        ops=res.ops,
        items=res.items,
        items_unit=wl.items,
        wall_s=res.wall_s,
        tails=tails(res.latencies_s),
        flushes=len(res.flushes_s),
        fail_ratio=failed / attempted,
    )
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "metrics": metrics,
        "detail": detail,
    }


def result_line(record: dict) -> str:
    """The run's result: the last line it prints."""
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in record["metrics"].items()
        },
    })


# --------------------------------------------------------------------- #
# All workloads
# --------------------------------------------------------------------- #
def _child_run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=CHILD_TIMEOUT_S)
    for line in proc.stdout.splitlines():
        if line.startswith('{"e2e_run"'):
            return json.loads(line)["e2e_run"]
    raise RuntimeError(
        f"{name} (trace={int(trace)}) exited {proc.returncode} without a "
        f"result:\n{proc.stderr[-2000:]}"
    )


def run_suite(seed: int, seconds: float, smoke: bool,
              names=None) -> dict:
    """Every workload untraced then traced; smoke sizes run in-process."""
    wl_mod, _ = load_program()
    suite = {
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "host": {"cpus": os.cpu_count(), "python": platform.python_version(),
                 "machine": platform.machine()},
        "workloads": {},
    }
    for name in names or wl_mod.WORKLOADS:
        runs = []
        for trace in (False, True):
            if smoke:
                runs.append(run_workload(name, seed, seconds, trace, True))
            else:
                runs.append(_child_run(name, seed, seconds, trace))
        untraced, traced = runs
        suite["workloads"][name] = {
            "end_to_end": untraced["metrics"],
            "per_layer": traced["metrics"],
            "correct": untraced["correct"] and traced["correct"],
            "untraced": {k: untraced[k] for k in
                         ("attempted", "failed", "checks", "detail")},
            "traced": {k: traced[k] for k in
                       ("attempted", "failed", "checks", "detail")},
        }
    return suite


def _fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.4g}"


def print_suite(suite: dict, out=sys.stdout) -> None:
    _, layers = load_program()
    for name, wl in suite["workloads"].items():
        u, t = wl["untraced"]["detail"], wl["traced"]["detail"]
        print(f"\n== {name}  seed {suite['seed']}  "
              f"{suite['seconds']:g} s per run  closed loop, 1 client ==",
              file=out)
        notes = {
            "p50_ms": f"({u['ops']} ops)",
            "items_per_s": f"({u['items_unit']})",
            "setup_s": (f"(median of {len(u['setup_samples_s'])} fresh "
                        "processes)"),
        }
        for metric in END_TO_END:
            print(f"  {metric:<13} {_fmt(wl['end_to_end'][metric]):>12} "
                  f"{unit_of(metric):<6}{notes[metric]}", file=out)
        for q, (ms, beyond) in u["tails"].items():
            print(f"  {q + '_ms':<13} {_fmt(ms):>12} ms    ({beyond} "
                  "samples beyond; reported, not bounded)", file=out)
        fails = wl["untraced"]["failed"] + wl["traced"]["failed"]
        attempted = wl["untraced"]["attempted"] + wl["traced"]["attempted"]
        print(f"  {'fail_ratio':<13} {_fmt(fails / attempted):>12}"
              f"        ({fails}/{attempted})", file=out)
        for run in ("untraced", "traced"):
            for check in wl[run]["checks"]:
                status = "ok" if check["failed"] == 0 else "FAILED"
                print(f"  check {check['name']:<24} {run:<8} "
                      f"{check['checked']:>4} samples, max err "
                      f"{check['max_err']:.3g} <= {check['tolerance']:g}  "
                      f"{status}", file=out)
        per = wl["per_layer"]
        print(f"  layers (traced wall {per['trace.wall_s']:.3f} s, "
              f"overhead x{per['trace.overhead_ratio']:.3f}, "
              f"self times sum to {sum(t['self_s'].values()):.3f} s):",
              file=out)
        print(f"    {'layer':<22}{'calls':>9}{'self_s':>10}{'share':>8}"
              "  should move", file=out)
        for layer in layers.LAYERS:
            n = layer.name
            if per[f"{n}.calls"]:
                extra = ""
                if layer.unit_metric is not None:
                    extra = (f"; {layer.unit_metric} "
                             f"{_fmt(per[f'{n}.{layer.unit_metric}'])}")
                print(f"    {n:<22}{per[f'{n}.calls']:>9}"
                      f"{t['self_s'][n]:>10.4f}"
                      f"{per[f'{n}.share']:>8.3f}  {layer.moves}{extra}",
                      file=out)
        counters = [f"{m} {_fmt(per[m])}" for m in COUNTER_METRICS
                    if per[m] and not m.startswith("trace.")]
        if t["flush_ms"] is not None:
            counters.append(f"flush {t['flush_ms']:.4g} ms per call")
        if counters:
            print(f"    {', '.join(counters)}", file=out)
        print(f"  slowest layer: {t['slowest_layer']}", file=out)


# --------------------------------------------------------------------- #
# Compare
# --------------------------------------------------------------------- #
def _quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def compare(a_paths: list, b_paths: list, out=sys.stdout) -> dict:
    """Compare suite results ``A`` (parent) against ``B`` (change).

    For each end-to-end metric and workload: each side's median and
    quartiles, flagged ``REGRESSED`` when B's median is worse than A's by
    more than the metric's ``BENCHMARK.json`` bound, ``unresolved`` when
    either side's spread (quartile distance over median) is wider than the
    bound and not every B run beats every A run.  Per workload it names
    B's slowest layer and the layer whose self time grew the most.
    """
    with open(BENCHMARK_JSON) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    sides = []
    for paths in (a_paths, b_paths):
        runs = []
        for path in paths:
            with open(path) as fh:
                runs.append(json.load(fh))
        sides.append(runs)
    a_runs, b_runs = sides
    _, layers = load_program()
    verdicts: dict = {}
    for name in a_runs[0]["workloads"]:
        if any(name not in r["workloads"] for r in a_runs + b_runs):
            continue
        print(f"\n== {name} ==", file=out)
        rows = {}
        for metric, spec in bounds.items():
            a = [r["workloads"][name]["end_to_end"][metric] for r in a_runs]
            b = [r["workloads"][name]["end_to_end"][metric] for r in b_runs]
            qa, qb = _quartiles(a), _quartiles(b)
            lower = spec["better"] == "lower"
            change = (qb[1] - qa[1]) / qa[1]
            worse_by = change if lower else -change
            spread = max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1])
            all_better = (max(b) < min(a)) if lower else (min(b) > max(a))
            if spread > spec["bound"] and not all_better:
                verdict = "unresolved"
            elif worse_by > spec["bound"]:
                verdict = "REGRESSED"
            else:
                verdict = "ok"
            rows[metric] = verdict
            print(f"  {metric:<12} A {qa[1]:.4g} [{qa[0]:.4g}, {qa[2]:.4g}]"
                  f"  B {qb[1]:.4g} [{qb[0]:.4g}, {qb[2]:.4g}] "
                  f"{unit_of(metric):<5} {change:+.1%}  (bound "
                  f"{spec['bound']:.0%})  {verdict}", file=out)
        if any(not r["workloads"][name]["correct"] for r in b_runs):
            rows["correct"] = "REGRESSED"
            print("  correctness: B has failed operations or checks  "
                  "REGRESSED", file=out)
        self_a, self_b = (
            {layer.name: statistics.median(
                r["workloads"][name]["traced"]["detail"]["self_s"][layer.name]
                for r in runs) for layer in layers.LAYERS}
            for runs in (a_runs, b_runs)
        )
        slowest = max(self_b, key=self_b.get)
        grew = max(self_b, key=lambda n: self_b[n] - self_a[n])
        print(f"  slowest layer in B: {slowest} ({self_b[slowest]:.4f} s)",
              file=out)
        if self_b[grew] > self_a[grew]:
            print(f"  layer that grew most: {grew} "
                  f"({self_a[grew]:.4f} s -> {self_b[grew]:.4f} s)", file=out)
        else:
            grew = None
            print("  no layer's self time grew", file=out)
        verdicts[name] = {"metrics": rows, "slowest_layer": slowest,
                          "grew_most": grew}
    return verdicts


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #
def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--compare" in argv:
        rest = argv[argv.index("--compare") + 1:]
        if "--" not in rest:
            print("usage: --compare A.json [...] -- B.json [...]",
                  file=sys.stderr)
            return 2
        cut = rest.index("--")
        verdicts = compare(rest[:cut], rest[cut + 1:])
        regressed = any(v == "REGRESSED" for w in verdicts.values()
                        for v in w["metrics"].values())
        return 1 if regressed else 0

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run one workload once")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed wall per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes, in one process")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    seconds = args.seconds or (SMOKE_SECONDS if args.smoke
                               else DEFAULT_SECONDS)
    wl_mod, _ = load_program()
    if args.workload is not None and args.workload not in wl_mod.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose one of "
                     f"{sorted(wl_mod.WORKLOADS)}")

    if args.setup_probe:
        _setup(args.workload, args.seed, args.smoke)
        print(time.monotonic())
        return 0

    if args.workload is not None:
        record = run_workload(
            args.workload, args.seed, seconds, bool(args.trace), args.smoke,
            setup_probes=0 if args.smoke else SETUP_PROBES,
        )
        print(json.dumps({"e2e_run": record}))
        print(result_line(record))
        return 0 if record["correct"] else 1

    suite = run_suite(args.seed, seconds, args.smoke)
    print_suite(suite)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(
        RESULTS_DIR,
        f"e2e-{args.seed}{'-smoke' if args.smoke else ''}.json",
    )
    with open(path, "w") as fh:
        json.dump(suite, fh, indent=1)
    print(f"\nwrote {path}")
    correct = all(w["correct"] for w in suite["workloads"].values())
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
