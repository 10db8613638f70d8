"""One runnable benchmark suite: every bench, one trajectory row.

Runs each standalone benchmark script as a subprocess (its own process
keeps pool/fork state clean and its asserted gates meaningful), validates
every ``BENCH_*.json`` it produced against the shared schema
(``conftest.validate_report``), folds the headline numbers into one
trajectory row, and appends it to ``BENCH_TRAJECTORY.jsonl``
(:mod:`trajectory`).  Also exports the observability artifacts CI
uploads: the bench run's own Perfetto trace
(``results/run_all_trace.json`` under ``--out-dir``).

Usage::

    python benchmarks/run_all.py            # full sizes (slow, quiet host)
    python benchmarks/run_all.py --smoke    # CI sizes
    python benchmarks/run_all.py --smoke --check             # gate, exit 1
    python benchmarks/run_all.py --smoke --check --no-fail   # report-only

``--check`` compares the new row against the last row with the same
smoke flag and flags any headline rate (cells/sec, quotes/sec, hit rate,
headline speedup) that fell more than ``--threshold`` (default 20%).
CI runs it ``--no-fail``: the regression report lands in the job log and
the row is recorded either way — a noisy runner must not block merges.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)


def _load_sibling(name: str, filename: str):
    """Import a ``benchmarks/`` module by path under a prefixed name.

    The bare name ``conftest`` is taken by whichever conftest pytest
    imported first, so importing this file from a test would otherwise
    resolve ``from conftest import ...`` against the wrong module.
    """
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(BENCH_DIR, filename)
    )
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod
    spec.loader.exec_module(mod)
    return mod


validate_report = _load_sibling("bench_conftest", "conftest.py").validate_report
trajectory = _load_sibling("bench_trajectory", "trajectory.py")
TRAJECTORY_PATH = trajectory.TRAJECTORY_PATH
append_row = trajectory.append_row
upsert_row = trajectory.upsert_row
build_row = trajectory.build_row
check_regression = trajectory.check_regression
last_comparable = trajectory.last_comparable
load_rows = trajectory.load_rows

#: The suite: (name, script, smoke flag the script understands).  Every
#: entry writes ``BENCH_<name>.json`` via ``--out`` and exits nonzero
#: when one of its own gates fails.
BENCHES = (
    ("advance_engine", "bench_advance_engine.py", "--quick"),
    ("scenario_engine", "bench_scenario_engine.py", "--quick"),
    ("service", "bench_service.py", "--smoke"),
    ("implied", "bench_implied.py", "--smoke"),
    ("resilience", "bench_resilience.py", "--smoke"),
    ("obs", "bench_obs.py", "--smoke"),
    ("spectral", "bench_spectral.py", "--smoke"),
)


def run_suite(
    *,
    smoke: bool,
    out_dir: str = REPO_ROOT,
    bench_dir: str = BENCH_DIR,
    benches=BENCHES,
    python: str = sys.executable,
    timeout: float = 1800.0,
) -> tuple:
    """Run every bench; returns ``(reports, failures)``.

    ``reports`` maps bench name to its validated ``BENCH_*.json`` dict;
    ``failures`` is a list of ``(name, detail)`` for benches that exited
    nonzero, timed out, or produced an invalid report.  The suite always
    runs to completion — one broken bench must not hide the others'
    numbers.
    """
    reports: dict = {}
    failures: list = []
    for name, script, flag in benches:
        out_path = os.path.join(out_dir, f"BENCH_{name}.json")
        cmd = [python, os.path.join(bench_dir, script), "--out", out_path]
        if smoke:
            cmd.append(flag)
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            failures.append((name, f"timed out after {timeout:g}s"))
            print(f"[run_all] {name}: TIMEOUT", flush=True)
            continue
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            tail = "\n".join(
                (proc.stdout + "\n" + proc.stderr).strip().splitlines()[-8:]
            )
            failures.append(
                (name, f"exit {proc.returncode}:\n{tail}")
            )
            print(f"[run_all] {name}: FAILED (exit {proc.returncode})",
                  flush=True)
            continue
        try:
            with open(out_path) as fh:
                report = json.load(fh)
            validate_report(report)
        except (OSError, ValueError) as exc:
            failures.append((name, f"invalid report: {exc}"))
            print(f"[run_all] {name}: INVALID REPORT", flush=True)
            continue
        reports[name] = report
        speedup = report["summary"]["headline_speedup"]
        print(
            f"[run_all] {name}: ok in {wall:6.1f}s  "
            f"(headline_speedup {speedup:.3g})",
            flush=True,
        )
    return reports, failures


def export_suite_trace(reports: dict, out_path: str) -> None:
    """A small Perfetto trace of the suite run itself — one track, one
    span per bench sized by its report's wall numbers where available —
    exercising the exporter end to end so CI always uploads a loadable
    trace artifact."""
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    from repro.obs import Telemetry, chrome_trace, write_chrome_trace

    tel = Telemetry()
    with tel.span("run_all", benches=len(reports)):
        for name, report in sorted(reports.items()):
            with tel.span(name, smoke=report.get("smoke")):
                pass
    write_chrome_trace(out_path, chrome_trace(tel.tracer))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", "--quick", action="store_true", dest="smoke",
        help="CI sizes for every bench",
    )
    parser.add_argument(
        "--out-dir", default=REPO_ROOT,
        help="directory for the BENCH_*.json artifacts and "
        "results/run_all_trace.json (default: repo root)",
    )
    parser.add_argument(
        "--trajectory", default=TRAJECTORY_PATH,
        help="trajectory JSONL to append to",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="compare against the last comparable row; regressions fail",
    )
    parser.add_argument(
        "--threshold", type=float, default=0.20,
        help="relative drop that counts as a regression (default 0.20)",
    )
    parser.add_argument(
        "--no-fail", action="store_true",
        help="with --check: report regressions but exit 0 (CI report-only)",
    )
    parser.add_argument(
        "--force", action="store_true",
        help="re-measuring an already-recorded commit+mode replaces its "
        "trajectory row instead of being skipped",
    )
    args = parser.parse_args(argv)
    trace_out = os.path.join(args.out_dir, "results", "run_all_trace.json")

    reports, failures = run_suite(smoke=args.smoke, out_dir=args.out_dir)
    row = build_row(reports, smoke=args.smoke)

    history = load_rows(args.trajectory)
    baseline = last_comparable(history, row)
    outcome = upsert_row(args.trajectory, row, force=args.force)
    if outcome == "skipped":
        print(
            f"[run_all] commit {row.get('commit')} (smoke={row['smoke']}) "
            f"already recorded in {args.trajectory}; --force replaces it"
        )
    elif outcome == "replaced":
        print(
            f"[run_all] replaced trajectory row for commit "
            f"{row.get('commit')} in {args.trajectory}"
        )
    else:
        print(
            f"[run_all] appended row {len(history) + 1} to {args.trajectory}"
        )

    os.makedirs(os.path.dirname(trace_out), exist_ok=True)
    export_suite_trace(reports, trace_out)
    print(f"[run_all] wrote {trace_out}")

    status = 0
    if failures:
        print(f"[run_all] {len(failures)} bench(es) failed:")
        for name, detail in failures:
            print(f"  - {name}: {detail}")
        status = 1
    if args.check:
        if baseline is None:
            print("[run_all] --check: no comparable baseline row; skipping")
        else:
            flags = check_regression(baseline, row, args.threshold)
            if flags:
                print(
                    f"[run_all] REGRESSIONS vs commit "
                    f"{baseline.get('commit')}:"
                )
                for flag in flags:
                    print(f"  - {flag}")
                if not args.no_fail:
                    status = 1
            else:
                print(
                    f"[run_all] no regressions vs commit "
                    f"{baseline.get('commit')} "
                    f"(threshold {args.threshold * 100:.0f}%)"
                )
    return status


if __name__ == "__main__":
    raise SystemExit(main())
