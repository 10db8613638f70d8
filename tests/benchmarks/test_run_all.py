"""The one-command suite: runner, trajectory rows, regression gate."""

import json

import pytest

SUMMARY = {"headline_speedup": 2.0, "max_drift": 1e-12}


def make_report(
    name="fake", *, smoke=False, cells_per_sec=100.0, quotes_per_sec=None,
    hit_rate=None, speedup=2.0,
):
    return {
        "benchmark": name,
        "schema": 2,
        "smoke": smoke,
        "host_cpus": 1,
        "telemetry": {
            "cells_per_sec": cells_per_sec,
            "quotes_per_sec": quotes_per_sec,
            "hit_rate": hit_rate,
        },
        "summary": {"headline_speedup": speedup, "max_drift": 0.0},
    }


GOOD_SCRIPT = """\
import argparse, json
p = argparse.ArgumentParser()
p.add_argument("--out", required=True)
p.add_argument("--smoke", "--quick", action="store_true", dest="smoke")
a = p.parse_args()
report = {
    "benchmark": "fake", "schema": 2, "smoke": a.smoke, "host_cpus": 1,
    "telemetry": {
        "cells_per_sec": 100.0, "quotes_per_sec": None, "hit_rate": None,
    },
    "summary": {"headline_speedup": 2.0, "max_drift": 0.0},
}
with open(a.out, "w") as fh:
    json.dump(report, fh)
"""

FAILING_SCRIPT = """\
import sys
print("gate blew: drift 0.5 > tolerance")
sys.exit(3)
"""

INVALID_SCRIPT = """\
import argparse, json
p = argparse.ArgumentParser()
p.add_argument("--out", required=True)
p.add_argument("--smoke", "--quick", action="store_true", dest="smoke")
a = p.parse_args()
with open(a.out, "w") as fh:
    json.dump({"benchmark": "junk", "schema": 999}, fh)
"""


@pytest.fixture
def fake_bench_dir(tmp_path):
    bench_dir = tmp_path / "benches"
    bench_dir.mkdir()
    (bench_dir / "good.py").write_text(GOOD_SCRIPT)
    (bench_dir / "failing.py").write_text(FAILING_SCRIPT)
    (bench_dir / "invalid.py").write_text(INVALID_SCRIPT)
    return bench_dir


class TestRunSuite:
    def test_reports_collected_and_validated(
        self, run_all, fake_bench_dir, tmp_path
    ):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        reports, failures = run_all.run_suite(
            smoke=True,
            out_dir=str(out_dir),
            bench_dir=str(fake_bench_dir),
            benches=(("good", "good.py", "--smoke"),),
        )
        assert failures == []
        assert set(reports) == {"good"}
        assert reports["good"]["smoke"] is True  # the flag reached it
        assert (out_dir / "BENCH_good.json").exists()

    def test_full_size_omits_the_smoke_flag(
        self, run_all, fake_bench_dir, tmp_path
    ):
        reports, _ = run_all.run_suite(
            smoke=False,
            out_dir=str(tmp_path),
            bench_dir=str(fake_bench_dir),
            benches=(("good", "good.py", "--smoke"),),
        )
        assert reports["good"]["smoke"] is False

    def test_one_broken_bench_does_not_hide_the_others(
        self, run_all, fake_bench_dir, tmp_path
    ):
        reports, failures = run_all.run_suite(
            smoke=True,
            out_dir=str(tmp_path),
            bench_dir=str(fake_bench_dir),
            benches=(
                ("boom", "failing.py", "--smoke"),
                ("good", "good.py", "--smoke"),
                ("junk", "invalid.py", "--smoke"),
            ),
        )
        assert set(reports) == {"good"}  # the suite ran to completion
        assert sorted(name for name, _ in failures) == ["boom", "junk"]
        details = dict(failures)
        assert "exit 3" in details["boom"]
        assert "gate blew" in details["boom"]  # output tail preserved
        assert "invalid report" in details["junk"]


class TestTrajectoryRows:
    def test_build_append_load_round_trip(self, trajectory, tmp_path):
        path = tmp_path / "traj.jsonl"
        row = trajectory.build_row(
            {"risk": make_report(cells_per_sec=250.0)},
            smoke=True, commit="abc1234", timestamp=1000.0,
        )
        assert row["schema"] == trajectory.TRAJECTORY_SCHEMA
        assert row["commit"] == "abc1234"
        assert row["smoke"] is True
        assert row["benches"]["risk"] == {
            "headline_speedup": 2.0,
            "max_drift": 0.0,
            "cells_per_sec": 250.0,
            "quotes_per_sec": None,
            "hit_rate": None,
        }
        trajectory.append_row(str(path), row)
        trajectory.append_row(str(path), row)
        rows = trajectory.load_rows(str(path))
        assert rows == [row, row]
        # one sorted-keys JSON object per line: stable, diffable history
        first_line = path.read_text().splitlines()[0]
        assert json.loads(first_line) == row
        keys = list(json.loads(first_line))
        assert keys == sorted(keys)

    def test_missing_file_is_empty_history(self, trajectory, tmp_path):
        assert trajectory.load_rows(str(tmp_path / "absent.jsonl")) == []

    def test_upsert_skips_rerun_of_same_commit_and_mode(
        self, trajectory, tmp_path
    ):
        path = str(tmp_path / "traj.jsonl")
        row = trajectory.build_row({}, smoke=True, commit="abc", timestamp=1)
        assert trajectory.upsert_row(path, row) == "appended"
        rerun = trajectory.build_row({}, smoke=True, commit="abc", timestamp=2)
        assert trajectory.upsert_row(path, rerun) == "skipped"
        rows = trajectory.load_rows(path)
        assert len(rows) == 1
        assert rows[0]["timestamp"] == 1  # original row untouched

    def test_upsert_same_commit_different_mode_appends(
        self, trajectory, tmp_path
    ):
        path = str(tmp_path / "traj.jsonl")
        smoke = trajectory.build_row({}, smoke=True, commit="abc", timestamp=1)
        full = trajectory.build_row({}, smoke=False, commit="abc", timestamp=2)
        assert trajectory.upsert_row(path, smoke) == "appended"
        assert trajectory.upsert_row(path, full) == "appended"
        assert len(trajectory.load_rows(path)) == 2

    def test_upsert_force_replaces_in_place(self, trajectory, tmp_path):
        path = str(tmp_path / "traj.jsonl")
        first = trajectory.build_row({}, smoke=True, commit="abc", timestamp=1)
        other = trajectory.build_row({}, smoke=True, commit="def", timestamp=2)
        trajectory.upsert_row(path, first)
        trajectory.upsert_row(path, other)
        redo = trajectory.build_row({}, smoke=True, commit="abc", timestamp=3)
        assert trajectory.upsert_row(path, redo, force=True) == "replaced"
        rows = trajectory.load_rows(path)
        assert [r["commit"] for r in rows] == ["abc", "def"]  # order kept
        assert rows[0]["timestamp"] == 3

    def test_upsert_without_commit_always_appends(self, trajectory, tmp_path):
        path = str(tmp_path / "traj.jsonl")
        row = trajectory.build_row({}, smoke=True, commit=None, timestamp=1)
        row["commit"] = None  # outside any git checkout
        assert trajectory.upsert_row(path, row) == "appended"
        assert trajectory.upsert_row(path, row) == "appended"
        assert len(trajectory.load_rows(path)) == 2

    def test_last_comparable_never_mixes_smoke_and_full(self, trajectory):
        full = trajectory.build_row({}, smoke=False, commit="a", timestamp=1)
        smoke = trajectory.build_row({}, smoke=True, commit="b", timestamp=2)
        newer = trajectory.build_row({}, smoke=False, commit="c", timestamp=3)
        history = [full, smoke, newer]
        cur_full = trajectory.build_row({}, smoke=False, commit="d", timestamp=4)
        cur_smoke = trajectory.build_row({}, smoke=True, commit="e", timestamp=5)
        assert trajectory.last_comparable(history, cur_full) is newer
        assert trajectory.last_comparable(history, cur_smoke) is smoke
        assert trajectory.last_comparable([full], cur_smoke) is None


class TestRegressionGate:
    def _rows(self, trajectory, old_rate, new_rate):
        prev = trajectory.build_row(
            {"risk": make_report(cells_per_sec=old_rate)},
            smoke=True, commit="old", timestamp=1,
        )
        cur = trajectory.build_row(
            {"risk": make_report(cells_per_sec=new_rate)},
            smoke=True, commit="new", timestamp=2,
        )
        return prev, cur

    def test_synthetic_20pct_cells_per_sec_drop_is_flagged(self, trajectory):
        prev, cur = self._rows(trajectory, 1000.0, 800.0)  # −20%
        flags = trajectory.check_regression(prev, cur, threshold=0.15)
        assert len(flags) == 1
        assert "risk.cells_per_sec" in flags[0]
        assert "1000" in flags[0] and "800" in flags[0]

    def test_drop_within_threshold_passes(self, trajectory):
        prev, cur = self._rows(trajectory, 1000.0, 900.0)  # −10%
        assert trajectory.check_regression(prev, cur, threshold=0.20) == []
        # the default threshold is strict: exactly-at never flags
        prev, cur = self._rows(trajectory, 1000.0, 800.0)
        assert trajectory.check_regression(prev, cur, threshold=0.20) == []

    def test_improvements_and_missing_metrics_never_flag(self, trajectory):
        prev, cur = self._rows(trajectory, 800.0, 1000.0)  # improvement
        assert trajectory.check_regression(prev, cur) == []
        # a brand-new bench has no baseline: not a regression
        prev = trajectory.build_row({}, smoke=True, commit="o", timestamp=1)
        cur = trajectory.build_row(
            {"risk": make_report(cells_per_sec=1.0)},
            smoke=True, commit="n", timestamp=2,
        )
        assert trajectory.check_regression(prev, cur) == []
        # None on either side (bench measures no such rate) is skipped
        prev, cur = self._rows(trajectory, 1000.0, 1.0)
        prev["benches"]["risk"]["cells_per_sec"] = None
        assert trajectory.check_regression(prev, cur) == []

    def test_threshold_validated(self, trajectory):
        prev, cur = self._rows(trajectory, 1.0, 1.0)
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                trajectory.check_regression(prev, cur, threshold=bad)


class TestValidateReport:
    def test_accepts_a_well_formed_report(self, bench_conftest):
        bench_conftest.validate_report(make_report())

    def test_missing_header_schema_or_telemetry_rejected(self, bench_conftest):
        for mutate in (
            lambda r: r.pop("benchmark"),
            lambda r: r.pop("telemetry"),
            lambda r: r.update(schema=999),
            lambda r: r["telemetry"].pop("cells_per_sec"),
            lambda r: r.pop("summary"),
            lambda r: r["summary"].pop("headline_speedup"),
        ):
            report = make_report()
            mutate(report)
            with pytest.raises(ValueError):
                bench_conftest.validate_report(report)
        with pytest.raises(ValueError):
            bench_conftest.validate_report("not a dict")


class TestSuiteTrace:
    def test_trace_lands_under_out_dir(self, run_all, tmp_path, monkeypatch):
        """``--out-dir`` elsewhere leaves the repo root untouched."""
        root = tmp_path / "root"
        out = tmp_path / "out"
        root.mkdir()
        out.mkdir()
        monkeypatch.setattr(run_all, "REPO_ROOT", str(root))
        monkeypatch.setattr(
            run_all, "run_suite",
            lambda *, smoke, out_dir: ({"risk": make_report()}, []),
        )
        status = run_all.main(
            ["--out-dir", str(out), "--trajectory", str(out / "t.jsonl")]
        )
        assert status == 0
        assert (out / "results" / "run_all_trace.json").exists()
        assert list(root.iterdir()) == []

    def test_exported_trace_is_loadable_and_valid(self, run_all, tmp_path):
        from repro.obs import validate_chrome_trace

        out = tmp_path / "trace.json"
        run_all.export_suite_trace(
            {"risk": make_report(smoke=True), "service": make_report()},
            str(out),
        )
        trace = json.loads(out.read_text())
        validate_chrome_trace(trace)
        names = [
            e["name"] for e in trace["traceEvents"] if e["ph"] == "X"
        ]
        assert names[0] == "run_all"
        assert set(names[1:]) == {"risk", "service"}
