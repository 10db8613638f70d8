"""Checks of the end-to-end benchmark itself, at smoke sizes."""

from __future__ import annotations

import importlib.util
import io
import json
import os
import time

import pytest

_HERE = os.path.dirname(os.path.abspath(__file__))
_spec = importlib.util.spec_from_file_location(
    "bench_e2e_run", os.path.join(_HERE, "run.py")
)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

SMOKE_SECONDS = 0.3


@pytest.fixture(scope="module")
def declared():
    with open(bench.BENCHMARK_JSON) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def suite():
    return bench.run_suite(11, SMOKE_SECONDS, smoke=True)


def test_every_declared_metric_is_reported_with_its_unit(suite, declared):
    names = {w["name"] for w in declared["workloads"]}
    assert set(suite["workloads"]) == names
    for wl in suite["workloads"].values():
        for kind, key in (("end_to_end", "end_to_end"),
                          ("per_layer", "per_layer")):
            assert set(wl[key]) == {m["name"] for m in declared[kind]}
            for m in declared[kind]:
                assert bench.unit_of(m["name"]) == m["unit"]
                assert isinstance(wl[key][m["name"]], (int, float))


def test_no_operation_fails(suite):
    for name, wl in suite["workloads"].items():
        for run in ("untraced", "traced"):
            assert wl[run]["failed"] == 0, (name, run, wl[run]["checks"])
            assert wl[run]["detail"]["fail_ratio"] == 0.0
            assert all(c["checked"] > 0 for c in wl[run]["checks"]), name


def test_layer_self_times_sum_to_the_traced_wall(suite):
    for name, wl in suite["workloads"].items():
        self_sum = sum(wl["traced"]["detail"]["self_s"].values())
        wall = wl["per_layer"]["trace.wall_s"]
        assert abs(self_sum - wall) <= 0.05 * wall, (name, self_sum, wall)


def test_result_line_has_exactly_its_four_keys():
    record = {"correct": True, "attempted": 3, "failed": 0,
              "metrics": {"p50_ms": 1.5, "cache.hit_ratio": 0.5}}
    line = json.loads(bench.result_line(record))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["metrics"]["p50_ms"] == {"value": 1.5, "unit": "ms"}
    assert line["metrics"]["cache.hit_ratio"]["unit"] == "ratio"


def test_compare_attributes_a_cache_slowdown_to_the_cache(
        tmp_path, monkeypatch):
    from repro.service.cache import QuoteCache

    paths = []
    for slow in (False, True):
        if slow:
            fast_get = QuoteCache.get

            def slow_get(self, key):
                time.sleep(2e-3)
                return fast_get(self, key)

            monkeypatch.setattr(QuoteCache, "get", slow_get)
        result = bench.run_suite(11, SMOKE_SECONDS, smoke=True,
                                 names=["quote_stream"])
        path = tmp_path / f"{'slow' if slow else 'base'}.json"
        path.write_text(json.dumps(result))
        paths.append(str(path))
    verdicts = bench.compare([paths[0]], [paths[1]], out=io.StringIO())
    assert verdicts["quote_stream"]["grew_most"] == "cache"
