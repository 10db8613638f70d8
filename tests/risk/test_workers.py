"""Affinity-aware worker sizing and batched-grid engine counters."""

import os

import pytest

from repro.core.api import price_american
from repro.options.contract import paper_benchmark_spec
from repro.risk import ScenarioEngine, ScenarioGrid, available_workers

SPEC = paper_benchmark_spec()


class TestAvailableWorkers:
    def test_uses_affinity_mask_when_present(self, monkeypatch):
        """A pinned process must size its pool from the affinity mask, not
        the host's core count (oversubscription satellite)."""
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 3}, raising=False
        )
        assert available_workers() == 2
        assert ScenarioEngine().workers == 2

    def test_falls_back_to_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert available_workers() == 6
        assert ScenarioEngine().workers == 6

    def test_empty_mask_falls_back(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: set(), raising=False
        )
        assert available_workers() == 4

    def test_explicit_workers_still_win(self, monkeypatch):
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0}, raising=False
        )
        assert ScenarioEngine(workers=3).workers == 3


class TestSerialGridEngineMeta:
    def test_serial_grid_reports_batched_engine_counters(self):
        grid = ScenarioGrid.cartesian(
            SPEC, vol_bumps=(-0.05, 0.0, 0.05), rate_bumps=(0.0, 0.002)
        )
        # one chunk, so the cells share one engine on any host size
        result = ScenarioEngine(
            backend="serial", chunk_size=len(grid)
        ).price_grid(grid, 64)
        info = result.meta["engine"]
        # the grid's one chunk ran every cell's advances on one engine
        assert info["advances"] > 0
        assert info["advances"] == sum(
            r.stats["fft_calls"] + r.stats["direct_calls"]
            for r in result.results
        )
        for cell, r in zip(grid, result.results):
            assert r.price == pytest.approx(
                price_american(cell.spec, 64).price, rel=1e-12
            )

    def test_pool_backends_merge_worker_engine_meta(self):
        # workers ship per-chunk engine-counter deltas back with their
        # results; the parent merges them, so pooled runs report the same
        # counter dialect as serial ones
        cells = [SPEC] * 3
        result = ScenarioEngine(
            backend="thread", workers=2, chunk_size=1
        ).price_grid(cells, 32)
        serial = ScenarioEngine(backend="serial").price_grid(cells, 32)
        info = result.meta["engine"]
        assert set(info) == set(serial.meta["engine"])
        assert info["advances"] > 0
