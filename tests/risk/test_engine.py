"""Tests for ScenarioEngine: backend agreement, chunking, ordering, meta.

Backend agreement is the subsystem's central contract: process, thread and
serial execution must return the *same* prices in the *same* (flat grid)
order — the chunking and transport layers must be numerically invisible.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.api import price_american, price_many
from repro.options.contract import OptionSpec, Right, Style, paper_benchmark_spec
from repro.risk import ScenarioEngine, ScenarioGrid
from repro.util.validation import ValidationError

SPEC = paper_benchmark_spec()
STEPS = 128


@pytest.fixture(scope="module")
def grid():
    return ScenarioGrid.cartesian(
        SPEC,
        spot_bumps=(-0.05, 0.0, 0.05),
        vol_bumps=(-0.1, 0.0, 0.1),
        rate_bumps=(0.0, 0.002),
    )


@pytest.fixture(scope="module")
def serial_result(grid):
    return ScenarioEngine(backend="serial").price_grid(grid, STEPS)


class TestBackendAgreement:
    def test_serial_matches_per_cell_api(self, grid, serial_result):
        for cell, res in zip(grid, serial_result.results):
            direct = price_american(cell.spec, STEPS)
            assert res.price == pytest.approx(direct.price, rel=1e-12)

    def test_process_agrees_with_serial(self, grid, serial_result):
        r = ScenarioEngine(backend="process", workers=2, chunk_size=3).price_grid(
            grid, STEPS
        )
        np.testing.assert_allclose(
            r.prices, serial_result.prices, rtol=1e-12, atol=0.0
        )

    def test_thread_agrees_with_serial(self, grid, serial_result):
        r = ScenarioEngine(backend="thread", workers=3, chunk_size=2).price_grid(
            grid, STEPS
        )
        np.testing.assert_allclose(
            r.prices, serial_result.prices, rtol=1e-12, atol=0.0
        )

    def test_chunk_size_does_not_change_prices(self, grid, serial_result):
        for chunk_size in (1, 4, 100):
            r = ScenarioEngine(backend="serial", chunk_size=chunk_size).price_grid(
                grid, STEPS
            )
            np.testing.assert_array_equal(r.prices, serial_result.prices)

    def test_mixed_styles_and_rights(self):
        cells = [
            SPEC,
            SPEC.with_right(Right.PUT),
            SPEC.with_style(Style.EUROPEAN),
            dataclasses.replace(SPEC, strike=100.0, style=Style.EUROPEAN),
        ]
        serial = ScenarioEngine(backend="serial").price_grid(cells, STEPS)
        threaded = ScenarioEngine(
            backend="thread", workers=2, chunk_size=1
        ).price_grid(cells, STEPS)
        np.testing.assert_allclose(
            threaded.prices, serial.prices, rtol=1e-12, atol=0.0
        )


class TestChunking:
    def test_single_cell_grid(self):
        r = ScenarioEngine(backend="process", workers=2).price_grid([SPEC], STEPS)
        assert r.meta["n_chunks"] == 1
        assert r.meta["backend"] == "serial"  # one chunk short-circuits the pool
        assert r.prices.shape == (1,)
        assert r.prices[0] == pytest.approx(price_american(SPEC, STEPS).price)

    def test_fewer_cells_than_workers(self):
        cells = [SPEC, dataclasses.replace(SPEC, strike=120.0)]
        r = ScenarioEngine(
            backend="process", workers=4, chunk_size=1
        ).price_grid(cells, STEPS)
        assert r.meta["n_chunks"] == 2
        serial = ScenarioEngine(backend="serial").price_grid(cells, STEPS)
        np.testing.assert_allclose(r.prices, serial.prices, rtol=1e-12, atol=0.0)

    def test_default_chunking_covers_grid(self, grid):
        engine = ScenarioEngine(workers=3)
        chunks = engine._chunks(len(grid))
        assert chunks[0][0] == 0
        assert chunks[-1][1] == len(grid)
        for (_, hi), (lo, _) in zip(chunks, chunks[1:]):
            assert hi == lo  # contiguous, no gaps or overlaps

    def test_explicit_chunk_size_validated(self):
        with pytest.raises(ValidationError):
            ScenarioEngine(chunk_size=0)


class TestResultEnvelope:
    def test_flat_order_matches_grid(self, grid, serial_result):
        spots = np.array([c.spec.spot for c in grid])
        # same-vol/rate cells with a higher spot must price higher (calls)
        base = serial_result.prices.reshape(grid.shape)
        assert np.all(np.diff(base[0, :, 1, 0, 0]) > 0)
        assert len(serial_result.results) == len(spots)

    def test_prices_grid_reshapes(self, grid, serial_result):
        assert serial_result.prices_grid().shape == grid.shape

    def test_meta_records_model_closure(self, grid):
        r = ScenarioEngine(backend="thread", workers=2, chunk_size=3).price_grid(
            grid, STEPS
        )
        meta = r.meta
        assert meta["backend"] == "thread"
        assert meta["workers"] == 2
        assert meta["n_cells"] == len(grid)
        assert meta["wall_s"] > 0.0
        assert meta["cells_wall_s"] > 0.0
        assert meta["measured_speedup"] == pytest.approx(
            meta["cells_wall_s"] / meta["wall_s"]
        )
        # Brent prediction for p=2 lies in (1, 2] for a wide grid
        assert 1.0 < meta["predicted_speedup"] <= 2.0
        assert meta["parallelism"] > 1.0

    def test_workspan_is_parallel_composition(self, grid, serial_result):
        cell_spans = [r.workspan.span for r in serial_result.results]
        cell_work = sum(r.workspan.work for r in serial_result.results)
        assert serial_result.workspan.span == pytest.approx(max(cell_spans))
        assert serial_result.workspan.work == pytest.approx(cell_work)


class TestWorkerEngineReuse:
    def test_engine_survives_pickled_policy_copies(self):
        """Chunk payloads unpickle fresh AdvancePolicy copies; the worker's
        plan-caching engine must survive them (value equality, not identity)."""
        import pickle

        from repro.core.fftstencil import DEFAULT_POLICY
        from repro.risk.engine import _worker_engine, _worker_init

        _worker_init([], DEFAULT_POLICY)
        first = _worker_engine(DEFAULT_POLICY)
        copy = pickle.loads(pickle.dumps(DEFAULT_POLICY))
        assert copy is not DEFAULT_POLICY
        assert _worker_engine(copy) is first

    def test_changed_policy_rebuilds_engine(self):
        from repro.core.fftstencil import AdvancePolicy, DEFAULT_POLICY
        from repro.risk.engine import _worker_engine, _worker_init

        _worker_init([], DEFAULT_POLICY)
        first = _worker_engine(DEFAULT_POLICY)
        assert _worker_engine(AdvancePolicy(mode="direct")) is not first


class TestValidationAndDelegation:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValidationError):
            ScenarioEngine(backend="gpu")

    def test_bad_workers_rejected(self):
        with pytest.raises(ValidationError):
            ScenarioEngine(workers=0)

    def test_price_many_bad_backend_fails_fast(self):
        # even on the serial default path — the typo must not sit latent
        with pytest.raises(ValidationError):
            price_many([SPEC], STEPS, backend="proces")


class TestMixedBackendGrid:
    """Cells with a ``backend`` price on it; ``None`` cells on the lattice.
    ``chunk_size=2`` puts a spectral wing and a lattice core cell in one
    chunk, so backend runs split inside chunks."""

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_cells_price_on_their_backend(self, backend):
        put = dataclasses.replace(SPEC, right=Right.PUT)
        grid = ScenarioGrid.cartesian(
            put, spot_bumps=(-0.3, -0.15, 0.0, 0.15, 0.3)
        ).with_backends(
            lambda cell: "spectral"
            if abs(cell.spec.spot / put.strike - 1.0) > 0.2
            else None
        )
        r = ScenarioEngine(
            backend=backend, workers=2, chunk_size=2
        ).price_grid(grid, STEPS)
        for cell, res in zip(grid, r.results):
            pricer = cell.backend or "lattice"
            assert res.meta["backend"] == pricer
            assert res.price == price_american(
                cell.spec, STEPS, backend=pricer
            ).price
        assert [c.backend for c in grid].count(None) == 3


class TestChunkDedupIndices:
    def test_dedup_indices_rebased_to_grid_order(self):
        base = paper_benchmark_spec()
        s = [
            dataclasses.replace(base, strike=k)
            for k in (110.0, 120.0, 130.0, 140.0)
        ]
        # chunk_size=3 puts the duplicates in the second chunk: their
        # chunk-local primary index 0 must surface as grid index 3
        specs = [s[0], s[1], s[2], s[3], s[3], s[3]]
        engine = ScenarioEngine(backend="serial", workers=2, chunk_size=3)
        results = engine.price_specs(specs, 32)
        assert "deduplicated_of" not in results[3].meta
        assert results[4].meta["deduplicated_of"] == 3
        assert results[5].meta["deduplicated_of"] == 3
        assert results[4].price == results[3].price

    def test_price_specs_empty_returns_empty(self):
        assert ScenarioEngine(backend="serial").price_specs([], 16) == []


def _square_task(engine, items):
    """Module-level map_chunks task (picklable for the process backend)."""
    assert engine is not None  # every chunk gets a real AdvanceEngine
    return [x * x for x in items]


def _price_task(engine, payloads):
    return [
        price_american(spec, steps, engine=engine).price
        for spec, steps in payloads
    ]


class TestMapChunks:
    def test_serial_preserves_order(self):
        engine = ScenarioEngine(backend="serial")
        assert engine.map_chunks(list(range(10)), _square_task) == [
            x * x for x in range(10)
        ]

    def test_thread_pool_matches_serial(self):
        items = list(range(17))
        serial = ScenarioEngine(backend="serial").map_chunks(items, _square_task)
        pooled = ScenarioEngine(
            backend="thread", workers=3, chunk_size=4
        ).map_chunks(items, _square_task)
        assert pooled == serial

    def test_engine_backed_task_prices_correctly(self):
        payloads = [
            (dataclasses.replace(SPEC, strike=k), 32)
            for k in (110.0, 120.0, 130.0)
        ]
        got = ScenarioEngine(backend="thread", workers=2, chunk_size=1).map_chunks(
            payloads, _price_task
        )
        for (spec, steps), price in zip(payloads, got):
            assert price == price_american(spec, steps).price

    def test_empty_items(self):
        assert ScenarioEngine(backend="serial").map_chunks([], _square_task) == []
