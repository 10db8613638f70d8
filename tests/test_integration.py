"""End-to-end integration tests chaining the full substrate stack.

Each test exercises the pipeline a benchmark uses: instrumented solver run →
runtime model → energy model → cache simulation, verifying the pieces
compose consistently (not just that each works in isolation).
"""

import dataclasses

import pytest

from repro import (
    Right,
    paper_benchmark_spec,
    price_american,
    price_european,
    american_greeks,
)
from repro.cachesim import CacheHierarchy, CacheConfig
from repro.cachesim.trace import trace_fft_tree, trace_loop_bopm
from repro.energy import DEFAULT_ENERGY_MODEL
from repro.experiments.figures import MODEL_KEY, RUNNERS
from repro.lattice import price_binomial
from repro.parallel import RuntimeModel, simulate_brent

SPEC = paper_benchmark_spec()


class TestSolverToRuntimeModel:
    def test_modeled_parallel_time_ordering_preserved(self):
        """At large T the fft solver must win at every modeled p."""
        T = 8192
        fft = RUNNERS["fft-bopm"](T)
        ql = RUNNERS["ql-bopm"](T)
        for p in (1, 8, 48):
            assert simulate_brent(fft.workspan, p) < simulate_brent(ql.workspan, p)

    def test_calibrated_model_roundtrip_through_result(self):
        r = price_american(SPEC, 2048, method="fft")
        model = RuntimeModel.from_measurement(r.workspan, 0.1)
        assert model.predict_seconds(r.workspan, 1) == pytest.approx(0.1)
        assert model.predict_seconds(r.workspan, 48) < 0.1


class TestSolverToEnergy:
    def test_energy_ordering_tracks_work_at_scale(self):
        T = 8192
        fft = RUNNERS["fft-bopm"](T)
        ql = RUNNERS["ql-bopm"](T)
        # equalise runtime so only work/traffic differ: the fft side must win
        e_fft = DEFAULT_ENERGY_MODEL.energy_from_model(
            MODEL_KEY["fft-bopm"], T, fft.workspan, 1.0
        )
        e_ql = DEFAULT_ENERGY_MODEL.energy_from_model(
            MODEL_KEY["ql-bopm"], T, ql.workspan, 1.0
        )
        assert e_fft.total_joules < e_ql.total_joules


class TestSolverToCacheSim:
    def test_boundary_driven_replay_matches_solver_structure(self):
        """The trace replay and the real solver see the same divider, so the
        replay's access volume must be within a small factor of the cells
        the instrumented solver reports touching."""
        T = 512
        boundary = price_binomial(SPEC, T, return_boundary=True).boundary
        trace_cells = sum(len(c) for c in trace_fft_tree(T, boundary, q=1))
        solver = RUNNERS["fft-bopm"](T)
        assert trace_cells > solver.stats.cells_evaluated * 0.5

    def test_fft_trace_beats_loop_trace_through_simulator(self):
        T = 512
        boundary = price_binomial(SPEC, T, return_boundary=True).boundary
        cfg = CacheConfig(size_bytes=2048, line_bytes=64, ways=8)
        cfg2 = CacheConfig(size_bytes=16384, line_bytes=64, ways=16)
        misses = {}
        for name, gen in [
            ("fft", trace_fft_tree(T, boundary, q=1)),
            ("loop", trace_loop_bopm(T)),
        ]:
            h = CacheHierarchy(cfg, cfg2)
            for chunk in gen:
                h.access_elements(chunk)
            misses[name] = h.counters().l1_misses
        assert misses["fft"] < misses["loop"]


class TestFullPricingStack:
    def test_all_three_models_one_contract(self):
        put = dataclasses.replace(SPEC, right=Right.PUT, dividend_yield=0.0)
        b = price_american(put, 1024, model="binomial", method="fft").price
        t = price_american(put, 1024, model="trinomial", method="fft").price
        f = price_american(put, 1024, model="bsm-fd", method="fft").price
        # three independent discretisations of the same contract
        assert b == pytest.approx(t, abs=0.1)
        assert b == pytest.approx(f, abs=0.2)

    def test_greeks_consistent_with_price_curve(self):
        g = american_greeks(SPEC, 512)
        up = price_american(
            dataclasses.replace(SPEC, spot=SPEC.spot * 1.01), 512, method="fft"
        ).price
        predicted = g.price + g.delta * SPEC.spot * 0.01
        assert up == pytest.approx(predicted, abs=0.05)

    def test_european_american_bermudan_ladder(self):
        put = dataclasses.replace(SPEC, right=Right.PUT)
        eu = price_european(put, 256, method="fft").price
        from repro import price_bermudan

        bm = price_bermudan(put, 256, [64, 128, 192], method="fft").price
        am = price_american(put, 256, method="fft").price
        assert eu - 1e-10 <= bm <= am + 1e-10


class TestImportFootprint:
    def test_import_leaves_scipy_signal_unloaded(self):
        """``import repro`` pulls in no ``scipy.signal`` (about half the
        package's import time when it did)."""
        import os
        import subprocess
        import sys

        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro; print('scipy.signal' in sys.modules)"],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "False"
