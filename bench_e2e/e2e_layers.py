"""Outside-in layer timing for the end-to-end benchmark.

A *layer* is a set of public functions of the pricing stack.  While a
:class:`LayerTracer` is installed, each of those functions is replaced,
where its caller resolves the name, by a wrapper that takes one
``perf_counter`` pair and keeps a stack of child time.  A layer's self time
is the wall time of its calls minus the time spent in wrapped calls below
them, so the self times of all layers plus the benchmark loop's own time
add up to the traced wall.  Nothing under ``src/`` changes and repro's own
``Telemetry`` stays off: its per-round spans would double the work being
measured.

The wrappers cost about a microsecond per call.  The benchmark measures
that cost on every traced run (``trace.overhead_ratio``: traced wall over
untraced wall for the same operations) so the shares can be read with it
in mind.

Which end-to-end metric each layer should move, on which workload, is the
``moves`` field of :data:`LAYERS`.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from dataclasses import dataclass
from typing import Callable, Optional


def _first_len(args, kwargs, result) -> int:
    """Rows in the batch argument of an ``engine.f(self, rows, ...)`` call."""
    return len(args[1])


def _one(args, kwargs, result) -> int:
    return 1


def _fft_points(args, kwargs, result) -> int:
    """Points transformed by one ``rfft``/``irfft`` call: the transform
    length times the number of rows it runs over."""
    a = args[0]
    n = kwargs.get("n")
    if n is None:
        n = args[1] if len(args) > 1 else a.shape[-1]
    return int(n) * (a.size // a.shape[-1] if a.shape[-1] else 0)


@dataclass(frozen=True)
class Target:
    """One wrapped function: ``module.owner.name`` (``owner`` None for a
    module-level name) and how many work units one call carries."""

    module: str
    owner: Optional[str]
    name: str
    units: Callable = _one


@dataclass(frozen=True)
class Layer:
    """A named layer: its wrapped functions, the per-layer metric its
    units feed (``None``: only calls/self time/share), whether that metric
    is per call or a run total, and the end-to-end metric it should move."""

    name: str
    targets: tuple
    unit_metric: Optional[str]
    per_call: bool
    moves: str


_SVC = "repro.service.service"
_FFT = "repro.core.fftstencil"
_DRIVERS = tuple(
    Target(mod, None, fn)
    for mod in ("repro.core.tree_solver", "repro.core.bsm_solver",
                "repro.core.bermudan")
    for fn in ("drive_lockstep", "drive_serial")
)

LAYERS = (
    Layer("service",
          tuple(Target(_SVC, "QuoteService", m)
                for m in ("quote", "quote_many", "flush")),
          None, False, "quote_stream p50_ms and items_per_s"),
    Layer("canonical", (Target(_SVC, None, "canonicalize"),),
          None, False, "quote_stream p50_ms"),
    Layer("cache",
          tuple(Target("repro.service.cache", "QuoteCache", m)
                for m in ("get", "peek", "put")),
          None, False, "quote_stream and quote_batch items_per_s"),
    Layer("spectral",
          (Target("repro.core.spectral", "SpectralBackend", "price_spec"),),
          None, False, "quote_stream items_per_s (fast misses), not p50_ms"),
    Layer("api",
          (Target("repro.core.api", "LatticeBackend", "price_batch",
                  _first_len),
           Target("repro.core.api", "LatticeBackend", "price_spec")),
          "specs_per_call", True,
          "quote_stream items_per_s (exact misses), calibration "
          "items_per_s"),
    Layer("lockstep", _DRIVERS, None, False,
          "risk_grid and quote_batch items_per_s"),
    Layer("fftstencil.advance",
          (Target(_FFT, "AdvanceEngine", "advance"),
           Target(_FFT, "AdvanceEngine", "advance_many", _first_len),
           Target(_FFT, "AdvanceEngine", "advance_batch", _first_len)),
          "rows_per_call", True, "risk_grid items_per_s, deep_solve p50_ms"),
    Layer("fftstencil.base_rows",
          (Target(_FFT, "AdvanceEngine", "base_rows_batch", _first_len),),
          "rows_per_call", True, "risk_grid items_per_s, deep_solve p50_ms"),
    Layer("fft",
          (Target(_FFT, "sfft", "rfft", _fft_points),
           Target(_FFT, "sfft", "irfft", _fft_points)),
          "points", False, "deep_solve p50_ms"),
    Layer("risk",
          (Target("repro.risk.engine", "ScenarioEngine", "price_grid",
                  lambda a, k, r: r.meta["n_chunks"]),),
          "chunks", False, "risk_grid items_per_s"),
    Layer("market",
          (Target("repro.market.implied", None, "implied_vol",
                  lambda a, k, r: r.solves),),
          "solves_per_quote", True, "calibration items_per_s"),
)


def layer_metric_names() -> list:
    """Every per-layer metric the tracer produces, in report order.

    Self time is published as a share of the traced wall, not in seconds:
    a layer a workload never reaches would read exactly 0 s on every run.
    :meth:`LayerTracer.self_times` gives the seconds.
    """
    names = []
    for layer in LAYERS:
        names += [f"{layer.name}.calls", f"{layer.name}.share"]
        if layer.unit_metric is not None:
            names.append(f"{layer.name}.{layer.unit_metric}")
    return names


class _FFTProxy:
    """Stands in for the ``scipy.fft`` module object that
    :mod:`repro.core.fftstencil` imports as ``sfft``: the wrapped
    transforms are set as attributes, everything else is forwarded."""

    def __init__(self, module):
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)


class LayerTracer:
    """Self time, call count and work units per layer (see module docstring).

    Use :meth:`installed` around the traced region; :meth:`metrics` turns
    the totals into per-layer metrics against the region's wall time.
    """

    def __init__(self):
        # one child-time accumulator per open call, over a root entry that
        # keeps the stack from emptying
        self._stack = [0.0]
        self.totals = {layer.name: [0, 0.0, 0] for layer in LAYERS}

    def _wrap(self, layer: str, target: Target, fn):
        stack = self._stack
        rec = self.totals[layer]
        units = target.units
        clock = time.perf_counter

        def timed(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                rec[2] += units(args, kwargs, result)
                return result
            finally:
                dt = clock() - t0
                child = stack.pop()
                rec[0] += 1
                rec[1] += dt - child
                stack[-1] += dt

        timed.__wrapped__ = fn
        return timed

    @contextlib.contextmanager
    def installed(self):
        """Install every layer's wrappers; restore the originals on exit.

        A target the program no longer has is skipped: a refactor that
        removes one of a layer's variants leaves that layer covering less,
        and its calls reading lower, instead of breaking the traced run.
        """
        undo = []
        try:
            for layer in LAYERS:
                for target in layer.targets:
                    try:
                        module = importlib.import_module(target.module)
                    except ImportError:
                        continue
                    if target.owner == "sfft":
                        owner = getattr(module, "sfft", None)
                        if owner is None:
                            continue
                        if not isinstance(owner, _FFTProxy):
                            proxy = _FFTProxy(owner)
                            undo.append((module, "sfft", owner))
                            module.sfft = owner = proxy
                        original = getattr(owner._module, target.name, None)
                    elif target.owner is None:
                        owner = module
                        original = getattr(module, target.name, None)
                    else:
                        owner = getattr(module, target.owner, None)
                        original = (vars(owner).get(target.name)
                                    if owner is not None else None)
                    if original is None:
                        continue
                    undo.append((owner, target.name, original))
                    setattr(owner, target.name,
                            self._wrap(layer.name, target, original))
            yield self
        finally:
            for owner, name, original in reversed(undo):
                setattr(owner, name, original)

    def metrics(self, root_s: float) -> dict:
        """Per-layer metrics for a traced region of ``root_s`` seconds."""
        out = {}
        for layer in LAYERS:
            calls, self_s, units = self.totals[layer.name]
            out[f"{layer.name}.calls"] = calls
            out[f"{layer.name}.share"] = self_s / root_s if root_s else 0.0
            if layer.unit_metric is not None:
                if layer.per_call:
                    units = units / calls if calls else 0.0
                out[f"{layer.name}.{layer.unit_metric}"] = units
        return out

    def self_times(self) -> dict:
        """Self seconds per layer."""
        return {name: rec[1] for name, rec in self.totals.items()}

    def slowest(self) -> str:
        """The layer with the largest self time."""
        return max(self.totals, key=lambda name: self.totals[name][1])
