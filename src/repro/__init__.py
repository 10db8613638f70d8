"""repro — Fast American Option Pricing using Nonlinear Stencils (PPoPP'24).

A from-scratch Python reproduction of Ahmad et al.'s FFT-accelerated
``O(T log^2 T)`` American option pricing algorithms, together with every
substrate the paper's evaluation depends on: vanilla and cache-optimised
Θ(T²) baselines, a work–span parallel-runtime model, a cache-hierarchy
simulator, and a RAPL-style energy model.  On top of the solvers sit the
applied tiers: ``repro.risk`` (scenario grids on real worker pools),
``repro.service`` (a caching, coalescing quote service) and
``repro.market`` (American implied-vol inversion and calibrated
no-arbitrage vol surfaces — ``implied_vol``, ``implied_vol_many``,
``VolSurface``, ``calibrate_surface``), closing the loop from market
quotes back to served prices.

Quickstart
----------
>>> from repro import paper_benchmark_spec, price_american
>>> spec = paper_benchmark_spec()
>>> result = price_american(spec, steps=512, model="binomial", method="fft")
>>> round(result.price, 4) == round(
...     price_american(spec, steps=512, model="binomial", method="loop").price, 4)
True
"""

from repro.options import (
    OptionSpec,
    Right,
    Style,
    paper_benchmark_spec,
    black_scholes,
    european_price,
    american_greeks,
    greeks_many,
    AmericanGreeks,
)
from repro.core.api import (
    PricingResult,
    price_american,
    price_european,
    price_bermudan,
    price_many,
    exercise_boundary,
)
from repro.core.backend import (
    PricerBackend,
    backend_names,
    get_backend,
    register_backend,
)
from repro.resilience import (
    BreakerPolicy,
    CircuitBreaker,
    CircuitOpenError,
    Deadline,
    DeadlineExceeded,
    FaultPlan,
    RetryPolicy,
)
from repro.risk import ScenarioEngine, ScenarioGrid, ScenarioResult
from repro.service import (
    CanonicalPolicy,
    QuoteCache,
    QuoteService,
    canonical_key,
)
from repro.market import (
    MarketQuote,
    VolSurface,
    calibrate_surface,
    implied_vol,
    implied_vol_many,
)

__version__ = "1.0.0"

__all__ = [
    "BreakerPolicy",
    "CanonicalPolicy",
    "CircuitBreaker",
    "CircuitOpenError",
    "Deadline",
    "DeadlineExceeded",
    "FaultPlan",
    "MarketQuote",
    "RetryPolicy",
    "QuoteCache",
    "QuoteService",
    "VolSurface",
    "calibrate_surface",
    "canonical_key",
    "implied_vol",
    "implied_vol_many",
    "OptionSpec",
    "Right",
    "Style",
    "paper_benchmark_spec",
    "black_scholes",
    "european_price",
    "american_greeks",
    "greeks_many",
    "AmericanGreeks",
    "PricerBackend",
    "PricingResult",
    "backend_names",
    "get_backend",
    "register_backend",
    "ScenarioEngine",
    "ScenarioGrid",
    "ScenarioResult",
    "price_american",
    "price_european",
    "price_bermudan",
    "price_many",
    "exercise_boundary",
    "__version__",
]
