"""The paper's contribution: FFT-accelerated nonlinear stencil solvers."""

from repro.core.api import (
    BoundaryCurve,
    LatticeBackend,
    PricingResult,
    exercise_boundary,
    price_american,
    price_bermudan,
    price_european,
    price_many,
)
from repro.core.backend import (
    PricerBackend,
    backend_names,
    get_backend,
    register_backend,
)
from repro.core.bermudan import price_tree_bermudan_fft
from repro.core.bsm_solver import BSMFFTResult, solve_bsm_fft
from repro.core.fftstencil import (
    AdvanceEngine,
    AdvancePolicy,
    DEFAULT_POLICY,
    advance,
)
from repro.core.tree_solver import TreeFFTResult, solve_tree_fft
from repro.core.weights import (
    binomial_weights,
    convolution_power_weights,
    hstep_weights,
    symbol_power_weights,
)

__all__ = [
    "BoundaryCurve",
    "LatticeBackend",
    "PricerBackend",
    "PricingResult",
    "backend_names",
    "get_backend",
    "register_backend",
    "exercise_boundary",
    "price_american",
    "price_bermudan",
    "price_european",
    "price_many",
    "price_tree_bermudan_fft",
    "BSMFFTResult",
    "solve_bsm_fft",
    "AdvanceEngine",
    "AdvancePolicy",
    "DEFAULT_POLICY",
    "advance",
    "TreeFFTResult",
    "solve_tree_fft",
    "binomial_weights",
    "convolution_power_weights",
    "hstep_weights",
    "symbol_power_weights",
]
