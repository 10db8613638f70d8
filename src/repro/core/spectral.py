"""Chebyshev-collocation spectral pricer — the ``"spectral"`` backend.

Where the lattice solvers discretise *time* into T steps and pay
O(T log²T), this module discretises the early-exercise **boundary** into
a handful of Chebyshev collocation nodes and pays near-O(n) per solve —
the Andersen–Lake "spectral collocation" scheme the ROADMAP names as the
single biggest raw-speed lever for cold traffic.  The recipe:

1. **Collocation nodes.**  The boundary ``B(τ)`` of the American put has
   a square-root singularity at expiry, so it is parametrised on
   ``x = √τ``: Chebyshev–Lobatto points ``z_i = -cos(iπ/n)`` map to
   ``x_i = √T·(1+z_i)/2``, ``τ_i = x_i²``, clustering nodes where the
   boundary bends hardest.  The interpolated quantity is
   ``H(x) = ln²(B/X)`` with ``X = K·min(1, r/q)`` (``B(0⁺) = X``), which
   is smooth and pins ``H(0) = 0`` exactly.
2. **Fixed-point iteration.**  Each sweep evaluates the integral
   representation of the boundary (the put's value-matching condition)

   .. math::

      B(τ) = K \\,
      \\frac{e^{-rτ}Φ(d_-(τ, B/K)) + r\\int_0^τ e^{-ru}
             Φ(d_-(u, B(τ)/B(τ-u)))\\,du}
            {e^{-qτ}Φ(d_+(τ, B/K)) + q\\int_0^τ e^{-qu}
             Φ(d_+(u, B(τ)/B(τ-u)))\\,du}

   at every node simultaneously (one vectorised ``ndtr`` call over the
   node × quadrature-point matrix) and refits the Chebyshev coefficients.
3. **Tanh-sinh quadrature.**  The integrals run through the
   substitution ``u = τ((1+y)/2)²`` (flattening the √u behaviour) and a
   fixed tanh-sinh rule ``y_k = tanh(½π sinh(kh))`` whose
   doubly-exponential weight decay handles the endpoint derivatives.
4. **Clenshaw evaluation.**  The fitted coefficients are evaluated by
   the Clenshaw recurrence — never by materialising Chebyshev basis
   polynomials — both inside the iteration (``B(τ-u)``) and at pricing
   time.
5. **Pricing.**  With the boundary in hand, the premium representation
   prices any spot against the *same* plan:
   ``V = p_euro + ∫ [rK e^{-ru}Φ(-d_-) - qS e^{-qu}Φ(-d_+)] du``.
   Calls price through the exact McDonald–Schroder symmetry
   (``C(S,K,r,q) = P(K,S,q,r)``), zero-dividend calls and zero-rate puts
   fall through to the Black–Scholes closed form, exactly like the
   lattice front door.

Plans — converged boundary coefficients for one ``(r, q, σ, T)`` on the
unit-strike contract (value homogeneity makes the strike a pure scale
factor) — are cached per backend instance the way
:class:`~repro.core.fftstencil.AdvanceEngine` caches kernel spectra, so
a strike ladder or a repeated quote pays the fixed-point iteration once.

Accuracy is stated, not incidental: :data:`SPECTRAL_TOL` is the
backend's ``tolerance`` contract, validated against the lattice across a
moneyness × vol × expiry grid in ``tests/core/test_spectral.py``.
"""

from __future__ import annotations

import math
import threading
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np
from scipy.special import ndtr

from repro.core.api import (
    PricingResult,
    check_model_method,
)
from repro.core.backend import register_backend
from repro.options.analytic import (
    black_scholes,
    no_early_exercise_call,
    no_early_exercise_put,
)
from repro.options.contract import OptionSpec, Right, Style
from repro.util.validation import ValidationError, check_integer

#: The backend's stated worst-case relative price error versus the exact
#: lattice at default collocation order (the ``tolerance`` attribute the
#: service surfaces as ``meta["tolerance"]``).  Relative to
#: ``max(price, 1% of strike)`` so deep out-of-the-money cents do not
#: masquerade as huge relative errors.
SPECTRAL_TOL = 1e-3

#: Default Chebyshev interpolation order ``n`` (``n + 1`` boundary nodes).
DEFAULT_ORDER = 12
#: Default tanh-sinh point count ``l`` (an odd count keeps ``y = 0``).
DEFAULT_QUAD_POINTS = 41
#: Default tanh-sinh step ``h``.
DEFAULT_QUAD_H = 0.25
#: Default fixed-point sweep cap (early exit on stagnation below).
DEFAULT_ITERATIONS = 12
#: Boundary sweeps stop once the worst per-node relative move drops here.
FIXED_POINT_RTOL = 1e-10

#: Time floor inside ``d±`` — keeps the ``√u`` denominators finite at the
#: quadrature endpoint without perturbing any genuine node.
_TIME_FLOOR = 1e-14


# --------------------------------------------------------------------- #
# Spectral primitives
# --------------------------------------------------------------------- #
def chebyshev_nodes(order: int, tau_max: float) -> tuple:
    """Chebyshev–Lobatto points and their ``x = √τ`` / ``τ`` images.

    Returns ``(z, x, tau)``: ``z_i = -cos(iπ/n)`` ascending from -1 to 1,
    ``x_i = √tau_max·(1+z_i)/2``, ``tau_i = x_i²`` ascending from 0 to
    ``tau_max`` — node 0 sits exactly at expiry (``τ = 0``).
    """
    i = np.arange(order + 1, dtype=np.float64)
    z = -np.cos(np.pi * i / order)
    x = math.sqrt(tau_max) * (1.0 + z) / 2.0
    return z, x, x * x


def chebyshev_coefficients(values: np.ndarray) -> np.ndarray:
    """Coefficients of the interpolant through nodes ``z_i = -cos(iπ/n)``.

    ``a_k = (-1)^k [(v_0 + (-1)^k v_n)/n + (2/n)Σ_{i=1}^{n-1} v_i cos(πik/n)]``
    — the discrete Chebyshev transform (Σ'' over the values, endpoint
    terms halved); the ``(-1)^k`` carries the flipped-sign node ordering
    (``z_i = -cos(iπ/n)``, ascending) into the coefficient basis, so the
    interpolant evaluates at ``z`` directly.  The result feeds
    :func:`clenshaw`, which halves the first and last *coefficients*
    (the Σ'' convention on the evaluation side).
    """
    n = len(values) - 1
    sign, inner = _dct_matrix(n)
    a = (values[0] + sign * values[n]) / n
    if n > 1:
        a = a + inner @ values[1:n]
    return sign * a


@lru_cache(maxsize=32)
def _dct_matrix(n: int) -> tuple:
    """Iteration-invariant pieces of :func:`chebyshev_coefficients`:
    ``((-1)^k, (2/n)·cos(πik/n))`` for one interpolation order."""
    k = np.arange(n + 1, dtype=np.float64)
    i = np.arange(1, n, dtype=np.float64)
    sign = np.where(k % 2 == 0, 1.0, -1.0)
    inner = (2.0 / n) * np.cos(np.pi * np.outer(k, i) / n)
    sign.setflags(write=False)
    inner.setflags(write=False)
    return sign, inner


def chebyshev_basis(z: np.ndarray, order: int) -> np.ndarray:
    """The Σ''-weighted Chebyshev basis ``T_k(z)`` stacked on a last axis.

    ``basis @ coeffs`` equals :func:`clenshaw` for any coefficient vector
    of matching order — the matrix form the boundary iteration uses on
    its fixed ``z`` grid, where one matmul per sweep beats re-running the
    recurrence.  Endpoint columns carry the ½ of the Σ'' convention.
    """
    theta = np.arccos(np.clip(z, -1.0, 1.0))
    k = np.arange(order + 1, dtype=np.float64)
    basis = np.cos(theta[..., None] * k)
    basis[..., 0] *= 0.5
    basis[..., order] *= 0.5
    return basis


def clenshaw(z: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Evaluate ``Σ'' a_k T_k(z)`` (halved endpoint terms) by the Clenshaw
    recurrence; vectorised over any shape of ``z``."""
    n = len(coeffs) - 1
    z = np.asarray(z, dtype=np.float64)
    b1 = np.full_like(z, 0.5 * coeffs[n])
    b2 = np.zeros_like(z)
    for k in range(n - 1, 0, -1):
        b1, b2 = coeffs[k] + 2.0 * z * b1 - b2, b1
    return 0.5 * coeffs[0] + z * b1 - b2


def tanhsinh_nodes(points: int, h: float) -> tuple:
    """Tanh-sinh (double-exponential) rule on ``[-1, 1]``.

    ``y_k = tanh(½π sinh(kh))``, ``w_k = ½πh cosh(kh)/cosh²(½π sinh(kh))``
    for ``k = -K..K`` with ``K = (points-1)//2`` — the weights decay
    doubly exponentially, so endpoint singularities in derivatives cost
    nothing extra.  Returns ``(y, w)`` ascending.

    Far enough out, ``cosh`` overflows and the weight is exactly 0 (with
    ``y`` rounded to ±1); those nodes add nothing to any sum and are
    dropped, so a fine rule can return fewer than ``points`` nodes.
    """
    half = (points - 1) // 2
    k = np.arange(-half, half + 1, dtype=np.float64)
    with np.errstate(over="ignore"):
        s = 0.5 * np.pi * np.sinh(k * h)
        y = np.tanh(s)
        w = 0.5 * np.pi * h * np.cosh(k * h) / np.cosh(s) ** 2
    keep = w > 0.0
    return y[keep], w[keep]


def _d_pm(t: np.ndarray, ratio: np.ndarray, r: float, q: float,
          sigma: float) -> tuple:
    """``d±(t, ratio)`` of the Black–Scholes kernel, vectorised."""
    t = np.maximum(t, _TIME_FLOOR)
    vol_sqrt = sigma * np.sqrt(t)
    d_plus = (np.log(ratio) + (r - q + 0.5 * sigma * sigma) * t) / vol_sqrt
    return d_plus, d_plus - vol_sqrt


def _european_put(spot, r: float, q: float, sigma: float, tau: float):
    """Unit-strike Black–Scholes European put (vectorised over ``spot``)."""
    d_plus, d_minus = _d_pm(np.asarray(tau, dtype=np.float64),
                            np.asarray(spot, dtype=np.float64), r, q, sigma)
    return (math.exp(-r * tau) * ndtr(-d_minus)
            - spot * math.exp(-q * tau) * ndtr(-d_plus))


# --------------------------------------------------------------------- #
# Boundary plan
# --------------------------------------------------------------------- #
class SpectralPlan:
    """A converged boundary for one ``(r, q, σ, T)`` on the unit strike.

    Holds the Chebyshev coefficients of ``H(x) = ln²(B/X)`` plus the
    quadrature rule, and prices any spot against them — the reusable
    artifact the backend's plan cache stores.
    """

    __slots__ = (
        "r", "q", "sigma", "tau_max", "x_cap", "coeffs",
        "quad_y", "quad_w", "iterations_used", "order",
    )

    def __init__(self, r: float, q: float, sigma: float, tau_max: float,
                 *, order: int, quad_points: int, quad_h: float,
                 max_iterations: int):
        self.r = r
        self.q = q
        self.sigma = sigma
        self.tau_max = tau_max
        self.order = order
        # B(0+) for the put: K when r >= q, else K·r/q (unit strike here)
        self.x_cap = min(1.0, r / q) if q > 0.0 else 1.0
        self.quad_y, self.quad_w = tanhsinh_nodes(quad_points, quad_h)
        self.coeffs, self.iterations_used = self._solve_boundary(
            max_iterations
        )

    # -- boundary ------------------------------------------------------ #
    def boundary(self, tau: np.ndarray) -> np.ndarray:
        """``B(τ)`` from the fitted interpolant (unit strike), any shape."""
        z = 2.0 * np.sqrt(np.maximum(tau, 0.0) / self.tau_max) - 1.0
        h_val = clenshaw(np.clip(z, -1.0, 1.0), self.coeffs)
        return self.x_cap * np.exp(-np.sqrt(np.maximum(h_val, 0.0)))

    def _solve_boundary(self, max_iterations: int) -> tuple:
        r, q, sigma = self.r, self.q, self.sigma
        _, _, tau = chebyshev_nodes(self.order, self.tau_max)
        cap = self.x_cap
        bound = np.full(self.order + 1, cap)
        coeffs = chebyshev_coefficients(np.zeros(self.order + 1))
        sqrt_tau_max = math.sqrt(self.tau_max)

        # node × quadrature-point geometry is iteration-invariant
        tau_i = tau[1:, None]                               # (n, 1)
        y = self.quad_y[None, :]                            # (1, l)
        u = tau_i * ((1.0 + y) / 2.0) ** 2                  # (n, l)
        jacobian = tau_i * (1.0 + y) / 2.0                  # du/dy
        z_rem = 2.0 * np.sqrt(np.maximum(tau_i - u, 0.0)) / sqrt_tau_max - 1.0
        basis_rem = chebyshev_basis(z_rem, self.order)
        w_r = self.quad_w[None, :] * np.exp(-r * u) * jacobian
        w_q = self.quad_w[None, :] * np.exp(-q * u) * jacobian
        disc_r = np.exp(-r * tau[1:])
        disc_q = np.exp(-q * tau[1:])

        iterations_used = 0
        for _ in range(max_iterations):
            iterations_used += 1
            h_rem = basis_rem @ coeffs
            b_rem = cap * np.exp(-np.sqrt(np.maximum(h_rem, 0.0)))
            d_plus, d_minus = _d_pm(u, bound[1:, None] / b_rem, r, q, sigma)
            d_plus_k, d_minus_k = _d_pm(tau[1:], bound[1:], r, q, sigma)
            numer = disc_r * ndtr(d_minus_k) + r * np.sum(
                w_r * ndtr(d_minus), axis=1
            )
            denom = disc_q * ndtr(d_plus_k) + q * np.sum(
                w_q * ndtr(d_plus), axis=1
            )
            new_bound = np.where(
                denom > 1e-300, numer / np.maximum(denom, 1e-300), cap
            )
            new_bound = np.clip(new_bound, 1e-12, cap)
            drift = float(
                np.max(np.abs(new_bound - bound[1:]) / np.abs(bound[1:]))
            )
            bound = np.concatenate(([cap], new_bound))
            coeffs = chebyshev_coefficients(np.log(bound / cap) ** 2)
            if drift < FIXED_POINT_RTOL:
                break
        return coeffs, iterations_used

    # -- pricing ------------------------------------------------------- #
    def price_put(self, spot: float) -> float:
        """American put value at ``spot`` (unit strike) off this plan."""
        r, q, sigma, tau_max = self.r, self.q, self.sigma, self.tau_max
        if spot <= float(self.boundary(np.asarray(tau_max))):
            return 1.0 - spot  # inside the exercise region: stop now
        euro = float(_european_put(spot, r, q, sigma, tau_max))
        u = tau_max * ((1.0 + self.quad_y) / 2.0) ** 2
        jacobian = tau_max * (1.0 + self.quad_y) / 2.0
        b_rem = self.boundary(tau_max - u)
        d_plus, d_minus = _d_pm(u, spot / b_rem, r, q, sigma)
        premium = float(np.sum(
            self.quad_w * jacobian * (
                r * np.exp(-r * u) * ndtr(-d_minus)
                - q * spot * np.exp(-q * u) * ndtr(-d_plus)
            )
        ))
        return max(euro + premium, euro, 1.0 - spot)


# --------------------------------------------------------------------- #
# Backend
# --------------------------------------------------------------------- #
class SpectralBackend:
    """:class:`~repro.core.backend.PricerBackend` over :class:`SpectralPlan`.

    ``price_spec`` answers any American (or European) contract within
    :data:`SPECTRAL_TOL`; ``price_batch`` loops ``price_spec`` but
    shares the plan cache, so ladders over one market state amortise the
    boundary solve.  No divider is produced (``supports_boundary`` /
    ``supports_divider`` are ``False``; ``return_boundary=True`` is a
    :class:`ValidationError`, not a silent empty answer).
    """

    name = "spectral"
    tolerance = SPECTRAL_TOL
    supports_boundary = False
    supports_divider = False

    def __init__(self, *, order: int = DEFAULT_ORDER,
                 quad_points: int = DEFAULT_QUAD_POINTS,
                 quad_h: float = DEFAULT_QUAD_H,
                 iterations: int = DEFAULT_ITERATIONS,
                 plan_cache_size: int = 512):
        self.order = check_integer("order", order, minimum=2)
        self.quad_points = check_integer(
            "quad_points", quad_points, minimum=3
        )
        self.quad_h = quad_h
        self.iterations = check_integer("iterations", iterations, minimum=1)
        self.plan_cache_size = check_integer(
            "plan_cache_size", plan_cache_size, minimum=1
        )
        self._plans: dict = {}
        self._lock = threading.Lock()
        self._plan_hits = 0
        self._plan_misses = 0

    # -- plan cache ---------------------------------------------------- #
    def plan_for(self, r: float, q: float, sigma: float,
                 tau_max: float) -> SpectralPlan:
        """The converged unit-strike plan for ``(r, q, σ, T)`` (cached)."""
        key = (r, q, sigma, tau_max)
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plan_hits += 1
                return plan
        plan = SpectralPlan(
            r, q, sigma, tau_max, order=self.order,
            quad_points=self.quad_points, quad_h=self.quad_h,
            max_iterations=self.iterations,
        )
        with self._lock:
            self._plan_misses += 1
            if len(self._plans) >= self.plan_cache_size:
                self._plans.pop(next(iter(self._plans)))
            self._plans[key] = plan
        return plan

    def cache_info(self) -> dict:
        """Plan-cache telemetry: ``{"plans", "hits", "misses"}``."""
        with self._lock:
            return {
                "plans": len(self._plans),
                "hits": self._plan_hits,
                "misses": self._plan_misses,
            }

    # -- PricerBackend ------------------------------------------------- #
    def price_spec(
        self,
        spec: OptionSpec,
        steps: int,
        *,
        model: str = "binomial",
        method: str = "fft",
        base: Optional[int] = None,
        lam: Optional[float] = None,
        policy=None,
        engine=None,
        return_boundary: bool = False,
    ) -> PricingResult:
        steps = check_integer("steps", steps, minimum=1)
        check_model_method(model, method)
        if return_boundary:
            raise ValidationError(
                "the spectral backend prices off a collocation boundary and "
                "produces no lattice divider; use backend='lattice' for "
                "return_boundary=True"
            )
        if spec.style is Style.BERMUDAN:
            raise ValidationError(
                "the spectral backend handles American and European styles; "
                "Bermudan contracts need exercise dates — call "
                "price_bermudan directly"
            )
        if spec.style is Style.EUROPEAN:
            return self._closed_form(spec, steps, model, method)
        spec = spec.with_style(Style.AMERICAN)
        if model == "bsm-fd" and spec.right is not Right.PUT:
            raise ValidationError("the bsm-fd model prices puts")
        if no_early_exercise_call(spec) or no_early_exercise_put(spec):
            # never-exercised-early contracts have exact closed forms; the
            # lattice front door shortcuts the call the same way
            return self._closed_form(spec, steps, model, method)

        # Calls price through the exact McDonald–Schroder symmetry; the
        # plan then always describes a put boundary.
        dualized = spec.right is Right.CALL
        work = spec.symmetric_dual() if dualized else spec
        unit, strike = work.strike_scaled()
        plan = self.plan_for(
            unit.rate, unit.dividend_yield, unit.volatility, unit.years
        )
        price = plan.price_put(unit.spot) * strike
        result = PricingResult(
            price=price,
            steps=steps,
            model=model,
            method=method,
            stats={
                "collocation_nodes": self.order + 1,
                "quad_points": self.quad_points,
                "fixed_point_iterations": plan.iterations_used,
            },
            meta={
                "backend": self.name,
                "tolerance": self.tolerance,
                "spectral": {
                    "order": self.order,
                    "dualized": dualized,
                },
            },
        )
        return result

    def price_batch(
        self,
        specs: Sequence[OptionSpec],
        steps: int,
        *,
        model: str = "binomial",
        method: str = "fft",
        base: Optional[int] = None,
        lam: Optional[float] = None,
        policy=None,
        engine=None,
    ) -> list:
        return [
            self.price_spec(
                spec, steps, model=model, method=method, base=base, lam=lam,
                policy=policy, engine=engine,
            )
            for spec in specs
        ]

    # -- helpers ------------------------------------------------------- #
    def _closed_form(self, spec: OptionSpec, steps: int, model: str,
                     method: str) -> PricingResult:
        price = black_scholes(spec).price
        meta = {
            "backend": self.name,
            "tolerance": self.tolerance,
            "closed_form": "black-scholes",
        }
        if spec.style is not Style.EUROPEAN:
            meta["no_early_exercise"] = True
        return PricingResult(
            price=price, steps=steps, model=model, method=method, meta=meta,
        )


register_backend(SpectralBackend())
