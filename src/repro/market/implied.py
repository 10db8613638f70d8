"""American implied volatility: bracketed Brent with a Newton fast path.

Market traffic starts from quoted *prices*, not volatilities, so the first
market-facing question a pricing stack answers is the inverse problem: find
the volatility ``v`` with ``price_american(spec with v) == quote``.  The
American price is strictly increasing and smooth in ``v``, which makes the
inversion a textbook one-dimensional root find — but every objective
evaluation is a full O(T log²T) lattice solve, so the solver count *is* the
cost model.  This module spends analytic work to keep that count small:

1. **European seed** — the quote is first inverted through the closed-form
   Black–Scholes formula (:func:`european_implied_vol`, Newton on the
   analytic vega of :func:`repro.options.analytic.black_scholes`), which
   costs no lattice solves at all.
2. **De-Americanization** — one American solve at the seed measures the
   early-exercise premium; subtracting it from the quote and re-inverting
   the closed form moves the seed from "European-equivalent" to
   "American-equivalent" volatility (cf. the early-exercise-premium
   approximations surveyed in PAPERS.md).
3. **Newton fast path** — safeguarded Newton iterations from the seed, with
   the analytic European vega standing in for the American vega (they agree
   to the early-exercise premium's vol sensitivity, small away from deep
   ITM).  Every evaluation tightens a hard bracket; a step that leaves the
   bracket, a tiny vega, or slow progress falls through to
4. **Bracketed Brent** — inverse-quadratic/secant steps with a bisection
   safeguard on the sign-changing interval, the classical derivative-free
   closer.  Bracket ends are discovered lazily (geometric expansion toward
   the vol floor/cap) so well-seeded quotes never pay for them.

Every step calls one memoised objective, ``f(v) = price - quote``, so
revisiting an evaluated vol costs no solve.

:func:`implied_vol_many` inverts whole quote ladders: one shared
plan-caching :class:`~repro.core.fftstencil.AdvanceEngine` serves every
solve, and each quote's root find is *warm-started* from its neighbour's
fitted vol — adjacent strikes on one expiry differ by a few vol points, so
the neighbour seed usually lands inside Newton's quadratic basin and the
whole ladder converges in about three solves per quote
(``benchmarks/bench_implied.py`` measures the batch-vs-naive speedup).
The chain is sequential because a quote can only start from a neighbour
that is already fitted; pricing a ladder's evaluations in batched rounds
instead costs more solves than the batching saves (docs/DESIGN.md §7.3).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.api import price_american
from repro.core.fftstencil import DEFAULT_POLICY, AdvanceEngine, AdvancePolicy
from repro.options.analytic import black_scholes, european_price, intrinsic_bounds
from repro.options.contract import OptionSpec, Right, Style
from repro.util.validation import ValidationError, check_finite, check_integer

#: Volatility search domain: annualised vols outside [0.01%, 500%] are not
#: market data, and the cap bounds the lazy bracket expansion.
VOL_MIN = 1e-4
VOL_MAX = 5.0

#: Newton iterations before the fast path hands over to Brent.
NEWTON_MAX = 8

#: Brent iterations cap (bisection alone halves the bracket each step, so
#: 80 covers the full [VOL_MIN, VOL_MAX] domain down to ~1e-25).
BRENT_MAX = 80


@dataclass(frozen=True)
class ImpliedVolResult:
    """One fitted implied volatility plus the effort it took.

    Attributes
    ----------
    vol:        the implied volatility.
    price:      the model price at ``vol`` (last objective evaluation).
    residual:   ``|price - quote|`` at convergence.
    iterations: root-find iterations (Newton + Brent).
    solves:     lattice solves spent (objective evaluations, including the
                de-Americanization probe); the batch speedup is won here.
    newton:     True when the Newton fast path converged on its own.
    seed:       the starting volatility (European seed or warm start).
    warm_start: True when the seed came from a neighbouring quote.
    """

    vol: float
    price: float
    residual: float
    iterations: int
    solves: int
    newton: bool
    seed: float
    warm_start: bool


@dataclass
class FitReport:
    """Per-quote fit records for a batch inversion plus batch totals.

    ``results[i]`` is quote ``i``'s :class:`ImpliedVolResult` in input
    order; ``vols`` collects the fitted vols as an array.  ``meta`` carries
    the batch configuration (steps, model, method, engine sharing).
    """

    results: list[ImpliedVolResult] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @property
    def vols(self) -> np.ndarray:
        return np.array([r.vol for r in self.results], dtype=np.float64)

    @property
    def solves(self) -> int:
        """Total lattice solves across the batch."""
        return sum(r.solves for r in self.results)

    @property
    def iterations(self) -> int:
        return sum(r.iterations for r in self.results)

    @property
    def warm_starts(self) -> int:
        return sum(1 for r in self.results if r.warm_start)

    @property
    def max_residual(self) -> float:
        return max((r.residual for r in self.results), default=0.0)


# --------------------------------------------------------------------- #
# European closed-form inversion (the Newton seed)
# --------------------------------------------------------------------- #
def _european_range(spec: OptionSpec) -> tuple[float, float]:
    """Attainable European price range over ``v in (0, inf)``.

    As ``v -> 0`` the BSM price tends to the discounted-parity floor; as
    ``v -> inf`` a call tends to ``S e^{-Yt}`` and a put to ``K e^{-Rt}``.
    """
    t = spec.years
    disc_s = spec.spot * math.exp(-spec.dividend_yield * t)
    disc_k = spec.strike * math.exp(-spec.rate * t)
    if spec.right is Right.CALL:
        return max(disc_s - disc_k, 0.0), disc_s
    return max(disc_k - disc_s, 0.0), disc_k


def european_implied_vol(
    quote: float,
    spec: OptionSpec,
    *,
    tol: Optional[float] = None,
    max_iter: int = 60,
) -> float:
    """Invert the European Black–Scholes formula (closed form + analytic vega).

    Safeguarded Newton: each iteration evaluates the analytic price/vega
    pair and keeps a hard bisection bracket, so convergence is global over
    the attainable price range.  Quotes outside that range raise
    :class:`ValidationError`.  Costs no lattice solves — this is the seed
    generator for the American inversion, but useful on its own.
    """
    quote = check_finite("quote", quote)
    tol = 1e-12 * spec.strike if tol is None else tol
    lo_p, hi_p = _european_range(spec)
    if not (lo_p < quote < hi_p):
        raise ValidationError(
            f"quote {quote} outside the attainable European price range "
            f"({lo_p}, {hi_p}) for this contract"
        )

    lo, hi = VOL_MIN, VOL_MAX
    # Standard seed: the vol that sets |d1| = |d2| ~ 0, extended away from
    # the money (Manaster–Koehler); clipped into the search domain.
    t = spec.years
    m = math.log(spec.spot / spec.strike) + (spec.rate - spec.dividend_yield) * t
    v = min(max(math.sqrt(2.0 * abs(m) / t) if m != 0.0 else 0.2, 0.05), 2.0)
    for _ in range(max_iter):
        r = black_scholes(dataclasses.replace(spec, volatility=v))
        f = r.price - quote
        if abs(f) <= tol:
            return v
        if f < 0.0:
            lo = max(lo, v)
        else:
            hi = min(hi, v)
        step = f / r.vega if r.vega > 1e-12 else None
        nxt = v - step if step is not None else None
        if nxt is None or not (lo < nxt < hi):
            nxt = 0.5 * (lo + hi)  # bisection safeguard
        if abs(nxt - v) < 1e-16:
            return v
        v = nxt
    return v


# --------------------------------------------------------------------- #
# American inversion
# --------------------------------------------------------------------- #
class _Objective:
    """``f(v) = price(spec with vol v) - quote`` with memoised evaluations."""

    def __init__(self, price_fn: Callable[[float], float], quote: float):
        self._price_fn = price_fn
        self.quote = quote
        self.cache: dict[float, float] = {}
        self.solves = 0
        self.last_price = math.nan

    def __call__(self, v: float) -> float:
        f = self.cache.get(v)
        if f is None:
            self.solves += 1
            price = self._price_fn(v)
            self.last_price = price
            f = price - self.quote
            self.cache[v] = f
        else:
            self.last_price = f + self.quote
        return f


def _default_price_fn(
    spec: OptionSpec,
    steps: int,
    model: str,
    method: str,
    base: Optional[int],
    lam: Optional[float],
    policy: AdvancePolicy,
    engine: Optional[AdvanceEngine],
) -> Callable[[float], float]:
    def price_at(v: float) -> float:
        return price_american(
            dataclasses.replace(spec, volatility=v), steps,
            model=model, method=method, base=base, lam=lam,
            policy=policy, engine=engine,
        ).price

    return price_at


def _validate_quote(quote: float, spec: OptionSpec) -> None:
    lower, upper = intrinsic_bounds(spec.with_style(Style.AMERICAN))
    side = "spot" if spec.right is Right.CALL else "strike"
    if quote < lower:
        raise ValidationError(
            f"quote {quote} is below the American intrinsic/parity floor "
            f"{lower} — no volatility can reproduce it"
        )
    if quote >= upper:
        raise ValidationError(
            f"quote {quote} is at or above the {side} {upper} — the "
            "American price never reaches it at any volatility"
        )


def _expand_bracket(f: _Objective, known: dict[float, float]):
    """Find a sign change ``[a, b]`` from the evaluations made so far.

    The innermost already-evaluated pair is used when one exists;
    otherwise the bracket grows geometrically from the evaluated frontier
    toward the vol floor/cap, evaluating ``f`` at each new end.  Running
    into the cap (or floor) without a sign change means the quote sits
    outside the model's attainable price range.
    """
    neg = {v: fv for v, fv in known.items() if fv < 0.0}
    pos = {v: fv for v, fv in known.items() if fv >= 0.0}
    if neg and pos:
        a = max(neg)  # price still below the quote: highest such vol
        b = min(pos)  # price at/above the quote: lowest such vol
        return a, neg[a], b, pos[b]
    if pos:
        # every evaluation overshot: walk down toward the vol floor
        v = min(pos)
        while v > VOL_MIN:
            v = max(v * 0.5, VOL_MIN)
            fv = f(v)
            if fv < 0.0:
                b = min(pos)
                return v, fv, b, pos[b]
            pos[v] = fv
        raise ValidationError(
            f"quote {f.quote} is below the model price at the volatility "
            f"floor {VOL_MIN} — no volatility in [{VOL_MIN}, {VOL_MAX}] "
            "reproduces it"
        )
    # every evaluation undershot (or none yet): walk up toward the cap
    v = max(neg) if neg else 0.2
    if not neg:
        fv = f(v)
        (neg if fv < 0.0 else pos)[v] = fv
        if pos:
            return _expand_bracket(f, {**neg, **pos})
    while v < VOL_MAX:
        v = min(v * 2.0, VOL_MAX)
        fv = f(v)
        if fv >= 0.0:
            a = max(neg)
            return a, neg[a], v, fv
        neg[v] = fv
    raise ValidationError(
        f"quote {f.quote} is above the model price at the volatility cap "
        f"{VOL_MAX} — no volatility in [{VOL_MIN}, {VOL_MAX}] reproduces it"
    )


def _brent(
    f: _Objective,
    a: float,
    fa: float,
    b: float,
    fb: float,
    price_tol: float,
    vol_tol: float,
) -> tuple[float, float, int]:
    """Classic Brent (1973) on a sign-changing bracket; returns (v, f(v), iters).

    Inverse-quadratic interpolation when the three iterates cooperate,
    secant otherwise, bisection whenever the interpolated step stalls — the
    guaranteed-convergence closer behind the Newton fast path.
    Hand-rolled rather than ``scipy.optimize.brentq`` because the exit
    criterion differs where it counts: every evaluation here is a full
    lattice solve, and converging on the *price residual* (``price_tol``)
    stops 1–2 solves earlier per quote than brentq's x-interval test.
    """
    if fa >= 0.0 <= fb or fa < 0.0 > fb:  # pragma: no cover — callers bracket
        raise ValidationError("brent requires a sign-changing bracket")
    c, fc = a, fa
    d = e = b - a
    iters = 0
    for _ in range(BRENT_MAX):
        iters += 1
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * np.finfo(float).eps * abs(b) + 0.5 * vol_tol
        xm = 0.5 * (c - b)
        if abs(fb) <= price_tol or abs(xm) <= tol1:
            return b, fb, iters
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p = 2.0 * xm * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * xm * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = xm  # interpolation rejected: bisect
        else:
            d = e = xm
        a, fa = b, fb
        b = b + (d if abs(d) > tol1 else math.copysign(tol1, xm))
        fb = f(b)
        if (fb < 0.0) == (fc < 0.0):
            c, fc = a, fa
            d = e = b - a
    return b, fb, iters


def implied_vol(
    quote: float,
    spec: OptionSpec,
    steps: int,
    *,
    model: str = "binomial",
    method: str = "fft",
    base: Optional[int] = None,
    lam: Optional[float] = None,
    policy: AdvancePolicy = DEFAULT_POLICY,
    engine: Optional[AdvanceEngine] = None,
    price_fn: Optional[Callable[[float], float]] = None,
    seed: Optional[float] = None,
    bracket: Optional[tuple[float, float]] = None,
    newton: bool = True,
    deamericanize: bool = True,
    price_tol: Optional[float] = None,
    vol_tol: float = 1e-12,
) -> ImpliedVolResult:
    """American implied volatility of one quoted price.

    Parameters
    ----------
    quote:
        The observed option price.  Must lie strictly between the American
        intrinsic/parity floor and the spot (call) / strike (put) —
        anything else raises :class:`ValidationError` before a single
        lattice solve is spent.
    spec, steps, model, method, base, lam, policy, engine:
        The pricing configuration, per :func:`repro.core.api.price_american`
        (the spec's ``volatility`` field is ignored — it is the unknown).
        Pass a shared plan-caching ``engine`` to amortise FFT plans across
        repeated solves; :func:`implied_vol_many` does this for ladders.
    price_fn:
        Override the objective: ``price_fn(v) -> price``.  The quote
        service routes evaluations through its canonical-key cache this
        way (:meth:`repro.service.service.QuoteService.implied_vol`).
    seed:
        Starting volatility (warm start).  Skips the European inversion
        and the de-Americanization probe entirely.
    bracket:
        Evaluate both ends of this vol interval up front (the classical
        fixed-bracket setup).  This is how the *naive* baseline prices:
        ``newton=False, deamericanize=False, bracket=(0.05, 2.0)`` is a
        textbook Brent inversion with none of the fast paths.
    newton / deamericanize:
        Disable the fast paths for A/B measurement — with both off the
        solve is the naive bracketed Brent the benchmark compares against.
    price_tol:
        Convergence on the price residual; default ``1e-9 * strike``
        (an order tighter than the 1e-8·K round-trip acceptance gate).
    vol_tol:
        Convergence on the bracket width, for flat-vega corners.
    """
    quote = check_finite("quote", quote)
    steps = check_integer("steps", steps, minimum=1)
    _validate_quote(quote, spec)
    if price_tol is None:
        price_tol = 1e-9 * spec.strike
    if price_fn is None:
        price_fn = _default_price_fn(
            spec, steps, model, method, base, lam, policy, engine
        )
    f = _Objective(price_fn, quote)  # memoised: a re-evaluation is free
    hist: dict[float, float] = {}
    if bracket is not None:
        b_lo, b_hi = bracket
        if not (VOL_MIN <= b_lo < b_hi <= VOL_MAX):
            raise ValidationError(
                f"bracket must satisfy {VOL_MIN} <= lo < hi <= {VOL_MAX}, "
                f"got {bracket}"
            )
        hist[b_lo] = f(b_lo)
        hist[b_hi] = f(b_hi)

    if seed is not None:
        v0 = min(max(float(seed), VOL_MIN), VOL_MAX)
    else:
        try:
            v0 = european_implied_vol(quote, spec)
        except ValidationError:
            # quote outside the *European* range (deep ITM American trades
            # below the discounted-parity floor of its European twin):
            # start mid-domain and let the bracket machinery take over
            v0 = 0.2
        if deamericanize:
            # one American solve at the European seed measures the
            # early-exercise premium; re-inverting the premium-adjusted
            # quote turns the European-equivalent vol into an
            # American-equivalent one (and seeds the bracket for free)
            f0 = f(v0)
            hist[v0] = f0
            premium = (f0 + quote) - european_price(
                dataclasses.replace(spec, volatility=v0)
            )
            lo_p, hi_p = _european_range(spec)
            adjusted = quote - max(premium, 0.0)
            if lo_p < adjusted < hi_p:
                try:
                    v0 = european_implied_vol(adjusted, spec)
                except ValidationError:  # pragma: no cover — range-checked
                    pass

    iterations = 0
    if newton:
        v = v0
        lo, hi = VOL_MIN, VOL_MAX
        v_prev = f_prev = None
        for _ in range(NEWTON_MAX):
            iterations += 1
            fv = f(v)
            hist[v] = fv
            if abs(fv) <= price_tol:
                # the price is this last evaluation's, as solved
                return ImpliedVolResult(
                    vol=v, price=f.last_price, residual=abs(fv),
                    iterations=iterations, solves=f.solves, newton=True,
                    seed=v0, warm_start=seed is not None,
                )
            if fv < 0.0:
                lo = max(lo, v)
            else:
                hi = min(hi, v)
            # First step: analytic European vega (free, no solve).  After
            # that: the secant through the last two *lattice* evaluations —
            # at finite steps the lattice price's local vol-slope deviates
            # a few percent from the smooth vega (node/strike alignment
            # shifts with u = e^{v sqrt(dt)}), and that error caps Newton
            # at slow linear convergence; the secant tracks the true slope.
            slope = 0.0
            if v_prev is not None and v != v_prev:
                slope = (fv - f_prev) / (v - v_prev)
            if not (slope > 1e-10):
                slope = black_scholes(
                    dataclasses.replace(spec, volatility=v)
                ).vega
            if slope <= 1e-10:
                break  # flat objective: Newton is blind here
            nxt = v - fv / slope
            if not (lo < nxt < hi):
                break  # step left the bracket: hand over to Brent
            v_prev, f_prev = v, fv
            if abs(nxt - v) <= vol_tol:
                v = nxt
                break
            v = nxt

    a, fa, b, fb = _expand_bracket(f, hist)
    if abs(fa) <= price_tol:
        v, fv, brent_iters = a, fa, 0
    elif abs(fb) <= price_tol:
        v, fv, brent_iters = b, fb, 0
    else:
        v, fv, brent_iters = _brent(f, a, fa, b, fb, price_tol, vol_tol)
    f(v)  # memoised: fixes last_price to the returned vol
    return ImpliedVolResult(
        vol=v, price=f.last_price, residual=abs(fv),
        iterations=iterations + brent_iters, solves=f.solves, newton=False,
        seed=v0, warm_start=seed is not None,
    )


def implied_vol_many(
    specs: Sequence[OptionSpec],
    quotes: Sequence[float],
    steps: int,
    *,
    model: str = "binomial",
    method: str = "fft",
    base: Optional[int] = None,
    lam: Optional[float] = None,
    policy: AdvancePolicy = DEFAULT_POLICY,
    engine: Optional[AdvanceEngine] = None,
    warm_start: bool = True,
    newton: bool = True,
    deamericanize: bool = True,
    price_tol: Optional[float] = None,
) -> FitReport:
    """Invert a whole quote ladder on one shared plan-caching engine.

    ``specs[i]`` is quoted at ``quotes[i]``; results come back in input
    order inside a :class:`FitReport`.  Two batch effects make this faster
    than independent :func:`implied_vol` calls:

    * every lattice solve runs on **one** shared
      :class:`~repro.core.fftstencil.AdvanceEngine` (pass ``engine`` to
      share it wider — e.g. a calibration worker's persistent engine), so
      rFFT plans, pad sizes and scratch buffers amortise across the ladder;
    * each quote is **warm-started** from its neighbours' fitted vols
      whenever the neighbouring contracts share rate/dividend/expiry (a
      strike ladder): one prior fit seeds the neighbour's vol directly,
      two prior fits extrapolate the smile's local slope in log-strike —
      skipping the seed's de-Americanization probe and usually landing
      inside Newton's one-step basin.

    Sort ladders by strike before calling for the best warm-start locality
    (:func:`repro.market.calibrate.calibrate_surface` does).

    Every quote is checked against the American price bounds before the
    first solve, so a bad quote anywhere in the ladder costs no lattice
    work.
    """
    if len(specs) != len(quotes):
        raise ValidationError(
            f"specs and quotes must pair up: got {len(specs)} specs, "
            f"{len(quotes)} quotes"
        )
    steps = check_integer("steps", steps, minimum=1)
    for spec, quote in zip(specs, quotes):
        _validate_quote(check_finite("quote", quote), spec)
    if engine is None:
        engine = AdvanceEngine(policy)
    report = FitReport(
        meta={
            "steps": steps,
            "model": model,
            "method": method,
            "n_quotes": len(quotes),
            "warm_start": warm_start,
            "newton": newton,
            "deamericanize": deamericanize,
        }
    )
    # (log-strike, fitted vol) history of the current curve: one point
    # seeds the neighbour's vol, two extrapolate the smile's local slope
    curve: list[tuple[float, float]] = []
    prev_spec: Optional[OptionSpec] = None
    for spec, quote in zip(specs, quotes):
        if prev_spec is not None and not (
            spec.rate == prev_spec.rate
            and spec.dividend_yield == prev_spec.dividend_yield
            and spec.years == prev_spec.years
            and spec.right is prev_spec.right
        ):
            # a new expiry/rate/right is a new curve: its vols share no
            # neighbourhood with the previous ladder's
            curve.clear()
        seed = None
        if warm_start and curve:
            x = math.log(spec.strike)
            x1, v1 = curve[-1]
            seed = v1
            if len(curve) >= 2:
                x2, v2 = curve[-2]
                if x1 != x2:
                    seed = v1 + (v1 - v2) * (x - x1) / (x1 - x2)
                    seed = min(max(seed, VOL_MIN), VOL_MAX)
        result = implied_vol(
            quote, spec, steps, model=model, method=method, base=base,
            lam=lam, policy=policy, engine=engine, seed=seed,
            newton=newton, deamericanize=deamericanize, price_tol=price_tol,
        )
        report.results.append(result)
        curve.append((math.log(spec.strike), result.vol))
        prev_spec = spec
    return report
