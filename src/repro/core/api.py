"""Public pricing API: one entry point per exercise style, any model/method.

``price_american(spec, steps, model=..., method=...)`` is the library's front
door.  ``model`` selects the discretisation (paper sections): ``"binomial"``
(§2), ``"trinomial"`` (§3), ``"bsm-fd"`` (§4).  ``method`` selects the
algorithm family (paper Table 2 / Table 4 legends):

=============  ==========================================================
``fft``        the paper's O(T log²T) nonlinear-stencil solver
``loop``       vectorised nested loop (``vanilla-*``)
``loop-pure``  literal Figure-1 pseudocode (binomial only; tiny T)
``tiled``      cache-aware tiled loop (binomial only)
``oblivious``  cache-oblivious recursive trapezoid (binomial only)
``ql``         QuantLib-style engine (binomial only; ``ql-bopm``)
``zb``         Zubair-style cache-optimised sweep (binomial only; ``zb-bopm``)
=============  ==========================================================

Every call returns a :class:`PricingResult` carrying the price, the
instrumented work/span, solver statistics, and (on request) the red–green
exercise divider.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from repro.baselines.registry import BASELINES
from repro.core.backend import get_backend, register_backend
from repro.core.bermudan import price_tree_bermudan_fft
from repro.core.bsm_solver import DEFAULT_BSM_BASE, solve_bsm_fft
from repro.core.fftstencil import DEFAULT_POLICY, AdvanceEngine, AdvancePolicy
from repro.core.metrics import SolveStats
from repro.core.symmetry import canonicalize_right
from repro.core.tree_solver import DEFAULT_BASE, solve_tree_fft
from repro.lattice.binomial import price_binomial
from repro.lattice.blackscholes_fd import price_bsm_fd
from repro.lattice.trinomial import price_trinomial
from repro.obs import NULL_SPAN
from repro.options.analytic import black_scholes, no_early_exercise_call
from repro.options.contract import OptionSpec, Right, Style
from repro.options.params import BinomialParams, BSMGridParams, TrinomialParams
from repro.parallel.workspan import WorkSpan, rows_cost
from repro.util.validation import ValidationError, check_integer

MODELS = ("binomial", "trinomial", "bsm-fd")
TREE_METHODS = ("fft",) + tuple(BASELINES)


@dataclass
class PricingResult:
    """Uniform result envelope for every pricing path.

    Attributes
    ----------
    price:      option value at the valuation date.
    steps:      time steps ``T`` used.
    model:      ``"binomial" | "trinomial" | "bsm-fd"``.
    method:     algorithm family used (see module docstring).
    workspan:   instrumented work/span in flop-equivalents.
    stats:      solver-structure counters (FFT calls, trapezoids, …).
    boundary:   optional divider data (dense array for vanilla methods,
                sparse ``{row: index}`` for the fft methods).
    meta:       solver-specific extras.
    """

    price: float
    steps: int
    model: str
    method: str
    workspan: WorkSpan = field(default_factory=lambda: WorkSpan.ZERO)
    stats: dict = field(default_factory=dict)
    boundary: Optional[object] = None
    meta: dict = field(default_factory=dict)

    def scaled(self, factor: float) -> "PricingResult":
        """Copy with the price multiplied by ``factor`` (value homogeneity).

        The work/span passes through (immutable, scale-free), while the
        stats dict, the divider container and ``meta`` are shallow-copied:
        the quote service stores one canonical result and hands out scaled
        copies per request, so a caller mutating a served copy must never
        corrupt the cached original.
        """
        boundary = self.boundary
        if isinstance(boundary, dict):
            boundary = dict(boundary)
        elif isinstance(boundary, np.ndarray):
            boundary = boundary.copy()
        return replace(
            self, price=self.price * factor, stats=dict(self.stats),
            boundary=boundary, meta=dict(self.meta),
        )


def check_model_method(model: str, method: str) -> None:
    """Validate a ``(model, method)`` pair (raises :class:`ValidationError`).

    Public hook for front ends that build request keys before pricing
    (:mod:`repro.service.canonical`), so a malformed request fails at
    submission rather than deep inside a coalesced batch.
    """
    if model not in MODELS:
        raise ValidationError(f"unknown model {model!r}; choose one of {MODELS}")
    if model == "binomial":
        valid = TREE_METHODS
    else:
        valid = ("fft", "loop")
    if method not in valid:
        raise ValidationError(
            f"method {method!r} not available for model {model!r}; "
            f"choose one of {valid}"
        )


def price_american(
    spec: OptionSpec,
    steps: int,
    *,
    model: str = "binomial",
    method: str = "fft",
    base: Optional[int] = None,
    lam: Optional[float] = None,
    policy: AdvancePolicy = DEFAULT_POLICY,
    engine: Optional[AdvanceEngine] = None,
    return_boundary: bool = False,
    backend: str = "lattice",
) -> PricingResult:
    """Price an American option (see module docstring for model/method).

    Notes
    -----
    * ``model="bsm-fd"`` requires a put (paper §4); American calls on
      dividend-paying stock should use the tree models.
    * Puts under tree models with ``method="fft"`` are priced through the
      exact put–call symmetry (:mod:`repro.core.symmetry`).
    * ``base`` overrides the recursion base-case height (paper default 8 for
      trees, 10 for BSM); ``lam`` the FD parabolic ratio.
    * ``engine`` supplies a shared plan-caching
      :class:`~repro.core.fftstencil.AdvanceEngine` for the fft methods
      (see :func:`price_many`); default is a fresh engine per solve.
    * ``backend`` selects the registered
      :class:`~repro.core.backend.PricerBackend`: ``"lattice"`` (default)
      runs the paper's solvers exactly — a lone contract is the B = 1 case
      of :func:`price_many` — while ``"spectral"`` answers from
      the Chebyshev-collocation fast pricer (:mod:`repro.core.spectral`)
      within its stated tolerance.  The contract is priced American on
      every backend, whatever its ``style``.  Every result records the
      serving backend as ``meta["backend"]``.
    * American calls on a zero-dividend underlying are never exercised
      early (Merton 1973,
      :func:`repro.options.analytic.no_early_exercise_call`), so the tree
      models answer them from the European closed form without a lattice
      solve — ``meta["closed_form"]`` marks such results.  Pass
      ``return_boundary=True`` to force the lattice (the analytic path
      has no divider to report).  The symmetric-dual fact — zero-*rate*
      puts (:func:`~repro.options.analytic.no_early_exercise_put`) — is
      deliberately **not** shortcut: finite-difference ladders bump the
      rate (Greeks rho legs, scenario ``rate_bumps``), and a ladder whose
      clamped ``r=0`` leg answered analytically while its ``r=h`` leg
      lattice-solved would divide the discretisation gap by ``h``.  The
      dividend is never a bump axis, so the call shortcut cannot mix.
    """
    return get_backend(backend).price_spec(
        spec.with_style(Style.AMERICAN), steps, model=model, method=method,
        base=base, lam=lam, policy=policy, engine=engine,
        return_boundary=return_boundary,
    )


def price_european(
    spec: OptionSpec,
    steps: int,
    *,
    model: str = "binomial",
    method: str = "fft",
    lam: Optional[float] = None,
    policy: AdvancePolicy = DEFAULT_POLICY,
    engine: Optional[AdvanceEngine] = None,
) -> PricingResult:
    """European pricing: ``fft`` = one O(T log T) jump; ``loop`` = sweep.

    The B = 1 European call of the lattice backend, so the result records
    ``meta["backend"]`` exactly as :func:`price_many` does.
    """
    return get_backend("lattice").price_spec(
        spec.with_style(Style.EUROPEAN), steps, model=model, method=method,
        lam=lam, policy=policy, engine=engine,
    )


def price_bermudan(
    spec: OptionSpec,
    steps: int,
    exercise_steps: Sequence[int],
    *,
    model: str = "binomial",
    method: str = "fft",
    policy: AdvancePolicy = DEFAULT_POLICY,
    engine: Optional[AdvanceEngine] = None,
) -> PricingResult:
    """Bermudan pricing: ``fft`` = O((k+1) T log T) jump chain; ``loop`` sweep."""
    steps = check_integer("steps", steps, minimum=1)
    if model == "bsm-fd":
        raise ValidationError("Bermudan exercise is not defined for the FD model")
    check_model_method(model, method)
    if method not in ("fft", "loop"):
        raise ValidationError("Bermudan pricing supports methods 'fft' and 'loop'")
    spec = spec.with_style(Style.BERMUDAN)

    if method == "fft":
        params = (
            BinomialParams.from_spec(spec, steps)
            if model == "binomial"
            else TrinomialParams.from_spec(spec, steps)
        )
        r = price_tree_bermudan_fft(
            params, exercise_steps, policy=policy, engine=engine
        )
        return PricingResult(
            r.price, steps, model, method, r.workspan, r.stats.as_dict(), None, r.meta
        )
    lr = (
        price_binomial(spec, steps, exercise_steps=exercise_steps)
        if model == "binomial"
        else price_trinomial(spec, steps, exercise_steps=exercise_steps)
    )
    return PricingResult(
        lr.price, steps, model, method, lr.workspan,
        {"cells_evaluated": lr.cells}, None, lr.meta,
    )


def _european_bsm_fft(
    spec: OptionSpec,
    steps: int,
    lam: Optional[float],
    engine: AdvanceEngine,
) -> PricingResult:
    """A European FD-grid put: the payoff on the cone's base row, advanced
    ``steps`` rows to the apex in one jump and scaled by the strike —
    discretisation-identical to :func:`repro.lattice.price_bsm_fd` with
    ``Style.EUROPEAN``."""
    p = BSMGridParams.from_spec(spec, steps, lam=lam)
    x = np.maximum(p.payoff(np.arange(-steps, steps + 1)), 0.0)
    y, rec = engine.advance(x, p.taps, steps, scale=1.0)
    stats = SolveStats()
    stats.note_advance(rec.method, rec.input_len, rec.spectrum_hit)
    return PricingResult(
        price=float(p.spec.strike * y[0]),
        steps=steps,
        model="bsm-fd",
        method="fft",
        workspan=rows_cost(1, 2 * steps + 1, 1).then(rec.workspan),
        stats=stats.as_dict(),
        boundary=None,
        meta={"style": "european", "params": p},
    )


def _fft_price(
    spec: OptionSpec,
    steps: int,
    model: str,
    base: Optional[int],
    lam: Optional[float],
    engine: AdvanceEngine,
    record_boundary: bool,
) -> PricingResult:
    """One American or European contract on the paper's fft solvers."""
    if model == "bsm-fd":
        if spec.style is Style.EUROPEAN:
            return _european_bsm_fft(spec, steps, lam, engine)
        r = solve_bsm_fft(
            BSMGridParams.from_spec(spec, steps, lam=lam),
            base=DEFAULT_BSM_BASE if base is None else base,
            engine=engine,
            record_boundary=record_boundary,
        )
    else:
        cls = BinomialParams if model == "binomial" else TrinomialParams
        if spec.style is Style.EUROPEAN:
            # the no-exercise-date jump chain: one jump from expiry to root
            r = price_tree_bermudan_fft(
                cls.from_spec(spec, steps), (), engine=engine
            )
            return PricingResult(
                r.price, steps, model, "fft", r.workspan, r.stats.as_dict(),
                None, r.meta,
            )
        folded, dualized = canonicalize_right(spec, model)
        r = solve_tree_fft(
            cls.from_spec(folded, steps),
            base=DEFAULT_BASE if base is None else base,
            engine=engine,
            record_boundary=record_boundary,
        )
        if dualized:
            r.meta["symmetric_dual_of"] = spec
            r.meta["note"] = (
                "priced as the dual American call C(K, S, Y, R); "
                "exact on CRR lattices"
            )
    return PricingResult(
        r.price, steps, model, "fft", r.workspan, r.stats.as_dict(),
        r.boundary.points if r.boundary else None, r.meta,
    )


def _loop_price(
    spec: OptionSpec,
    steps: int,
    model: str,
    method: str,
    lam: Optional[float],
    record_boundary: bool,
) -> PricingResult:
    """One contract on a Θ(T²) sweep: the loop solvers or a baseline."""
    if model == "bsm-fd":
        r = price_bsm_fd(spec, steps, lam=lam, return_boundary=record_boundary)
    elif model == "trinomial":
        r = price_trinomial(spec, steps, return_boundary=record_boundary)
    elif method == "loop":
        r = price_binomial(spec, steps, return_boundary=record_boundary)
    else:
        # only 'loop' supports puts and boundary extraction
        if spec.right is Right.PUT:
            raise ValidationError(
                f"baseline {method!r} implements the paper's American-call "
                "benchmark; use method='loop' or 'fft' for puts"
            )
        if record_boundary:
            raise ValidationError(
                f"baseline {method!r} does not track the exercise divider; "
                "use method='loop' or 'fft'"
            )
        r = BASELINES[method](spec, steps)
    return PricingResult(
        r.price, steps, model, method, r.workspan,
        {"cells_evaluated": r.cells}, r.boundary, r.meta,
    )


def _lattice_price(
    specs: Sequence[OptionSpec],
    steps: int,
    *,
    model: str = "binomial",
    method: str = "fft",
    base: Optional[int] = None,
    lam: Optional[float] = None,
    policy: AdvancePolicy = DEFAULT_POLICY,
    engine: Optional[AdvanceEngine] = None,
    record_boundary: bool = False,
) -> list[PricingResult]:
    """Price lattice contracts, lone or batched; results in input order.

    The one dispatcher behind every lattice door (:func:`price_american`
    and :func:`price_european` are its B = 1 calls, :func:`price_many` the
    batch): each spec is priced per its own ``style`` by a lone solve, and
    every ``fft`` solve of the call runs on **one** plan-caching
    :class:`~repro.core.fftstencil.AdvanceEngine`, so kernels and spectra
    amortise across the contracts:

    * **European tree contracts** are the no-exercise-date Bermudan jump
      chain (:func:`~repro.core.bermudan.price_tree_bermudan_fft`): one
      jump from the expiry row to the root;
    * **European FD puts** are one cone jump from the base row to the apex;
    * **American tree contracts** run the trapezoid solver
      (:func:`~repro.core.tree_solver.solve_tree_fft`); puts are solved as
      their McDonald–Schroder dual calls
      (:func:`~repro.core.symmetry.canonicalize_right`);
    * **American FD puts** run the cone solver
      (:func:`~repro.core.bsm_solver.solve_bsm_fft`);
    * zero-dividend American tree calls take the closed form and skip the
      lattice entirely, unless ``record_boundary`` asks for the divider.

    With ``engine.telemetry`` set, a call that reaches the engine records
    one ``solve`` span carrying ``contracts`` and the engine's ``advances``.
    Bermudan contracts need explicit dates — use :func:`price_bermudan`.
    """
    steps = check_integer("steps", steps, minimum=1)
    check_model_method(model, method)
    tree = model != "bsm-fd"
    results: list[Optional[PricingResult]] = [None] * len(specs)
    lattice: list[int] = []
    for i, spec in enumerate(specs):
        if spec.style is Style.BERMUDAN:
            raise ValidationError(
                "batch pricing handles American and European styles; "
                "Bermudan contracts need exercise dates — call "
                "price_bermudan directly"
            )
        if spec.style is Style.EUROPEAN:
            if method not in ("fft", "loop"):
                raise ValidationError(
                    "European pricing supports methods 'fft' and 'loop'"
                )
            lattice.append(i)
        elif tree and not record_boundary and no_early_exercise_call(spec):
            # zero-dividend American call == European call == the closed
            # form; the whole O(T log²T) (or Θ(T²)) solve would only
            # rediscover it
            results[i] = PricingResult(
                black_scholes(spec).price, steps, model, method,
                meta={
                    "closed_form": "black-scholes", "no_early_exercise": True,
                },
            )
        else:
            lattice.append(i)

    if method != "fft":
        for i in lattice:
            results[i] = _loop_price(
                specs[i], steps, model, method, lam, record_boundary
            )
        return results  # type: ignore[return-value]
    if not lattice:
        return results  # type: ignore[return-value]
    if engine is None:
        engine = AdvanceEngine(policy)
    tel = engine.telemetry
    advances = engine.advances
    with (
        NULL_SPAN if tel is None else tel.span("solve", contracts=len(lattice))
    ) as span:
        for i in lattice:
            results[i] = _fft_price(
                specs[i], steps, model, base, lam, engine, record_boundary
            )
        span.set(advances=engine.advances - advances)
    return results  # type: ignore[return-value]


def price_many(
    specs: Sequence[OptionSpec],
    steps: int,
    *,
    model: str = "binomial",
    method: str = "fft",
    base: Optional[int] = None,
    lam: Optional[float] = None,
    policy: AdvancePolicy = DEFAULT_POLICY,
    engine: Optional[AdvanceEngine] = None,
    backend: str = "lattice",
) -> list[PricingResult]:
    """Price a portfolio of contracts, amortising FFT plans across solves.

    The library's batch door (scenario grids, Greek bump ladders and
    coalesced service buckets all enter here).
    Each spec is priced per its own ``style`` (American or European;
    Bermudan contracts need explicit dates — use :func:`price_bermudan`).
    On the default ``"lattice"`` backend each contract is a lone solve and
    all of them share one plan-caching
    :class:`~repro.core.fftstencil.AdvanceEngine`, so contracts on the
    same lattice reuse each other's kernel spectra.  Every result equals
    the contract's lone :func:`price_american` / :func:`price_european`
    answer.  Bit-identical repeated contracts are
    solved once and the result fanned out in input order (duplicates carry
    ``meta["deduplicated_of"]``).

    ``backend`` names the registered
    :class:`~repro.core.backend.PricerBackend` for the whole portfolio, as
    in :func:`price_american` (``"spectral"`` loops the fast pricer over
    the batch, amortising its plan cache).  To fan a portfolio across a
    worker pool use :meth:`repro.risk.engine.ScenarioEngine.price_specs`.

    Returns results in input order.
    """
    pricer = get_backend(backend)
    # Dedupe bit-identical requests: OptionSpec is a frozen dataclass, so
    # equality means every field matches bit-for-bit and duplicates are
    # guaranteed the same solve.  Price each distinct contract once and fan
    # the envelope out in input order (duplicates get a shallow copy marked
    # ``meta["deduplicated_of"]`` = index of the solved occurrence; price,
    # workspan and stats are the primary's).
    first_at: dict[OptionSpec, int] = {}
    unique: list[OptionSpec] = []
    first_input: list[int] = []
    inverse: list[int] = []
    for i, s in enumerate(specs):
        u = first_at.setdefault(s, len(unique))
        if u == len(unique):
            unique.append(s)
            first_input.append(i)
        inverse.append(u)
    primaries = pricer.price_batch(
        unique, steps, model=model, method=method, base=base, lam=lam,
        policy=policy, engine=engine,
    )
    if len(unique) == len(inverse):
        return primaries
    fanned: list[PricingResult] = []
    seen: set[int] = set()
    for u in inverse:
        if u in seen:
            # scaled(1.0) is a bit-identical copy with independent
            # stats/boundary/meta containers — mutating one sibling must
            # never corrupt another.
            dup = primaries[u].scaled(1.0)
            dup.meta["deduplicated_of"] = first_input[u]
            fanned.append(dup)
        else:
            seen.add(u)
            fanned.append(primaries[u])
    return fanned


@dataclass
class BoundaryCurve:
    """The early-exercise (red–green) divider in financially meaningful units.

    ``rows[i]`` is a time row, ``indices[i]`` the divider's grid position at
    that row, ``times_years[i]`` the calendar time from valuation, and
    ``prices[i]`` the asset price at the divider node — the early-exercise
    boundary the quant-finance literature plots.
    """

    rows: np.ndarray
    indices: np.ndarray
    times_years: np.ndarray
    prices: np.ndarray
    model: str
    method: str


def exercise_boundary(
    spec: OptionSpec,
    steps: int,
    *,
    model: str = "binomial",
    method: str = "loop",
) -> BoundaryCurve:
    """Compute the early-exercise boundary curve.

    ``method="loop"`` yields the divider at every row (dense); ``"fft"``
    yields the rows the fast solver resolves exactly (sparse) — a useful
    cross-check that both agree where both are defined.

    ``prices`` holds the asset price of the *first exercise-optimal node*
    adjacent to the divider — the early-exercise boundary curve of the
    quant-finance literature (from above for calls, from below for puts).
    """
    steps = check_integer("steps", steps, minimum=1)
    check_model_method(model, method)
    if method not in ("fft", "loop"):
        raise ValidationError("exercise_boundary supports methods 'fft' and 'loop'")
    if model == "bsm-fd" and spec.right is not Right.PUT:
        raise ValidationError("the bsm-fd model prices puts")

    result = price_american(
        spec, steps, model=model, method=method, return_boundary=True
    )
    dt_years = spec.years / steps

    if model == "bsm-fd":
        params = BSMGridParams.from_spec(spec.with_style(Style.AMERICAN), steps)
        if method == "loop":
            dense = np.asarray(result.boundary)
            rows = np.arange(steps + 1)
            mask = dense > -(steps + 1)
            rows, idx = rows[mask], dense[mask]
        else:
            points = dict(result.boundary or {})
            rows = np.array(sorted(points), dtype=np.int64)
            idx = np.array([points[r] for r in rows], dtype=np.int64)
        # row n is time-to-expiry tau = n*dtau, i.e. calendar time (T-n)*dt
        times = (steps - rows) * dt_years
        prices = spec.strike * np.exp(params.s_values(idx))
        return BoundaryCurve(rows, idx, times, prices, model, method)

    params_tree = (
        BinomialParams.from_spec(spec.with_style(Style.AMERICAN), steps)
        if model == "binomial"
        else TrinomialParams.from_spec(spec.with_style(Style.AMERICAN), steps)
    )
    q = 1 if model == "binomial" else 2
    if method == "loop":
        dense = np.asarray(result.boundary)
        rows = np.arange(steps + 1)
        mask = dense >= 0
        rows, idx = rows[mask], dense[mask]
    else:
        points = dict(result.boundary or {})
        rows = np.array(sorted(points), dtype=np.int64)
        idx = np.array([points[r] for r in rows], dtype=np.int64)
        if spec.right is Right.PUT:
            # fft puts are solved on the mirrored dual call: map the dual's
            # last-red column j' back to the put's last-green column i - j' - 1
            idx = q * rows - idx - 1
        keep = (idx >= 0) & (idx <= q * rows)
        rows, idx = rows[keep], idx[keep]
    if spec.right is Right.CALL:
        # divider = last continuation column; exercise starts one to its
        # right.  Rows that are entirely red (divider at the row end) have
        # no exercise node and are dropped from the curve.
        keep = idx < q * rows
        rows, idx = rows[keep], idx[keep]
        node_cols = idx + 1
    else:
        # divider = last exercise column (loop solvers report it directly)
        node_cols = idx
    times = rows * dt_years  # tree row i is calendar time i*dt from valuation
    prices = (
        np.asarray(params_tree.asset_price(rows, node_cols), dtype=np.float64)
        if len(rows)
        else np.empty(0, dtype=np.float64)
    )
    return BoundaryCurve(rows, idx, times, prices, model, method)


class LatticeBackend:
    """The paper's solvers as a registered :class:`PricerBackend`.

    ``price_spec`` is the B = 1 call and ``price_batch`` the batch call of
    the one lattice dispatcher, so a lone contract and the same contract
    in a batch are priced by the same code.  Each prices the contracts it
    is given per their ``style`` and stamps ``meta["backend"]``.
    """

    name = "lattice"
    tolerance = 0.0
    supports_boundary = True
    supports_divider = True

    def price_spec(
        self,
        spec: OptionSpec,
        steps: int,
        *,
        model: str = "binomial",
        method: str = "fft",
        base: Optional[int] = None,
        lam: Optional[float] = None,
        policy: Optional[AdvancePolicy] = None,
        engine: Optional[AdvanceEngine] = None,
        return_boundary: bool = False,
    ) -> PricingResult:
        [result] = _lattice_price(
            [spec], steps, model=model, method=method, base=base, lam=lam,
            policy=DEFAULT_POLICY if policy is None else policy,
            engine=engine, record_boundary=return_boundary,
        )
        result.meta.setdefault("backend", self.name)
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
        policy: Optional[AdvancePolicy] = None,
        engine: Optional[AdvanceEngine] = None,
    ) -> list[PricingResult]:
        results = _lattice_price(
            specs, steps, model=model, method=method, base=base, lam=lam,
            policy=DEFAULT_POLICY if policy is None else policy,
            engine=engine,
        )
        for result in results:
            result.meta.setdefault("backend", self.name)
        return results


register_backend(LatticeBackend())
