"""fft-bsm: the paper's cone/trapezoid solver for the American put (§4.3).

The explicit FD scheme of §4.2 evolves the strike-normalised put value
``v[n, k]`` on the dependency cone of the apex ``(n = T, k = 0)``.  The
*green* (exercise) zone is the left tail ``k <= f_n`` with closed-form value
``1 - e^{s_k}``; the *red* (continuation) zone is everything to the right,
updated by the 3-tap stencil.  Theorem 4.3: the divider ``f_n`` moves left by
at most one cell per time step.

:func:`solve_bsm_fft` makes a single call to the recursive region advance —
the tail-recursion chain it produces is exactly the trapezoid sequence of the
paper's Figure 4b, and each level's internal split (recursive strip around
the divider, FFT on the provably-red side, closed-form green fill) is the
decomposition of Figure 4a, with work recurrence
``zeta(l) = 2 zeta(l/2) + O(l log l) = O(l log^2 l)``.

Divider bookkeeping uses *exact-or-left-of-window* semantics: an advance over
window ``[k_lo..k_hi]`` returns ``(values on [k_lo+h .. k_hi-h], f')`` where
``f'`` is the exact global divider whenever ``f' >= k_lo + h``, and any value
``< k_lo + h`` means "every output cell is red; the divider lies left of the
window".  The composition rules in :meth:`_BSMSolver.advance` preserve these
semantics (see docs/DESIGN.md §2.4 for the case analysis).

Every solve is a generator driven by
:func:`~repro.core.lockstep.drive_lockstep`: it yields its linear jumps,
which the driver batches across solves, and runs its naive rows inline at
every batch width (docs/DESIGN.md §7.6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.core.boundary import BoundaryRecorder, scan_prefix_boundary
from repro.core.fftstencil import (
    DEFAULT_POLICY,
    AdvanceEngine,
    AdvancePolicy,
    engine_delta as _engine_delta,
    row_correlate,
)
from repro.core.lockstep import AdvanceRequest, drive_lockstep
from repro.core.metrics import SolveStats
from repro.options.params import BSMGridParams
from repro.parallel.workspan import WorkSpan, rows_cost
from repro.util.validation import check_integer

#: Base-case height for the BSM recursion (paper §4.3 uses 10).
DEFAULT_BSM_BASE = 10


@dataclass
class BSMFFTResult:
    """Outcome of one fft-bsm solve."""

    price: float
    steps: int
    workspan: WorkSpan
    stats: SolveStats
    boundary: Optional[BoundaryRecorder] = None
    meta: dict = field(default_factory=dict)


class _BSMSolver:
    """One fft-bsm solve's state; :meth:`advance` is a generator that
    yields :class:`~repro.core.lockstep.AdvanceRequest` for its linear
    jumps (docs/DESIGN.md §7) and runs its naive rows inline."""

    def __init__(
        self,
        params: BSMGridParams,
        base: int,
        recorder: Optional[BoundaryRecorder],
    ):
        self.p = params
        self.taps = tuple(params.taps)  # (coef_down, coef_mid, coef_up)
        self.base = base
        self.stats = SolveStats()
        self.rec = recorder
        # Per-solve payoff table: the cone only reaches k in [-T, T], so
        # one vectorised exp up front turns every payoff() call — one per
        # naive row — into a slice.  Bit-identical to the per-call formula.
        T = params.steps
        self._pay_tab = np.asarray(
            self.p.payoff(np.arange(-T, T + 1)), dtype=np.float64
        )
        self._tab_off = T
        self._taps_arr = np.asarray(self.taps, dtype=np.float64)

    def payoff(self, lo: int, hi: int) -> np.ndarray:
        """Signed green values ``1 - e^{s_k}`` for ``k = lo..hi`` (a view)."""
        if hi < lo:
            return np.empty(0, dtype=np.float64)
        return self._pay_tab[lo + self._tab_off : hi + self._tab_off + 1]

    def _record(self, row: int, f: int, window_lo: int) -> None:
        if self.rec is not None and f >= window_lo:
            self.rec.record(row, f)

    # ------------------------------------------------------------------ #
    def naive(self, values: np.ndarray, k_lo: int, f: int, h: int, n0: int):
        """``h`` max-rule rows over the shrinking cone window (base case).

        Returns ``(values, f, workspan)``.  Every row runs inline — one
        ``np.correlate``, one payoff slice, one divider scan — whatever
        batch the solve rides in (docs/DESIGN.md §7.6).
        """
        cur = values
        lo = k_lo
        ws = WorkSpan.ZERO
        stats = self.stats
        stats.base_cases += 1
        for step in range(1, h + 1):
            lo += 1
            width = len(cur) - 2
            cont = row_correlate(cur, self._taps_arr)
            pay = self.payoff(lo, lo + width - 1)
            f = lo + scan_prefix_boundary(pay >= cont)
            cur = np.maximum(cont, pay)
            stats.cells_evaluated += width
            stats.base_rows += 1
            ws = ws.then(rows_cost(1, width, 3))
            self._record(n0 + step, f, lo)
        return cur, f, ws

    # ------------------------------------------------------------------ #
    def advance(
        self,
        values: np.ndarray,
        k_lo: int,
        f: int,
        h: int,
        n0: int,
        depth: int = 0,
    ) -> tuple[np.ndarray, int, WorkSpan]:
        """Advance the window ``h`` rows; see module docstring for semantics.

        A generator: yields :class:`AdvanceRequest`, receives ``(values,
        record)``, returns the usual ``(values, f, workspan)`` triple.

        Precondition: ``len(values) >= 2h + 1``.
        """
        self.stats.note_depth(depth)
        k_hi = k_lo + len(values) - 1
        out_lo = k_lo + h

        if f < k_lo:
            # Every cell of every involved row is red: one linear jump.
            y, rec = yield AdvanceRequest(values, self.taps, h, 1.0)
            self.stats.note_advance(rec.method, rec.input_len, rec.spectrum_hit)
            return y, min(f, out_lo - 1), rec.workspan

        h1 = h // 2
        if h <= self.base or f + 2 * h1 > k_hi:
            # Base case, or the divider sits too close to the window's right
            # edge for a clean split (only reachable at tiny T or extreme
            # moneyness) — the naive sweep is exact for any configuration.
            return self.naive(values, k_lo, f, h, n0)

        self.stats.trapezoids += 1
        mid_lo, mid_hi = k_lo + h1, k_hi - h1

        # ---- strip around the divider (recursive; Fig 4a's sub-trapezoid) --
        sub_lo = max(k_lo, f - 2 * h1)
        sub_hi = f + 2 * h1  # <= k_hi by the split guard
        strip_vals, f_mid, ws_strip = yield from self.advance(
            values[sub_lo - k_lo : sub_hi - k_lo + 1],
            sub_lo,
            f,
            h1,
            n0,
            depth + 1,
        )
        strip_lo = sub_lo + h1  # first column strip_vals covers
        self._record(n0 + h1, f_mid, strip_lo)

        # ---- provably-red block: everything right of the 45° line from f --
        fft_lo = max(f + h1, mid_lo)  # == f + h1 given the guard
        xin = values[(fft_lo - h1) - k_lo : (mid_hi + h1) - k_lo + 1]
        y, rec = yield AdvanceRequest(xin, self.taps, h1, 1.0)
        self.stats.note_advance(rec.method, rec.input_len, rec.spectrum_hit)
        ws_fft = rec.workspan

        # ---- assemble the mid row on [mid_lo .. mid_hi] -------------------
        parts = []
        if f_mid >= mid_lo:
            parts.append(self.payoff(mid_lo, min(f_mid, mid_hi)))
        red_start = max(mid_lo, f_mid + 1)
        if red_start <= fft_lo - 1:
            parts.append(
                strip_vals[red_start - strip_lo : fft_lo - strip_lo]
            )
        parts.append(y)
        mid_vals = parts[0] if len(parts) == 1 else np.concatenate(parts)
        if len(mid_vals) != mid_hi - mid_lo + 1:
            raise AssertionError(
                f"mid-row assembly mismatch: {len(mid_vals)} cells for window "
                f"[{mid_lo}, {mid_hi}]"
            )
        ws_half = ws_fft.beside(ws_strip)

        # ---- remaining h - h1 rows: same problem from the mid row ---------
        out_vals, f_out, ws_rest = yield from self.advance(
            mid_vals, mid_lo, f_mid, h - h1, n0 + h1, depth + 1
        )
        return out_vals, f_out, ws_half.then(ws_rest)


def _bsm_solve_gen(
    params: BSMGridParams,
    base: int,
    recorder: Optional[BoundaryRecorder],
):
    """Generator body of one fft-bsm solve.

    Yields :class:`~repro.core.lockstep.AdvanceRequest` for every linear
    jump and returns the :class:`BSMFFTResult` (without the driver-supplied
    ``meta["engine"]`` delta) via ``StopIteration``.
    """
    T = params.steps
    solver = _BSMSolver(params, base, recorder)

    pay0 = solver.payoff(-T, T)
    vals = np.maximum(pay0, 0.0)
    f = -T + scan_prefix_boundary(pay0 >= 0.0)
    ws = rows_cost(1, 2 * T + 1, 1)
    solver.stats.cells_evaluated += 2 * T + 1
    if recorder is not None:
        recorder.record(0, f)

    # Fig 4b driver: trapezoids of geometrically decreasing height T/2, T/4,
    # ... up the cone, then a naive finish.  (A single full-height advance
    # would leave the divider adjacent to the one-cell output window and
    # degrade to the naive path; halving keeps the split guard satisfied.)
    k_lo = -T
    n0 = 0
    remaining = T
    while remaining > 0:
        if remaining <= 2 * base:
            vals, f, w = solver.naive(vals, k_lo, f, remaining, n0)
            ws = ws.then(w)
            k_lo += remaining
            n0 += remaining
            remaining = 0
            break
        h = remaining // 2
        vals, f, w = yield from solver.advance(vals, k_lo, f, h, n0)
        ws = ws.then(w)
        k_lo += h
        n0 += h
        remaining -= h
    out = vals
    if len(out) != 1:
        raise AssertionError(f"apex advance returned {len(out)} cells")

    return BSMFFTResult(
        price=float(params.spec.strike * out[0]),
        steps=T,
        workspan=ws,
        stats=solver.stats,
        boundary=recorder,
        meta={
            "model": "bsm-fd",
            "base": base,
            "params": params,
        },
    )


def solve_bsm_fft(
    params: BSMGridParams,
    *,
    base: int = DEFAULT_BSM_BASE,
    policy: AdvancePolicy = DEFAULT_POLICY,
    engine: Optional[AdvanceEngine] = None,
    record_boundary: bool = False,
) -> BSMFFTResult:
    """Price the American put of ``params.spec`` in ``O(T log^2 T)`` work.

    The answer is the apex value ``K * v[T, 0]`` of the dependency cone whose
    base is the initial condition ``v[0, k] = max(1 - e^{s_k}, 0)`` on
    ``k in [-T, T]`` (paper Fig 4b).  ``engine`` (default: fresh per solve)
    carries the kernel-spectrum plan cache; share one across solves with
    identical grid coefficients to amortise the kernel transforms further.
    """
    return solve_bsm_fft_batch(
        [params], base=base, policy=policy, engine=engine,
        record_boundary=record_boundary,
    )[0]


def solve_bsm_fft_batch(
    params_list: Sequence[BSMGridParams],
    *,
    base: int = DEFAULT_BSM_BASE,
    policy: AdvancePolicy = DEFAULT_POLICY,
    engine: Optional[AdvanceEngine] = None,
    record_boundary: bool = False,
) -> list[BSMFFTResult]:
    """Price B American puts with B *different* FD grids in lockstep.

    The multi-kernel sibling of
    :func:`~repro.core.tree_solver.solve_tree_fft_batch`: each grid runs
    its own cone recursion as a generator, and every round's outstanding
    linear jumps are serviced by one
    :meth:`~repro.core.fftstencil.AdvanceEngine.advance_batch` call; naive
    rows run inline in each solve.  Each result is bit-identical to
    ``solve_bsm_fft(params_list[i])``; ``meta["engine"]`` carries the
    batch-wide engine delta and ``meta["batched"]``/``meta["batch_size"]``
    the lockstep provenance.
    """
    base = check_integer("base", base, minimum=1)
    if engine is None:
        engine = AdvanceEngine(policy)
    engine_before = engine.cache_info()
    gens = [
        _bsm_solve_gen(
            params, base, BoundaryRecorder() if record_boundary else None
        )
        for params in params_list
    ]
    results: list[BSMFFTResult] = drive_lockstep(gens, engine)
    delta = _engine_delta(engine_before, engine.cache_info())
    for result in results:
        result.meta["engine"] = delta
        result.meta["batched"] = True
        result.meta["batch_size"] = len(results)
    return results
