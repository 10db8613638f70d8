"""fft-bopm / fft-topm: the paper's trapezoid-decomposition solvers (§2.3, §3).

American *call* pricing on binomial (2-tap, q=1) and trinomial (3-tap, q=2)
lattices with ``O(T)`` span.  The algorithm exploits the red–green divider
structure (Corollary 2.7 / A.6):

* every row is a red prefix ``[0..j_i]`` (continuation) followed by a green
  suffix (exercise, closed form ``S u^{...} - K``);
* the divider moves left by at most one column per backward step.

State is only the red prefix of the current row plus its exact divider.  The
driver repeatedly cuts a trapezoid whose height matches the current red
count (divided by q — the dependency cone widens by q columns per step while
the divider moves by at most one), solves it with
:func:`_TreeSolver.solve_trapezoid`, and finishes the leftover
``O(sqrt(T))``-row triangle naively, exactly as in the paper's Figure 3a.

``solve_trapezoid(i_top, c0, vals, j_top, ell)``::

    1. h = ell // 2.  One h-step FFT advance covers the mid-row columns
       [c0 .. hi_fft], hi_fft = min(j_top + q - 1, row_end(i_top)) - q*h,
       which are *provably red*: the dependency cone of such a column stays
       left of the worst-case divider trajectory j_top - d at every
       intermediate row (only base-row reads may touch up to q-1 green
       cells, whose values are closed-form).
    2. A recursive sub-trapezoid of height h over the last q*h red cells
       resolves the strip between hi_fft and the true mid divider j_mid.
       Where continuation and exercise tie to float noise (deep-ITM dual
       calls with zero dividend), the first-False divider scan can move
       more than one column per row and land j_mid left of hi_fft; the
       block is then not provably red, and the whole trapezoid descends
       naively instead.
    3. The remaining h2 = ell - h rows are the same problem from the mid row
       — solved by a tail-recursive trapezoid call on the window's *full*
       width w, not on the ~q*ell cells the divider can reach.
    4. Heights <= ``base`` (paper's empirical optimum: 8) descend naively.

Work.  The paper's two-FFT + two-recursive-call structure gives
zeta(ell) = 2 zeta(ell/2) + O(ell log ell) = O(T log^2 T).  Step 3 keeps
the width, so this code runs zeta(ell, w) = zeta(ell/2, q*ell/2) +
zeta(ell/2, w) + O(w log w): one trapezoid pays log ell FFTs over its whole
width, Theta(T log^3 T) per solve (work / (T log^3 T) measures flat at
0.61–0.73 over T = 512 … 32768).  Peeling the far block off in one advance
and recursing only next to the divider restores the paper's bound
(ROADMAP item 6).

Puts are *not* handled here: their divider is mirrored.  Use
:func:`repro.core.api.price_american`, which solves a put as its dual call
(exact put–call symmetry, :mod:`repro.core.symmetry`), or the vanilla
solvers.

A solve is plain recursive code: every linear advance is one
:meth:`~repro.core.fftstencil.AdvanceEngine.advance` call on the solve's
engine, and the naive base rows run inline (docs/DESIGN.md §7).
"""

from __future__ import annotations

import math as _math
from dataclasses import dataclass, field
from math import isqrt
from typing import Optional, Union

import numpy as np

from repro.core.boundary import BoundaryRecorder, scan_prefix_boundary
from repro.core.fftstencil import (
    DEFAULT_POLICY,
    AdvanceEngine,
    AdvancePolicy,
    engine_delta as _engine_delta,
    row_correlate,
)
from repro.core.metrics import SolveStats
from repro.options.contract import Right, Style
from repro.options.params import BinomialParams, TrinomialParams
from repro.parallel.workspan import WorkSpan, rows_cost
from repro.util.validation import ValidationError, check_integer

TreeParams = Union[BinomialParams, TrinomialParams]

#: The paper's empirically-best recursion base-case height (§5.1).
DEFAULT_BASE = 8


@dataclass
class TreeFFTResult:
    """Outcome of one fft-bopm / fft-topm solve."""

    price: float
    steps: int
    workspan: WorkSpan
    stats: SolveStats
    boundary: Optional[BoundaryRecorder] = None
    meta: dict = field(default_factory=dict)


class _TreeSolver:
    """One solve's worth of state for the trapezoid decomposition; every
    linear advance runs on ``engine``."""

    def __init__(
        self,
        params: TreeParams,
        base: int,
        recorder: Optional[BoundaryRecorder],
        engine: AdvanceEngine,
    ):
        self.p = params
        self.taps = tuple(params.taps)
        self.q = len(self.taps) - 1
        self.base = base
        self.stats = SolveStats()
        self.rec = recorder
        self.engine = engine
        self.scale = params.spec.strike
        # Inlined green-value constants: green(i, j) = S * u^(alpha*j - i) - K
        # with alpha = 2 (binomial, price S u^{2j-i}) or 1 (trinomial,
        # S u^{j-i}).  The naive strips evaluate green once per row; going
        # through params.exercise_value would pay a 3-deep call chain per row.
        self._log_u = _math.log(params.up)
        self._spot = params.spec.spot
        self._strike = params.spec.strike
        self._alpha = 2.0 if self.q == 1 else 1.0
        # Per-solve green-value table: the exponent alpha*j - i only ever
        # takes values in [-T, T], so one vectorised exp up front turns
        # every green() call — the naive strips evaluate one per row — into
        # a strided slice.  Bit-identical to the per-call formula: exp sees
        # the same exact float inputs either way.
        T = params.steps
        e = np.arange(-T, T + 1, dtype=np.float64)
        self._green_tab = self._spot * np.exp(e * self._log_u) - self._strike
        self._tab_off = T
        self._alpha_i = 2 if self.q == 1 else 1
        self._taps_arr = np.asarray(self.taps, dtype=np.float64)

    # ------------------------------------------------------------------ #
    # Grid helpers
    # ------------------------------------------------------------------ #
    def row_end(self, i: int) -> int:
        """Last valid column of row ``i``."""
        return self.q * i

    def green(self, i: int, lo: int, hi: int) -> np.ndarray:
        """Signed exercise values for columns ``lo..hi`` of row ``i``.

        Equal to ``params.exercise_value(i, arange(lo, hi+1))`` (the tests
        assert this), served as a strided view of the per-solve table.
        """
        if hi < lo:
            return np.empty(0, dtype=np.float64)
        a = self._alpha_i
        start = a * lo - i + self._tab_off
        return self._green_tab[start : a * hi - i + self._tab_off + 1 : a]

    def _record(self, row: int, jb: int, c0: int) -> None:
        # jb is the *global* divider only when it fell inside the window.
        if self.rec is not None and jb >= c0:
            self.rec.record(row, jb)

    # ------------------------------------------------------------------ #
    # Naive base case
    # ------------------------------------------------------------------ #
    def naive_descend(
        self, i_top: int, c0: int, vals: np.ndarray, j_top: int, ell: int
    ):
        """Descend ``ell`` rows with the max rule on the window ``[c0..j]``.

        Returns the red values on ``[c0..j_bot]`` of row ``i_top - ell``,
        the divider ``j_bot`` (``c0 - 1`` when no red cell remains at or
        right of ``c0``) and the descent's work/span.  Every row runs
        inline: one ``np.correlate``, one green slice, one divider scan.
        """
        q = self.q
        rec = self.rec
        cur = vals
        jb = j_top
        work = 0.0
        span = 0.0
        base_rows = 0
        cells = 0
        stats = self.stats
        stats.base_cases += 1
        log2 = _math.log2
        row_w = 2.0 * (q + 1)
        for step in range(1, ell + 1):
            i_new = i_top - step
            re_new = q * i_new  # row_end inlined: ~ell attribute+call pairs saved
            hi_cand = jb if jb < re_new else re_new
            if hi_cand < c0:
                # divider left the window; every lower row is green in [c0..]
                stats.base_rows += base_rows + ell - step + 1
                stats.cells_evaluated += cells
                return np.empty(0, dtype=np.float64), c0 - 1, WorkSpan(work, span)
            ext_hi = hi_cand + q  # <= row_end(i_new + 1) always
            n_cand = hi_cand - c0 + 1
            if ext_hi > jb:
                x = np.concatenate([cur, self.green(i_new + 1, jb + 1, ext_hi)])
            else:
                x = cur[: ext_hi - c0 + 1]
            cont = row_correlate(x, self._taps_arr)
            grn = self.green(i_new, c0, hi_cand)
            jb = c0 + scan_prefix_boundary(cont >= grn)
            cur = cont[: jb - c0 + 1]
            cells += n_cand
            base_rows += 1
            # inline rows_cost(1, n_cand, q+1): work n*(2 taps+2), span log2(n)+1
            work += n_cand * row_w
            span += log2(n_cand + 2.0) + 1.0
            if rec is not None and jb >= c0:
                rec.record(i_new, jb)
        stats.base_rows += base_rows
        stats.cells_evaluated += cells
        return cur, jb, WorkSpan(work, span)

    # ------------------------------------------------------------------ #
    # Trapezoid recursion
    # ------------------------------------------------------------------ #
    def solve_trapezoid(
        self,
        i_top: int,
        c0: int,
        vals: np.ndarray,
        j_top: int,
        ell: int,
        depth: int = 0,
    ) -> tuple[np.ndarray, int, WorkSpan]:
        """Solve a trapezoid of height ``ell`` (see module docstring);
        returns ``(vals, j_bot, workspan)``.

        Preconditions (maintained by the driver and recursion):
        ``vals`` covers exactly the red columns ``[c0..j_top]`` of row
        ``i_top``; cell ``(i_top, j_top+1)`` is green or off-row;
        ``j_top - c0 + 1 >= q*ell`` and ``1 <= ell <= i_top``.
        """
        self.stats.trapezoids += 1
        self.stats.note_depth(depth)
        q = self.q
        if ell <= self.base or j_top - c0 + 1 < q * ell:
            # Second condition is defensive: float noise at the divider could
            # in principle hand us one red cell fewer than the theory
            # guarantees; the naive sweep is exact for any configuration.
            return self.naive_descend(i_top, c0, vals, j_top, ell)
        h = ell // 2
        i_mid = i_top - h

        # -------- 1. FFT over the provably-red block -------------------- #
        ext_hi = min(j_top + q - 1, self.row_end(i_top))
        hi_fft = ext_hi - q * h  # provably red through every intermediate row
        if ext_hi > j_top:
            x = np.concatenate([vals, self.green(i_top, j_top + 1, ext_hi)])
        else:
            x = vals
        y_fft, rec = self.engine.advance(x, self.taps, h, scale=self.scale)
        self.stats.note_advance(rec.method, rec.input_len, rec.spectrum_hit)
        ws_fft = rec.workspan
        # y_fft covers columns [c0 .. hi_fft] of row i_mid.

        # -------- 2. strip next to the divider (recursive) --------------- #
        if hi_fft >= self.row_end(i_mid):
            # whole mid row is red; no strip to resolve (e.g. Y=0 regime)
            j_mid = self.row_end(i_mid)
            mid_vals = y_fft[: j_mid - c0 + 1]
            ws_half = ws_fft
            self._record(i_mid, j_mid, c0)
        else:
            c0_sub = j_top - q * h + 1
            sub_vals, j_mid, ws_sub = self.solve_trapezoid(
                i_top, c0_sub, vals[c0_sub - c0 :], j_top, h, depth + 1
            )
            if j_mid < hi_fft:
                # a float-noise tie moved the divider into the FFT block,
                # which is then not provably red (module docstring, step 2)
                out_vals, j_bot, ws_naive = self.naive_descend(
                    i_top, c0, vals, j_top, ell
                )
                return out_vals, j_bot, ws_fft.beside(ws_sub).then(ws_naive)
            # merge FFT block [c0..hi_fft] with strip (hi_fft..j_mid].
            mid_vals = np.concatenate(
                [y_fft, sub_vals[hi_fft + 1 - c0_sub :]]
            )
            ws_half = ws_fft.beside(ws_sub)
            self._record(i_mid, j_mid, c0)

        # -------- 3. remaining ell - h rows: same problem from mid row --- #
        h2 = ell - h
        out_vals, j_bot, ws_rest = self.solve_trapezoid(
            i_mid, c0, mid_vals, j_mid, h2, depth + 1
        )
        return out_vals, j_bot, ws_half.then(ws_rest)


def _validate_tree_solve(params: TreeParams) -> None:
    if params.spec.right is not Right.CALL:
        raise ValidationError(
            "solve_tree_fft prices calls; price puts through price_american "
            "(exact put-call symmetry) or a vanilla solver"
        )
    if params.spec.style is not Style.AMERICAN:
        raise ValidationError(
            "solve_tree_fft handles American exercise; use "
            "repro.core.bermudan for European/Bermudan contracts"
        )


def solve_tree_fft(
    params: TreeParams,
    *,
    base: int = DEFAULT_BASE,
    tail: Optional[int] = None,
    policy: AdvancePolicy = DEFAULT_POLICY,
    engine: Optional[AdvanceEngine] = None,
    record_boundary: bool = False,
) -> TreeFFTResult:
    """Price an American call on a tree lattice (see module docstring).

    Parameters
    ----------
    params:
        :class:`BinomialParams` (fft-bopm) or :class:`TrinomialParams`
        (fft-topm); must describe a *call* (see module docstring for puts).
    base:
        Recursion base-case height (paper: 8 is empirically best; the
        ablation benchmark sweeps this).
    tail:
        Switch to the naive sweep when this many rows remain; default
        ``max(base, isqrt(T))`` — the paper's leftover-sqrt(T)-triangle rule,
        keeping the naive tail at O(T) work.
    policy:
        FFT-vs-direct robustness policy for the linear advances (ignored
        when ``engine`` is supplied — the engine carries its own).
    engine:
        Plan-caching :class:`~repro.core.fftstencil.AdvanceEngine` to run
        the linear advances on.  Default: a fresh engine per solve.  Pass a
        shared engine to amortise kernel spectra across solves with
        identical lattice parameters (see ``price_many``);
        ``meta["engine"]`` reports this solve's own counter delta.
    record_boundary:
        Collect the divider positions the algorithm learns exactly
        (trapezoid interfaces + naive rows) into a
        :class:`~repro.core.boundary.BoundaryRecorder`.
    """
    _validate_tree_solve(params)
    base = check_integer("base", base, minimum=1)
    if tail is None:
        tail = max(base, isqrt(params.steps))
    else:
        tail = check_integer("tail", tail, minimum=1)
    if engine is None:
        engine = AdvanceEngine(policy)
    engine_before = engine.cache_info()
    recorder = BoundaryRecorder() if record_boundary else None
    solver = _TreeSolver(params, base, recorder, engine)
    q = solver.q
    T = params.steps

    # Expiry row: G = max(0, green); red cells are where green <= 0.
    greens_T = solver.green(T, 0, solver.row_end(T))
    jb = scan_prefix_boundary(greens_T <= 0.0)
    ws = rows_cost(1, solver.row_end(T) + 1, 1)
    solver.stats.cells_evaluated += solver.row_end(T) + 1
    if recorder is not None:
        recorder.record(T, jb)

    # Row T-1 is computed naively over the FULL row.  Corollary 2.7's
    # "divider never moves right" bound only covers i <= T-2: between the
    # expiry row (where 'red' means the artificial continuation value 0) and
    # row T-1 the divider may jump arbitrarily far right — with Y=0 row T-1
    # is entirely red while row T's red prefix is only the out-of-the-money
    # leaves.  One full O(T) row restores the two-sided movement invariant
    # that the trapezoid machinery needs.  (The drop-by-at-most-one bound
    # does hold from row T, so the FFT cone argument is unaffected.)
    full_t = np.maximum(greens_T, 0.0)
    i = T - 1
    width = solver.row_end(i) + 1
    cont = row_correlate(full_t, solver._taps_arr)
    grn = solver.green(i, 0, solver.row_end(i))
    jb = scan_prefix_boundary(cont >= grn)
    vals = cont[: jb + 1]
    ws = ws.then(rows_cost(1, width, q + 1))
    solver.stats.cells_evaluated += width
    if recorder is not None:
        recorder.record(i, jb)
    price: Optional[float] = None
    while i > 0:
        if jb < 0:
            # Whole row green => everything below is green (Lemma 2.4).
            price = float(solver.green(0, 0, 0)[0])
            break
        red_count = jb + 1
        ell = min(red_count // q, i)
        if i <= tail or ell <= base:
            step_rows = i if i <= tail else min(base, i)
            vals, jb, w = solver.naive_descend(i, 0, vals, jb, step_rows)
            i -= step_rows
        else:
            vals, jb, w = solver.solve_trapezoid(i, 0, vals, jb, ell)
            i -= ell
            if recorder is not None and jb >= 0:
                recorder.record(i, jb)
        ws = ws.then(w)

    if price is None:
        price = float(vals[0]) if jb >= 0 else float(solver.green(0, 0, 0)[0])

    return TreeFFTResult(
        price=price,
        steps=T,
        workspan=ws,
        stats=solver.stats,
        boundary=recorder,
        meta={
            "model": "binomial" if q == 1 else "trinomial",
            "base": base,
            "tail": tail,
            "params": params,
            "engine": _engine_delta(engine_before, engine.cache_info()),
        },
    )

