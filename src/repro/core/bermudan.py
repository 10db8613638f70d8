"""Fast European and Bermudan pricing by full-row FFT jumps.

The paper notes (§1, 'How Our Algorithms Differ…') that *European* pricing
lacks the ``max`` operator, making the doubly-nested loop a pure linear
stencil; with the [1] machinery that is a single ``O(T log T)`` jump from the
expiry row to the root.  *Bermudan* contracts — exercisable on a finite set
of dates, listed in the paper's future work (§6) — sit in between: the grid
is linear between consecutive exercise rows, so the sweep is a chain of FFT
jumps with one vectorised ``max`` per exercise date:
``O((k+1) · T log T)`` work for ``k`` exercise dates.  Each jump is one
:meth:`~repro.core.fftstencil.AdvanceEngine.advance` call; the
exercise-date max runs inline.  A European contract is the no-date case:
one jump from the expiry row to the root.

Unlike the American solvers these maintain *full* rows (the red–green
contiguity lemmas do not apply between exercise dates), so no divider
tracking is needed — the valid-mode advance shrinks row ``i+h`` (width
``q(i+h)+1``) to exactly row ``i`` (width ``qi+1``).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Union

import numpy as np

from repro.core.fftstencil import DEFAULT_POLICY, AdvanceEngine, AdvancePolicy
from repro.core.metrics import SolveStats
from repro.core.tree_solver import TreeFFTResult
from repro.options.params import BinomialParams, TrinomialParams
from repro.options.payoff import terminal_payoff
from repro.parallel.workspan import rows_cost
from repro.util.validation import ValidationError, check_integer

TreeParams = Union[BinomialParams, TrinomialParams]


def _validated_rows(steps: int, exercise_steps: Iterable[int]) -> list[int]:
    rows = sorted({check_integer("exercise step", e, minimum=0) for e in exercise_steps})
    if rows and rows[-1] > steps:
        raise ValidationError(
            f"exercise step {rows[-1]} exceeds number of steps {steps}"
        )
    return [r for r in rows if r < steps]  # expiry is always a payoff row


def _checkpoints(rows: Sequence[int]) -> list[int]:
    checkpoints = list(reversed(rows))
    if not checkpoints or checkpoints[-1] != 0:
        checkpoints.append(0)  # always finish the jump chain at the root
    return checkpoints


def price_tree_bermudan_fft(
    params: TreeParams,
    exercise_steps: Sequence[int] = (),
    *,
    policy: AdvancePolicy = DEFAULT_POLICY,
    engine: Optional[AdvanceEngine] = None,
) -> TreeFFTResult:
    """Bermudan (or, with no exercise steps, European) tree pricing via FFT.

    Works for calls and puts — without the American free boundary there is
    no divider orientation to respect.  Pass a shared ``engine`` to reuse
    kernel spectra across same-parameter contracts (e.g. a strip of
    strikes).
    """
    rows = _validated_rows(params.steps, exercise_steps)
    if engine is None:
        engine = AdvanceEngine(policy)
    T = params.steps
    spec = params.spec
    q = len(params.taps) - 1
    stats = SolveStats()

    j = np.arange(q * T + 1, dtype=np.float64)
    values = terminal_payoff(spec, params.asset_price(T, j))
    ws = rows_cost(1, q * T + 1, 1)
    stats.cells_evaluated += q * T + 1

    current = T
    exercise_rows = set(rows)
    for row in _checkpoints(rows):
        h = current - row
        if h > 0:
            values, rec = engine.advance(
                values, params.taps, h, scale=spec.strike
            )
            stats.note_advance(rec.method, rec.input_len, rec.spectrum_hit)
            ws = ws.then(rec.workspan)
            current = row
        if row in exercise_rows:
            exer = np.asarray(
                params.exercise_value(row, np.arange(q * row + 1)), dtype=np.float64
            )
            np.maximum(values, exer, out=values)
            ws = ws.then(rows_cost(1, q * row + 1, 1))
            stats.cells_evaluated += q * row + 1

    return TreeFFTResult(
        price=float(values[0]),
        steps=T,
        workspan=ws,
        stats=stats,
        boundary=None,
        meta={
            "model": "binomial" if q == 1 else "trinomial",
            "style": "european" if not rows else "bermudan",
            "exercise_rows": rows,
            "params": params,
        },
    )

