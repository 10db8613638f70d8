"""Fast European and Bermudan pricing by full-row FFT jumps.

The paper notes (§1, 'How Our Algorithms Differ…') that *European* pricing
lacks the ``max`` operator, making the doubly-nested loop a pure linear
stencil; with the [1] machinery that is a single ``O(T log T)`` jump from the
expiry row to the root.  *Bermudan* contracts — exercisable on a finite set
of dates, listed in the paper's future work (§6) — sit in between: the grid
is linear between consecutive exercise rows, so the sweep is a chain of FFT
jumps with one vectorised ``max`` per exercise date:
``O((k+1) · T log T)`` work for ``k`` exercise dates.  Each solve is a
generator whose jumps :func:`~repro.core.lockstep.drive_lockstep` batches
across contracts; the exercise-date max runs inline.

Unlike the American solvers these maintain *full* rows (the red–green
contiguity lemmas do not apply between exercise dates), so no divider
tracking is needed — the valid-mode advance shrinks row ``i+h`` (width
``q(i+h)+1``) to exactly row ``i`` (width ``qi+1``).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Union

import numpy as np

from repro.core.fftstencil import DEFAULT_POLICY, AdvanceEngine, AdvancePolicy
from repro.core.lockstep import AdvanceRequest, drive_lockstep
from repro.core.metrics import SolveStats
from repro.core.tree_solver import TreeFFTResult
from repro.options.params import BinomialParams, TrinomialParams
from repro.options.payoff import terminal_payoff
from repro.parallel.workspan import WorkSpan, rows_cost
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


def _bermudan_gen(params: TreeParams, rows: list[int]):
    """Generator body of one Bermudan/European jump-chain solve.

    Yields :class:`~repro.core.lockstep.AdvanceRequest` for the checkpoint
    jumps and applies each exercise date's vectorised max inline.
    """
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
            values, rec = yield AdvanceRequest(
                values, params.taps, h, spec.strike
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
    kernel spectra across a batch of same-parameter contracts (e.g. a strip
    of strikes).
    """
    return price_tree_bermudan_fft_batch(
        [params], [exercise_steps], policy=policy, engine=engine
    )[0]


def price_tree_bermudan_fft_batch(
    params_list: Sequence[TreeParams],
    exercise_steps: Union[Sequence[int], Sequence[Sequence[int]]] = (),
    *,
    policy: AdvancePolicy = DEFAULT_POLICY,
    engine: Optional[AdvanceEngine] = None,
) -> list[TreeFFTResult]:
    """Price B Bermudan/European tree contracts in lockstep.

    ``exercise_steps`` is either one schedule shared by every contract or a
    per-contract sequence of schedules (one entry per ``params_list``
    element).  Checkpoint jumps batch through
    :meth:`~repro.core.fftstencil.AdvanceEngine.advance_batch`; every
    result is bit-identical to its ``price_tree_bermudan_fft`` twin.
    """
    es = list(exercise_steps)
    if es and not isinstance(es[0], (int, np.integer)):
        if len(es) != len(params_list):
            raise ValidationError(
                "per-contract exercise_steps must match params_list length: "
                f"{len(es)} schedules for {len(params_list)} contracts"
            )
        schedules = [list(s) for s in es]
    else:
        schedules = [es] * len(params_list)
    if engine is None:
        engine = AdvanceEngine(policy)
    gens = [
        _bermudan_gen(params, _validated_rows(params.steps, sched))
        for params, sched in zip(params_list, schedules)
    ]
    results: list[TreeFFTResult] = drive_lockstep(gens, engine)
    for result in results:
        result.meta["batched"] = True
        result.meta["batch_size"] = len(results)
    return results
