"""American put pricing through exact put–call symmetry.

The fast tree solvers (:mod:`repro.core.tree_solver`) price American *calls*
— the orientation whose red–green divider the paper analyses.  American
*puts* are handled by the McDonald–Schroder symmetry

    ``P(S, K, R, Y, T) = C(K, S, Y, R, T)``

which is **exact** on a CRR lattice with ``u·d = 1``: writing the put value at
node ``(i, j)`` as ``P_{i,j}`` and the dual call's value at the mirrored node
as ``C'_{i,i-j}``, one checks ``C'_{i,i-j} = P_{i,j} / u^{2j-i}`` by backward
induction, because the dual lattice shares the same ``u`` (volatility is
unchanged) and its discounted weights satisfy ``s1'·u = s0`` and
``s0'/u = s1`` identically (both equal ``(u e^{-R dt} - e^{-Y dt})/(u - d)``
and ``(e^{-Y dt} - d e^{-R dt})/(u - d)`` respectively).  At the root the
factor is ``u^0 = 1``, so the prices agree exactly — the test suite verifies
this to machine precision against the vanilla put sweep.

This realises one of the paper's "future work" items (§6: other option
types) without any new boundary theory: the dual call's divider is exactly
the mirrored put divider.
"""

from __future__ import annotations

from repro.options.contract import OptionSpec, Right, Style


def canonicalize_right(
    spec: OptionSpec, model: str, method: str = "fft"
) -> "tuple[OptionSpec, bool]":
    """Reduce a contract to the solver-preferred right: ``(spec', dualized)``.

    ``fft`` puts map to their McDonald–Schroder dual call wherever the fold
    matches what :func:`repro.core.api.price_american` itself would solve:

    * binomial ``fft``, both exercise styles — exact on the CRR lattice;
      the backward-induction argument in the module docstring never uses
      the exercise ``max``, only the weight identities, so it applies
      row-by-row to either style (the test suite checks both to ~1e-13);
    * *American* trinomial ``fft`` — the lattice prices that put through
      the dual lattice anyway, so the fold changes nothing but the cache
      key (measured ~8e-15 at T=1024).

    Everything else keeps its orientation:

    * *European* trinomial puts are priced natively, and the trinomial
      weights satisfy the dual identity only to discretisation order
      (measured drift ~2.5e-12 relative at T=257, ~3.8e-10 at T=1024), so
      folding them would break the cache's exactness contract;
    * non-``fft`` puts — the loop solvers price puts natively and record
      the *put's own* divider, which a dual fold would silently replace
      with the mirrored dual-call divider;
    * bsm-fd — that model prices puts directly.

    The one copy of the fold decision: the lattice dispatcher
    (:mod:`repro.core.api`) prices American ``fft`` tree puts through it,
    and the quote service (:mod:`repro.service.canonical`) folds put and
    call traffic onto one canonical key with it.
    """
    if spec.right is not Right.PUT or method != "fft":
        return spec, False
    if model == "binomial" or (
        model == "trinomial" and spec.style is Style.AMERICAN
    ):
        return spec.symmetric_dual(), True
    return spec, False
