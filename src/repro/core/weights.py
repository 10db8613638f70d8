"""h-step stencil weights (the kernel of Ahmad et al. [1]'s FFT algorithm).

Applying a linear ``(q+1)``-tap stencil ``y_c = sum_k s_k x_{c+k}`` for ``h``
consecutive time steps composes into a *single* correlation whose kernel is
the coefficient vector of the polynomial ``(s_0 + s_1 z + ... + s_q z^q)^h``
(length ``q*h + 1``).  This module computes that kernel three ways:

* :func:`binomial_weights` — exact log-space evaluation for 2-tap stencils
  (``C(h,k) s0^(h-k) s1^k`` via lgamma), stable for any practical ``h``;
* :func:`symbol_power_weights` — FFT of the taps, pointwise ``h``-th power,
  inverse FFT.  Works for any tap count; numerically stable whenever the taps
  are nonnegative with sum <= 1 (discounted transition weights / monotone
  explicit schemes), because the symbol then has modulus <= 1 on the unit
  circle so no spectral blow-up occurs;
* :func:`convolution_power_weights` — iterated ``np.convolve`` (O(q^2 h^2)),
  the brute-force oracle used by the tests.

:func:`hstep_weights` validates the taps and picks the best method.  It
caches nothing: the trapezoid decomposition requests the same heights
repeatedly at each recursion level, and each
:class:`~repro.core.fftstencil.AdvanceEngine` caches the kernels it uses.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from scipy import fft as sfft

from repro.util.logconv import binomial_pmf_weights
from repro.util.validation import ValidationError, check_integer

#: Tap vectors whose entries are nonnegative and sum to at most this are
#: treated as 'substochastic' — the regime where the symbol-power method is
#: provably stable.  Slightly above 1 to tolerate rounding in user inputs.
_SUBSTOCHASTIC_TOL = 1.0 + 1e-9


def _as_taps(taps: Sequence[float]) -> tuple[float, ...]:
    t = tuple(float(v) for v in taps)
    if len(t) < 2:
        raise ValidationError(f"need at least 2 taps, got {len(t)}")
    for v in t:
        if not math.isfinite(v):
            raise ValidationError(f"taps must be finite, got {taps!r}")
    return t


def binomial_weights(s0: float, s1: float, h: int) -> np.ndarray:
    """Exact 2-tap kernel ``w_k = C(h,k) s0^(h-k) s1^k``, ``k = 0..h``.

    Requires strictly positive taps (log space); zero taps degenerate to a
    shifted identity handled by the caller.
    """
    h = check_integer("h", h, minimum=0)
    if h == 0:
        return np.ones(1)
    if s0 <= 0.0 or s1 <= 0.0:
        raise ValidationError("binomial_weights requires s0, s1 > 0")
    return binomial_pmf_weights(h, math.log(s0), math.log(s1))


def symbol_power_weights(taps: Sequence[float], h: int) -> np.ndarray:
    """Kernel of ``(sum_k s_k z^k)^h`` via FFT symbol power.

    Pads the taps to a fast transform length >= ``q*h + 1``, transforms,
    raises pointwise to the ``h``-th power and inverts.  Tiny negative
    round-off values are clipped to zero when the taps are nonnegative (the
    true kernel is then a nonnegative measure).
    """
    taps = _as_taps(taps)
    h = check_integer("h", h, minimum=0)
    if h == 0:
        return np.ones(1)
    q = len(taps) - 1
    out_len = q * h + 1
    n = sfft.next_fast_len(out_len)
    spectrum = sfft.rfft(np.asarray(taps, dtype=np.float64), n=n)
    powered = spectrum**h
    w = sfft.irfft(powered, n=n)[:out_len]
    if all(v >= 0.0 for v in taps):
        np.maximum(w, 0.0, out=w)
    return w


def convolution_power_weights(taps: Sequence[float], h: int) -> np.ndarray:
    """Brute-force kernel by repeated convolution — O(q^2 h^2) test oracle."""
    taps = _as_taps(taps)
    h = check_integer("h", h, minimum=0)
    w = np.ones(1)
    base = np.asarray(taps, dtype=np.float64)
    for _ in range(h):
        w = np.convolve(w, base)
    return w


def hstep_weights(taps: Sequence[float], h: int) -> np.ndarray:
    """The ``h``-step kernel for ``taps``, as a fresh array.

    Nonnegative substochastic taps are required — that is exactly the class
    arising from discounted risk-neutral lattices and monotone explicit FD
    schemes (paper §2.1/§3/§4.2), and it is the regime where both the exact
    binomial and the symbol-power evaluations are stable.
    """
    taps = _as_taps(taps)
    h = check_integer("h", h, minimum=0)
    total = sum(taps)
    if any(v < 0.0 for v in taps) or total > _SUBSTOCHASTIC_TOL:
        raise ValidationError(
            f"taps must be nonnegative with sum <= 1 (got sum {total:.6g}); "
            "this solver targets discounted transition weights"
        )
    if len(taps) == 2 and taps[0] > 0.0 and taps[1] > 0.0:
        return binomial_weights(taps[0], taps[1], h)
    return symbol_power_weights(taps, h)


def weights_checksum(taps: Sequence[float], h: int) -> float:
    """``sum(kernel) = (sum(taps))^h`` — identity the tests verify."""
    return float(sum(_as_taps(taps))) ** h
