"""Red–green divider utilities (paper §2.2, Appendix A.2, §4.2).

The correctness of the trapezoid decomposition rests on three structural
facts about the divider between the 'red' (continuation) and 'green'
(exercise) regions:

* contiguity — each time row is a red prefix followed by a green suffix
  (tree models; Corollary 2.7 / A.6) or a green prefix followed by a red
  suffix (BSM put; Theorem 4.3);
* monotone single-step movement — the divider moves by at most one cell per
  time step, and only towards the red side;
* closed-form green values — green cells never need storage.

This module provides the divider scan used by the solvers plus the invariant
checks the property-based tests (and the solvers' optional self-verification
mode) run against full vanilla sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np


def scan_prefix_boundary(mask: np.ndarray) -> int:
    """Largest index of the leading ``True`` prefix of ``mask`` (-1 if empty).

    The solvers classify cells red by ``continuation >= exercise`` and rely
    on the theoretical prefix structure; scanning for the *first* ``False``
    (rather than the last ``True``) makes the result well-defined even under
    floating-point noise exactly at the divider.
    """
    if mask.size == 0:
        return -1
    first_false = int(mask.argmin())
    if mask[first_false]:  # no False at all
        return mask.size - 1
    return first_false - 1


def is_prefix_mask(mask: np.ndarray) -> bool:
    """True when ``mask`` is of the form ``True^a False^b`` (contiguity)."""
    if mask.size == 0:
        return True
    # A prefix mask never increases: diff may only be -1 transitions.
    as_int = mask.astype(np.int8)
    return bool(np.all(np.diff(as_int) <= 0))


@dataclass
class BoundaryRecorder:
    """Sparse collection of exactly-known divider positions by time row.

    The FFT solvers learn the divider only at trapezoid interfaces and naive
    rows; the recorder keeps whatever is known.  ``as_array(T)`` expands to a
    dense array with ``fill`` where unknown.
    """

    points: Dict[int, int] = field(default_factory=dict)

    def record(self, row: int, boundary: int) -> None:
        self.points[int(row)] = int(boundary)

    def as_array(self, steps: int, fill: int = np.iinfo(np.int64).min) -> np.ndarray:
        out = np.full(steps + 1, fill, dtype=np.int64)
        for row, b in self.points.items():
            if 0 <= row <= steps:
                out[row] = b
        return out


@dataclass(frozen=True)
class BoundaryViolation:
    """A detected breach of the divider invariants (test diagnostics)."""

    row: int
    kind: str
    detail: str


def check_tree_boundary_invariants(
    boundary: np.ndarray, *, steps: int, columns_per_row: int
) -> list[BoundaryViolation]:
    """Validate Corollary 2.7 / A.6 on a dense divider array.

    ``boundary[i]`` = last red column of row ``i`` (-1 when all green);
    ``columns_per_row`` = q (1 binomial, 2 trinomial), so row ``i`` spans
    columns ``0..q*i``.  Checks, for ``i in [0, T-2]``:
    ``min(j_{i+1} - 1, q*i) <= j_i <= j_{i+1}`` — the paper's one-cell
    movement bound with the divider clamped to the row end when an entire
    row is red (for q=2 the row shrinks by two columns per backward step, so
    a fully-red region keeps the divider pinned at ``q*i``) — plus range
    sanity.  Returns all violations (empty list = invariants hold).
    """
    violations: list[BoundaryViolation] = []
    for i in range(steps + 1):
        j = int(boundary[i])
        if j < -1 or j > columns_per_row * i:
            violations.append(
                BoundaryViolation(i, "range", f"j_{i}={j} outside [-1, {columns_per_row * i}]")
            )
    for i in range(steps - 1):
        j_i, j_next = int(boundary[i]), int(boundary[i + 1])
        if j_i == -1 and j_next == -1:
            continue
        low = min(j_next - 1, columns_per_row * i)
        if not (low <= j_i <= j_next):
            violations.append(
                BoundaryViolation(
                    i,
                    "movement",
                    f"j_{i}={j_i} not in [min(j_{i + 1}-1, row_end), j_{i + 1}] = "
                    f"[{low}, {j_next}]",
                )
            )
    return violations


def check_bsm_boundary_invariants(
    boundary: np.ndarray, *, steps: int, missing: Optional[int] = None
) -> list[BoundaryViolation]:
    """Validate Theorem 4.3 on the BSM divider: ``0 <= k_n - k_{n+1} <= 1``.

    ``boundary[n]`` = largest green spatial index at time row ``n`` in
    absolute ``k`` units; entries equal to ``missing`` are skipped (rows
    where the cone no longer contains the green zone).
    """
    violations: list[BoundaryViolation] = []
    for n in range(steps):
        k_n, k_next = int(boundary[n]), int(boundary[n + 1])
        if missing is not None and (k_n == missing or k_next == missing):
            continue
        drop = k_n - k_next
        if not (0 <= drop <= 1):
            violations.append(
                BoundaryViolation(
                    n, "movement", f"k_{n}={k_n}, k_{n + 1}={k_next}: drop {drop} not in [0, 1]"
                )
            )
    return violations
