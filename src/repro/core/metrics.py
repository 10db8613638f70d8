"""Per-solve statistics collected by the FFT solvers.

Besides the work–span pair (handled by :class:`repro.parallel.WorkSpan`
composition), the experiment harness wants structural counters: how many
trapezoids were cut, how many FFT advances of what total size ran, how deep
the recursion went, how many cells the naive base cases touched.  These feed
the Table 2 scaling fits and the cache/energy models.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields


@dataclass
class SolveStats:
    """Mutable counters threaded through one solver invocation."""

    fft_calls: int = 0
    fft_points: int = 0  # total transform input points
    direct_calls: int = 0
    direct_points: int = 0
    spectrum_hits: int = 0  # engine advances that reused a cached kernel rFFT
    spectrum_misses: int = 0  # engine advances that had to transform the kernel
    trapezoids: int = 0
    base_cases: int = 0
    base_rows: int = 0
    cells_evaluated: int = 0
    max_depth: int = 0

    def note_advance(
        self, method: str, input_len: int, spectrum_hit: bool | None = None
    ) -> None:
        if method == "fft":
            self.fft_calls += 1
            self.fft_points += input_len
        elif method == "direct":
            self.direct_calls += 1
            self.direct_points += input_len
        # "copy" (h=0) is free
        if spectrum_hit is not None:
            if spectrum_hit:
                self.spectrum_hits += 1
            else:
                self.spectrum_misses += 1

    def note_depth(self, depth: int) -> None:
        if depth > self.max_depth:
            self.max_depth = depth

    def as_dict(self) -> dict:
        # Derived from the dataclass fields so a newly added counter can
        # never be silently missing from reports — field order is
        # declaration order, so the dict layout matches the class.
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class SolveReport:
    """Aggregated outcome shared by the fast solvers (attached to results)."""

    stats: SolveStats = field(default_factory=SolveStats)
    notes: list = field(default_factory=list)
