"""Scenario grids: structured bump sets over option contracts.

A *scenario grid* is the unit of work a risk system reprices: a set of
contracts crossed with market-data shocks — spot ladders, vol surfaces,
rate shifts, expiry roll-downs — around the current market state.  The
early-exercise surface moves under every one of those shocks (cf. the
exercise-surface approximation literature in PAPERS.md), so each cell is a
full American solve; the grid abstraction exists so
:class:`repro.risk.engine.ScenarioEngine` can fan the solves out across
workers while keeping a deterministic cell order.

Bump conventions (mirroring :mod:`repro.options.greeks`):

* ``spot_bumps`` / ``vol_bumps`` — *relative*: ``S*(1+b)``, ``V*(1+b)``.
* ``rate_bumps`` — *absolute* additive shifts ``R+b``, clamped at 0 (rates
  are validated non-negative); the applied value is recorded in the cell
  label so a clamped cell is still identifiable.
* ``expiry_bumps`` — additive day shifts ``E+b``; shifts that would drive
  the expiry non-positive are rejected at construction time.

Every cell keeps the bump coordinates that produced it (``labels``), so
results can be reshaped into ladders/surfaces downstream.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Optional, Sequence, Union

from repro.options.contract import OptionSpec
from repro.util.validation import ValidationError


@dataclass(frozen=True)
class ScenarioCell:
    """One grid cell: a fully-bumped contract plus its grid coordinates.

    ``index`` is the cell's position in the grid's deterministic flat order;
    ``labels`` maps axis name -> the bump that produced this cell (e.g.
    ``{"spec": 0, "spot": -0.05, "vol": 0.0, "rate": 0.0, "expiry": 0.0}``
    for cartesian grids, ``{"spec": i}`` for explicit ones).

    ``backend`` optionally names the :class:`~repro.core.backend.PricerBackend`
    this cell should be solved on (``"lattice"``, ``"spectral"``, …), so one
    grid can mix exact and fast-approximate cells — e.g. exact center,
    spectral stress wings.  ``None`` prices on the exact ``"lattice"``.
    """

    index: int
    spec: OptionSpec
    labels: Mapping[str, object] = field(default_factory=dict)
    backend: Optional[str] = None


@dataclass(frozen=True)
class ScenarioGrid:
    """An ordered, immutable collection of :class:`ScenarioCell`.

    Build with :meth:`cartesian` (cross product of bump axes over base
    contracts) or :meth:`explicit` (a pre-built list of contracts).  The
    flat cell order is the construction order and is the order every
    engine backend returns results in.
    """

    cells: tuple[ScenarioCell, ...]
    #: (n_specs, n_spot, n_vol, n_rate, n_expiry) for cartesian grids;
    #: (n_cells,) for explicit ones.
    shape: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not self.cells:
            raise ValidationError("a ScenarioGrid needs at least one cell")
        for pos, cell in enumerate(self.cells):
            if cell.index != pos:
                raise ValidationError(
                    f"cell at position {pos} carries index {cell.index}; "
                    "cell indices must match flat grid order"
                )

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self) -> Iterator[ScenarioCell]:
        return iter(self.cells)

    @property
    def specs(self) -> list[OptionSpec]:
        """The bumped contracts in flat grid order."""
        return [c.spec for c in self.cells]

    @property
    def backends(self) -> list[Optional[str]]:
        """Per-cell pricer-backend names in flat grid order (``None`` =
        the exact ``"lattice"``)."""
        return [c.backend for c in self.cells]

    def with_backends(
        self,
        backends: Union[
            Optional[str],
            Sequence[Optional[str]],
            Callable[[ScenarioCell], Optional[str]],
        ],
    ) -> "ScenarioGrid":
        """A copy of this grid with per-cell pricer backends assigned.

        ``backends`` may be one name for every cell, a per-cell sequence in
        flat grid order, or a callable ``cell -> name`` (e.g. route far
        out-of-the-money stress wings to ``"spectral"`` while the exact
        ``"lattice"`` prices the center).  ``None`` entries price on the
        lattice.
        """
        if callable(backends):
            assigned = [backends(c) for c in self.cells]
        elif backends is None or isinstance(backends, str):
            assigned = [backends] * len(self.cells)
        else:
            assigned = list(backends)
            if len(assigned) != len(self.cells):
                raise ValidationError(
                    f"with_backends got {len(assigned)} names for "
                    f"{len(self.cells)} cells"
                )
        for name in assigned:
            if name is not None and not isinstance(name, str):
                raise ValidationError(
                    "per-cell backends must be registry names (str) or None"
                )
        cells = tuple(
            dataclasses.replace(c, backend=b)
            for c, b in zip(self.cells, assigned)
        )
        return dataclasses.replace(self, cells=cells)

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def explicit(cls, specs: Sequence[OptionSpec]) -> "ScenarioGrid":
        """Grid over an explicit contract list (flat shape, spec-index labels)."""
        cells = tuple(
            ScenarioCell(index=i, spec=s, labels={"spec": i})
            for i, s in enumerate(specs)
        )
        return cls(cells=cells, shape=(len(cells),))

    @classmethod
    def cartesian(
        cls,
        specs: OptionSpec | Sequence[OptionSpec],
        *,
        spot_bumps: Sequence[float] = (0.0,),
        vol_bumps: Sequence[float] = (0.0,),
        rate_bumps: Sequence[float] = (0.0,),
        expiry_bumps: Sequence[float] = (0.0,),
        vols: object = None,
    ) -> "ScenarioGrid":
        """Cross product ``specs x spot x vol x rate x expiry``.

        Axis order (specs outermost, expiry innermost) fixes the flat cell
        order; ``shape`` records the per-axis lengths so results can be
        reshaped with ``np.reshape(prices, grid.shape)``.

        ``vols`` draws each cell's *base* volatility from a calibrated
        :class:`~repro.market.surface.VolSurface` (any object with a
        ``vol(strike, years)`` method) instead of the spec's own
        ``volatility`` field: the surface is queried at the cell's strike
        and *bumped* time-to-expiry, so expiry roll-downs slide along the
        calibrated term structure, and ``vol_bumps`` then apply as relative
        shocks on top of the surface value (``surface.vol(K, T)·(1+b)``; an
        unbumped axis reproduces ``surface.vol(K, T)`` exactly).  The
        surface vol actually applied is recorded in the cell label under
        ``"surface_vol"``.
        """
        if isinstance(specs, OptionSpec):
            specs = [specs]
        if not specs:
            raise ValidationError("cartesian grid needs at least one base spec")
        for name, axis in (
            ("spot_bumps", spot_bumps),
            ("vol_bumps", vol_bumps),
            ("rate_bumps", rate_bumps),
            ("expiry_bumps", expiry_bumps),
        ):
            if len(axis) == 0:
                raise ValidationError(
                    f"{name} must contain at least one bump (use (0.0,) "
                    "for an unbumped axis)"
                )
        for b in spot_bumps:
            if b <= -1.0:
                raise ValidationError(f"spot bump {b} drives the spot <= 0")
        for b in vol_bumps:
            if b <= -1.0:
                raise ValidationError(f"vol bump {b} drives the volatility <= 0")
        if vols is not None and not callable(getattr(vols, "vol", None)):
            raise ValidationError(
                "vols must expose a vol(strike, years) method "
                "(e.g. repro.market.surface.VolSurface)"
            )

        cells: list[ScenarioCell] = []
        for s_i, base in enumerate(specs):
            for db in expiry_bumps:
                if base.expiry_days + db <= 0.0:
                    raise ValidationError(
                        f"expiry bump {db} drives expiry_days "
                        f"{base.expiry_days} non-positive"
                    )
            for bs in spot_bumps:
                for bv in vol_bumps:
                    for br in rate_bumps:
                        for db in expiry_bumps:
                            rate = max(base.rate + br, 0.0)
                            expiry_days = base.expiry_days + db
                            labels = {
                                "spec": s_i,
                                "spot": bs,
                                "vol": bv,
                                "rate": rate - base.rate,
                                "expiry": db,
                            }
                            base_vol = base.volatility
                            if vols is not None:
                                base_vol = vols.vol(
                                    base.strike, expiry_days / base.day_count
                                )
                                labels["surface_vol"] = base_vol
                            spec = dataclasses.replace(
                                base,
                                spot=base.spot * (1.0 + bs),
                                volatility=base_vol * (1.0 + bv),
                                rate=rate,
                                expiry_days=expiry_days,
                            )
                            cells.append(
                                ScenarioCell(
                                    index=len(cells),
                                    spec=spec,
                                    labels=labels,
                                )
                            )
        shape = (
            len(specs),
            len(spot_bumps),
            len(vol_bumps),
            len(rate_bumps),
            len(expiry_bumps),
        )
        return cls(cells=tuple(cells), shape=shape)
