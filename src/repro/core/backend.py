"""Pricer backends: one protocol over every way this library prices.

A :class:`PricerBackend` is a named, registered strategy for answering
``price_spec`` / ``price_batch`` calls.  The abstraction exists so the
layers above the solvers — :mod:`repro.core.api`, the scenario engine and
the quote service — can route a request to *any* pricer without knowing
its internals, and so approximate/exact tiering is expressible at all:

``"lattice"``
    The paper's solvers: the nonlinear-stencil recursions and the Θ(T²)
    baselines.  ``tolerance == 0.0`` — this backend *defines* exactness.
    Its ``price_spec`` and ``price_batch`` are the B = 1 and batch calls
    of the one lattice dispatcher in :mod:`repro.core.api`, which
    :func:`~repro.core.api.price_american` and
    :func:`~repro.core.api.price_many` reach through this registry.
``"spectral"``
    The Chebyshev-collocation fast pricer (:mod:`repro.core.spectral`):
    near-O(n) per solve, a stated non-zero ``tolerance``, no divider.

Capability flags let a router decide *before* dispatch whether a backend
can serve a request shape:

``supports_boundary``
    ``price_spec(return_boundary=True)`` records the exercise divider.
``supports_divider``
    results can carry divider data at all (dense or sparse).

Registration is lazy: :func:`get_backend` imports the module that owns a
known name on first use, so ``repro.core.backend`` itself imports no
solver code (the api module imports *us*, not the reverse) and worker
processes resolve names without any setup call.
"""

from __future__ import annotations

import importlib
import threading
from typing import Optional, Protocol, Sequence, runtime_checkable

from repro.util.validation import ValidationError

#: name -> owning module, for lazy first-use registration.  The module's
#: import side effect must call :func:`register_backend`.
_LAZY_MODULES = {
    "lattice": "repro.core.api",
    "spectral": "repro.core.spectral",
}

_REGISTRY: dict = {}
_REGISTRY_LOCK = threading.Lock()


@runtime_checkable
class PricerBackend(Protocol):
    """What every pricing backend exposes (structural; no inheritance needed).

    Attributes
    ----------
    name:
        Registry name (``"lattice"``, ``"spectral"``, …).
    tolerance:
        Stated worst-case *relative* price error versus the exact lattice
        answer at the same ``steps`` (``0.0`` = exact).  Served quotes
        surface it as ``meta["tolerance"]`` so a consumer can decide
        whether an approximate tier is acceptable.
    supports_boundary / supports_divider:
        Capability flags (module docstring).
    """

    name: str
    tolerance: float
    supports_boundary: bool
    supports_divider: bool

    def price_spec(
        self,
        spec,
        steps: int,
        *,
        model: str = "binomial",
        method: str = "fft",
        base: Optional[int] = None,
        lam: Optional[float] = None,
        policy=None,
        engine=None,
        return_boundary: bool = False,
    ):  # -> PricingResult
        """Price one contract; must stamp ``meta["backend"] = self.name``."""
        ...

    def price_batch(
        self,
        specs: Sequence,
        steps: int,
        *,
        model: str = "binomial",
        method: str = "fft",
        base: Optional[int] = None,
        lam: Optional[float] = None,
        policy=None,
        engine=None,
    ) -> list:
        """Price a batch in input order; every result stamped like
        :meth:`price_spec`'s."""
        ...


def register_backend(backend: PricerBackend) -> PricerBackend:
    """Register ``backend`` under ``backend.name`` (last registration wins,
    so tests can shadow a name with a fake and restore the original)."""
    name = getattr(backend, "name", None)
    if not name or not isinstance(name, str):
        raise ValidationError(
            "a pricer backend must carry a non-empty string 'name'"
        )
    with _REGISTRY_LOCK:
        _REGISTRY[name] = backend
    return backend


def get_backend(name: str) -> PricerBackend:
    """The registered backend for ``name``; lazily imports the owning
    module for the built-in names, raises :class:`ValidationError` for
    unknown ones."""
    backend = _REGISTRY.get(name)
    if backend is not None:
        return backend
    module = _LAZY_MODULES.get(name)
    if module is not None:
        importlib.import_module(module)
        backend = _REGISTRY.get(name)
        if backend is not None:
            return backend
    raise ValidationError(
        f"unknown pricer backend {name!r}; choose one of {backend_names()}"
    )


def backend_names() -> tuple:
    """Every resolvable backend name (registered or lazily importable)."""
    with _REGISTRY_LOCK:
        names = set(_REGISTRY)
    names.update(_LAZY_MODULES)
    return tuple(sorted(names))
